// Test-side reads over Collection::visit, the store's one read primitive.
#pragma once

#include "db/document_store.hpp"
#include "json/json.hpp"

namespace gptc::db {

/// A copy of the first match in insertion order, or null Json.
inline json::Json first_match(const Collection& c, const json::Json& query) {
  json::Json out;
  c.visit(query, [&](const json::Json& d) {
    out = d;
    return false;
  });
  return out;
}

}  // namespace gptc::db
