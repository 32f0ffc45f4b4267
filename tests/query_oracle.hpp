// The reference interpreter for Mongo-style match expressions — the test
// oracle the compiled query subsystem (src/db/query) is held to. The
// library itself only runs compiled programs (query::CompiledQuery); this
// tree-walking interpreter re-reads the query for every document, which
// makes it slow but obviously faithful to the operator semantics, so the
// differential sweep in test_query_compile.cpp and the WHERE-clause tests
// in test_query_language.cpp check their verdicts against it.
#pragma once

#include "db/document_store.hpp"
#include "json/json.hpp"

namespace gptc::db::oracle {

using json::Json;

inline bool compare_lt(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) return a.as_double() < b.as_double();
  if (a.is_string() && b.is_string()) return a.as_string() < b.as_string();
  return false;  // incomparable types never satisfy an ordering operator
}

inline bool in_list(const Json& value, const Json& list) {
  for (const auto& item : list.as_array())
    if (value == item) return true;
  return false;
}

/// Applies one operator object ({"$gte": 5, "$lt": 9}) to a present value.
inline bool match_operators(const Json& value, const Json& ops) {
  for (const auto& [op, operand] : ops.as_object()) {
    if (op == "$eq") {
      if (!(value == operand)) return false;
    } else if (op == "$ne") {
      if (value == operand) return false;
    } else if (op == "$gt") {
      if (!compare_lt(operand, value)) return false;
    } else if (op == "$gte") {
      if (compare_lt(value, operand)) return false;
      if (!value.is_number() && !value.is_string()) return false;
      if (value.is_number() != operand.is_number()) return false;
    } else if (op == "$lt") {
      if (!compare_lt(value, operand)) return false;
    } else if (op == "$lte") {
      if (compare_lt(operand, value)) return false;
      if (!value.is_number() && !value.is_string()) return false;
      if (value.is_number() != operand.is_number()) return false;
    } else if (op == "$in") {
      if (!in_list(value, operand)) return false;
    } else if (op == "$nin") {
      if (in_list(value, operand)) return false;
    } else if (op == "$exists") {
      // Presence already established by the caller; $exists:false fails.
      if (!operand.as_bool()) return false;
    } else {
      throw json::JsonError("unknown query operator: " + op);
    }
  }
  return true;
}

inline bool is_operator_object(const Json& j) {
  if (!j.is_object() || j.as_object().empty()) return false;
  for (const auto& [k, v] : j.as_object()) {
    (void)v;
    if (k.empty() || k[0] != '$') return false;
  }
  return true;
}

/// Evaluates a match expression against a document. Throws JsonError
/// lazily, on the first document that reaches a malformed operator.
inline bool matches(const Json& document, const Json& query) {
  if (!query.is_object())
    throw json::JsonError("query must be a JSON object");
  for (const auto& [key, condition] : query.as_object()) {
    if (key == "$and") {
      for (const auto& sub : condition.as_array())
        if (!matches(document, sub)) return false;
    } else if (key == "$or") {
      bool any = false;
      for (const auto& sub : condition.as_array())
        if (matches(document, sub)) {
          any = true;
          break;
        }
      if (!any) return false;
    } else if (key == "$not") {
      if (matches(document, condition)) return false;
    } else {
      const Json* value = lookup_path(document, key);
      if (is_operator_object(condition)) {
        if (!value) {
          // Only {$exists:false} can match a missing field.
          const auto& ops = condition.as_object();
          const auto it = ops.find("$exists");
          if (it == ops.end() || it->second.as_bool()) return false;
          continue;
        }
        if (!match_operators(*value, condition)) return false;
      } else {
        if (!value || !(*value == condition)) return false;
      }
    }
  }
  return true;
}

}  // namespace gptc::db::oracle
