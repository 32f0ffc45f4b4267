// Pre-split document paths for the query subsystem.
//
// Every read-path component used to re-split dot paths ("a.b.0.c") on each
// lookup — per record, per field — allocating a fresh segment string each
// step. A PathRef is the split done once: an interned sequence of segments,
// each carrying its raw key text and (when the segment is all digits) the
// parsed array index, so lookups over a compiled query or a maintained
// index never touch the parser again.
//
// Semantics are identical to db::lookup_path (which now routes through the
// same walk): at each segment, an object containing the key descends into
// it; otherwise an array with a valid numeric segment descends by index;
// anything else resolves to nullptr.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"

namespace gptc::db::query {

/// A non-empty all-digit segment of at most 9 characters is an array
/// index; anything longer than any realistic array is rejected before it
/// can overflow.
std::optional<std::size_t> parse_array_index(std::string_view key);

class PathRef {
 public:
  struct Segment {
    std::string key;            // raw segment text ("mb", "0")
    std::size_t index = 0;      // parsed value when indexable
    bool indexable = false;     // all-digit segment usable on arrays
  };

  PathRef() = default;

  /// Splits once. "grid.0.x" becomes three segments; "0" is marked
  /// indexable so it can step through an array.
  static PathRef parse(std::string_view path);

  const std::string& text() const { return text_; }
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  std::string text_;               // the original dotted path
  std::vector<Segment> segments_;  // pre-split, in order
};

/// Resolves a pre-split path against a document. Returns nullptr if any
/// step is missing, out of bounds, or applied to a non-container — the
/// exact contract of db::lookup_path on the equivalent dotted string.
const json::Json* lookup(const json::Json& document, const PathRef& path);

/// Resolves a dotted path without pre-splitting, walking string_view
/// segments in place (no allocation; Json::Object::find takes a
/// string_view). db::lookup_path delegates
/// here, so every caller shares the allocation-free core.
const json::Json* lookup(const json::Json& document, std::string_view path);

}  // namespace gptc::db::query
