// Ordered secondary indexes over document dot-paths.
//
// An OrderedIndex maps the scalar value found at one dot-path (via the
// query layer's pre-split path walk, so "tuning_parameters.grid.0" works)
// to the sorted list of document ids holding that value. The map is std::map — iteration
// order is deterministic, which keeps the index lint-clean under gptc-lint
// R2 and lets candidate lists come out in a reproducible order.
//
// The planner contract is *superset semantics*: candidates(condition)
// returns a sorted id list guaranteed to contain every document that could
// match the condition at this path, or nullopt when the index cannot serve
// it (non-scalar operand, unsupported operator, or a `$exists: false` that
// can match documents absent from the index). The caller always re-runs the
// full match predicate over the candidates, so the index only ever narrows
// work, never changes results — no read (count()/exists() included) is
// answered from the index alone. Documents whose value at the path is missing
// or non-scalar (array/object) are not indexed — they cannot match any
// scalar $eq/$in/range condition, so skipping them is sound.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "db/query/path.hpp"
#include "json/json.hpp"

namespace gptc::db::engine {

/// Totally ordered key over indexable scalars. Ints and doubles share one
/// numeric rank and compare by value, so a query for 2 finds a stored 2.0 —
/// the same cross-type equality the match engine implements.
struct IndexKey {
  enum class Rank : std::uint8_t { Null = 0, Bool = 1, Number = 2, String = 3 };

  Rank rank = Rank::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  /// nullopt for arrays/objects (not indexable).
  static std::optional<IndexKey> from_json(const json::Json& v);

  bool operator<(const IndexKey& other) const;
};

class OrderedIndex {
 public:
  /// The dot-path is split once at construction; add/erase walk the
  /// pre-split segments (no per-document path parsing).
  explicit OrderedIndex(std::string path)
      : path_(query::PathRef::parse(path)) {}

  const std::string& path() const { return path_.text(); }

  /// Incremental maintenance: called with the document *as stored* (insert
  /// after the value exists, erase before it changes or the doc goes away).
  void add(const json::Json& doc, std::int64_t id);
  void erase(const json::Json& doc, std::int64_t id);
  void clear() { postings_.clear(); }

  /// Sorted candidate ids for one query condition (the value side of
  /// `{path: condition}`): a scalar for direct equality, or an operator
  /// object. nullopt = index unusable for this condition, fall back to scan.
  std::optional<std::vector<std::int64_t>> candidates(
      const json::Json& condition) const;

  /// Number of ids candidates(condition) would return — the summed sizes of
  /// the same selected posting lists, without materializing the id vector.
  /// nullopt exactly when candidates() is, so the planner can rank every
  /// usable index by selectivity and materialize only the winners.
  std::optional<std::size_t> estimate(const json::Json& condition) const;

 private:
  /// The one posting-list selector behind candidates() and estimate(): every
  /// decision mapping a condition to posting lists lives here. Returns
  /// false when the index cannot serve `condition`; otherwise calls
  /// `fn(ids)` on each selected list in key order. Lists are disjoint
  /// across keys (one scalar per document per path) and each key is
  /// selected at most once, so the selected ids form a set.
  template <typename Fn>
  bool select_lists(const json::Json& condition, Fn&& fn) const;

  query::PathRef path_;
  std::map<IndexKey, std::vector<std::int64_t>> postings_;
};

}  // namespace gptc::db::engine
