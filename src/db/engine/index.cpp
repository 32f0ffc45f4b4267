#include "db/engine/index.hpp"

#include <algorithm>
#include <limits>

namespace gptc::db::engine {

using json::Json;

std::optional<IndexKey> IndexKey::from_json(const Json& v) {
  IndexKey key;
  switch (v.type()) {
    case Json::Type::Null:
      key.rank = Rank::Null;
      return key;
    case Json::Type::Bool:
      key.rank = Rank::Bool;
      key.boolean = v.as_bool();
      return key;
    case Json::Type::Int:
    case Json::Type::Double:
      key.rank = Rank::Number;
      key.number = v.as_double();
      return key;
    case Json::Type::String:
      key.rank = Rank::String;
      key.string = v.as_string();
      return key;
    case Json::Type::Array:
    case Json::Type::Object:
      return std::nullopt;
  }
  return std::nullopt;
}

bool IndexKey::operator<(const IndexKey& other) const {
  if (rank != other.rank) return rank < other.rank;
  switch (rank) {
    case Rank::Null: return false;
    case Rank::Bool: return !boolean && other.boolean;
    case Rank::Number: return number < other.number;
    case Rank::String: return string < other.string;
  }
  return false;
}

namespace {

IndexKey rank_min(IndexKey::Rank rank) {
  IndexKey key;
  key.rank = rank;
  key.boolean = false;
  key.number = -std::numeric_limits<double>::infinity();
  key.string.clear();
  return key;
}

bool is_operator_object(const Json& j) {
  if (!j.is_object() || j.as_object().empty()) return false;
  for (const auto& [k, v] : j.as_object()) {
    (void)v;
    if (k.empty() || k[0] != '$') return false;
  }
  return true;
}

}  // namespace

void OrderedIndex::add(const Json& doc, std::int64_t id) {
  const Json* value = query::lookup(doc, path_);
  if (!value) return;
  const auto key = IndexKey::from_json(*value);
  if (!key) return;  // arrays/objects are not indexed (cannot match scalars)
  auto& ids = postings_[*key];
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

void OrderedIndex::erase(const Json& doc, std::int64_t id) {
  const Json* value = query::lookup(doc, path_);
  if (!value) return;
  const auto key = IndexKey::from_json(*value);
  if (!key) return;
  const auto it = postings_.find(*key);
  if (it == postings_.end()) return;
  std::erase(it->second, id);
  if (it->second.empty()) postings_.erase(it);
}

template <typename Fn>
bool OrderedIndex::select_lists(const Json& condition, Fn&& fn) const {
  const auto equal = [&](const IndexKey& key) {
    const auto it = postings_.find(key);
    if (it != postings_.end()) fn(it->second);
  };

  // The scalar check: IndexKey::from_json is nullopt exactly for arrays and
  // objects, which no indexed (scalar) value can equal.
  if (!is_operator_object(condition)) {
    const auto key = IndexKey::from_json(condition);
    if (!key) return false;
    equal(*key);
    return true;
  }

  const auto& ops = condition.as_object();
  // `$exists: false` can match documents missing from the index entirely —
  // the planner must not narrow such a condition.
  const auto exists_it = ops.find("$exists");
  if (exists_it != ops.end() && exists_it->second.is_bool() &&
      !exists_it->second.as_bool())
    return false;

  // All operators in one condition are conjunctive, so serving any single
  // one of them yields a superset of the true matches; the first usable op
  // (deterministic: Json::Object keeps its keys sorted) wins.
  for (const auto& [op, operand] : ops) {
    if (op == "$eq") {
      const auto key = IndexKey::from_json(operand);
      if (!key) continue;
      equal(*key);
      return true;
    }
    if (op == "$in") {
      if (!operand.is_array()) continue;
      std::vector<IndexKey> keys;
      keys.reserve(operand.as_array().size());
      for (const auto& item : operand.as_array()) {
        auto key = IndexKey::from_json(item);
        if (!key) break;
        keys.push_back(std::move(*key));
      }
      if (keys.size() != operand.as_array().size()) continue;
      // Numerically equal operands ([2, 2.0]) are one key: each distinct key
      // selects its list once, so the selected ids stay a set.
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end(),
                             [](const IndexKey& a, const IndexKey& b) {
                               return !(a < b);
                             }),
                 keys.end());
      for (const auto& key : keys) equal(key);
      return true;
    }
    if (op == "$gt" || op == "$gte" || op == "$lt" || op == "$lte") {
      // Range operators only ever match same-class values (the match
      // engine's compare_lt is false across types), and only number/string
      // operands have straightforward semantics — anything else falls back.
      if (!operand.is_number() && !operand.is_string()) continue;
      const IndexKey bound = *IndexKey::from_json(operand);
      auto it = op == "$gt"    ? postings_.upper_bound(bound)
                : op == "$gte" ? postings_.lower_bound(bound)
                               : postings_.lower_bound(rank_min(bound.rank));
      for (; it != postings_.end() && it->first.rank == bound.rank; ++it) {
        if (op == "$lt" && !(it->first < bound)) break;
        if (op == "$lte" && bound < it->first) break;
        fn(it->second);
      }
      return true;
    }
    // $ne, $nin, $exists:true, ... — not index-servable, try the next op.
  }
  return false;
}

std::optional<std::vector<std::int64_t>> OrderedIndex::candidates(
    const Json& condition) const {
  std::vector<std::int64_t> out;
  std::size_t lists = 0;
  const bool usable =
      select_lists(condition, [&](const std::vector<std::int64_t>& ids) {
        out.insert(out.end(), ids.begin(), ids.end());
        ++lists;
      });
  if (!usable) return std::nullopt;
  // Each posting list ascends; only a concatenation of several needs a sort.
  // Lists are disjoint across keys, so the result is already a set.
  if (lists > 1) std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::size_t> OrderedIndex::estimate(const Json& condition) const {
  std::size_t n = 0;
  const bool usable = select_lists(
      condition, [&n](const std::vector<std::int64_t>& ids) { n += ids.size(); });
  if (!usable) return std::nullopt;
  return n;
}

}  // namespace gptc::db::engine
