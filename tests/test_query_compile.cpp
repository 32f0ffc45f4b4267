// Differential and property tests for the compiled query subsystem
// (src/db/query).
//
// The compiler (CompiledQuery) must agree decision-for-decision with the
// oracle::matches() reference interpreter (query_oracle.hpp) — the
// randomized sweep here drives both over the same documents and queries,
// covering missing paths, cross-type comparisons, numeric array segments,
// and $in duplicate keys. On top of
// that: shard-count invariance (find() dumps are byte-identical at any
// shard count, indexed or not), planner behaviour via Collection::explain
// (narrowest index first, intersection, full-scan fallback), throw parity
// between compile() and the interpreter, the compile-before-WAL-log
// guarantee (a malformed mutation query must not poison the WAL), and the
// per-problem parameter indexes SharedRepo declares and re-declares.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "crowd/repo.hpp"
#include "collection_reads.hpp"
#include "db/document_store.hpp"
#include "db/query/planner.hpp"
#include "db/query/program.hpp"
#include "query_oracle.hpp"

namespace gptc::db {
namespace {

namespace fs = std::filesystem;
using json::Json;
using query::CompiledQuery;

Json doc(const std::string& text) { return Json::parse(text); }

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Randomized differential sweep: CompiledQuery::eval vs. matches()

/// Scalar pool shared by documents and query operands — includes values
/// that collide across types (2 vs 2.0 vs "2") and values absent from
/// every document.
Json random_scalar(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return Json(static_cast<std::int64_t>(rng() % 5));
    case 1: return Json(0.5 + static_cast<double>(rng() % 4));
    case 2: return Json(2.0);  // equal to int 2 across types
    case 3: return Json(std::string(1, static_cast<char>('x' + rng() % 3)));
    case 4: return Json(rng() % 2 == 0);
    case 5: return Json(nullptr);
    case 6: return Json(static_cast<std::int64_t>(100 + rng() % 3));
    default: return Json("zz");
  }
}

/// Documents exercise every lookup shape: scalars, nested objects, arrays
/// addressed by numeric segments, and fields that are often missing.
Json random_document(std::mt19937_64& rng) {
  Json d = Json::object();
  for (const char* key : {"a", "b", "k", "s"}) {
    if (rng() % 4 != 0) d[key] = random_scalar(rng);  // sometimes missing
  }
  if (rng() % 2 == 0) {
    Json arr = Json::array();
    const std::size_t n = rng() % 4;
    for (std::size_t i = 0; i < n; ++i) {
      arr.as_array().push_back(random_scalar(rng));
    }
    d["arr"] = std::move(arr);
  }
  if (rng() % 2 == 0) {
    Json nested = Json::object();
    nested["x"] = random_scalar(rng);
    if (rng() % 2 == 0) nested["c"] = random_scalar(rng);
    d["nested"] = std::move(nested);
  }
  return d;
}

const char* random_path(std::mt19937_64& rng) {
  static const char* kPaths[] = {
      "a",      "b",        "k",        "s",           "arr.0",
      "arr.1",  "arr.5",    "nested.x", "nested.c",    "missing",
      "a.deep", "nested.x.too_deep",    "missing.deep"};
  return kPaths[rng() % (sizeof(kPaths) / sizeof(kPaths[0]))];
}

/// One field condition: bare-equality scalar or a well-formed operator
/// object (the forms matches() accepts without throwing — throw parity for
/// malformed ones is covered separately below).
Json random_condition(std::mt19937_64& rng) {
  if (rng() % 3 == 0) return random_scalar(rng);  // bare equality
  Json ops = Json::object();
  const std::size_t n = 1 + rng() % 2;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: ops["$eq"] = random_scalar(rng); break;
      case 1: ops["$ne"] = random_scalar(rng); break;
      case 2: ops["$gt"] = random_scalar(rng); break;
      case 3: ops["$gte"] = random_scalar(rng); break;
      case 4: ops["$lt"] = random_scalar(rng); break;
      case 5: ops["$lte"] = random_scalar(rng); break;
      case 6: {
        Json arr = Json::array();
        const std::size_t m = rng() % 4;
        for (std::size_t j = 0; j < m; ++j) {
          arr.as_array().push_back(random_scalar(rng));
        }
        ops[rng() % 2 == 0 ? "$in" : "$nin"] = std::move(arr);
        break;
      }
      default: ops["$exists"] = rng() % 2 == 0; break;
    }
  }
  return ops;
}

Json random_query(std::mt19937_64& rng, int depth = 0) {
  Json q = Json::object();
  const std::size_t fields = rng() % 3;
  for (std::size_t i = 0; i < fields; ++i) {
    q[random_path(rng)] = random_condition(rng);
  }
  if (depth < 2 && rng() % 4 == 0) {
    Json arr = Json::array();
    const std::size_t n = rng() % 3;  // empty $or => false is covered
    for (std::size_t i = 0; i < n; ++i) {
      arr.as_array().push_back(random_query(rng, depth + 1));
    }
    q[rng() % 2 == 0 ? "$and" : "$or"] = std::move(arr);
  }
  if (depth < 2 && rng() % 6 == 0) {
    q["$not"] = random_query(rng, depth + 1);
  }
  return q;
}

TEST(CompiledQueryDifferential, RandomizedAgreesWithInterpreter) {
  std::mt19937_64 rng(0xC0FFEE0DDBA11ULL);
  std::size_t checked = 0;
  for (int round = 0; round < 400; ++round) {
    const Json q = random_query(rng);
    const CompiledQuery cq = CompiledQuery::compile(q);
    for (int i = 0; i < 16; ++i) {
      const Json d = random_document(rng);
      ASSERT_EQ(cq.eval(d), oracle::matches(d, q))
          << "query=" << q.dump() << " doc=" << d.dump();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 6400u);
}

TEST(CompiledQueryDifferential, TargetedEdgeCases) {
  const struct {
    const char* query;
    const char* document;
  } cases[] = {
      // Missing paths: bare equality, ranges, $exists both ways.
      {R"({"missing":1})", R"({"a":1})"},
      {R"({"missing":{"$exists":false}})", R"({"a":1})"},
      {R"({"missing":{"$exists":false,"$gt":3}})", R"({"a":1})"},
      {R"({"a":{"$exists":true}})", R"({"a":null})"},
      // Type mismatches: compare_lt is false across types; $gte/$lte keep
      // only the string-ness test when the operand is neither.
      {R"({"a":{"$gt":"m"}})", R"({"a":5})"},
      {R"({"a":{"$lt":5}})", R"({"a":"m"})"},
      {R"({"a":{"$gte":true}})", R"({"a":"m"})"},
      {R"({"a":{"$gte":true}})", R"({"a":5})"},
      {R"({"a":{"$lte":null}})", R"({"a":"x"})"},
      {R"({"a":{"$gt":true}})", R"({"a":true})"},
      // Cross-type numeric equality.
      {R"({"a":2})", R"({"a":2.0})"},
      {R"({"a":{"$in":[2,2.0]}})", R"({"a":2})"},
      {R"({"a":{"$in":[2,2.0,2]}})", R"({"a":2.0})"},
      {R"({"a":{"$nin":[2,2.0]}})", R"({"a":2})"},
      // Numeric array segments (and out-of-range / non-array steps).
      {R"({"arr.1":"y"})", R"({"arr":["x","y"]})"},
      {R"({"arr.2":{"$exists":false}})", R"({"arr":["x","y"]})"},
      {R"({"arr.0.x":1})", R"({"arr":[{"x":1}]})"},
      {R"({"a.0":1})", R"({"a":5})"},
      // Object-valued bare equality (no $-keys => literal comparison).
      {R"({"nested":{"x":1}})", R"({"nested":{"x":1}})"},
      {R"({"nested":{"x":1}})", R"({"nested":{"x":1,"y":2}})"},
      // Conjunction/disjunction structure, including empty $or.
      {R"({"$or":[]})", R"({"a":1})"},
      {R"({"$and":[]})", R"({"a":1})"},
      {R"({"$or":[{"a":1},{"b":2}]})", R"({"b":2})"},
      {R"({"$not":{"a":1}})", R"({"a":1})"},
      {R"({"$and":[{"a":{"$gte":1}},{"a":{"$lt":3}}]})", R"({"a":2})"},
      {R"({})", R"({"a":1})"},
  };
  for (const auto& c : cases) {
    const Json q = doc(c.query);
    const Json d = doc(c.document);
    const CompiledQuery cq = CompiledQuery::compile(q);
    EXPECT_EQ(cq.eval(d), oracle::matches(d, q))
        << "query=" << c.query << " doc=" << c.document;
  }
}

TEST(CompiledQuery, ThrowParityWithInterpreter) {
  const Json d = doc(R"({"a":1})");
  for (const char* text :
       {R"({"a":{"$bogus":1}})",      // unknown operator
        R"({"a":{"$in":3}})",         // $in needs an array
        R"({"a":{"$nin":"x"}})",      // $nin needs an array
        R"({"$not":5})",              // $not needs an object
        R"({"$and":3})",              // $and needs an array
        R"({"a":{"$exists":"y"}})"})  // $exists needs a bool
  {
    const Json q = doc(text);
    EXPECT_THROW(CompiledQuery::compile(q), json::JsonError) << text;
    EXPECT_THROW(oracle::matches(d, q), json::JsonError) << text;
  }
}

// ---------------------------------------------------------------------------
// Shard-count invariance

TEST(CompiledShardInvariance, FindsAreByteIdenticalAcrossShardCounts) {
  std::mt19937_64 rng(0x5EED5EEDULL);
  std::vector<Json> docs;
  for (int i = 0; i < 60; ++i) docs.push_back(random_document(rng));
  std::vector<Json> queries;
  for (int i = 0; i < 40; ++i) queries.push_back(random_query(rng));

  Collection flat("t");
  for (const Json& d : docs) flat.insert(Json(d));

  for (const std::size_t shards : {std::size_t{2}, std::size_t{3},
                                   std::size_t{8}}) {
    Collection sharded("t", shards);
    sharded.create_index("a");
    sharded.create_index("nested.x");
    for (const Json& d : docs) sharded.insert(Json(d));
    for (const Json& q : queries) {
      const auto a = sharded.find(q);
      const auto b = flat.find(q);
      ASSERT_EQ(a.size(), b.size()) << "shards=" << shards << " " << q.dump();
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].dump(), b[i].dump())
            << "shards=" << shards << " " << q.dump();
      }
      EXPECT_EQ(sharded.count(q), flat.count(q)) << q.dump();
      EXPECT_EQ(sharded.exists(q), flat.exists(q)) << q.dump();
    }
  }
}

// ---------------------------------------------------------------------------
// Collection::visit — the one read primitive

/// A collection at `shards` shards (indexed on "a", "k" and "nested.x" when
/// `indexed`) holding `docs`, plus the oracle's view of it: every stored
/// document, with its assigned _id, in insertion order. Every fifth
/// document is removed again and every seventh updated, so the shards hold
/// id gaps and re-indexed documents.
struct VisitFixture {
  Collection c;
  std::vector<Json> stored;

  VisitFixture(const std::vector<Json>& docs, std::size_t shards,
               bool indexed)
      : c("t", shards) {
    if (indexed) {
      c.create_index("a");
      c.create_index("k");
      c.create_index("nested.x");
    }
    for (const Json& d : docs) {
      Json with_id = d;
      with_id["_id"] = c.insert(Json(d));
      stored.push_back(std::move(with_id));
    }
    for (auto it = stored.begin(); it != stored.end();) {
      const std::int64_t id = it->at("_id").as_int();
      Json by_id = Json::object();
      by_id["_id"] = id;
      if (id % 5 == 0) {
        c.remove(by_id);
        it = stored.erase(it);
        continue;
      }
      if (id % 7 == 0) {
        Json upd = Json::object();
        upd["k"] = Json(static_cast<std::int64_t>(100 + id % 3));
        c.update(by_id, upd);
        (*it)["k"] = upd.at("k");
      }
      ++it;
    }
  }

  std::vector<std::string> oracle_dumps(const Json& q) const {
    std::vector<std::string> out;
    for (const Json& d : stored)
      if (oracle::matches(d, q)) out.push_back(d.dump());
    return out;
  }
};

constexpr std::size_t kVisitShardCounts[] = {1, 2, 3, 8};

TEST(CollectionVisit, MergesShardsInIdOrder) {
  std::mt19937_64 rng(0x0151755EULL);
  std::vector<Json> docs;
  for (int i = 0; i < 80; ++i) docs.push_back(random_document(rng));
  std::vector<Json> queries{Json::object()};
  for (int i = 0; i < 60; ++i) queries.push_back(random_query(rng));

  for (const std::size_t shards : kVisitShardCounts) {
    for (const bool indexed : {false, true}) {
      const VisitFixture f(docs, shards, indexed);
      for (const Json& q : queries) {
        std::vector<std::string> got;
        std::int64_t last_id = 0;
        f.c.visit(q, [&](const Json& d) {
          EXPECT_GT(d.at("_id").as_int(), last_id) << "ids must ascend";
          last_id = d.at("_id").as_int();
          got.push_back(d.dump());
          return true;
        });
        EXPECT_EQ(got, f.oracle_dumps(q))
            << "shards=" << shards << " indexed=" << indexed << " "
            << q.dump();
      }
    }
  }
}

TEST(CollectionVisit, StopsWhenFnReturnsFalse) {
  std::mt19937_64 rng(0x5709ULL);
  std::vector<Json> docs;
  for (int i = 0; i < 40; ++i) docs.push_back(random_document(rng));
  std::vector<Json> queries{Json::object(), doc(R"({"k":{"$exists":true}})"),
                            doc(R"({"a":{"$in":[0,1,2,"x"]}})")};
  for (int i = 0; i < 10; ++i) queries.push_back(random_query(rng));

  for (const std::size_t shards : kVisitShardCounts) {
    for (const bool indexed : {false, true}) {
      const VisitFixture f(docs, shards, indexed);
      for (const Json& q : queries) {
        const std::vector<std::string> all = f.oracle_dumps(q);
        // Stop after the first, a middle, the last and past the last match.
        for (const std::size_t stop_after :
             {std::size_t{1}, all.size() / 2 + 1, all.size(),
              all.size() + 1}) {
          std::vector<std::string> got;
          f.c.visit(q, [&](const Json& d) {
            got.push_back(d.dump());
            return got.size() < stop_after;
          });
          const std::size_t want = std::min(stop_after, all.size());
          ASSERT_EQ(got.size(), want)
              << "shards=" << shards << " indexed=" << indexed << " "
              << q.dump();
          EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin()));
        }
      }
    }
  }
}

TEST(CollectionVisit, MalformedQueryThrowsBeforeAnyCall) {
  Collection c("t", 3);
  c.insert(doc(R"({"k":1})"));
  bool called = false;
  EXPECT_THROW(c.visit(doc(R"({"k":{"$bogus":1}})"),
                       [&](const Json&) {
                         called = true;
                         return true;
                       }),
               json::JsonError);
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------------
// Planner behaviour (via Collection::explain)

/// 64 docs: "k" splits them 2 ways (32 per key), "u" 16 ways (4 per key).
Collection planner_collection() {
  Collection c("t");
  c.create_index("k");
  c.create_index("u");
  for (std::int64_t i = 0; i < 64; ++i) {
    Json d = Json::object();
    d["k"] = i % 2;
    d["u"] = i % 16;
    d["w"] = i;
    c.insert(std::move(d));
  }
  return c;
}

TEST(Planner, PicksNarrowestIndexFirst) {
  const Collection c = planner_collection();
  const Json plan = c.explain(doc(R"({"k":1,"u":3})"));
  const auto& shards = plan.at("shards").as_array();
  ASSERT_EQ(shards.size(), 1u);
  const Json& s = shards[0];
  EXPECT_TRUE(s.at("index_scan").as_bool());
  const auto& indexes = s.at("indexes").as_array();
  ASSERT_EQ(indexes.size(), 2u);
  // Ranked narrowest-first: u (estimate 4) before k (estimate 32); the
  // narrowest is always materialized.
  EXPECT_EQ(indexes[0].at("path").as_string(), "u");
  EXPECT_EQ(indexes[0].at("estimate").as_int(), 4);
  EXPECT_TRUE(indexes[0].at("applied").as_bool());
  EXPECT_EQ(indexes[1].at("path").as_string(), "k");
  EXPECT_EQ(indexes[1].at("estimate").as_int(), 32);
  // Candidates never exceed the narrowest estimate.
  EXPECT_LE(s.at("candidates").as_int(), 4);
  // And the plan is consistent with the actual result set.
  EXPECT_EQ(c.count(doc(R"({"k":1,"u":3})")), 4u);
}

TEST(Planner, FullScanWhenNoIndexUsable) {
  const Collection c = planner_collection();
  const Json plan = c.explain(doc(R"({"w":{"$gte":60}})"));
  const Json& s = plan.at("shards").as_array()[0];
  EXPECT_FALSE(s.at("index_scan").as_bool());
  EXPECT_EQ(s.at("candidates").as_int(), 64);
  EXPECT_TRUE(s.at("indexes").as_array().empty());
}

TEST(Planner, InDuplicateKeysAreNotDoubleCounted) {
  const Collection c = planner_collection();
  // 2 and 2.0 hit the same index key; the estimate must dedup like
  // candidates() does.
  const Json plan = c.explain(doc(R"({"u":{"$in":[2,2.0]}})"));
  const Json& s = plan.at("shards").as_array()[0];
  ASSERT_TRUE(s.at("index_scan").as_bool());
  const auto& indexes = s.at("indexes").as_array();
  ASSERT_EQ(indexes.size(), 1u);
  EXPECT_EQ(indexes[0].at("estimate").as_int(), 4);
  EXPECT_EQ(s.at("candidates").as_int(), 4);
}

TEST(Planner, ExplainShape) {
  const Collection c = planner_collection();
  const Json q = doc(R"({"u":3})");
  const Json plan = c.explain(q);
  EXPECT_EQ(plan.at("query").dump(), q.dump());
  for (const Json& s : plan.at("shards").as_array()) {
    EXPECT_TRUE(s.at("shard").is_number());
    EXPECT_TRUE(s.at("shard_size").is_number());
    EXPECT_TRUE(s.at("index_scan").is_bool());
    EXPECT_TRUE(s.at("candidates").is_number());
    for (const Json& idx : s.at("indexes").as_array()) {
      EXPECT_TRUE(idx.at("path").is_string());
      EXPECT_TRUE(idx.at("estimate").is_number());
      EXPECT_TRUE(idx.at("applied").is_bool());
    }
  }
}

// ---------------------------------------------------------------------------
// Index selection: estimate() and candidates() are two readings of one
// posting-list selection, and the selection never drops a match.

TEST(IndexSelection, EstimateMatchesCandidatesAndCoversMatches) {
  std::mt19937_64 rng(0x1D5E1EC7ULL);
  std::vector<Json> docs;
  for (int i = 0; i < 160; ++i) docs.push_back(random_document(rng));
  // Whole arrays and objects at a path are present but never indexed.
  docs.push_back(doc(R"({"a":[2],"nested":{"x":2},"arr":[2,2.0]})"));
  docs.push_back(doc(R"({"a":{"$eq":2},"k":2.0,"s":"2"})"));

  std::vector<Json> conditions;
  for (int i = 0; i < 240; ++i) conditions.push_back(random_condition(rng));
  for (const char* text : {
           R"({"$exists":false})",
           R"({"$exists":false,"$gt":0})",
           R"({"$exists":true,"$lt":3})",
           R"({"$gte":1,"$lt":3})",
           R"({"$ne":2,"$eq":2})",
           R"({"$nin":[1],"$in":[1,2]})",
           R"({"$lte":"y","$gt":1})",
           R"({"$in":[2,2.0]})",
           R"({"$in":[2,2.0,"2",true,null,2]})",
           R"({"$in":[]})",
           R"({"$in":[[2],2]})",
           R"({"$in":[{"x":2}]})",
           R"({"$gt":"m"})",
           R"({"$gte":true})",
           R"({"$lt":null})",
           R"({"$eq":[2]})",
           R"({"$eq":{"x":2}})",
           R"({"$gt":[1]})",
           R"({"$lte":{"x":1}})",
           R"({"x":2})",
           R"([2])",
           R"({})",
           R"(2.0)",
           R"(null)",
       })
    conditions.push_back(doc(text));

  std::size_t usable = 0;
  for (const char* path : {"a", "b", "k", "s", "arr", "arr.0", "arr.5",
                           "nested", "nested.x", "missing", "a.deep"}) {
    engine::OrderedIndex idx(path);
    for (std::size_t i = 0; i < docs.size(); ++i)
      idx.add(docs[i], static_cast<std::int64_t>(3 * i + 1));
    for (const Json& cond : conditions) {
      const auto est = idx.estimate(cond);
      const auto cands = idx.candidates(cond);
      const std::string what = std::string(path) + ": " + cond.dump();
      ASSERT_EQ(est.has_value(), cands.has_value()) << what;
      if (!cands) continue;
      ++usable;
      EXPECT_EQ(*est, cands->size()) << what;
      EXPECT_TRUE(std::adjacent_find(cands->begin(), cands->end(),
                                     std::greater_equal<>()) == cands->end())
          << what;
      Json q = Json::object();
      q[path] = cond;
      for (std::size_t i = 0; i < docs.size(); ++i) {
        if (!oracle::matches(docs[i], q)) continue;
        EXPECT_TRUE(std::binary_search(cands->begin(), cands->end(),
                                       static_cast<std::int64_t>(3 * i + 1)))
            << what << " drops " << docs[i].dump();
      }
    }
  }
  EXPECT_GT(usable, 1000u);  // the sweep exercises the index, not fallbacks
}

// ---------------------------------------------------------------------------
// Compile-before-WAL-log: a malformed mutation query throws before the
// operation is logged, so it can never poison recovery.

TEST(CompiledDurability, MalformedMutationQueryDoesNotPoisonWal) {
  TempDir dir("gptc_query_compile_wal");
  {
    auto store = DocumentStore::open_durable(dir.path());
    auto& c = store.collection("samples");
    c.insert(doc(R"({"k":1,"v":"a"})"));
    c.insert(doc(R"({"k":2,"v":"b"})"));
    EXPECT_THROW(c.update(doc(R"({"k":{"$bogus":1}})"), doc(R"({"v":"x"})")),
                 json::JsonError);
    EXPECT_THROW(c.remove(doc(R"({"k":{"$in":"not-an-array"}})")),
                 json::JsonError);
    // The store stays fully usable after the rejected mutations.
    c.insert(doc(R"({"k":3,"v":"c"})"));
  }
  // Recovery replays the WAL; a poisoned frame would throw here.
  auto store = DocumentStore::open_durable(dir.path());
  ASSERT_NE(store.find_collection("samples"), nullptr);
  const auto& c = *store.find_collection("samples");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(first_match(c, doc(R"({"k":1})")).at("v").as_string(), "a");
  EXPECT_EQ(first_match(c, doc(R"({"k":3})")).at("v").as_string(), "c");
}

// ---------------------------------------------------------------------------
// Per-problem parameter indexes (SharedRepo)

crowd::EvalUpload bench_eval(std::int64_t i) {
  crowd::EvalUpload e;
  e.task_parameters = doc(R"({"m":1000,"n":1000})");
  e.tuning_parameters = Json::object();
  e.tuning_parameters["mb"] = i % 8;
  e.tuning_parameters["nb"] = i % 4;
  e.output = 1.0 + static_cast<double>(i);
  return e;
}

TEST(CrowdIndexes, PerProblemIndexesDeclaredAndRedeclaredOnReopen) {
  TempDir dir("gptc_query_compile_crowd");
  std::string key;
  {
    auto repo = crowd::SharedRepo::open_durable(dir.path());
    key = repo.register_user("alice", "alice@lab.gov");
    std::vector<crowd::EvalUpload> evals;
    for (std::int64_t i = 0; i < 32; ++i) evals.push_back(bench_eval(i));
    repo.upload_batch(key, "pdgeqrf", evals);

    // The first upload declared tuning/task parameter indexes; the planner
    // narrows below the problem partition through them.
    const Json plan = repo.explain_where(repo.authenticate_user(key).value(),
                                         "pdgeqrf", "tuning_parameters.mb = 3");
    bool saw_param_index = false;
    for (const Json& s : plan.at("shards").as_array()) {
      EXPECT_TRUE(s.at("index_scan").as_bool());
      for (const Json& idx : s.at("indexes").as_array()) {
        if (idx.at("path").as_string() == "tuning_parameters.mb") {
          saw_param_index = true;
          EXPECT_TRUE(idx.at("applied").as_bool());
        }
      }
    }
    EXPECT_TRUE(saw_param_index);
    repo.sync();
  }
  // Index definitions are in-memory: reopen must re-declare them from the
  // parameter names persisted in the problems-catalog descriptor.
  auto reopened = crowd::SharedRepo::open_durable(dir.path());
  const crowd::AuthedUser user = reopened.authenticate_user(key).value();
  const Json plan =
      reopened.explain_where(user, "pdgeqrf", "tuning_parameters.nb = 1");
  bool saw_param_index = false;
  for (const Json& s : plan.at("shards").as_array()) {
    for (const Json& idx : s.at("indexes").as_array()) {
      if (idx.at("path").as_string() == "tuning_parameters.nb") {
        saw_param_index = true;
      }
    }
  }
  EXPECT_TRUE(saw_param_index);
  // The records are still found through the re-declared indexes.
  EXPECT_EQ(
      reopened.query_where(user, "pdgeqrf", "tuning_parameters.nb = 1").size(),
      8u);
}

}  // namespace
}  // namespace gptc::db
