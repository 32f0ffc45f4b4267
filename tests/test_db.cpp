#include "db/document_store.hpp"

#include <gtest/gtest.h>

#include "collection_reads.hpp"
#include "env_shards.hpp"

namespace gptc::db {
namespace {

using json::Json;

Json doc(const std::string& text) { return Json::parse(text); }

class CollectionTest : public ::testing::Test {
 protected:
  CollectionTest() : c_("samples", env_shards()) {
    c_.insert(doc(R"({"name":"a","value":1,"nested":{"x":10}})"));
    c_.insert(doc(R"({"name":"b","value":2,"nested":{"x":20}})"));
    c_.insert(doc(R"({"name":"c","value":3,"tags":["fast"]})"));
  }
  Collection c_;
};

TEST_F(CollectionTest, InsertAssignsSequentialIds) {
  EXPECT_EQ(c_.size(), 3u);
  EXPECT_EQ(c_.find(Json::object())[0].at("_id").as_int(), 1);
  EXPECT_EQ(c_.find(Json::object())[2].at("_id").as_int(), 3);
}

TEST_F(CollectionTest, InsertRejectsNonObject) {
  EXPECT_THROW(c_.insert(Json(5)), json::JsonError);
}

TEST_F(CollectionTest, EqualityMatch) {
  EXPECT_EQ(c_.find(doc(R"({"name":"b"})")).size(), 1u);
  EXPECT_EQ(c_.find(doc(R"({"name":"zz"})")).size(), 0u);
  EXPECT_EQ(c_.find(doc(R"({})")).size(), 3u);  // empty query matches all
}

TEST_F(CollectionTest, DotPathMatch) {
  const auto r = c_.find(doc(R"({"nested.x":20})"));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].at("name").as_string(), "b");
}

TEST_F(CollectionTest, RangeOperators) {
  EXPECT_EQ(c_.count(doc(R"({"value":{"$gte":2}})")), 2u);
  EXPECT_EQ(c_.count(doc(R"({"value":{"$gt":2}})")), 1u);
  EXPECT_EQ(c_.count(doc(R"({"value":{"$lt":2}})")), 1u);
  EXPECT_EQ(c_.count(doc(R"({"value":{"$lte":2}})")), 2u);
  EXPECT_EQ(c_.count(doc(R"({"value":{"$gte":1,"$lt":3}})")), 2u);
  EXPECT_EQ(c_.count(doc(R"({"value":{"$ne":2}})")), 2u);
}

TEST_F(CollectionTest, InNinExists) {
  EXPECT_EQ(c_.count(doc(R"({"name":{"$in":["a","c"]}})")), 2u);
  EXPECT_EQ(c_.count(doc(R"({"name":{"$nin":["a","c"]}})")), 1u);
  EXPECT_EQ(c_.count(doc(R"({"tags":{"$exists":true}})")), 1u);
  EXPECT_EQ(c_.count(doc(R"({"tags":{"$exists":false}})")), 2u);
}

TEST_F(CollectionTest, LogicalOperators) {
  EXPECT_EQ(
      c_.count(doc(R"({"$or":[{"name":"a"},{"value":{"$gte":3}}]})")), 2u);
  EXPECT_EQ(
      c_.count(doc(R"({"$and":[{"value":{"$gte":2}},{"value":{"$lt":3}}]})")),
      1u);
  EXPECT_EQ(c_.count(doc(R"({"$not":{"name":"a"}})")), 2u);
}

TEST_F(CollectionTest, StringOrderingOperators) {
  EXPECT_EQ(c_.count(doc(R"({"name":{"$gte":"b"}})")), 2u);
  // Mixed-type ordering comparisons never match.
  EXPECT_EQ(c_.count(doc(R"({"name":{"$gte":5}})")), 0u);
}

TEST_F(CollectionTest, UnknownOperatorThrows) {
  EXPECT_THROW(c_.count(doc(R"({"value":{"$regex":"x"}})")), json::JsonError);
}

TEST_F(CollectionTest, FindOneAndMissing) {
  EXPECT_EQ(first_match(c_, doc(R"({"value":3})")).at("name").as_string(), "c");
  EXPECT_TRUE(first_match(c_, doc(R"({"value":99})")).is_null());
}

TEST_F(CollectionTest, Remove) {
  EXPECT_EQ(c_.remove(doc(R"({"value":{"$lte":2}})")), 2u);
  EXPECT_EQ(c_.size(), 1u);
  EXPECT_EQ(c_.find(Json::object())[0].at("name").as_string(), "c");
}

TEST_F(CollectionTest, UpdateOverwritesFieldsButNotId) {
  EXPECT_EQ(c_.update(doc(R"({"name":"a"})"),
                      doc(R"({"value":42,"_id":999})")),
            1u);
  const Json a = first_match(c_, doc(R"({"name":"a"})"));
  EXPECT_EQ(a.at("value").as_int(), 42);
  EXPECT_EQ(a.at("_id").as_int(), 1);
}

TEST_F(CollectionTest, NumericCrossTypeEqualityInQueries) {
  c_.insert(doc(R"({"name":"d","value":2.0})"));
  EXPECT_EQ(c_.count(doc(R"({"value":2})")), 2u);  // int 2 and double 2.0
}

TEST(LookupPath, Behaviour) {
  const Json d = doc(R"({"a":{"b":{"c":5}},"x":1})");
  ASSERT_NE(lookup_path(d, "a.b.c"), nullptr);
  EXPECT_EQ(lookup_path(d, "a.b.c")->as_int(), 5);
  EXPECT_EQ(lookup_path(d, "a.b.z"), nullptr);
  EXPECT_EQ(lookup_path(d, "x.y"), nullptr);  // x is not an object
  EXPECT_EQ(lookup_path(d, "x")->as_int(), 1);
}

TEST(DocumentStoreTest, CollectionsCreatedOnDemand) {
  DocumentStore store;
  EXPECT_EQ(store.find_collection("foo"), nullptr);
  store.collection("foo").insert(doc(R"({"k":1})"));
  ASSERT_NE(store.find_collection("foo"), nullptr);
  EXPECT_EQ(store.find_collection("foo")->size(), 1u);
  EXPECT_EQ(store.collection_names().size(), 1u);
}

// ---------------------------------------------------------------------------
// count()/exists() are visit() wrappers: on an indexed collection (the
// planner narrows candidates) and a plain one (full scan) they must agree
// with each other and with find(), whether the index selects exactly the
// matches, only a superset, or nothing at all.

class CountExistsParity : public ::testing::Test {
 protected:
  CountExistsParity()
      : indexed_("i", env_shards()), plain_("p", env_shards()) {
    indexed_.create_index("k");
    indexed_.create_index("s");
    for (int i = 0; i < 20; ++i) {
      Json d = Json::object();
      d["k"] = static_cast<std::int64_t>(i % 5);
      d["s"] = "s" + std::to_string(i % 3);
      d["v"] = static_cast<std::int64_t>(i);
      Json d2 = d;
      indexed_.insert(std::move(d));
      plain_.insert(std::move(d2));
    }
  }

  void check(const std::string& query) {
    const Json q = doc(query);
    EXPECT_EQ(indexed_.count(q), plain_.count(q)) << query;
    EXPECT_EQ(indexed_.exists(q), plain_.exists(q)) << query;
    EXPECT_EQ(indexed_.count(q), indexed_.find(q).size()) << query;
    EXPECT_EQ(indexed_.exists(q), !indexed_.find(q).empty()) << query;
  }

  Collection indexed_;
  Collection plain_;
};

TEST_F(CountExistsParity, ExactlyIndexServableQueries) {
  // Single indexed field, single operator: the selected posting lists are
  // exactly the matches.
  check(R"({"k":2})");
  check(R"({"k":99})");
  check(R"({"k":{"$eq":3}})");
  check(R"({"k":{"$gt":2}})");
  check(R"({"k":{"$gte":2}})");
  check(R"({"k":{"$lt":2}})");
  check(R"({"k":{"$lte":0}})");
  check(R"({"k":{"$in":[1,3,99]}})");
  check(R"({"k":{"$in":[]}})");
  check(R"({"s":"s1"})");
}

TEST_F(CountExistsParity, FallbackQueries) {
  // Multi-operator, multi-field, negations, unindexed paths, logical
  // combinators: the index selects a superset or nothing, and the re-check
  // or full scan must still agree.
  check(R"({})");
  check(R"({"k":{"$gte":1,"$lt":3}})");
  check(R"({"k":{"$ne":2}})");
  check(R"({"k":2,"s":"s1"})");
  check(R"({"v":{"$gte":10}})");
  check(R"({"$or":[{"k":1},{"s":"s2"}]})");
  check(R"({"$not":{"k":2}})");
  check(R"({"k":{"$exists":true}})");
}

TEST_F(CountExistsParity, ParityHoldsAfterMutations) {
  indexed_.remove(doc(R"({"k":2})"));
  plain_.remove(doc(R"({"k":2})"));
  indexed_.update(doc(R"({"k":3})"), doc(R"({"k":4})"));
  plain_.update(doc(R"({"k":3})"), doc(R"({"k":4})"));
  check(R"({"k":2})");
  check(R"({"k":3})");
  check(R"({"k":4})");
  check(R"({"k":{"$gte":3}})");
}

// ---------------------------------------------------------------------------
// Sharded in-memory collections: the split is invisible at the API.

TEST(ShardedCollection, QueriesMergeInInsertionOrder) {
  Collection sharded("t", 4);
  Collection flat("t");
  for (int i = 0; i < 17; ++i) {
    Json d = Json::object();
    d["k"] = static_cast<std::int64_t>(i % 4);
    Json d2 = d;
    sharded.insert(std::move(d));
    flat.insert(std::move(d2));
  }
  EXPECT_EQ(sharded.shard_count(), 4u);
  EXPECT_EQ(sharded.size(), flat.size());
  EXPECT_EQ(sharded.to_json().dump(), flat.to_json().dump());
  const Json q = doc(R"({"k":{"$gte":2}})");
  const auto a = sharded.find(q);
  const auto b = flat.find(q);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].dump(), b[i].dump());
  EXPECT_EQ(first_match(sharded, q).dump(), first_match(flat, q).dump());
  EXPECT_EQ(sharded.count(q), flat.count(q));
}

TEST(ShardedCollection, MutationsSpanShardsInvisibly) {
  Collection sharded("t", 4);
  Collection flat("t");
  for (Collection* c : {&sharded, &flat}) {
    for (int i = 0; i < 12; ++i) {
      Json d = Json::object();
      d["k"] = static_cast<std::int64_t>(i % 3);
      c->insert(std::move(d));
    }
    // Cross-shard update and remove behave exactly like the flat store.
    EXPECT_EQ(c->update(doc(R"({"k":1})"), doc(R"({"touched":true})")), 4u);
    EXPECT_EQ(c->remove(doc(R"({"k":2})")), 4u);
    // A batch whose documents hash across shards is still atomic and
    // contiguous in id space.
    const auto batch = c->insert_batch(
        {doc(R"({"k":9})"), doc(R"({"k":9})"), doc(R"({"k":9})")});
    EXPECT_EQ(batch.ids.size(), 3u);
    EXPECT_EQ(batch.ids[2], batch.ids[0] + 2);
  }
  EXPECT_EQ(sharded.to_json().dump(), flat.to_json().dump());
}

TEST(ShardedCollection, IndexedQueriesAgreeAcrossShardCounts) {
  Collection sharded("t", 3);
  Collection flat("t");
  sharded.create_index("k");
  flat.create_index("k");
  for (int i = 0; i < 15; ++i) {
    Json d = Json::object();
    d["k"] = static_cast<std::int64_t>(i % 5);
    Json d2 = d;
    sharded.insert(std::move(d));
    flat.insert(std::move(d2));
  }
  for (const char* query :
       {R"({"k":2})", R"({"k":{"$gte":3}})", R"({"k":{"$in":[0,4]}})"}) {
    const Json q = doc(query);
    const auto a = sharded.find(q);
    const auto b = flat.find(q);
    ASSERT_EQ(a.size(), b.size()) << query;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i].dump(), b[i].dump()) << query;
    EXPECT_EQ(sharded.count(q), flat.count(q)) << query;
    EXPECT_EQ(sharded.exists(q), flat.exists(q)) << query;
  }
}

}  // namespace
}  // namespace gptc::db
