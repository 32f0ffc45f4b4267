// Storage-engine tests (src/db/engine/): WAL framing and torn-tail replay,
// atomic snapshots, SipHash-2-4 reference vectors, ordered secondary
// indexes (results byte-identical to a scan), durable open / checkpoint /
// refusal of pre-engine JSON exports and of unversioned or old-format
// layouts, many-readers/one-writer concurrency, the write path (one WAL
// append per mutation, in-memory and durable stores agreeing), and the
// crash-recovery property — for every injected fault point (each
// WAL append, torn final record, before/after each snapshot rename),
// reopening the store yields query results bitwise-identical to an
// uninterrupted run's committed prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collection_reads.hpp"
#include "db/document_store.hpp"
#include "db/engine/checksum.hpp"
#include "db/engine/engine.hpp"
#include "db/engine/fault.hpp"
#include "db/engine/index.hpp"
#include "db/engine/siphash.hpp"
#include "db/engine/snapshot.hpp"
#include "db/engine/wal.hpp"
#include "env_shards.hpp"

namespace gptc::db {
namespace {

namespace fs = std::filesystem;
using engine::CrashInjected;
using engine::EngineOptions;
using engine::FaultInjector;
using engine::FaultPoint;
using json::Json;

Json doc(const std::string& text) { return Json::parse(text); }

/// Fresh scratch directory per test case.
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

std::size_t effective_shards() {
  const std::size_t s = env_shards();
  return s == 0 ? 1 : s;
}

/// Every WAL stem a store uses for `coll`: one per shard plus the engine
/// commit WAL (querying an absent WAL is harmless — seq/bytes are 0).
std::vector<std::string> wal_stems(DocumentStore& store,
                                   const std::string& coll) {
  auto* eng = store.storage_engine();
  std::vector<std::string> stems;
  for (std::size_t k = 0; k < eng->shard_count(); ++k)
    stems.push_back(
        engine::StorageEngine::shard_stem(coll, k, eng->shard_count()));
  stems.push_back(eng->commit_wal_stem());
  return stems;
}

/// Waits until every WAL's last logged sequence is durable — the upload
/// ack, fanned across shard WALs and the commit WAL.
void ack_everything(DocumentStore& store, const std::string& coll) {
  auto* eng = store.storage_engine();
  for (const auto& stem : wal_stems(store, coll))
    eng->wait_durable(stem, eng->last_logged_seq(stem));
}

/// Captures each WAL's last-fsync offset — the bytes that survive a power
/// loss at this instant.
std::map<std::string, std::uint64_t> synced_offsets(DocumentStore& store,
                                                    const std::string& coll) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& stem : wal_stems(store, coll))
    out[stem] = store.storage_engine()->wal_synced_bytes(stem);
  return out;
}

/// Models the power loss: truncates every WAL in the directory back to its
/// captured fsync offset (to zero when it was never fsynced at all).
void power_loss(const fs::path& dir,
                const std::map<std::string, std::uint64_t>& synced) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".wal") continue;
    const auto it = synced.find(e.path().stem().string());
    fs::resize_file(e.path(), it == synced.end() ? 0 : it->second);
  }
}

/// Whether any snapshot for `coll` exists, whatever the shard count
/// ("<coll>.s<k>of<n>.snapshot").
bool any_snapshot(const fs::path& dir, const std::string& coll) {
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.path().extension() == ".snapshot" &&
        name.rfind(coll + ".", 0) == 0)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Checksums and SipHash

TEST(Checksum, Crc32KnownValues) {
  EXPECT_EQ(engine::crc32(""), 0u);
  EXPECT_EQ(engine::crc32("123456789"), 0xCBF43926u);  // the classic check
  EXPECT_EQ(engine::hex32(0xCBF43926u), "cbf43926");
  EXPECT_EQ(engine::parse_hex32("cbf43926"), 0xCBF43926u);
  EXPECT_FALSE(engine::parse_hex32("cbf4392").has_value());   // short
  EXPECT_FALSE(engine::parse_hex32("cbf4392z").has_value());  // non-hex
}

TEST(Checksum, Hex64RoundTrip) {
  EXPECT_EQ(engine::hex64(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(engine::parse_hex64("0123456789abcdef"), 0x0123456789abcdefULL);
  EXPECT_FALSE(engine::parse_hex64("0123").has_value());
}

TEST(SipHash, ReferenceVectors) {
  // Appendix A of the SipHash paper: key bytes 00..0f, inputs of the first
  // n bytes 00,01,02,...
  const engine::SipHashKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  std::string input;
  EXPECT_EQ(engine::siphash24(key, input), 0x726fdb47dd0e0e31ULL);
  for (int i = 0; i < 8; ++i) input.push_back(static_cast<char>(i));
  EXPECT_EQ(engine::siphash24(key, input), 0x93f5f5799a932462ULL);
  for (int i = 8; i < 15; ++i) input.push_back(static_cast<char>(i));
  EXPECT_EQ(engine::siphash24(key, input), 0xa129ca6149be45e5ULL);
}

TEST(SipHash, SaltDerivedKeysDiffer) {
  const auto a = engine::siphash_key_from_salt("salt-a");
  const auto b = engine::siphash_key_from_salt("salt-b");
  EXPECT_TRUE(a.k0 != b.k0 || a.k1 != b.k1);
  const auto a2 = engine::siphash_key_from_salt("salt-a");
  EXPECT_EQ(a.k0, a2.k0);
  EXPECT_EQ(a.k1, a2.k1);
}

// ---------------------------------------------------------------------------
// WAL framing

TEST(Wal, AppendReplayRoundTrip) {
  TempDir dir("gptc_engine_wal");
  const fs::path path = dir.path() / "t.wal";
  const engine::WalFormat fmt;
  {
    engine::WalWriter w(path, fmt, /*group_commit=*/2, /*next_seq=*/1,
                        /*existing_bytes=*/0, nullptr);
    EXPECT_EQ(w.append(doc(R"({"o":"i","d":{"_id":1}})")), 1u);
    EXPECT_EQ(w.append(doc(R"({"o":"r","q":{}})")), 2u);
    EXPECT_EQ(w.append(doc(R"({"o":"i","d":{"_id":2}})")), 3u);
    w.sync();
  }
  const auto replay = engine::replay_wal(path, fmt);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].seq, 1u);
  EXPECT_EQ(replay.records[2].seq, 3u);
  EXPECT_EQ(replay.records[2].payload.at("d").at("_id").as_int(), 2);
}

TEST(Wal, TornFinalRecordIsTolerated) {
  TempDir dir("gptc_engine_wal_torn");
  const fs::path path = dir.path() / "t.wal";
  const engine::WalFormat fmt;
  std::uint64_t full_size = 0;
  {
    engine::WalWriter w(path, fmt, 1, 1, 0, nullptr);
    w.append(doc(R"({"o":"i","d":{"_id":1}})"));
    w.append(doc(R"({"o":"i","d":{"_id":2}})"));
    full_size = w.bytes();
  }
  // Tear the last record in half.
  fs::resize_file(path, full_size - 17);
  const auto replay = engine::replay_wal(path, fmt);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload.at("d").at("_id").as_int(), 1);
  // A writer reopened at the valid prefix truncates the tail and appends
  // cleanly on a frame boundary.
  {
    engine::WalWriter w(path, fmt, 1, replay.records.back().seq + 1,
                        replay.valid_bytes, nullptr);
    w.append(doc(R"({"o":"i","d":{"_id":3}})"));
  }
  const auto again = engine::replay_wal(path, fmt);
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.records[1].payload.at("d").at("_id").as_int(), 3);
}

TEST(Wal, CorruptedFinalRecordIsATornTail) {
  TempDir dir("gptc_engine_wal_crc");
  const fs::path path = dir.path() / "t.wal";
  const engine::WalFormat fmt;
  {
    engine::WalWriter w(path, fmt, 1, 1, 0, nullptr);
    w.append(doc(R"({"o":"i","d":{"_id":1}})"));
    w.append(doc(R"({"o":"i","d":{"_id":2}})"));
  }
  // Flip one payload byte of the second (final) frame: with an earlier
  // frame validating, a bad last line is classified as crash-torn.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  text[text.size() - 3] = text[text.size() - 3] == 'x' ? 'y' : 'x';
  std::ofstream(path, std::ios::binary) << text;
  const auto replay = engine::replay_wal(path, fmt);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_FALSE(replay.error.has_value());
  EXPECT_EQ(replay.records.size(), 1u);
}

TEST(Wal, MidLogCorruptionIsRejectedNotTruncated) {
  TempDir dir("gptc_engine_wal_midlog");
  const fs::path path = dir.path() / "t.wal";
  const engine::WalFormat fmt;
  std::uint64_t first_two = 0;
  {
    engine::WalWriter w(path, fmt, 1, 1, 0, nullptr);
    w.append(doc(R"({"o":"i","d":{"_id":1}})"));
    w.append(doc(R"({"o":"i","d":{"_id":2}})"));
    first_two = w.bytes();
    w.append(doc(R"({"o":"i","d":{"_id":3}})"));
  }
  // Corrupt the SECOND frame: committed frames follow it, so this is not a
  // torn tail — replay must report an error, never classify-and-truncate.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t target = first_two - 3;
  text[target] = text[target] == 'x' ? 'y' : 'x';
  std::ofstream(path, std::ios::binary) << text;
  const auto replay = engine::replay_wal(path, fmt);
  ASSERT_TRUE(replay.error.has_value());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), 1u);  // valid prefix only
}

TEST(Wal, KeyedChecksumRejectsWrongKey) {
  TempDir dir("gptc_engine_wal_keyed");
  const fs::path path = dir.path() / "t.wal";
  engine::WalFormat keyed;
  keyed.checksum_key = engine::SipHashKey{1, 2};
  {
    engine::WalWriter w(path, keyed, 1, 1, 0, nullptr);
    w.append(doc(R"({"o":"i","d":{"_id":1}})"));
  }
  EXPECT_EQ(engine::replay_wal(path, keyed).records.size(), 1u);
  EXPECT_FALSE(engine::replay_wal(path, keyed).error.has_value());
  // The wrong key fails every complete frame — that is a rejected log, not
  // a torn tail, so nothing may be truncated away.
  engine::WalFormat wrong;
  wrong.checksum_key = engine::SipHashKey{1, 3};
  const auto refused = engine::replay_wal(path, wrong);
  EXPECT_EQ(refused.records.size(), 0u);
  EXPECT_TRUE(refused.error.has_value());
  // An unkeyed reader sees a 16-digit checksum where it expects 8: refused.
  EXPECT_TRUE(engine::replay_wal(path, engine::WalFormat{}).error.has_value());
}

TEST(Wal, FrameBytesPinned) {
  // The exact bytes of one frame under each checksum: a change to how
  // append() serializes must never change what lands on disk. (Both
  // checksums agree with independent CRC-32 and SipHash-2-4 references
  // over "000000000000002a <payload>"; the key is the SipHash paper's.)
  const Json payload = doc(R"({"o":"b","ds":[{"_id":7,"s":"x\"y","v":1.5}]})");
  struct Case {
    std::optional<engine::SipHashKey> key;
    std::string line;
  };
  const Case cases[] = {
      {std::nullopt,
       "000000000000002a fc8425d0 "
       R"({"ds":[{"_id":7,"s":"x\"y","v":1.5}],"o":"b"})"
       "\n"},
      {engine::SipHashKey{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL},
       "000000000000002a 906a93f1f53e705c "
       R"({"ds":[{"_id":7,"s":"x\"y","v":1.5}],"o":"b"})"
       "\n"},
  };
  for (const Case& tc : cases) {
    TempDir dir("gptc_engine_wal_pinned");
    const fs::path path = dir.path() / "t.wal";
    engine::WalFormat fmt;
    fmt.checksum_key = tc.key;
    {
      engine::WalWriter w(path, fmt, 1, /*next_seq=*/42, 0, nullptr);
      EXPECT_EQ(w.append(payload), 42u);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), tc.line);
    const auto replay = engine::replay_wal(path, fmt);
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(replay.records[0].payload, payload);
  }
}

// ---------------------------------------------------------------------------
// Snapshots

TEST(Snapshot, RoundTripAndCorruptionDetection) {
  TempDir dir("gptc_engine_snap");
  const fs::path path = dir.path() / "c.snapshot";
  Collection c("c");
  c.insert(doc(R"({"k":1})"));
  engine::write_snapshot(path, c.to_json(), /*last_seq=*/7, nullptr);
  const auto snap = engine::read_snapshot(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->last_seq, 7u);
  EXPECT_EQ(snap->collection_state.at("docs").size(), 1u);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  text[12] = text[12] == 'a' ? 'b' : 'a';
  std::ofstream(path, std::ios::binary) << text;
  // An existing-but-corrupt snapshot is a hard error: silently falling back
  // to an older source would resurrect stale state.
  EXPECT_THROW(engine::read_snapshot(path), std::runtime_error);
  EXPECT_FALSE(engine::read_snapshot(path.string() + ".gone").has_value());
}

// ---------------------------------------------------------------------------
// lookup_path array segments (satellite)

TEST(LookupPathArrays, NumericSegmentsIndexArrays) {
  const Json d = doc(
      R"({"tuning_parameters":{"grid":[4,8,{"z":5}]},"list":[[1,2],[3]]})");
  ASSERT_NE(lookup_path(d, "tuning_parameters.grid.0"), nullptr);
  EXPECT_EQ(lookup_path(d, "tuning_parameters.grid.0")->as_int(), 4);
  EXPECT_EQ(lookup_path(d, "tuning_parameters.grid.2.z")->as_int(), 5);
  EXPECT_EQ(lookup_path(d, "list.1.0")->as_int(), 3);
  EXPECT_EQ(lookup_path(d, "tuning_parameters.grid.3"), nullptr);  // OOB
  EXPECT_EQ(lookup_path(d, "tuning_parameters.grid.x"), nullptr);
  EXPECT_EQ(lookup_path(d, "tuning_parameters.grid.-1"), nullptr);
}

TEST(LookupPathArrays, QueriesReachIntoArrays) {
  Collection c("t");
  c.insert(doc(R"({"tuning_parameters":{"grid":[4,8]}})"));
  c.insert(doc(R"({"tuning_parameters":{"grid":[16,8]}})"));
  EXPECT_EQ(c.count(doc(R"({"tuning_parameters.grid.0":{"$gte":8}})")), 1u);
  EXPECT_EQ(c.count(doc(R"({"tuning_parameters.grid.1":8})")), 2u);
}

// ---------------------------------------------------------------------------
// Secondary indexes: byte-identical to a scan

/// Two collections with identical contents; `indexed` carries indexes.
struct IndexedPair {
  Collection scan{"c"};
  Collection indexed{"c"};

  IndexedPair() {
    indexed.create_index("k");
    indexed.create_index("s");
    indexed.create_index("nested.x");
    const char* docs[] = {
        R"({"k":1,"s":"a","nested":{"x":10}})",
        R"({"k":2.0,"s":"b","nested":{"x":20}})",
        R"({"k":2,"s":"bb"})",
        R"({"k":-3,"s":"c","nested":{"x":5.5}})",
        R"({"k":null,"s":"d"})",
        R"({"k":true,"s":"e","nested":{"x":"str"}})",
        R"({"k":[1,2],"s":"f"})",
        R"({"s":"g","nested":{"x":20}})",
        R"({"k":100,"s":"h","nested":{}})",
    };
    for (const char* d : docs) {
      scan.insert(doc(d));
      indexed.insert(doc(d));
    }
  }

  void expect_same(const std::string& query) {
    const Json q = doc(query);
    const auto a = scan.find(q);
    const auto b = indexed.find(q);
    ASSERT_EQ(a.size(), b.size()) << query;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i].dump(), b[i].dump()) << query;
    EXPECT_EQ(scan.count(q), indexed.count(q)) << query;
    EXPECT_EQ(first_match(scan, q).dump(), first_match(indexed, q).dump())
        << query;
  }
};

TEST(SecondaryIndex, ResultsIdenticalToScan) {
  IndexedPair p;
  for (const char* q : {
           R"({"k":2})",
           R"({"k":2.0})",
           R"({"k":{"$eq":1}})",
           R"({"k":{"$gte":1,"$lt":3}})",
           R"({"k":{"$gt":-10}})",
           R"({"k":{"$lte":2}})",
           R"({"k":{"$in":[1,100,null]}})",
           R"({"k":{"$in":[2,2.0]}})",
           R"({"k":{"$in":[1,1,100,1]}})",
           R"({"k":{"$in":[]}})",
           R"({"k":{"$ne":2}})",
           R"({"k":{"$exists":false}})",
           R"({"k":{"$exists":true}})",
           R"({"k":null})",
           R"({"k":true})",
           R"({"s":{"$gte":"b","$lt":"c"}})",
           R"({"s":"bb"})",
           R"({"nested.x":20})",
           R"({"nested.x":{"$gt":5}})",
           R"({"nested.x":{"$gte":"str"}})",
           R"({"k":{"$gte":1},"s":{"$lt":"z"}})",
           R"({"$or":[{"k":1},{"s":"d"}],"k":{"$gte":0}})",
           R"({})",
       })
    p.expect_same(q);
}

TEST(SecondaryIndex, MaintainedAcrossUpdateAndRemove) {
  IndexedPair p;
  const Json upd = doc(R"({"k":42})");
  EXPECT_EQ(p.scan.update(doc(R"({"s":"b"})"), upd),
            p.indexed.update(doc(R"({"s":"b"})"), upd));
  p.expect_same(R"({"k":42})");
  p.expect_same(R"({"k":{"$gte":2}})");
  EXPECT_EQ(p.scan.remove(doc(R"({"k":{"$lt":2}})")),
            p.indexed.remove(doc(R"({"k":{"$lt":2}})")));
  p.expect_same(R"({"k":{"$gte":-100}})");
  p.expect_same(R"({})");
  // Inserts after maintenance keep the planner consistent too.
  p.scan.insert(doc(R"({"k":2,"s":"late"})"));
  p.indexed.insert(doc(R"({"k":2,"s":"late"})"));
  p.expect_same(R"({"k":2})");
}

TEST(SecondaryIndex, DeclarationIsIdempotentAndListed) {
  Collection c("t");
  c.insert(doc(R"({"k":1})"));
  c.create_index("k");
  c.create_index("k");
  EXPECT_TRUE(c.has_index("k"));
  EXPECT_FALSE(c.has_index("v"));
  EXPECT_EQ(c.index_paths(), std::vector<std::string>{"k"});
  EXPECT_EQ(c.count(doc(R"({"k":1})")), 1u);
}

// ---------------------------------------------------------------------------
// Durable store basics

EngineOptions test_options(FaultInjector* fault = nullptr,
                           std::size_t group_commit = 4) {
  EngineOptions opts;
  opts.group_commit = group_commit;
  opts.checkpoint_wal_bytes = 1u << 30;  // explicit checkpoints only
  opts.fault = fault;
  opts.shards = env_shards();  // 0 unless GPTC_SHARDS re-runs the suite
  return opts;
}

TEST(DurableStore, ReopenRecoversInsertsUpdatesRemoves) {
  TempDir dir("gptc_engine_store");
  {
    auto store = DocumentStore::open_durable(dir.path(), test_options());
    auto& c = store.collection("samples");
    c.insert(doc(R"({"k":1,"v":"a"})"));
    c.insert(doc(R"({"k":2,"v":"b"})"));
    c.update(doc(R"({"k":1})"), doc(R"({"v":"a2"})"));
    c.remove(doc(R"({"k":2})"));
    c.insert(doc(R"({"k":3,"v":"c"})"));
  }
  auto store = DocumentStore::open_durable(dir.path(), test_options());
  ASSERT_NE(store.find_collection("samples"), nullptr);
  const auto& c = *store.find_collection("samples");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(first_match(c, doc(R"({"k":1})")).at("v").as_string(), "a2");
  EXPECT_EQ(first_match(c, doc(R"({"k":3})")).at("_id").as_int(), 3);
  // Ids continue past the removed one.
  EXPECT_EQ(store.collection("samples").insert(doc(R"({"k":4})")), 4);
}

TEST(DurableStore, ThresholdCheckpointCompactsWal) {
  TempDir dir("gptc_engine_compact");
  EngineOptions opts = test_options();
  opts.checkpoint_wal_bytes = 512;  // tiny: force frequent checkpoints
  auto store = DocumentStore::open_durable(dir.path(), opts);
  auto& c = store.collection("samples");
  for (int i = 0; i < 64; ++i)
    c.insert(doc(R"({"payload":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})"));
  EXPECT_TRUE(any_snapshot(dir.path(), "samples"));
  // Each shard's WAL was truncated at its last checkpoint, so the total is
  // far smaller than the volume appended.
  std::uint64_t total = 0;
  for (const auto& stem : wal_stems(store, "samples"))
    total += store.storage_engine()->wal_bytes(stem);
  EXPECT_LT(total, 1024u * store.storage_engine()->shard_count());
  auto reopened = DocumentStore::open_durable(dir.path(), opts);
  EXPECT_EQ(reopened.collection("samples").size(), 64u);
}

/// Sorted names of every entry in a directory.
std::vector<std::string> listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(DurableStore, RefusesPreEngineJsonExport) {
  // A directory holding only JSON exports predates the engine (or is a
  // dump): opening it must not silently yield an empty repository, and
  // the refusal must leave the directory exactly as it found it.
  TempDir dir("gptc_engine_refuse_json");
  {
    DocumentStore dump;
    dump.collection("samples").insert(doc(R"({"k":1})"));
    dump.export_json(dir.path());
  }
  const auto before = listing(dir.path());
  try {
    DocumentStore::open_durable(dir.path(), test_options());
    FAIL() << "expected the JSON export to be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("samples.json"), std::string::npos) << what;
    EXPECT_NE(what.find("no longer imported"), std::string::npos) << what;
  }
  EXPECT_EQ(listing(dir.path()), before);
}

/// Expects opening `dir` to be refused with an error naming the directory
/// and containing `why`, leaving every file in place.
void expect_layout_refused(const fs::path& dir, const std::string& why) {
  const auto before = listing(dir);
  try {
    DocumentStore::open_durable(dir, test_options());
    ADD_FAILURE() << "expected " << dir << " to be refused (" << why << ")";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir.string()), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
  EXPECT_EQ(listing(dir), before);
}

TEST(DurableStore, RefusesOldOrUnversionedLayout) {
  // A manifest of any format but the current one is refused, whatever
  // else the directory holds.
  for (const std::string manifest :
       {R"({"format":1,"shards":1})", R"({"format":3,"shards":1})",
        R"({"shards":1})"}) {
    TempDir dir("gptc_engine_refuse_format");
    {
      auto store = DocumentStore::open_durable(dir.path(), test_options());
      store.collection("samples").insert(doc(R"({"k":1})"));
    }
    std::ofstream(dir.path() / "engine.manifest") << manifest << "\n";
    expect_layout_refused(dir.path(), "format");
  }
  // Engine files without any manifest: the unversioned single-shard names
  // (<coll>.wal / <coll>.snapshot) and suffixed ones alike.
  for (const std::string file :
       {"samples.wal", "samples.snapshot", "samples.s0of1.wal"}) {
    TempDir dir("gptc_engine_refuse_unversioned");
    if (fs::path(file).extension() == ".wal") {
      engine::WalWriter w(dir.path() / file, engine::WalFormat{}, 1, 1, 0,
                          nullptr);
      w.append(doc(R"({"o":"b","ds":[{"_id":1,"k":1}]})"));
    } else {
      engine::write_snapshot(dir.path() / file, doc(R"({"docs":[]})"),
                             /*last_seq=*/0, nullptr);
    }
    expect_layout_refused(dir.path(), "engine.manifest");
  }
}

TEST(DurableStore, CorruptSnapshotRefusesToOpen) {
  TempDir dir("gptc_engine_snapcorrupt");
  {
    auto store = DocumentStore::open_durable(dir.path(), test_options());
    store.collection("samples").insert(doc(R"({"k":1})"));
    store.checkpoint_all();
  }
  // Corrupt whichever shard snapshot holds the document.
  fs::path snap;
  for (const auto& e : fs::directory_iterator(dir.path()))
    if (e.path().extension() == ".snapshot" && fs::file_size(e.path()) > 0)
      snap = e.path();
  ASSERT_FALSE(snap.empty());
  std::ifstream in(snap, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  text[text.size() / 2] = text[text.size() / 2] == 'a' ? 'b' : 'a';
  std::ofstream(snap, std::ios::binary) << text;
  EXPECT_THROW(DocumentStore::open_durable(dir.path(), test_options()),
               std::runtime_error);
}

TEST(DurableStore, FailedSnapshotWriteThrowsAndKeepsEveryRecord) {
  // Each shard's <stem>.snapshot.tmp is a symlink to a device the snapshot
  // write cannot finish on: /dev/full fails the write (ENOSPC), /dev/null
  // takes the bytes but fails the fsync (EINVAL). The checkpoint must throw
  // before the rename, so no snapshot appears and the WAL it would have
  // truncated keeps every record.
  for (const char* device : {"/dev/full", "/dev/null"}) {
    ASSERT_TRUE(fs::exists(device)) << device;
    TempDir dir("gptc_engine_snapfail");
    {
      auto store = DocumentStore::open_durable(dir.path(), test_options());
      auto& c = store.collection("samples");
      for (int i = 0; i < 8; ++i)
        c.insert(doc(R"({"k":)" + std::to_string(i) + "}"));
      const std::size_t shards = store.storage_engine()->shard_count();
      for (std::size_t k = 0; k < shards; ++k)
        fs::create_symlink(
            device, dir.path() / (engine::StorageEngine::shard_stem(
                                      "samples", k, shards) +
                                  ".snapshot.tmp"));
      EXPECT_THROW(store.checkpoint_all(), std::runtime_error) << device;
      EXPECT_FALSE(any_snapshot(dir.path(), "samples")) << device;
    }
    auto store = DocumentStore::open_durable(dir.path(), test_options());
    EXPECT_EQ(store.collection("samples").size(), 8u) << device;
    for (const auto& e : fs::directory_iterator(dir.path()))
      EXPECT_NE(e.path().extension(), ".tmp") << e.path();  // swept
  }
}

TEST(DurableStore, MidLogWalCorruptionRefusesToOpen) {
  TempDir dir("gptc_engine_walcorrupt");
  {
    auto store = DocumentStore::open_durable(
        dir.path(), test_options(nullptr, /*group_commit=*/1));
    // Enough documents that every shard's WAL holds at least two frames.
    for (std::size_t i = 1; i <= 2 * effective_shards(); ++i) {
      Json d = Json::object();
      d["k"] = static_cast<std::int64_t>(i);
      store.collection("samples").insert(std::move(d));
    }
  }
  // Corrupt the first frame of one shard WAL: committed frames follow, so
  // recovery must refuse the directory rather than truncate them away.
  const fs::path wal =
      dir.path() / (engine::StorageEngine::shard_stem("samples", 0,
                                                      effective_shards()) +
                    ".wal");
  std::ifstream in(wal, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t target = text.find('\n') - 3;
  text[target] = text[target] == 'x' ? 'y' : 'x';
  std::ofstream(wal, std::ios::binary) << text;
  EXPECT_THROW(DocumentStore::open_durable(dir.path(), test_options()),
               std::runtime_error);
}

TEST(DurableStore, TornTailIsReportedAsRecoveryWarning) {
  TempDir dir("gptc_engine_tornwarn");
  {
    FaultInjector fault;
    fault.arm(FaultPoint::WalShortWrite, 3);
    auto store = DocumentStore::open_durable(
        dir.path(), test_options(&fault, /*group_commit=*/1));
    try {
      for (int k = 1; k <= 3; ++k) {
        Json d = Json::object();
        d["k"] = k;
        store.collection("samples").insert(std::move(d));
      }
      FAIL() << "fault did not fire";
    } catch (const CrashInjected&) {
    }
  }
  auto store = DocumentStore::open_durable(dir.path(), test_options());
  EXPECT_EQ(store.collection("samples").size(), 2u);
  ASSERT_EQ(store.storage_engine()->recovery_warnings().size(), 1u);
  EXPECT_NE(store.storage_engine()->recovery_warnings()[0].find("samples"),
            std::string::npos);
}

TEST(DurableStore, ExportJsonStaysAvailableForInspection) {
  TempDir dir("gptc_engine_export");
  TempDir exp("gptc_engine_export_out");
  auto store = DocumentStore::open_durable(dir.path(), test_options());
  store.collection("samples").insert(doc(R"({"k":1})"));
  store.export_json(exp.path());
  std::ifstream in(exp.path() / "samples.json");
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(Json::parse(buf.str()),
            store.find_collection("samples")->to_json());
}

TEST(DurableStore, KeyedWalChecksumRoundTrips) {
  TempDir dir("gptc_engine_keyed");
  EngineOptions opts = test_options();
  opts.wal_checksum_key = engine::SipHashKey{0xdeadbeefULL, 0xfeedfaceULL};
  {
    auto store = DocumentStore::open_durable(dir.path(), opts);
    store.collection("samples").insert(doc(R"({"k":1})"));
  }
  auto store = DocumentStore::open_durable(dir.path(), opts);
  EXPECT_EQ(store.collection("samples").size(), 1u);
  // The wrong key refuses the log outright: opening throws rather than
  // truncating the (valid, just differently-keyed) records away.
  EngineOptions wrong = test_options();
  wrong.wal_checksum_key = engine::SipHashKey{1, 1};
  TempDir dir2("gptc_engine_keyed2");
  fs::copy(dir.path(), dir2.path(), fs::copy_options::overwrite_existing |
                                        fs::copy_options::recursive);
  EXPECT_THROW(DocumentStore::open_durable(dir2.path(), wrong),
               std::runtime_error);
  // The refused log is untouched on disk: the right key still opens it.
  auto again = DocumentStore::open_durable(dir2.path(), opts);
  EXPECT_EQ(again.collection("samples").size(), 1u);
}

// ---------------------------------------------------------------------------
// Crash recovery: every fault point yields the committed prefix

constexpr std::size_t kWorkloadOps = 24;
constexpr std::size_t kCheckpointEvery = 5;

/// One deterministic mixed op (1-based i) against the "samples" collection.
void apply_op(DocumentStore& store, std::size_t i) {
  auto& c = store.collection("samples");
  if (i % 7 == 3) {
    Json q = Json::object();
    q["k"] = static_cast<std::int64_t>(i % 5);
    Json u = Json::object();
    u["v"] = static_cast<std::int64_t>(1000 + i);
    c.update(q, u);
  } else if (i % 11 == 6) {
    Json q = Json::object();
    Json cond = Json::object();
    cond["$lte"] = static_cast<std::int64_t>(i % 3);
    q["k"] = cond;
    c.remove(q);
  } else {
    Json d = Json::object();
    d["k"] = static_cast<std::int64_t>(i % 5);
    d["v"] = static_cast<std::int64_t>(i);
    d["s"] = "s" + std::to_string(i % 4);
    c.insert(d);
  }
}

/// The uninterrupted reference: the same op prefix on an in-memory store.
std::string expected_state_after(std::size_t committed_ops) {
  DocumentStore store;
  store.collection("samples").create_index("k");  // exercise planner parity
  for (std::size_t i = 1; i <= committed_ops; ++i) apply_op(store, i);
  return store.collection("samples").to_json().dump();
}

std::string reopened_state(const fs::path& dir) {
  auto store = DocumentStore::open_durable(dir, test_options());
  return store.collection("samples").to_json().dump();
}

/// Runs the workload with `fault` armed; returns ops fully applied before
/// the injected crash (workload ops, not WAL appends).
std::size_t run_until_crash(const fs::path& dir, FaultInjector& fault,
                            bool with_checkpoints) {
  auto store = DocumentStore::open_durable(dir, test_options(&fault));
  std::size_t applied = 0;
  try {
    for (std::size_t i = 1; i <= kWorkloadOps; ++i) {
      apply_op(store, i);
      ++applied;
      if (with_checkpoints && i % kCheckpointEvery == 0)
        store.checkpoint_all();
    }
  } catch (const CrashInjected&) {
  }
  return applied;
}

class CrashAtEveryWalAppend : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrashAtEveryWalAppend, RecoversCommittedPrefix) {
  const std::uint64_t nth = GetParam();
  for (const FaultPoint point :
       {FaultPoint::WalAppend, FaultPoint::WalShortWrite}) {
    TempDir dir("gptc_engine_crash_append");
    FaultInjector fault;
    fault.arm(point, nth);
    const std::size_t applied =
        run_until_crash(dir.path(), fault, /*with_checkpoints=*/false);
    // Fault n fires during op n: n-1 ops committed.
    ASSERT_EQ(applied, static_cast<std::size_t>(nth - 1));
    EXPECT_EQ(reopened_state(dir.path()), expected_state_after(applied));
  }
}

INSTANTIATE_TEST_SUITE_P(EveryAppend, CrashAtEveryWalAppend,
                         ::testing::Range<std::uint64_t>(1, kWorkloadOps + 1));

class CrashAtEverySnapshot : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrashAtEverySnapshot, RecoversCommittedPrefix) {
  const std::uint64_t nth = GetParam();
  for (const FaultPoint point : {FaultPoint::SnapshotBeforeRename,
                                 FaultPoint::SnapshotAfterRename}) {
    TempDir dir("gptc_engine_crash_snap");
    FaultInjector fault;
    fault.arm(point, nth);
    const std::size_t applied =
        run_until_crash(dir.path(), fault, /*with_checkpoints=*/true);
    // A checkpoint writes one snapshot per shard, and checkpoints happen
    // between ops: everything applied before the crashing one committed.
    const std::size_t checkpoint =
        (static_cast<std::size_t>(nth) + effective_shards() - 1) /
        effective_shards();
    ASSERT_EQ(applied, checkpoint * kCheckpointEvery);
    EXPECT_EQ(reopened_state(dir.path()), expected_state_after(applied));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EverySnapshot, CrashAtEverySnapshot,
    ::testing::Range<std::uint64_t>(
        1, kWorkloadOps / kCheckpointEvery * effective_shards() + 1));

TEST(CrashRecovery, UninterruptedRunMatchesReference) {
  TempDir dir("gptc_engine_crash_none");
  FaultInjector fault;  // passive: counts but never fires
  const std::size_t applied =
      run_until_crash(dir.path(), fault, /*with_checkpoints=*/true);
  EXPECT_EQ(applied, kWorkloadOps);
  // Every op is exactly one WAL append — a shard frame, or (when the op
  // spans shards) the single logical commit record.
  EXPECT_EQ(fault.count(FaultPoint::WalAppend), kWorkloadOps);
  EXPECT_EQ(fault.count(FaultPoint::SnapshotBeforeRename),
            kWorkloadOps / kCheckpointEvery * effective_shards());
  EXPECT_EQ(reopened_state(dir.path()), expected_state_after(kWorkloadOps));
}

TEST(CrashRecovery, RepeatedCrashesStackSafely) {
  // Crash, reopen, write more, crash again — recovery must compose.
  TempDir dir("gptc_engine_crash_stack");
  {
    FaultInjector fault;
    fault.arm(FaultPoint::WalShortWrite, 4);
    auto store = DocumentStore::open_durable(dir.path(), test_options(&fault));
    try {
      for (std::size_t i = 1; i <= 10; ++i) apply_op(store, i);
      FAIL() << "fault did not fire";
    } catch (const CrashInjected&) {
    }
  }
  {
    FaultInjector fault;
    fault.arm(FaultPoint::SnapshotAfterRename, 1);
    auto store = DocumentStore::open_durable(dir.path(), test_options(&fault));
    try {
      for (std::size_t i = 4; i <= 10; ++i) apply_op(store, i);
      store.checkpoint_all();
      FAIL() << "fault did not fire";
    } catch (const CrashInjected&) {
    }
  }
  EXPECT_EQ(reopened_state(dir.path()), expected_state_after(10));
}

// ---------------------------------------------------------------------------
// Concurrency: many readers, one writer

TEST(Concurrency, ManyReadersOneWriterOnDurableCollection) {
  TempDir dir("gptc_engine_threads");
  auto store =
      DocumentStore::open_durable(dir.path(), test_options(nullptr, 8));
  auto& c = store.collection("samples");
  c.create_index("k");

  constexpr int kDocs = 200;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&c, &done, &reads] {
      const Json q = doc(R"({"k":{"$gte":2}})");
      while (!done.load(std::memory_order_acquire)) {
        const auto hits = c.find(q);
        for (const auto& h : hits) ASSERT_GE(h.at("k").as_int(), 2);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Group-commit flushes and WAL-size polls race the writer through the
  // WalWriter's internal mutex — a store-level sync must never tear an
  // in-flight append (TSan-checked in the sanitizer CI job).
  readers.emplace_back([&store, &done] {
    while (!done.load(std::memory_order_acquire)) {
      store.sync();
      auto* eng = store.storage_engine();
      (void)eng->wal_bytes(
          engine::StorageEngine::shard_stem("samples", 0, eng->shard_count()));
    }
  });
  for (int i = 0; i < kDocs; ++i) {
    Json d = Json::object();
    d["k"] = i % 5;
    d["v"] = i;
    c.insert(std::move(d));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(c.size(), static_cast<std::size_t>(kDocs));
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(c.count(doc(R"({"k":{"$gte":2}})")),
            static_cast<std::size_t>(kDocs / 5 * 3));
}

// ---------------------------------------------------------------------------
// Async group commit: the ack contract under crashes
//
// Process-crash faults (exceptions) leave the page cache intact, so to
// model a POWER LOSS at the crash point these tests capture the shard's
// wal_synced_bytes() — the offset of the last completed fsync — and
// truncate the WAL file to it after closing the store. Whatever the
// commit thread had not fsynced is gone, exactly as on a real machine
// losing power; whatever was acked (wait_durable returned) must survive.

EngineOptions async_options(FaultInjector* fault = nullptr) {
  EngineOptions opts = test_options(fault);
  opts.async_commit = true;
  return opts;
}

TEST(GroupCommit, AckedRecordsSurvivePowerLossUnackedTailMayNot) {
  TempDir dir("gptc_gc_ack");
  std::map<std::string, std::uint64_t> synced;
  {
    auto store = DocumentStore::open_durable(dir.path(), async_options());
    auto& c = store.collection("samples");
    for (int i = 0; i < 5; ++i) {
      Json d = Json::object();
      d["k"] = static_cast<std::int64_t>(i);
      c.insert(std::move(d));
    }
    ack_everything(store, "samples");  // the ack
    synced = synced_offsets(store, "samples");
    std::uint64_t total = 0;
    for (const auto& [stem, bytes] : synced) total += bytes;
    ASSERT_GT(total, 0u);
    // One more record, never acked: power loss may take it.
    Json d = Json::object();
    d["k"] = static_cast<std::int64_t>(99);
    c.insert(std::move(d));
  }
  power_loss(dir.path(), synced);
  auto store = DocumentStore::open_durable(dir.path(), async_options());
  const auto& c = *store.find_collection("samples");
  EXPECT_EQ(c.size(), 5u);
  EXPECT_TRUE(first_match(c, doc(R"({"k":99})")).is_null());
}

TEST(GroupCommit, CrashBetweenEnqueueAndFsyncNeverAcks) {
  TempDir dir("gptc_gc_noack");
  FaultInjector fault;
  fault.arm(FaultPoint::CommitFsync, 1);
  std::map<std::string, std::uint64_t> synced;
  {
    auto store = DocumentStore::open_durable(dir.path(), async_options(&fault));
    auto& c = store.collection("samples");
    auto batch = c.insert_batch(
        {doc(R"({"k":1})"), doc(R"({"k":2})"), doc(R"({"k":3})")});
    ASSERT_GT(batch.ticket.seq, 0u);
    // The batch is enqueued (logged) but the commit thread crashes before
    // its fsync: the ack path must throw, and keep throwing.
    EXPECT_THROW(store.storage_engine()->wait_durable(batch.ticket),
                 CrashInjected);
    EXPECT_THROW(store.storage_engine()->wait_durable(batch.ticket),
                 CrashInjected);
    EXPECT_THROW(store.sync(), CrashInjected);
    synced = synced_offsets(store, "samples");
  }
  // Power loss: nothing past the last fsync survives — which is nothing,
  // since the committer crashed before its first fsync.
  power_loss(dir.path(), synced);
  auto store = DocumentStore::open_durable(dir.path(), async_options());
  EXPECT_EQ(store.collection("samples").size(), 0u);
}

class CrashAtEveryGroupCommitFsync
    : public ::testing::TestWithParam<std::uint64_t> {};

// Single-record writer that acks each record before the next: the fault
// at the Nth batch fsync crashes the committer while record N is in
// flight, so exactly the acked prefix — records 1..N-1 — survives a
// power loss at that instant.
TEST_P(CrashAtEveryGroupCommitFsync, RecoveryYieldsExactlyTheAckedPrefix) {
  const std::uint64_t nth = GetParam();
  TempDir dir("gptc_gc_prefix");
  FaultInjector fault;
  fault.arm(FaultPoint::CommitFsync, nth);
  std::map<std::string, std::uint64_t> synced;
  std::size_t acked = 0;
  {
    auto store = DocumentStore::open_durable(dir.path(), async_options(&fault));
    auto& c = store.collection("samples");
    try {
      for (int i = 0; i < 16; ++i) {
        Json d = Json::object();
        d["k"] = static_cast<std::int64_t>(i);
        c.insert(std::move(d));
        ack_everything(store, "samples");
        ++acked;  // reached only when the record's fsync completed
      }
      FAIL() << "CommitFsync fault " << nth << " never fired";
    } catch (const CrashInjected&) {
    }
    EXPECT_EQ(acked, nth - 1);
    synced = synced_offsets(store, "samples");
  }
  power_loss(dir.path(), synced);
  auto store = DocumentStore::open_durable(dir.path(), async_options());
  const auto& c = *store.find_collection("samples");
  ASSERT_EQ(c.size(), acked);
  for (std::size_t i = 0; i < acked; ++i) {
    Json q = Json::object();
    q["k"] = static_cast<std::int64_t>(i);
    EXPECT_FALSE(first_match(c, q).is_null()) << "acked record k=" << i;
  }
}

// Batched writer: each insert_batch is one WAL record (a shard frame, or
// the logical commit record when the batch spans shards) and one commit-
// thread fsync, so a crash at the Nth fsync acks exactly N-1 batches —
// and because a batch is a single frame, recovery can never yield a
// partial batch even when the power loss lands mid-stream.
TEST_P(CrashAtEveryGroupCommitFsync, BatchesRecoverWholeOrNotAtAll) {
  const std::uint64_t nth = GetParam();
  constexpr std::size_t kBatchSize = 3;
  TempDir dir("gptc_gc_batch");
  FaultInjector fault;
  fault.arm(FaultPoint::CommitFsync, nth);
  std::map<std::string, std::uint64_t> synced;
  std::size_t acked_batches = 0;
  {
    auto store = DocumentStore::open_durable(dir.path(), async_options(&fault));
    auto& c = store.collection("samples");
    try {
      for (int b = 0; b < 16; ++b) {
        std::vector<Json> batch;
        for (std::size_t k = 0; k < kBatchSize; ++k) {
          Json d = Json::object();
          d["b"] = static_cast<std::int64_t>(b);
          d["k"] = static_cast<std::int64_t>(k);
          batch.push_back(std::move(d));
        }
        const auto receipt = c.insert_batch(std::move(batch));
        store.storage_engine()->wait_durable(receipt.ticket);
        ++acked_batches;
      }
      FAIL() << "CommitFsync fault " << nth << " never fired";
    } catch (const CrashInjected&) {
    }
    EXPECT_EQ(acked_batches, nth - 1);
    synced = synced_offsets(store, "samples");
  }
  power_loss(dir.path(), synced);
  auto store = DocumentStore::open_durable(dir.path(), async_options());
  const auto& c = *store.find_collection("samples");
  ASSERT_EQ(c.size(), acked_batches * kBatchSize);
  for (std::size_t b = 0; b < acked_batches; ++b) {
    Json q = Json::object();
    q["b"] = static_cast<std::int64_t>(b);
    EXPECT_EQ(c.count(q), kBatchSize) << "batch " << b << " not whole";
  }
}

INSTANTIATE_TEST_SUITE_P(EveryFsync, CrashAtEveryGroupCommitFsync,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(GroupCommit, CheckpointMakesLoggedRecordsDurableWithoutFsyncWait) {
  TempDir dir("gptc_gc_checkpoint");
  auto store = DocumentStore::open_durable(dir.path(), async_options());
  auto& c = store.collection("samples");
  for (int i = 0; i < 8; ++i) {
    Json d = Json::object();
    d["k"] = static_cast<std::int64_t>(i);
    c.insert(std::move(d));
  }
  std::map<std::string, std::uint64_t> logged;
  for (const auto& stem : wal_stems(store, "samples"))
    logged[stem] = store.storage_engine()->last_logged_seq(stem);
  // A checkpoint persists synced snapshots covering every logged record,
  // so the committer must treat them as durable immediately.
  store.checkpoint_all();
  for (const auto& [stem, seq] : logged)
    store.storage_engine()->wait_durable(stem, seq);  // must not block
  EXPECT_EQ(store.collection("samples").size(), 8u);
}

// ---------------------------------------------------------------------------
// Sharded layout: shard-count migration, cross-shard logical commits,
// parallel recovery. These pin their shard counts explicitly (overriding
// any GPTC_SHARDS) because they assert on the layout transitions
// themselves.

EngineOptions sharded_options(std::size_t shards,
                              FaultInjector* fault = nullptr) {
  EngineOptions opts = test_options(fault);
  opts.shards = shards;
  return opts;
}

/// find() results as one dumpable array, for byte-identity comparisons.
std::string dumped_find(const Collection& c, const Json& query) {
  Json arr = Json::array();
  for (auto& d : c.find(query)) arr.push_back(std::move(d));
  return arr.dump();
}

TEST(Sharding, MigrationPreservesByteIdenticalQueryResults) {
  TempDir dir("gptc_shard_migrate");
  const Json probe = doc(R"({"k":{"$gte":2}})");
  std::string state1, finds1;
  {
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(1));
    auto& c = store.collection("samples");
    c.create_index("k");
    for (std::size_t i = 1; i <= kWorkloadOps; ++i) apply_op(store, i);
    state1 = c.to_json().dump();
    finds1 = dumped_find(c, probe);
  }
  std::string state4;
  {
    // 1 -> 4: recover at the old count, repartition, flip the manifest.
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(4));
    EXPECT_EQ(store.storage_engine()->shard_count(), 4u);
    EXPECT_TRUE(fs::exists(dir.path() / "engine.manifest"));
    EXPECT_FALSE(fs::exists(dir.path() / "samples.s0of1.wal"));  // retired
    auto& c = store.collection("samples");
    c.create_index("k");
    EXPECT_EQ(c.to_json().dump(), state1);
    EXPECT_EQ(dumped_find(c, probe), finds1);
    EXPECT_EQ(c.count(probe), c.find(probe).size());
    // New writes land in the sharded layout and migrate back with it.
    for (std::size_t i = kWorkloadOps + 1; i <= kWorkloadOps + 8; ++i)
      apply_op(store, i);
    state4 = c.to_json().dump();
  }
  {
    // 4 -> 1: back to the single-shard layout, nothing lost.
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(1));
    EXPECT_EQ(store.storage_engine()->shard_count(), 1u);
    EXPECT_TRUE(fs::exists(dir.path() / "samples.s0of1.snapshot"));
    EXPECT_FALSE(fs::exists(dir.path() / "samples.s0of4.wal"));
    EXPECT_EQ(store.collection("samples").to_json().dump(), state4);
  }
  {
    // shards = 0 keeps whatever the directory holds.
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(0));
    EXPECT_EQ(store.storage_engine()->shard_count(), 1u);
    EXPECT_EQ(store.collection("samples").to_json().dump(), state4);
  }
}

TEST(Sharding, SingleShardUsesSuffixedNames) {
  // One shard is named like any other: <coll>.s0of1, never <coll>.wal.
  EXPECT_EQ(engine::StorageEngine::shard_stem("samples", 0, 1),
            "samples.s0of1");
  TempDir dir("gptc_shard_single_names");
  std::string state;
  {
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(1));
    auto& c = store.collection("samples");
    c.insert(doc(R"({"k":1})"));
    store.checkpoint_all();
    c.insert(doc(R"({"k":2})"));
    state = c.to_json().dump();
  }
  EXPECT_TRUE(fs::exists(dir.path() / "samples.s0of1.wal"));
  EXPECT_TRUE(fs::exists(dir.path() / "samples.s0of1.snapshot"));
  EXPECT_FALSE(fs::exists(dir.path() / "samples.wal"));
  EXPECT_FALSE(fs::exists(dir.path() / "samples.snapshot"));
  std::ifstream in(dir.path() / "engine.manifest");
  std::ostringstream manifest;
  manifest << in.rdbuf();
  EXPECT_NE(manifest.str().find(R"("format":2)"), std::string::npos)
      << manifest.str();
  auto store = DocumentStore::open_durable(dir.path(), sharded_options(0));
  EXPECT_EQ(store.storage_engine()->shard_count(), 1u);
  EXPECT_EQ(store.collection("samples").to_json().dump(), state);
}

TEST(Sharding, CrashedMigrationLeavesTheOldLayoutIntact) {
  TempDir dir("gptc_shard_migcrash");
  std::string before;
  {
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(1));
    for (std::size_t i = 1; i <= 10; ++i) apply_op(store, i);
    before = store.collection("samples").to_json().dump();
  }
  // Migration writes one full-coverage snapshot per new shard before the
  // manifest flip; crash at each and the flip never happens.
  for (std::uint64_t nth = 1; nth <= 4; ++nth) {
    for (const FaultPoint point : {FaultPoint::SnapshotBeforeRename,
                                   FaultPoint::SnapshotAfterRename}) {
      FaultInjector fault;
      fault.arm(point, nth);
      EXPECT_THROW(
          DocumentStore::open_durable(dir.path(), sharded_options(4, &fault)),
          CrashInjected);
      // The directory still opens at one shard with identical contents;
      // the half-written sharded files are swept as migration debris.
      auto store = DocumentStore::open_durable(dir.path(), sharded_options(0));
      EXPECT_EQ(store.storage_engine()->shard_count(), 1u);
      EXPECT_EQ(store.collection("samples").to_json().dump(), before);
    }
  }
}

TEST(CrossShardCommit, ReserveAndAppendCrashesLeaveNothingApplied) {
  // A DocumentStore::insert_atomic spanning two collections and three
  // shards: 3 CommitReserve windows (one per member) plus the
  // CommitAppend window right before the commit record hits the WAL.
  struct Case {
    FaultPoint point;
    std::uint64_t nth;
  };
  const Case cases[] = {{FaultPoint::CommitReserve, 1},
                        {FaultPoint::CommitReserve, 2},
                        {FaultPoint::CommitReserve, 3},
                        {FaultPoint::CommitAppend, 1}};
  for (const Case& tc : cases) {
    TempDir dir("gptc_cross_crash");
    FaultInjector fault;
    {
      auto store =
          DocumentStore::open_durable(dir.path(), sharded_options(4, &fault));
      // Committed baseline in both collections before the fault arms.
      store.collection("problems").insert(doc(R"({"name":"base"})"));
      store.collection("runs").insert(doc(R"({"k":0})"));
      fault.arm(tc.point, tc.nth);
      std::map<std::string, std::vector<Json>> docs;
      docs["problems"].push_back(doc(R"({"name":"p"})"));
      docs["runs"].push_back(doc(R"({"k":1})"));
      docs["runs"].push_back(doc(R"({"k":2})"));
      EXPECT_THROW(store.insert_atomic(docs), CrashInjected);
      // Nothing applied in memory — reserved slots are mere seq gaps.
      EXPECT_EQ(store.collection("problems").size(), 1u);
      EXPECT_EQ(store.collection("runs").size(), 1u);
      EXPECT_FALSE(store.collection("runs").exists(doc(R"({"k":1})")));
      EXPECT_FALSE(store.collection("problems").exists(doc(R"({"name":"p"})")));
      // The engine stays usable: the same commit retried goes through.
      auto result = store.insert_atomic(std::move(docs));
      store.storage_engine()->wait_durable(result.ticket);
    }
    // Recovery agrees: the crashed commit vanished, the retry is whole.
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(0));
    EXPECT_EQ(store.storage_engine()->shard_count(), 4u);
    EXPECT_EQ(store.collection("problems").size(), 2u);
    EXPECT_EQ(store.collection("runs").size(), 3u);
    EXPECT_EQ(store.collection("runs").count(doc(R"({"k":1})")), 1u);
    EXPECT_EQ(store.collection("runs").count(doc(R"({"k":2})")), 1u);
  }
}

TEST(CrossShardCommit, InterleavedSingleShardWritersSeeNoTornCommit) {
  // A cross-shard commit crash must not disturb single-shard appends that
  // interleave with it — before and after the crashed commit.
  TempDir dir("gptc_cross_interleave");
  FaultInjector fault;
  {
    auto store =
        DocumentStore::open_durable(dir.path(), sharded_options(4, &fault));
    auto& c = store.collection("samples");
    for (int i = 0; i < 6; ++i) c.insert(doc(R"({"tag":"pre"})"));
    fault.arm(FaultPoint::CommitAppend, 1);
    // ids 7..10 span every shard: the batch takes the commit path.
    EXPECT_THROW(c.insert_batch({doc(R"({"tag":"batch"})"),
                                 doc(R"({"tag":"batch"})"),
                                 doc(R"({"tag":"batch"})"),
                                 doc(R"({"tag":"batch"})")}),
                 CrashInjected);
    for (int i = 0; i < 6; ++i) c.insert(doc(R"({"tag":"post"})"));
  }
  auto store = DocumentStore::open_durable(dir.path(), sharded_options(0));
  const auto& c = *store.find_collection("samples");
  EXPECT_EQ(c.count(doc(R"({"tag":"pre"})")), 6u);
  EXPECT_EQ(c.count(doc(R"({"tag":"batch"})")), 0u);
  EXPECT_EQ(c.count(doc(R"({"tag":"post"})")), 6u);
  // Iteration order is still globally ascending by id across the gap the
  // vanished batch left behind.
  std::int64_t prev = 0;
  c.visit(Json::object(), [&](const Json& d) {
    EXPECT_GT(d.at("_id").as_int(), prev);
    prev = d.at("_id").as_int();
    return true;
  });
}

TEST(Sharding, CrashDuringParallelRecoveryIsHarmless) {
  TempDir dir("gptc_shard_reccrash");
  std::string expected;
  {
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(4));
    for (std::size_t i = 1; i <= kWorkloadOps; ++i) apply_op(store, i);
    expected = store.collection("samples").to_json().dump();
  }
  // One recovery task per shard; crash at the start of each in turn.
  for (std::uint64_t nth = 1; nth <= 4; ++nth) {
    FaultInjector fault;
    fault.arm(FaultPoint::RecoverShard, nth);
    EXPECT_THROW(
        DocumentStore::open_durable(dir.path(), sharded_options(4, &fault)),
        CrashInjected);
    // Recovery mutates nothing until it succeeds: a retry sees everything.
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(4));
    EXPECT_EQ(store.collection("samples").to_json().dump(), expected);
  }
}

TEST(Sharding, CrossShardBatchSurvivesPowerLossWholeOrNot) {
  TempDir dir("gptc_shard_powerloss");
  EngineOptions opts = sharded_options(4);
  opts.async_commit = true;
  std::map<std::string, std::uint64_t> synced;
  {
    auto store = DocumentStore::open_durable(dir.path(), opts);
    auto& c = store.collection("samples");
    // ids 1..4 span every shard: one commit record, acked.
    auto acked = c.insert_batch({doc(R"({"b":1})"), doc(R"({"b":1})"),
                                 doc(R"({"b":1})"), doc(R"({"b":1})")});
    store.storage_engine()->wait_durable(acked.ticket);
    synced = synced_offsets(store, "samples");
    // A second cross-shard batch, never acked: power loss takes it whole.
    (void)c.insert_batch({doc(R"({"b":2})"), doc(R"({"b":2})"),
                          doc(R"({"b":2})"), doc(R"({"b":2})")});
  }
  power_loss(dir.path(), synced);
  auto store = DocumentStore::open_durable(dir.path(), opts);
  const auto& c = *store.find_collection("samples");
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.count(doc(R"({"b":1})")), 4u);
  EXPECT_EQ(c.count(doc(R"({"b":2})")), 0u);
}

// The TSan shard-concurrency target: parallel writers spread across
// shards, cross-shard batches, concurrent readers, and a thread forcing
// group-commit flushes and full compactions — exercising the commit-gate /
// shard-lock / WAL-mutex lock order under race detection.
TEST(ShardConcurrency, ParallelWritersAcrossShardsKeepGlobalOrder) {
  TempDir dir("gptc_shard_threads");
  EngineOptions opts = sharded_options(4);
  opts.group_commit = 8;
  std::string live;
  {
  auto store = DocumentStore::open_durable(dir.path(), opts);
  auto& c = store.collection("samples");
  c.create_index("w");

  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 40;  // every 10th op a cross-shard batch
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};

  std::vector<std::thread> aux;
  for (int r = 0; r < 2; ++r) {
    aux.emplace_back([&c, &done, &reads] {
      const Json q = doc(R"({"w":{"$gte":4}})");
      while (!done.load(std::memory_order_acquire)) {
        for (const auto& h : c.find(q)) EXPECT_GE(h.at("w").as_int(), 4);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  aux.emplace_back([&store, &done] {
    while (!done.load(std::memory_order_acquire)) {
      store.sync();
      store.checkpoint_all();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&c, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Json d = Json::object();
        d["w"] = static_cast<std::int64_t>(w);
        d["i"] = static_cast<std::int64_t>(i);
        if (i % 10 == 9) {
          Json d2 = d;
          Json d3 = d;
          Json d4 = d;
          c.insert_batch({std::move(d), std::move(d2), std::move(d3),
                          std::move(d4)});
        } else {
          c.insert(std::move(d));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : aux) t.join();

  // 36 singles + 4 batches of 4 per writer.
  constexpr std::size_t kExpected = kWriters * (36 + 4 * 4);
  EXPECT_EQ(c.size(), kExpected);
  EXPECT_GT(reads.load(), 0u);
  // The merged view is globally ordered by id (= insertion order) even
  // though writers raced across shards.
  std::int64_t prev = 0;
  std::size_t seen = 0;
  c.visit(Json::object(), [&](const Json& d) {
    EXPECT_GT(d.at("_id").as_int(), prev);
    prev = d.at("_id").as_int();
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, kExpected);
  live = c.to_json().dump();
  store.sync();
  }
  // And it all recovers (in parallel) to the same state.
  auto reopened = DocumentStore::open_durable(dir.path(), sharded_options(0));
  EXPECT_EQ(reopened.storage_engine()->shard_count(), 4u);
  EXPECT_EQ(reopened.collection("samples").to_json().dump(), live);
}

// ---------------------------------------------------------------------------
// The write path: every mutation is one WAL append, logged before it is
// applied, whichever log (shard WAL or commit WAL) it lands in.

/// The mutation script the write-path tests share: single inserts, batches
/// on one shard and across shards, update, remove, and a cross-collection
/// insert_atomic. `each` runs after every mutation with its name and, for
/// the mutators that return one, its durability ticket.
void run_write_script(
    DocumentStore& store,
    const std::function<void(const char*, const engine::CommitTicket*)>& each) {
  auto& c = store.collection("samples");
  c.insert(doc(R"({"k":1,"v":"a"})"));
  each("insert", nullptr);
  const auto one = c.insert_batch({doc(R"({"k":2,"v":"b"})")});
  each("insert_batch on one shard", &one.ticket);
  const auto span =
      c.insert_batch({doc(R"({"k":3})"), doc(R"({"k":4})"),
                      doc(R"({"k":5})"), doc(R"({"k":6})")});
  each("insert_batch across shards", &span.ticket);
  c.update(doc(R"({"k":{"$lte":3}})"), doc(R"({"v":"u"})"));
  each("update", nullptr);
  c.remove(doc(R"({"k":4})"));
  each("remove", nullptr);
  std::map<std::string, std::vector<Json>> docs;
  docs["problems"].push_back(doc(R"({"name":"p"})"));
  docs["samples"].push_back(doc(R"({"k":7})"));
  docs["samples"].push_back(doc(R"({"k":8})"));
  const auto atomic = store.insert_atomic(std::move(docs));
  each("insert_atomic", &atomic.ticket);
}

TEST(WritePath, OneWalAppendPerMutation) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    TempDir dir("gptc_write_path_appends");
    FaultInjector fault;  // passive: counts every append, never fires
    auto store = DocumentStore::open_durable(dir.path(),
                                             sharded_options(shards, &fault));
    const auto* eng = store.storage_engine();
    std::uint64_t mutations = 0;
    run_write_script(store, [&](const char* what,
                                const engine::CommitTicket* ticket) {
      ++mutations;
      EXPECT_EQ(fault.count(FaultPoint::WalAppend), mutations)
          << what << " at " << shards << " shard(s)";
      if (ticket == nullptr) return;
      EXPECT_NE(ticket->seq, 0u) << what << " at " << shards << " shard(s)";
      EXPECT_EQ(eng->last_logged_seq(ticket->wal), ticket->seq)
          << what << " at " << shards << " shard(s)";
    });
    EXPECT_EQ(mutations, 6u);
  }
}

/// Every collection of a store as one string, for byte-identity checks.
std::string dump_collections(DocumentStore& store) {
  std::string out;
  for (const auto& name : store.collection_names())
    out += store.collection(name).to_json().dump() + "\n";
  return out;
}

TEST(WritePath, InMemoryAndDurableStoresAgree) {
  DocumentStore memory;
  run_write_script(memory, [](const char*, const engine::CommitTicket*) {});
  const std::string expected = dump_collections(memory);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    TempDir dir("gptc_write_path_agree");
    {
      auto store =
          DocumentStore::open_durable(dir.path(), sharded_options(shards));
      run_write_script(store, [](const char*, const engine::CommitTicket*) {});
      EXPECT_EQ(dump_collections(store), expected) << shards << " shard(s)";
    }
    auto reopened =
        DocumentStore::open_durable(dir.path(), sharded_options(0));
    EXPECT_EQ(dump_collections(reopened), expected)
        << shards << " shard(s), reopened";
  }
}

TEST(WritePath, SingleMemberAtomicInsertIsWholeOrNothing) {
  // insert_atomic on one collection whose documents all land on one shard:
  // its single append is torn mid-frame, and recovery drops all of it.
  TempDir dir("gptc_write_path_single_member");
  {
    auto store = DocumentStore::open_durable(dir.path(), sharded_options(1));
    store.collection("samples").insert(doc(R"({"k":0})"));
  }
  {
    FaultInjector fault;
    fault.arm(FaultPoint::WalShortWrite, 1);
    auto store =
        DocumentStore::open_durable(dir.path(), sharded_options(1, &fault));
    std::map<std::string, std::vector<Json>> docs;
    docs["samples"].push_back(doc(R"({"k":1})"));
    docs["samples"].push_back(doc(R"({"k":2})"));
    EXPECT_THROW(store.insert_atomic(std::move(docs)), CrashInjected);
    EXPECT_EQ(store.collection("samples").size(), 1u);
  }
  auto store = DocumentStore::open_durable(dir.path(), sharded_options(0));
  const auto& c = store.collection("samples");
  EXPECT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.exists(doc(R"({"k":1})")));
  EXPECT_FALSE(c.exists(doc(R"({"k":2})")));
}

}  // namespace
}  // namespace gptc::db
