// JSON document store — the single-node equivalent of the paper's MongoDB
// backend (Fig. 2).
//
// Collections hold JSON object documents with an auto-assigned integer
// "_id". Queries are Mongo-style match expressions, which is what the
// crowd layer translates the paper's problem_space / configuration_space
// meta descriptions into:
//
//   {"task_parameters.m": {"$gte": 1000, "$lt": 20000},
//    "machine_configuration.machine_name": {"$in": ["Cori", "cori"]}}
//
// Supported operators: $eq, $ne, $gt, $gte, $lt, $lte, $in, $nin, $exists,
// plus top-level/nested $and, $or, $not. Field paths use dot notation and
// may step through arrays with numeric segments ("tuning_parameters.grid.0").
//
// A collection is internally split into N shards (N = 1 unless the store
// was opened with more): documents hash to a shard by id, and each shard
// owns its docs, its secondary-index set, its shared_mutex and — in
// durable mode — its own WAL and snapshot, so writers to different shards
// never contend. The split is invisible at this API: queries fan out under
// every shard's reader lock and merge by id, which IS insertion order
// (ids are assigned from one monotone counter), so results are
// byte-identical to the unsharded store.
//
// One write primitive: every mutation — insert (a one-document batch),
// insert_batch, update, remove, DocumentStore::insert_atomic — is built
// as a list of (collection, shard, op) members and goes through
// Collection::commit, which takes the members' shard writer locks, logs
// the mutation as ONE WAL append before applying it, and checkpoints
// after the locks are released. A mutation with one member logs a frame
// to that shard's WAL; one with several (a batch whose documents hash
// apart, update/remove at N > 1, a crowd upload spanning collections)
// logs one logical commit record under the engine's commit gate. Either
// way readers and crash recovery observe none or all of a mutation.
//
// One persistence path: open_durable() puts the store on the storage
// engine in src/db/engine — per-shard write-ahead logs with
// CRC32/SipHash-framed records and group commit, atomic snapshots +
// compaction, parallel crash recovery that tolerates a torn final record
// per log, and cross-collection atomic batches (insert_atomic). It is the
// only way a store reaches or leaves disk. A default-constructed store is
// in-memory only (tests, examples, the tuner) and has the identical
// Collection/DocumentStore API. export_json() is a one-way dump — one
// pretty-printed JSON file per collection, diffable and inspectable —
// that nothing reads back; the engine refuses to open a directory of such
// exports rather than start it empty.
//
// Collections also support ordered secondary indexes on dot-paths
// (create_index): $eq/$in/$gt/$gte/$lt/$lte predicates on an indexed path
// are routed through the index (results stay byte-identical to a scan —
// the index only narrows candidates), everything else falls back to the
// full scan.
//
// One read primitive: visit(query, fn) calls fn on every match in
// insertion order, in place, under the shard reader locks — fn must not
// call into the collection or block. find() is its copying wrapper;
// count() counts its matches and exists() stops at the first. Queries
// execute as compiled programs (src/db/query): visit/update/remove lower
// the filter once into a flat program over pre-split paths, then a
// selectivity-aware planner (query::plan_shard) ranks every usable index
// by estimated candidate count, materializes the narrowest and intersects
// further id lists while profitable. explain() reports the chosen plan.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/engine/engine.hpp"
#include "db/engine/index.hpp"
#include "db/query/program.hpp"
#include "json/json.hpp"

namespace gptc::db {

using json::Json;

/// Looks up a dot-separated path ("a.b.c") in a document. Purely numeric
/// segments index into arrays ("grid.0" is grid[0]). Returns nullptr if any
/// step is missing, out of bounds, or applied to a non-container.
/// Delegates to query::lookup — one allocation-free walk shared with the
/// compiled path and the index maintenance hot loops.
const Json* lookup_path(const Json& document, const std::string& path);

class Collection {
 public:
  explicit Collection(std::string name, std::size_t shards = 1);

  Collection(Collection&&) noexcept;
  Collection& operator=(Collection&&) noexcept;

  const std::string& name() const { return name_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Inserts a document (must be a JSON object); assigns and returns its
  /// "_id". A one-document insert_batch.
  std::int64_t insert(Json document);

  /// Result of an atomic batch insert: the assigned ids plus the
  /// durability ticket callers hand to StorageEngine::wait_durable for an
  /// ack (ticket.seq 0 when the store is not durable).
  struct BatchInsert {
    std::vector<std::int64_t> ids;
    engine::CommitTicket ticket;
  };

  /// Inserts every document atomically: WAL-logged as ONE record (a shard
  /// batch frame, or a logical commit record when the batch spans shards)
  /// before any is applied, and applied under every affected shard's
  /// writer lock. Readers can never observe a half-applied batch, and
  /// crash recovery replays it entirely or not at all. Throws before any
  /// mutation if a document is not an object.
  BatchInsert insert_batch(std::vector<Json> documents);

  /// The one read primitive: calls `fn` on every document matching the
  /// query, in insertion (= global _id) order, without copying it. The
  /// query compiles once (a malformed one throws before any call) and is
  /// planned per shard; `fn` runs under every shard's reader lock, so it
  /// must neither call back into the collection nor block. Returning false
  /// from `fn` ends the visit.
  void visit(const Json& query,
             const std::function<bool(const Json&)>& fn) const;

  /// Copies of all documents matching the query, in insertion order.
  std::vector<Json> find(const Json& query) const;

  /// Matching-document count: a visit() that counts the matches.
  std::size_t count(const Json& query) const;

  /// Whether any document matches: a visit() that stops at the first one.
  bool exists(const Json& query) const;

  /// Removes matching documents; returns how many were removed. The query
  /// is compiled (and thus validated) BEFORE anything is WAL-logged, so a
  /// malformed query throws without leaving a poisoned op in the log.
  std::size_t remove(const Json& query);

  /// Applies `update` (an object whose fields overwrite the document's) to
  /// all matches; returns how many documents changed. Like remove(), the
  /// query compiles before the op is WAL-logged.
  std::size_t update(const Json& query, const Json& update);

  /// Query-plan introspection: compiles the query and reports, per shard,
  /// whether an index scan was chosen, which indexes were considered with
  /// their selectivity estimates, which were applied, and the final
  /// candidate-set size. Read-only (takes the shard reader locks); shape:
  ///   {"query": ..., "shards": [{"shard": 0, "index_scan": true,
  ///     "candidates": 3, "shard_size": 120,
  ///     "indexes": [{"path": ..., "estimate": 8, "applied": true}, ...]},
  ///    ...]}
  Json explain(const Json& query) const;

  /// Declares (or rebuilds) an ordered secondary index on a dot-path
  /// (maintained per shard). Idempotent; existing documents are indexed
  /// immediately. Index definitions are in-memory only — reopening a store
  /// re-declares them.
  void create_index(const std::string& path);
  bool has_index(const std::string& path) const;
  std::vector<std::string> index_paths() const;

  /// The export/snapshot shape: {"name":..., "next_id":..., "docs":[...]}
  /// with docs merged across shards in insertion order. Takes the shard
  /// reader locks itself unless the caller already holds them exclusively.
  Json to_json() const;

 private:
  friend class DocumentStore;
  friend class engine::StorageEngine;

  /// One hash partition of the collection. Documents route by
  /// `_id % shard_count`, so sequential ids round-robin across shards and
  /// concurrent writers spread evenly; within a shard docs stay in
  /// insertion order (= ascending id, since ids are monotone).
  struct Shard {
    std::vector<Json> docs;                               // guarded_by: mu
    std::map<std::int64_t, std::size_t> id_pos;           // guarded_by: mu
    std::map<std::string, engine::OrderedIndex> indexes;  // guarded_by: mu
    mutable std::shared_mutex mu;
  };

  // --- engine plumbing (all called with or before any concurrent use) ----
  void attach_engine(engine::StorageEngine* e) { engine_ = e; }
  /// Re-buckets the collection into `shards` empty shards (must be called
  /// before concurrent use; existing docs are redistributed).
  // guard-ok: runs single-threaded, before any concurrent use
  void configure_shards(std::size_t shards);
  /// Replaces ONE shard's state from its snapshot (to_json shape whose
  /// docs are that shard's subset); folds next_id forward.
  // guard-ok: single-threaded recovery path
  void restore_shard(std::size_t shard, const Json& j);
  /// Applies one WAL op payload to one shard during replay (no logging).
  // guard-ok: single-threaded recovery replay
  void replay_shard_op(std::size_t shard, const Json& op);
  /// to_json() restricted to one shard (snapshot payload). Caller holds
  /// the shard lock or has exclusive use.
  // requires_lock: Shard::mu shared
  Json shard_to_json(std::size_t shard) const;

  // --- internals ---------------------------------------------------------
  std::size_t shard_of(std::int64_t id) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(id)) %
           shards_.size();
  }
  void insert_into_shard(Shard& s, Json document);  // requires_lock: Shard::mu
  // requires_lock: Shard::mu
  std::size_t update_shard_locked(Shard& s, const query::CompiledQuery& query,
                                  const Json& update);
  // requires_lock: Shard::mu
  std::size_t remove_shard_locked(Shard& s, const query::CompiledQuery& query);
  static void index_doc(Shard& s, const Json& doc);    // requires_lock: Shard::mu
  static void unindex_doc(Shard& s, const Json& doc);  // requires_lock: Shard::mu
  // guard-ok: single-threaded recovery/migration rebuild
  void rebuild_shard_derived(Shard& s);
  // requires_lock: Shard::mu shared
  static const Json* doc_by_id(const Shard& s, std::int64_t id);
  /// One (collection, shard, op payload) member of a mutation.
  using Member = engine::StorageEngine::CommitMember;
  /// The one write primitive (see the file comment). `members` must be
  /// sorted by collection name, then shard — the engine lock order. Logs
  /// ONE WAL append, then runs `apply` on each member under every member
  /// shard's writer lock. Returns the durability ticket ({} when the store
  /// is not durable or `members` is empty).
  static engine::CommitTicket commit(
      std::vector<Member>& members, const std::function<void(Member&)>& apply);
  /// Assigns consecutive ids to `documents` (appended to `ids`) and adds
  /// one {"o":"b","ds":[...]} member per shard they hash to, ascending.
  void add_batch_members(std::vector<Json> documents,
                         std::vector<std::int64_t>& ids,
                         std::vector<Member>& members);
  /// commit()'s `apply` for batch members: moves the member's (already
  /// logged) documents into its shard.
  static void apply_batch(Member& m);  // requires_lock: Shard::mu

  std::string name_;  // guard-ok: immutable after construction
  std::atomic<std::int64_t> next_id_{1};
  // guard-ok: vector shape fixed by single-threaded configure_shards;
  // concurrent phases only dereference the stable unique_ptrs
  std::vector<std::unique_ptr<Shard>> shards_;
  // guard-ok: declared during single-threaded setup, read-only afterwards
  std::vector<std::string> index_paths_;  // declared defs, mirrored per shard
  // guard-ok: attached once before any concurrent use
  engine::StorageEngine* engine_ = nullptr;  // owned by the DocumentStore
};

class DocumentStore {
 public:
  DocumentStore() = default;
  DocumentStore(DocumentStore&&) = default;
  DocumentStore& operator=(DocumentStore&&) = default;

  /// Gets (creating on demand) a collection.
  Collection& collection(const std::string& name);
  const Collection* find_collection(const std::string& name) const;
  std::vector<std::string> collection_names() const;

  /// Result of insert_atomic: assigned ids per collection plus the
  /// durability ticket of the commit record.
  struct AtomicInsert {
    std::map<std::string, std::vector<std::int64_t>> ids;
    engine::CommitTicket ticket;
  };

  /// Inserts documents into SEVERAL collections as one mutation — the
  /// paper's crowd upload writes problem, machine, and run records that
  /// must land whole-or-nothing. In durable mode the whole insert is ONE
  /// WAL append (a commit record, or a shard frame when every document
  /// lands on one shard of one collection), so crash recovery yields all
  /// of it or none; readers see none or all of it, since it applies under
  /// every affected shard writer lock. Throws before any mutation on a
  /// non-object document.
  AtomicInsert insert_atomic(std::map<std::string, std::vector<Json>> docs);

  /// Writes every collection as <dir>/<name>.json (creating dir) — a
  /// one-way, diffable dump for inspection. Not crash-atomic and never read
  /// back: durable stores persist through their WAL/snapshots.
  void export_json(const std::filesystem::path& dir) const;

  /// Opens a directory with the storage engine: replays snapshots + shard
  /// WALs and WAL-logs every subsequent mutation. Refuses (throws
  /// std::runtime_error) a directory of *.json exports without an engine
  /// manifest. See src/db/engine/engine.hpp.
  static DocumentStore open_durable(const std::filesystem::path& dir,
                                    engine::EngineOptions options = {});

  bool durable() const { return engine_ != nullptr; }
  engine::StorageEngine* storage_engine() { return engine_.get(); }

  /// Durable mode: fsync pending group-commit batches / force snapshots
  /// and WAL truncation for every shard of every collection. No-ops when
  /// not durable.
  void sync();
  void checkpoint_all();

 private:
  friend class engine::StorageEngine;

  // guard-ok: map shape fixed during single-threaded setup (open_durable or
  // pre-traffic collection() calls); concurrent phases only look up entries
  std::map<std::string, Collection> collections_;
  // guard-ok: set once by open_durable before any concurrent use
  std::unique_ptr<engine::StorageEngine> engine_;
};

}  // namespace gptc::db
