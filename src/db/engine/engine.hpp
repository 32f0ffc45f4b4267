// StorageEngine — the durability subsystem under DocumentStore.
//
// One engine owns one directory. Every collection is split into N shards
// (uniform per store, N = EngineOptions::shards or whatever the directory
// was written with), and each shard owns its own write-ahead log and
// snapshot, so writers to different shards never share an fsync batch or a
// WAL mutex. The existing Collection/DocumentStore API sits unchanged on
// top: every insert/update/remove appends an operation frame to its
// shard's WAL *before* mutating memory (write-ahead), and once a shard's
// WAL outgrows `checkpoint_wal_bytes` that shard alone is checkpointed —
// an atomic snapshot write followed by WAL truncation (compaction).
// Opening a directory replays every shard's snapshot + WAL tail in
// parallel (src/parallel), tolerating a torn final record per log.
//
// On-disk layout, format 2 (N = shard count, N = 1 included):
//
//   engine.manifest               {"format":2,"shards":N} — atomic flip
//   <coll>.s<k>of<N>.wal / ...snapshot        k in [0, N)
//   engine.commit.s<N>.wal        logical cross-shard commit records
//
// The manifest is written before the first WAL frame, so every engine
// directory has one. Opening refuses, naming the directory, a manifest of
// any other format and .wal/.snapshot files without a manifest (such as
// the unversioned <coll>.wal names older builds wrote at N = 1). Opening
// with a different EngineOptions::shards than the directory holds
// migrates it: the store is recovered at the old count, repartitioned in
// memory, written out as full-coverage snapshots under the new names, and
// committed by atomically rewriting engine.manifest — the single flip
// point. Files whose embedded shard count disagrees with the manifest are
// debris from a crashed migration (the flip never happened, or cleanup
// never finished) and are deleted on open.
//
// Shard WAL operation payloads (compact JSONL, see wal.hpp for framing):
//
//   {"o":"b","ds":[{...},...]}               insert (one or more docs)
//   {"o":"u","q":{...},"u":{...}}            update(query, fields)
//   {"o":"r","q":{...}}                      remove(query)
//
// Every mutation is ONE WAL append (Collection::commit, the store's one
// write primitive). A mutation with one member (collection shard) is one
// frame in that shard's WAL. One with several members (a batch insert
// whose documents hash apart, an N>1 update/remove, a
// DocumentStore::insert_atomic crowd upload touching problem + machine +
// runs collections) is a logical commit: ONE frame in the engine commit
// WAL:
//
//   {"m":[{"c":<coll>,"s":<shard>,"q":<seq>,"op":{...}}, ...]}
//
// Each member shard only *reserves* a slot in its own sequence space
// (WalWriter::reserve — no frame), and the commit record carries those
// seqs, so replay merges a shard's local frames with its commit members
// back into exact application order. Atomicity is the single frame:
// recovery applies every member or — when the record never reached the
// disk — none, and the durability ack (CommitTicket) waits on the commit
// WAL alone. Before any shard snapshot is written the commit WAL is
// fsynced, so a snapshot can never durably cover one member of a commit
// whose record (and hence whose other members) a power loss could erase.
//
// Concurrency and lock order (outermost first):
//   commit_gate (shared for cross-shard commits, exclusive for commit-WAL
//   compaction) -> collection shard shared_mutexes (collection name order,
//   then ascending shard index) -> WalWriter/GroupCommitter internal
//   mutexes (leaves). Single-member mutations skip the gate entirely.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/engine/commit.hpp"
#include "db/engine/fault.hpp"
#include "db/engine/siphash.hpp"
#include "db/engine/wal.hpp"
#include "json/json.hpp"

namespace gptc::db {
class Collection;
class DocumentStore;
}  // namespace gptc::db

namespace gptc::db::engine {

struct EngineOptions {
  /// fsync once per this many WAL appends (group commit); 1 = every append.
  /// Ignored when async_commit is on (the commit thread batches instead).
  std::size_t group_commit = 16;
  /// Checkpoint (snapshot + WAL truncation) when a shard's WAL exceeds
  /// this; the engine commit WAL triggers a full compaction at the same
  /// threshold.
  std::uint64_t checkpoint_wal_bytes = 1u << 20;
  /// Keyed SipHash WAL checksums instead of CRC32 (see wal.hpp).
  std::optional<SipHashKey> wal_checksum_key;
  /// Asynchronous group commit (commit.hpp): appends never fsync inline; a
  /// dedicated commit thread batches fsyncs across writers, and callers
  /// that need a durability ack block in wait_durable(). This is the mode
  /// the network server runs in.
  bool async_commit = false;
  /// Shards per collection: 0 = whatever the directory holds (1 for a
  /// fresh one); any other value migrates the directory on open if it
  /// disagrees.
  std::size_t shards = 0;
  /// Worker threads for parallel shard recovery; 0 = hardware concurrency.
  std::size_t recovery_threads = 0;
  /// Test hook; not owned, may be nullptr.
  FaultInjector* fault = nullptr;
};

/// Durability token: the WAL a mutation's commit frame lives in plus its
/// sequence there. seq 0 means "nothing to wait for" (non-durable store or
/// empty batch). Returned by Collection/DocumentStore mutators and handed
/// back to StorageEngine::wait_durable — the server acks an upload only
/// after its ticket resolves.
struct CommitTicket {
  std::string wal;
  std::uint64_t seq = 0;
};

class StorageEngine {
 public:
  StorageEngine(std::filesystem::path dir, EngineOptions opts);

  const std::filesystem::path& dir() const { return dir_; }
  const EngineOptions& options() const { return opts_; }

  /// Shards per collection for this store (resolved against the directory
  /// manifest; stable after recover()).
  std::size_t shard_count() const { return shard_count_; }

  /// WAL/snapshot file stem for one shard: "<coll>.s<k>of<of>", also at
  /// one shard. Doubles as the GroupCommitter key and the argument to
  /// wal_bytes()/wait_durable().
  static std::string shard_stem(const std::string& collection,
                                std::size_t shard, std::size_t of);

  /// Stem of the engine commit WAL for the current shard count.
  std::string commit_wal_stem() const;

  /// Rebuilds every collection found in the directory (snapshots, shard
  /// WALs, commit-WAL members) into `store`, attaching the engine to
  /// each; shards recover in parallel. Called once by
  /// DocumentStore::open_durable before the store is visible to anyone.
  /// Performs the shard-count migration when EngineOptions::shards
  /// disagrees with the directory. Throws std::runtime_error when an
  /// artifact is rejected rather than merely torn: a manifest whose format
  /// is not 2, a snapshot that exists but fails its checksum/parse, a WAL
  /// with mid-log corruption / a wrong checksum key, WAL or snapshot files
  /// without a manifest, or `*.json` exports without a manifest
  /// (pre-engine exports are not imported, and opening them as an empty
  /// store would hide their records) — refusing to open beats silently
  /// discarding committed records.
  void recover(DocumentStore& store);

  /// Non-fatal recovery notes from the last recover() call — one entry per
  /// shard whose WAL ended in a torn final record (truncated back to the
  /// last complete frame). Deterministic order (collection, then shard).
  const std::vector<std::string>& recovery_warnings() const {
    return recovery_warnings_;
  }

  /// Appends one op frame to shard `shard` of `c` and returns its ticket
  /// (seq 0 while replaying). Called by Collection::commit under that
  /// shard's writer lock, before the op is applied in memory.
  CommitTicket log_op(Collection& c, std::size_t shard, const json::Json& op);

  /// One member of a mutation: a collection shard and its op payload.
  struct CommitMember {
    Collection* collection = nullptr;
    std::size_t shard = 0;
    json::Json op;
  };

  /// Appends ONE commit-WAL frame covering every member, reserving each
  /// member's slot in its shard's sequence space first. The caller must
  /// hold commit_gate() shared plus every member shard's writer lock, and
  /// applies the members in memory only after this returns. Throws (and
  /// leaves nothing to recover — reserved slots are mere gaps) at the
  /// CommitReserve/CommitAppend fault points and on I/O failure.
  CommitTicket log_commit(const std::vector<CommitMember>& members);

  /// Outermost lock of the engine: cross-shard commits hold it shared,
  /// commit-WAL compaction exclusively. See the lock-order note above.
  std::shared_mutex& commit_gate() { return commit_gate_; }

  /// Highest WAL sequence logged for the WAL keyed `wal` — a shard_stem()
  /// or commit_wal_stem() value (0 if that WAL does not exist yet).
  std::uint64_t last_logged_seq(const std::string& wal) const;

  /// Blocks until every frame of WAL `wal` with sequence <= `seq` is
  /// durable (fsynced frames or a covering snapshot). With async_commit
  /// this waits on the commit thread and throws CrashInjected if it hit an
  /// armed fault; otherwise it fsyncs inline. seq 0 is a no-op.
  void wait_durable(const std::string& wal, std::uint64_t seq);
  void wait_durable(const CommitTicket& ticket) {
    wait_durable(ticket.wal, ticket.seq);
  }

  /// WAL bytes known durable (last fsync) for one WAL — the offset crash
  /// tests truncate to when modelling a power loss.
  std::uint64_t wal_synced_bytes(const std::string& wal) const;

  /// Current size of one WAL (0 if it does not exist yet).
  std::uint64_t wal_bytes(const std::string& wal) const;

  /// Checkpoints shard `shard` of `c` if its WAL crossed the threshold.
  /// Called by Collection mutators AFTER releasing the shard's writer lock
  /// (checkpoint_shard takes it briefly for the state capture; the snapshot
  /// I/O runs with the shard unlocked).
  // blocking-ok: size-amortized checkpoint entry point — the snapshot I/O runs outside any shard lock
  void maybe_checkpoint(Collection& c, std::size_t shard);

  /// Forces a checkpoint of every shard of `c` (takes the shard locks
  /// itself, one brief capture at a time).
  void checkpoint(Collection& c);

  /// Full compaction: checkpoints every shard of every collection and
  /// truncates the engine commit WAL (whose records the fresh snapshots
  /// now cover). Takes commit_gate() exclusively.
  void checkpoint_all();

  /// Size-triggered checkpoint_all(): runs when the commit WAL outgrew
  /// checkpoint_wal_bytes. Callers must hold NO engine or shard locks.
  // blocking-ok: size-amortized compaction entry point — runs with no caller-held locks, only past the WAL size threshold
  void maybe_compact_commits();

  /// fsyncs all WALs' pending group-commit batches.
  void sync();

 private:
  struct Wal {
    std::unique_ptr<WalWriter> wal;
  };

  WalFormat wal_format() const { return WalFormat{opts_.wal_checksum_key}; }
  /// Inline (WalWriter-side) fsync batching: disabled entirely in async
  /// mode, where the commit thread owns every fsync.
  std::size_t inline_group_commit() const;
  /// Gets (creating empty on first touch) the WAL keyed `key`, stored at
  /// dir_/<key>.wal.
  WalWriter& wal_for(const std::string& key);
  WalWriter* find_wal(const std::string& key) const;
  /// Commit records folded into a snapshot must be durable first — else a
  /// power loss could keep the snapshot (one member applied) but erase the
  /// record (every other member lost). Cheap when nothing is pending.
  void sync_commit_wal_if_pending();
  /// Snapshots one shard and compacts its WAL. Takes the shard's writer
  /// lock only for the in-memory state capture; the commit-WAL sync, the
  /// snapshot write and the WAL truncation all run with the shard unlocked,
  /// so writers block for the serialization, not the disk.
  void checkpoint_shard(Collection& c, std::size_t shard);
  // guard-ok: single-threaded recovery-time shard-count migration
  void migrate_shard_count(DocumentStore& store, std::size_t from,
                           std::size_t to);

  std::filesystem::path dir_;  // guard-ok: immutable after construction
  EngineOptions opts_;         // guard-ok: immutable after construction
  // guard-ok: written only during single-threaded recovery/migration
  std::size_t shard_count_ = 1;
  // guard-ok: written only during single-threaded recovery
  std::vector<std::string> recovery_warnings_;
  // guard-ok: toggled only during single-threaded recovery replay
  bool replaying_ = false;
  // guard-ok: set once by recover() before any concurrent use
  DocumentStore* store_ = nullptr;  // owner of this engine
  std::shared_mutex commit_gate_;
  /// Serializes whole checkpoints. Without it, two threads interleaving
  /// capture and rename for the same shard could install an older snapshot
  /// over a newer one after the newer one already truncated the WAL.
  std::mutex checkpoint_mu_;
  mutable std::mutex wals_mu_;  // guards the map shape only
  std::map<std::string, Wal> wals_;  // guarded_by: wals_mu_
  /// Async commit thread; null unless opts_.async_commit. Declared last so
  /// it is destroyed (thread joined) before the WALs it points into.
  std::unique_ptr<GroupCommitter> committer_;
};

}  // namespace gptc::db::engine
