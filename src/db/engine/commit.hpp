// Asynchronous group commit: a dedicated thread that batches WAL fsyncs.
//
// With EngineOptions::async_commit on, Collection mutators append WAL
// frames without ever paying fsync latency inline (the WalWriter is opened
// with an effectively-infinite inline group-commit threshold). Each append
// instead notifies this committer, whose single background thread picks up
// every shard with unsynced frames, fsyncs each WAL once, and advances that
// shard's durable sequence number. Writers that need a durability ack (the
// network server acks clients only once their batch is on disk) block in
// wait_durable(seq) until the commit thread's fsync covers their frames —
// so N concurrent writers share one fsync per batch instead of paying one
// each, which is where the 10k+ writes/s of bench_server comes from.
//
// Checkpoints interact through mark_durable: a snapshot covers every logged
// record and is itself fsynced, so after WAL compaction the checkpointing
// thread marks the shard durable up to the snapshot's last_seq without an
// extra WAL fsync.
//
// Crash model (FaultPoint::CommitFsync): when the armed fault fires in the
// commit thread before its Nth batch fsync, the committer transitions to a
// crashed state — every current and future wait_durable throws
// CrashInjected, exactly as a real power failure would leave those clients
// un-acked. Frames appended after the last successful fsync are then "in
// the page cache only": tests truncate the WAL file to
// WalWriter::synced_bytes() to model the power loss and assert recovery
// yields exactly the acked prefix (tests/test_engine.cpp).
//
// Lock order: the committer's mutex is a leaf taken after any collection
// writer lock (log_op -> notify_logged, checkpoint -> mark_durable) and is
// never held across a WalWriter call — the commit thread drops it around
// the fsync, so notify_logged and wait_durable never wait on the disk.
// Appenders to the WAL being synced still can: WalWriter::sync holds that
// writer's own mutex across fdatasync, so an append to the same shard
// waits for the sync in progress.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "db/engine/fault.hpp"

namespace gptc::db::engine {

class WalWriter;

class GroupCommitter {
 public:
  explicit GroupCommitter(FaultInjector* fault);
  /// Stops the commit thread. Pending waiters are woken and see a
  /// "stopped" error; a clean shutdown calls flush_all() first.
  ~GroupCommitter();

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Registers a shard's WAL with the commit thread. `wal` must outlive
  /// this committer (the engine destroys the committer before its shards).
  void attach(const std::string& shard, WalWriter* wal);

  /// Writer-side, after an append: records that frames up to `seq` exist
  /// and wakes the commit thread.
  void notify_logged(const std::string& shard, std::uint64_t seq);

  /// Marks seqs <= `seq` durable without an fsync — the caller just wrote
  /// (and fsynced) a snapshot covering them.
  void mark_durable(const std::string& shard, std::uint64_t seq);

  /// Blocks until every frame of `shard` with sequence <= `seq` is on disk.
  /// Throws CrashInjected if the commit thread hit an armed fault, and
  /// std::runtime_error on a real fsync failure or post-stop use. seq 0
  /// returns immediately.
  void wait_durable(const std::string& shard, std::uint64_t seq);

  /// Synchronously fsyncs every shard with pending frames on the calling
  /// thread (DocumentStore::sync()). Throws if the committer has crashed.
  void flush_all();

 private:
  struct ShardState {
    WalWriter* wal = nullptr;
    std::uint64_t logged = 0;   // highest appended seq
    std::uint64_t durable = 0;  // highest fsynced / snapshot-covered seq
  };

  void run() noexcept;
  /// Fsyncs every shard whose logged > durable; returns false after
  /// recording a crash (injected fault or real I/O error). Takes and
  /// releases mu_ internally; never holds it across fsync.
  bool commit_pending(bool fire_fault);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // commit thread sleeps here
  std::condition_variable done_cv_;  // durability waiters sleep here
  std::map<std::string, ShardState> shards_;  // guarded_by: mu_
  bool stop_ = false;                         // guarded_by: mu_
  bool crashed_ = false;                      // guarded_by: mu_
  std::string crash_reason_;                  // guarded_by: mu_
  // guard-ok: not owned, may be nullptr; set once before the thread starts
  FaultInjector* fault_;
  std::thread thread_;  // last member: joined before state is destroyed
};

}  // namespace gptc::db::engine
