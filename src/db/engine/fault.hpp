// Deterministic fault injection for the storage engine.
//
// Tests arm an injector on the Nth occurrence of a fault point; the engine
// consults it at each durability-critical step and simulates a crash by
// throwing CrashInjected (for WalShortWrite after first writing half the
// frame, modelling a torn record). Because the "crash" is an exception in a
// live process, disk state is exactly what a real kill at that instant
// would leave behind, and tests can then reopen the directory and assert
// the recovery invariants (tests/test_engine.cpp).
//
// The injector counts occurrences even when unarmed, so a test can run the
// workload once with a passive injector to enumerate every fault point,
// then replay it once per point with the trigger armed.
//
// Thread-safe: the async group-commit thread (commit.hpp) fires
// CommitFsync from its own thread while writer threads fire the WAL/
// snapshot points, so all state is guarded by an internal mutex. Crash
// tests still drive a single-writer workload for determinism; the mutex
// only makes the counting itself race-free.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>

namespace gptc::db::engine {

enum class FaultPoint {
  WalAppend,             // fail before any byte of the Nth WAL append
  WalShortWrite,         // write half of the Nth WAL frame, then crash
  SnapshotBeforeRename,  // crash after <name>.snapshot.tmp is synced
  SnapshotAfterRename,   // crash after the rename, before WAL truncation
  CommitFsync,           // crash in the group-commit thread before its Nth
                         // batch fsync: appended-but-unsynced frames are
                         // lost to a power failure and must never be acked
  CommitReserve,         // crash inside a cross-shard logical commit, after
                         // some member shards reserved their sequence slot
                         // but before the commit record was appended — the
                         // "between shard A and shard B" window; recovery
                         // must make the whole commit vanish
  CommitAppend,          // crash immediately before the logical commit
                         // record itself is appended to the engine commit
                         // WAL (every member already reserved)
  RecoverShard,          // crash at the start of the Nth per-shard recovery
                         // task — exercises error propagation out of the
                         // parallel replay and that a failed open leaves
                         // the directory reopenable
};

/// Thrown by the engine when an armed fault fires; tests catch it where a
/// real deployment would have lost the process.
class CrashInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  /// Arms the injector: the `nth` (1-based) occurrence of `point` fires.
  void arm(FaultPoint point, std::uint64_t nth) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_point_ = point;
    armed_nth_ = nth;
  }

  /// Occurrences of `point` seen so far (armed or not).
  std::uint64_t count(FaultPoint point) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counts_.find(point);
    return it == counts_.end() ? 0 : it->second;
  }

  /// Engine-side: records one occurrence and reports whether the armed
  /// trigger fired. The caller decides how to crash (throw, short-write).
  bool fire(FaultPoint point) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t n = ++counts_[point];
    return armed_nth_ != 0 && armed_point_ == point && n == armed_nth_;
  }

 private:
  mutable std::mutex mu_;
  std::map<FaultPoint, std::uint64_t> counts_;
  FaultPoint armed_point_ = FaultPoint::WalAppend;
  std::uint64_t armed_nth_ = 0;  // 0 = disarmed
};

}  // namespace gptc::db::engine
