// Atomic collection snapshots.
//
// A snapshot is the full serialized collection state plus the WAL sequence
// number it covers, written as a single checksummed line:
//
//   <crc32:8 hex> {"format":1,"last_seq":N,"collection":{...}}\n
//
// Writes are crash-atomic: the state goes to `<final>.tmp`, is fsync'd,
// and is renamed over the final path (POSIX rename atomicity), after which
// the directory is fsync'd. A crash before the rename leaves the old
// snapshot (or none) plus the intact WAL; a crash after it leaves the new
// snapshot plus a WAL whose records up to `last_seq` are replay-skipped —
// either way recovery reconstructs exactly the committed state. Stale
// `.tmp` files are discarded on open.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>

#include "db/engine/fault.hpp"
#include "json/json.hpp"

namespace gptc::db::engine {

struct Snapshot {
  json::Json collection_state;  // Collection::to_json() shape
  std::uint64_t last_seq = 0;   // highest WAL seq the snapshot includes
};

/// nullopt if the file is missing (recovery then falls back to WAL-only
/// replay). A snapshot that EXISTS but fails its
/// checksum, parse, or format check throws std::runtime_error instead:
/// falling back to an older source would silently resurrect stale state.
std::optional<Snapshot> read_snapshot(const std::filesystem::path& path);

/// Atomically replaces `path` with the given state. Throws CrashInjected at
/// an armed SnapshotBeforeRename/SnapshotAfterRename fault point.
void write_snapshot(const std::filesystem::path& path,
                    const json::Json& collection_state, std::uint64_t last_seq,
                    FaultInjector* fault);

}  // namespace gptc::db::engine
