// Filesystem durability helpers shared by the WAL, snapshot and manifest
// writers.
#pragma once

#include <filesystem>
#include <functional>
#include <string_view>

namespace gptc::db::engine {

/// Best-effort fsync of `path`'s parent directory, making `path`'s own
/// directory entry durable after a create or rename. Failures are ignored:
/// some filesystems refuse to open or fsync directories, and losing the
/// entry is then no worse than before the call.
void sync_parent_dir(const std::filesystem::path& path);

/// Durably replaces `path` with `content`: writes `<path>.tmp`, fsyncs and
/// closes it, renames it over `path` and syncs the parent directory.
/// `before_rename`, if set, runs between the close and the rename (a crash
/// point for fault injection). A failed open, write, fsync or close throws
/// std::runtime_error, prefixed with `who`, before anything is renamed:
/// `path` then still holds its old content.
void replace_file(const std::filesystem::path& path, std::string_view content,
                  std::string_view who,
                  const std::function<void()>& before_rename = {});

}  // namespace gptc::db::engine
