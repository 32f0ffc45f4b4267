#include "db/engine/engine.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "db/document_store.hpp"
#include "db/engine/fsutil.hpp"
#include "db/engine/snapshot.hpp"
#include "parallel/thread_pool.hpp"

namespace gptc::db::engine {

using json::Json;

namespace {

constexpr const char* kManifestName = "engine.manifest";
constexpr const char* kCommitPrefix = "engine.commit.s";

/// Splits a file stem of the form "<base>.s<k>of<n>". Returns false when
/// the stem carries no shard suffix.
bool parse_shard_stem(const std::string& stem, std::string* base,
                      std::size_t* shard, std::size_t* of) {
  const std::size_t dot = stem.rfind(".s");
  if (dot == std::string::npos || dot == 0) return false;
  const std::string suffix = stem.substr(dot + 2);  // "<k>of<n>"
  const std::size_t of_pos = suffix.find("of");
  if (of_pos == std::string::npos || of_pos == 0) return false;
  const std::string k_str = suffix.substr(0, of_pos);
  const std::string n_str = suffix.substr(of_pos + 2);
  if (n_str.empty()) return false;
  for (char c : k_str)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  for (char c : n_str)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  if (k_str.size() > 9 || n_str.size() > 9) return false;
  *base = stem.substr(0, dot);
  *shard = static_cast<std::size_t>(std::stoul(k_str));
  *of = static_cast<std::size_t>(std::stoul(n_str));
  return *of > 0;
}

/// Shard count embedded in an "engine.commit.s<n>" stem, or 0.
std::size_t parse_commit_stem(const std::string& stem) {
  const std::string prefix = kCommitPrefix;
  if (stem.rfind(prefix, 0) != 0) return 0;
  const std::string n_str = stem.substr(prefix.size());
  if (n_str.empty() || n_str.size() > 9) return 0;
  for (char c : n_str)
    if (!std::isdigit(static_cast<unsigned char>(c))) return 0;
  return static_cast<std::size_t>(std::stoul(n_str));
}

[[noreturn]] void refuse(const std::filesystem::path& path,
                         const std::string& why) {
  throw std::runtime_error("engine: refusing to open " + path.string() +
                           ": " + why);
}

/// The on-disk layout this build reads and writes: every shard named
/// "<coll>.s<k>of<N>" (N = 1 included), and the shard count in the manifest.
constexpr std::int64_t kFormat = 2;

/// Shard count recorded in `dir`'s manifest; nullopt when there is none.
std::optional<std::size_t> read_manifest(const std::filesystem::path& dir) {
  std::ifstream in(dir / kManifestName, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::int64_t format = 0;
  std::int64_t n = 0;
  try {
    const Json j = Json::parse(buf.str());
    format = j.get_or("format", Json(0)).as_int();
    n = j.get_or("shards", Json(0)).as_int();
  } catch (const std::exception& e) {
    refuse(dir, std::string(kManifestName) + " is unreadable: " + e.what());
  }
  if (format != kFormat)
    refuse(dir, std::string(kManifestName) + " has format " +
                    std::to_string(format) + "; this build reads format " +
                    std::to_string(kFormat) + " only");
  if (n < 1)
    refuse(dir, std::string(kManifestName) + " has bad shard count " +
                    std::to_string(n));
  return static_cast<std::size_t>(n);
}

/// Atomically (re)writes engine.manifest — the commit point of a shard-
/// count migration, so it gets the full tmp+fsync+rename+dir-fsync dance.
void write_manifest(const std::filesystem::path& dir, std::size_t shards) {
  Json j = Json::object();
  j["format"] = kFormat;
  j["shards"] = static_cast<std::int64_t>(shards);
  replace_file(dir / kManifestName, j.dump() + "\n", "engine");
}

}  // namespace

StorageEngine::StorageEngine(std::filesystem::path dir, EngineOptions opts)
    : dir_(std::move(dir)), opts_(std::move(opts)) {
  std::filesystem::create_directories(dir_);
  // Make the engine directory's own entry durable, or a crash right after
  // creation can take the whole directory (and its fsynced files) with it.
  sync_parent_dir(dir_);
  if (opts_.async_commit)
    committer_ = std::make_unique<GroupCommitter>(opts_.fault);
}

std::size_t StorageEngine::inline_group_commit() const {
  // Async mode: the WalWriter never fsyncs on its own — the commit thread
  // owns every fsync, so durability acks map 1:1 to its batches.
  return opts_.async_commit ? std::numeric_limits<std::size_t>::max()
                            : opts_.group_commit;
}

std::string StorageEngine::shard_stem(const std::string& collection,
                                      std::size_t shard, std::size_t of) {
  return collection + ".s" + std::to_string(shard) + "of" +
         std::to_string(of);
}

std::string StorageEngine::commit_wal_stem() const {
  return kCommitPrefix + std::to_string(shard_count_);
}

void StorageEngine::recover(DocumentStore& store) {
  replaying_ = true;
  recovery_warnings_.clear();

  // --- classify the directory against the manifest -------------------------
  const std::optional<std::size_t> manifest = read_manifest(dir_);

  std::vector<std::filesystem::path> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    entries.push_back(entry.path());
  // Every engine directory has had a manifest since before its first WAL
  // frame, so engine files without one are another layout (or a damaged
  // directory): refuse rather than guess, and never import JSON exports.
  if (!manifest)
    for (const auto& p : entries) {
      const std::string ext = p.extension().string();
      if (ext == ".wal" || ext == ".snapshot")
        refuse(dir_, p.filename().string() + " is present but " +
                         kManifestName + " is missing; not guessing a "
                         "layout");
      if (ext == ".json")
        refuse(dir_, p.filename().string() +
                         " is a JSON export and " + kManifestName +
                         " is missing; pre-engine JSON exports are no "
                         "longer imported");
    }

  std::set<std::string> collections;  // names with current-layout artifacts
  std::vector<std::filesystem::path> debris;  // stale tmps + wrong-count files
  bool have_commit = false;  // commit WAL matching the manifest count
  std::size_t disk_n = manifest.value_or(1);
  const bool fresh = !manifest;  // no engine artifacts at all
  for (const auto& p : entries) {
    const std::string ext = p.extension().string();
    const std::string stem = p.stem().string();
    if (ext == ".tmp") {
      // Crash before a rename: the tmp never counts, whatever wrote it.
      if (p.stem().extension().string() == ".snapshot" ||
          stem == kManifestName)
        debris.push_back(p);
      continue;
    }
    if (ext != ".wal" && ext != ".snapshot") continue;
    const std::size_t commit_n = parse_commit_stem(stem);
    if (commit_n > 0) {
      if (ext == ".wal" && commit_n == disk_n)
        have_commit = true;
      else
        debris.push_back(p);
      continue;
    }
    std::string base;
    std::size_t k = 0, of = 0;
    if (parse_shard_stem(stem, &base, &k, &of) && of == disk_n && k < of)
      collections.insert(base);
    else
      debris.push_back(p);  // crashed-migration leftovers, never flipped in
  }
  for (const auto& p : debris) std::filesystem::remove(p);
  if (!debris.empty()) sync_parent_dir(dir_ / kManifestName);

  const std::size_t target = opts_.shards == 0 ? (fresh ? 1 : disk_n)
                                               : opts_.shards;
  if (fresh) disk_n = target;  // nothing to migrate from
  shard_count_ = disk_n;

  // --- replay the logical commit WAL --------------------------------------
  // member key: (collection, shard) -> seq -> op payload. The records stay
  // owned by `commit_replay` for the duration of recovery.
  const std::filesystem::path commit_path =
      dir_ / (commit_wal_stem() + ".wal");
  WalReplay commit_replay;
  std::map<std::pair<std::string, std::size_t>, std::map<std::uint64_t, Json>>
      commit_members;
  if (have_commit) {
    commit_replay = replay_wal(commit_path, wal_format());
    if (commit_replay.error)
      refuse(commit_path, *commit_replay.error);
    if (commit_replay.torn_tail)
      recovery_warnings_.push_back(
          commit_wal_stem() +
          ": torn final commit record dropped; log truncated to byte " +
          std::to_string(commit_replay.valid_bytes));
    for (const auto& rec : commit_replay.records) {
      for (const auto& m : rec.payload.at("m").as_array()) {
        const std::string coll = m.at("c").as_string();
        const auto shard = static_cast<std::size_t>(m.at("s").as_int());
        const auto seq = static_cast<std::uint64_t>(m.at("q").as_int());
        if (shard >= disk_n)
          refuse(commit_path, "commit record seq " + std::to_string(rec.seq) +
                                  " names shard " + std::to_string(shard) +
                                  " of '" + coll + "' but the store has " +
                                  std::to_string(disk_n) + " shard(s)");
        collections.insert(coll);
        commit_members[{coll, shard}].emplace(seq, m.at("op"));
      }
    }
  }

  // --- per-shard parallel recovery -----------------------------------------
  struct ShardTask {
    Collection* c = nullptr;
    std::string name;
    std::size_t shard = 0;
    std::string stem;
    std::uint64_t next_seq = 1;
    std::uint64_t valid_bytes = 0;
    std::string warning;
  };
  std::vector<ShardTask> tasks;
  for (const std::string& name : collections) {
    Collection& c = store.collection(name);
    for (std::size_t k = 0; k < disk_n; ++k) {
      ShardTask t;
      t.c = &c;
      t.name = name;
      t.shard = k;
      t.stem = shard_stem(name, k, disk_n);
      tasks.push_back(std::move(t));
    }
  }

  const auto run_task = [&](std::size_t i) {
    ShardTask& t = tasks[i];
    if (opts_.fault && opts_.fault->fire(FaultPoint::RecoverShard))
      throw CrashInjected("injected crash in shard recovery task for " +
                          t.stem);
    const std::filesystem::path wal_path = dir_ / (t.stem + ".wal");
    std::uint64_t last_seq = 0;
    if (const auto snap = read_snapshot(dir_ / (t.stem + ".snapshot"))) {
      t.c->restore_shard(t.shard, snap->collection_state);
      last_seq = snap->last_seq;
    }
    const WalReplay replay = replay_wal(wal_path, wal_format());
    if (replay.error) refuse(wal_path, *replay.error);
    if (replay.torn_tail)
      t.warning = t.stem +
                  ": torn final WAL record dropped; log truncated to byte " +
                  std::to_string(replay.valid_bytes);

    // Merge the shard's own frames with its logical-commit members back
    // into application order — they share one sequence space (reserve()).
    const auto cm_it = commit_members.find({t.name, t.shard});
    const std::map<std::uint64_t, Json> empty;
    const auto& members = cm_it == commit_members.end() ? empty : cm_it->second;
    auto lit = replay.records.begin();
    auto mit = members.begin();
    std::uint64_t max_seq = last_seq;
    const auto apply = [&](std::uint64_t seq, const Json& payload) {
      max_seq = std::max(max_seq, seq);
      // Records at or below the snapshot's last_seq are already reflected
      // in the snapshot (crash between rename and WAL truncation).
      if (seq <= last_seq) return;
      try {
        t.c->replay_shard_op(t.shard, payload);
      } catch (const CrashInjected&) {
        throw;
      } catch (const std::exception& e) {
        // A record that passed the CRC but fails to apply is a logic bug
        // or hand-edited log; surface it as this engine's refusal, with
        // the shard and sequence number, not as a bare propagated error
        // from three layers down.
        refuse(wal_path, "record seq " + std::to_string(seq) +
                             " failed to apply to '" + t.stem +
                             "': " + e.what());
      } catch (...) {
        refuse(wal_path, "record seq " + std::to_string(seq) +
                             " failed to apply to '" + t.stem + "'");
      }
    };
    while (lit != replay.records.end() || mit != members.end()) {
      if (mit == members.end() ||
          (lit != replay.records.end() && lit->seq < mit->first)) {
        apply(lit->seq, lit->payload);
        ++lit;
      } else {
        apply(mit->first, mit->second);
        ++mit;
      }
    }
    t.next_seq = max_seq + 1;
    t.valid_bytes = replay.valid_bytes;
  };

  // Shards are disjoint state (distinct (collection, shard) pairs), so the
  // tasks parallelize freely; parallel_for rethrows the lowest-index
  // failure deterministically and the serial fallback is bit-identical.
  std::size_t workers =
      opts_.recovery_threads != 0
          ? opts_.recovery_threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, tasks.size());
  if (workers > 1 && tasks.size() > 1) {
    parallel::ThreadPool pool(workers);
    parallel::parallel_for(&pool, tasks.size(), run_task);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) run_task(i);
  }
  for (const auto& t : tasks)
    if (!t.warning.empty()) recovery_warnings_.push_back(t.warning);

  // --- settle the final layout ---------------------------------------------
  if (target != disk_n) {
    migrate_shard_count(store, disk_n, target);
  } else {
    if (!manifest) write_manifest(dir_, shard_count_);
    for (const auto& t : tasks) {
      Wal w;
      w.wal = std::make_unique<WalWriter>(
          dir_ / (t.stem + ".wal"), wal_format(), inline_group_commit(),
          t.next_seq, t.valid_bytes, opts_.fault);
      std::lock_guard<std::mutex> lock(wals_mu_);
      auto [it, inserted] = wals_.emplace(t.stem, std::move(w));
      (void)inserted;
      if (committer_) {
        committer_->attach(t.stem, it->second.wal.get());
        // Everything replayed is already on disk.
        committer_->mark_durable(t.stem, t.next_seq - 1);
      }
    }
    if (have_commit) {
      std::uint64_t next = 1;
      for (const auto& rec : commit_replay.records)
        next = std::max(next, rec.seq + 1);
      Wal w;
      w.wal = std::make_unique<WalWriter>(
          commit_path, wal_format(), inline_group_commit(), next,
          commit_replay.valid_bytes, opts_.fault);
      std::lock_guard<std::mutex> lock(wals_mu_);
      auto [it, inserted] = wals_.emplace(commit_wal_stem(), std::move(w));
      (void)inserted;
      if (committer_) {
        committer_->attach(commit_wal_stem(), it->second.wal.get());
        committer_->mark_durable(commit_wal_stem(), next - 1);
      }
    }
  }

  store_ = &store;
  replaying_ = false;
}

void StorageEngine::migrate_shard_count(DocumentStore& store,
                                        std::size_t from, std::size_t to) {
  // The store is fully recovered in memory at `from` shards and no
  // WalWriters exist yet. Re-bucket, write the complete new layout as
  // snapshots, and only then flip the manifest — the single commit point.
  // A crash before the flip leaves the old layout authoritative (the new
  // files are wrong-count debris next open); a crash after it leaves the
  // new layout complete (the old files are the debris).
  for (auto& [name, c] : store.collections_) {
    (void)name;
    c.configure_shards(to);
  }
  shard_count_ = to;
  for (auto& [name, c] : store.collections_) {
    for (std::size_t k = 0; k < to; ++k)
      write_snapshot(dir_ / (shard_stem(name, k, to) + ".snapshot"),
                     c.shard_to_json(k), /*last_seq=*/0, opts_.fault);
  }
  write_manifest(dir_, to);  // the flip

  // Old-layout cleanup; a crash here is fine, the next open deletes the
  // rest as debris.
  for (const auto& [name, c] : store.collections_) {
    (void)c;
    for (std::size_t k = 0; k < from; ++k) {
      std::filesystem::remove(dir_ / (shard_stem(name, k, from) + ".wal"));
      std::filesystem::remove(dir_ /
                              (shard_stem(name, k, from) + ".snapshot"));
    }
  }
  std::filesystem::remove(dir_ / (std::string(kCommitPrefix) +
                                  std::to_string(from) + ".wal"));
  sync_parent_dir(dir_ / kManifestName);
}

WalWriter& StorageEngine::wal_for(const std::string& key) {
  std::lock_guard<std::mutex> lock(wals_mu_);
  auto it = wals_.find(key);
  if (it == wals_.end()) {
    Wal w;
    w.wal = std::make_unique<WalWriter>(
        dir_ / (key + ".wal"), wal_format(), inline_group_commit(),
        /*next_seq=*/1, /*existing_bytes=*/0, opts_.fault);
    it = wals_.emplace(key, std::move(w)).first;
    if (committer_) committer_->attach(key, it->second.wal.get());
  }
  return *it->second.wal;
}

WalWriter* StorageEngine::find_wal(const std::string& key) const {
  std::lock_guard<std::mutex> lock(wals_mu_);
  const auto it = wals_.find(key);
  return it == wals_.end() ? nullptr : it->second.wal.get();
}

CommitTicket StorageEngine::log_op(Collection& c, std::size_t shard,
                                   const Json& op) {
  if (replaying_) return {};
  std::string key = shard_stem(c.name(), shard, shard_count_);
  const std::uint64_t seq = wal_for(key).append(op);
  if (committer_) committer_->notify_logged(key, seq);
  return CommitTicket{std::move(key), seq};
}

CommitTicket StorageEngine::log_commit(
    const std::vector<CommitMember>& members) {
  if (replaying_ || members.empty()) return {};
  Json frame = Json::object();
  Json ms = Json::array();
  for (const auto& member : members) {
    // The window the crash matrix cares about: some shards have reserved
    // their slot, others have not, and the commit record does not exist —
    // recovery must make the whole commit vanish (slots are mere gaps).
    if (opts_.fault && opts_.fault->fire(FaultPoint::CommitReserve))
      throw CrashInjected("injected crash between shard reservations of a "
                          "logical commit");
    const std::string stem =
        shard_stem(member.collection->name(), member.shard, shard_count_);
    const std::uint64_t seq = wal_for(stem).reserve();
    Json m = Json::object();
    m["c"] = member.collection->name();
    m["s"] = static_cast<std::int64_t>(member.shard);
    m["q"] = static_cast<std::int64_t>(seq);
    m["op"] = member.op;
    ms.as_array().push_back(std::move(m));
  }
  frame["m"] = std::move(ms);
  if (opts_.fault && opts_.fault->fire(FaultPoint::CommitAppend))
    throw CrashInjected(
        "injected crash before the logical commit record append");
  const std::string key = commit_wal_stem();
  const std::uint64_t seq = wal_for(key).append(frame);
  if (committer_) committer_->notify_logged(key, seq);
  return CommitTicket{key, seq};
}

std::uint64_t StorageEngine::last_logged_seq(const std::string& wal) const {
  WalWriter* w = find_wal(wal);
  return w == nullptr ? 0 : w->next_seq() - 1;
}

void StorageEngine::wait_durable(const std::string& wal, std::uint64_t seq) {
  if (seq == 0) return;
  if (committer_) {
    committer_->wait_durable(wal, seq);
    return;
  }
  WalWriter* w = find_wal(wal);
  if (w != nullptr) w->sync();
}

std::uint64_t StorageEngine::wal_synced_bytes(const std::string& wal) const {
  WalWriter* w = find_wal(wal);
  return w == nullptr ? 0 : w->synced_bytes();
}

std::uint64_t StorageEngine::wal_bytes(const std::string& wal) const {
  WalWriter* w = find_wal(wal);
  return w == nullptr ? 0 : w->bytes();
}

void StorageEngine::maybe_checkpoint(Collection& c, std::size_t shard) {
  if (replaying_) return;
  const std::string key = shard_stem(c.name(), shard, shard_count_);
  if (wal_for(key).bytes() >= opts_.checkpoint_wal_bytes)
    checkpoint_shard(c, shard);
}

void StorageEngine::checkpoint(Collection& c) {
  for (std::size_t k = 0; k < c.shard_count(); ++k) checkpoint_shard(c, k);
}

void StorageEngine::sync_commit_wal_if_pending() {
  WalWriter* cw = find_wal(commit_wal_stem());
  if (cw != nullptr && cw->bytes() > cw->synced_bytes()) cw->sync();
}

void StorageEngine::checkpoint_shard(Collection& c, std::size_t shard) {
  // One checkpoint at a time, engine-wide: checkpoints are rare
  // (size-amortized), and serializing them keeps an older capture from
  // renaming its snapshot over a newer one after the newer one already
  // truncated the WAL.
  std::lock_guard<std::mutex> ckpt(checkpoint_mu_);
  const std::string key = shard_stem(c.name(), shard, shard_count_);
  WalWriter& w = wal_for(key);
  Json state;
  std::uint64_t last_seq = 0;
  {
    // The shard's writer lock is held only for this in-memory capture —
    // readers and writers proceed while the snapshot hits the disk below.
    std::unique_lock lock(c.shards_[shard]->mu);
    last_seq = w.next_seq() - 1;
    state = c.shard_to_json(shard);
  }
  // The captured state may include applied members of logical commits;
  // their commit records must hit the disk before the snapshot exists, or
  // a power loss could keep this member (inside the snapshot) while
  // erasing every other one. Synced after the capture so every record
  // covering captured state is included.
  sync_commit_wal_if_pending();
  write_snapshot(dir_ / (key + ".snapshot"), std::move(state), last_seq,
                 opts_.fault);
  // Compact the WAL only if nothing was appended since the capture: a
  // record that landed in between is not covered by the snapshot and must
  // survive for replay (recovery skips seq <= the snapshot's last_seq).
  w.reset_if_covered(last_seq);
  // The snapshot was fsynced before its rename, so everything up to
  // last_seq is durable without a WAL fsync — release any waiters.
  if (committer_) committer_->mark_durable(key, last_seq);
}

void StorageEngine::checkpoint_all() {
  if (store_ == nullptr) return;
  // Exclusive gate: no logical commit is in flight, and none can start, so
  // after every shard is snapshotted the commit WAL is fully covered.
  std::unique_lock gate(commit_gate_);
  for (auto& [name, c] : store_->collections_) {
    (void)name;
    for (std::size_t k = 0; k < c.shard_count(); ++k) checkpoint_shard(c, k);
  }
  WalWriter* cw = find_wal(commit_wal_stem());
  if (cw != nullptr) {
    const std::uint64_t last_seq = cw->next_seq() - 1;
    cw->reset();
    if (committer_) committer_->mark_durable(commit_wal_stem(), last_seq);
  }
}

void StorageEngine::maybe_compact_commits() {
  if (replaying_) return;
  WalWriter* cw = find_wal(commit_wal_stem());
  if (cw == nullptr || cw->bytes() < opts_.checkpoint_wal_bytes) return;
  checkpoint_all();
}

void StorageEngine::sync() {
  if (committer_) {
    committer_->flush_all();
    return;
  }
  std::lock_guard<std::mutex> lock(wals_mu_);
  for (auto& [key, w] : wals_) {
    (void)key;
    w.wal->sync();
  }
}

}  // namespace gptc::db::engine
