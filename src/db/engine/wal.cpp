#include "db/engine/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "db/engine/checksum.hpp"
#include "db/engine/fsutil.hpp"

namespace gptc::db::engine {

namespace {

std::string frame_checksum(const WalFormat& fmt, std::string_view body) {
  if (fmt.checksum_key) return hex64(siphash24(*fmt.checksum_key, body));
  return hex32(crc32(body));
}

/// Validates one complete line as a frame; nullopt on any mismatch.
std::optional<WalRecord> parse_frame(const WalFormat& fmt,
                                     std::string_view line) {
  const std::size_t checksum_width = fmt.checksum_key ? 16 : 8;
  // "<seq:16> <checksum> <payload>" — minimum length check first.
  if (line.size() < 16 + 1 + checksum_width + 1 + 1 || line[16] != ' ' ||
      line[16 + 1 + checksum_width] != ' ')
    return std::nullopt;
  const std::string_view seq_hex = line.substr(0, 16);
  const std::string_view checksum = line.substr(17, checksum_width);
  const std::string_view payload = line.substr(16 + 1 + checksum_width + 1);
  const auto seq = parse_hex64(seq_hex);
  if (!seq) return std::nullopt;
  std::string body;
  body.reserve(seq_hex.size() + 1 + payload.size());
  body.append(seq_hex).append(" ").append(payload);
  if (frame_checksum(fmt, body) != checksum) return std::nullopt;
  WalRecord rec;
  rec.seq = *seq;
  try {
    rec.payload = json::Json::parse(payload);
  } catch (const json::JsonError&) {
    return std::nullopt;
  }
  return rec;
}

void write_all(int fd, const char* data, std::size_t len,
               const std::filesystem::path& path) {
  std::size_t off = 0;
  while (off < len) {
    // blocking-ok: the write-ahead contract — the record must reach the disk before the in-memory apply, and the WAL mutex is what orders the frames
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("wal: write failed for " + path.string() +
                               ": " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

WalReplay replay_wal(const std::filesystem::path& path, const WalFormat& fmt) {
  WalReplay out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no log yet
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl != std::string::npos) {
      if (auto rec =
              parse_frame(fmt, std::string_view(text.data() + pos, nl - pos))) {
        out.records.push_back(std::move(*rec));
        pos = nl + 1;
        out.valid_bytes = pos;
        continue;
      }
    }
    // Bad frame. A real crash can tear at most the FINAL record, so only
    // classify the failure as a torn tail when it looks like one:
    //  - an incomplete final line (the frame's own trailing '\n' never hit
    //    the disk), or
    //  - a complete final line failing after earlier frames validated under
    //    this format (so the format/key is provably right and the last
    //    sector was mangled by the crash).
    // Everything else — more data after the bad frame, or a complete first
    // line that fails — is mid-log corruption or a wrong checksum key: the
    // log must be refused, never truncated.
    if (nl == std::string::npos) {
      out.torn_tail = true;
    } else if (nl + 1 >= text.size() && !out.records.empty()) {
      out.torn_tail = true;
    } else {
      out.error = "invalid frame at byte offset " + std::to_string(pos) +
                  (nl + 1 >= text.size()
                       ? " (first frame of a non-empty log failed "
                         "validation: corrupt log or wrong checksum key)"
                       : " with further data after it (mid-log corruption "
                         "or wrong checksum key)");
    }
    break;
  }
  return out;
}

WalWriter::WalWriter(std::filesystem::path path, WalFormat fmt,
                     std::size_t group_commit, std::uint64_t next_seq,
                     std::uint64_t existing_bytes, FaultInjector* fault)
    : path_(std::move(path)),
      fmt_(fmt),
      group_commit_(group_commit == 0 ? 1 : group_commit),
      next_seq_(next_seq),
      bytes_(existing_bytes),
      synced_bytes_(existing_bytes),
      fault_(fault) {
  const bool existed = std::filesystem::exists(path_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0)
    throw std::runtime_error("wal: cannot open " + path_.string() + ": " +
                             std::strerror(errno));
  // A freshly created log's directory entry must survive a crash too, or
  // the first fsynced frames vanish with it.
  if (!existed) sync_parent_dir(path_);
  // Drop any torn tail left by a crash so new frames start on a boundary.
  if (::ftruncate(fd_, static_cast<off_t>(existing_bytes)) != 0)
    throw std::runtime_error("wal: cannot truncate " + path_.string() + ": " +
                             std::strerror(errno));
  if (::lseek(fd_, static_cast<off_t>(existing_bytes), SEEK_SET) < 0)
    throw std::runtime_error("wal: cannot seek " + path_.string() + ": " +
                             std::strerror(errno));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

std::uint64_t WalWriter::append(const json::Json& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = next_seq_;
  const std::string seq_hex = hex64(seq);
  // Serialize once: the buffer holds "<seq> <payload>" — the checksummed
  // bytes — and the checksum is then spliced in after the seq.
  std::string frame = seq_hex + " ";
  payload.dump_to(frame);
  frame.insert(seq_hex.size() + 1, frame_checksum(fmt_, frame) + " ");
  frame += '\n';

  if (fault_ && fault_->fire(FaultPoint::WalAppend))
    throw CrashInjected("injected crash before WAL append (seq " + seq_hex +
                        ")");
  if (fault_ && fault_->fire(FaultPoint::WalShortWrite)) {
    // Torn record: half the frame reaches the disk, then the process dies.
    write_all(fd_, frame.data(), frame.size() / 2, path_);
    // blocking-ok: fault-injection path — modelling the crash needs the torn bytes durable first
    ::fsync(fd_);
    throw CrashInjected("injected crash mid WAL append (seq " + seq_hex +
                        ")");
  }

  write_all(fd_, frame.data(), frame.size(), path_);
  bytes_ += frame.size();
  ++next_seq_;
  if (++pending_ >= group_commit_) sync_locked();
  return seq;
}

std::uint64_t WalWriter::reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_++;
}

void WalWriter::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  sync_locked();
}

void WalWriter::sync_locked() {
  if (pending_ == 0) return;
  // fdatasync, not fsync: an append needs only the data and the file size
  // durable, and fdatasync is required to flush the size when a write
  // extends the file. Skipping the mtime-only metadata update keeps
  // concurrent per-shard WAL syncs from queueing behind one another in the
  // filesystem journal.
  // blocking-ok: the group-commit durability point — this one syscall is sync_locked's whole purpose, and the mutex orders it after the frames it covers
  if (::fdatasync(fd_) != 0)
    throw std::runtime_error("wal: fdatasync failed for " + path_.string() +
                             ": " + std::strerror(errno));
  pending_ = 0;
  synced_bytes_ = bytes_;
}

void WalWriter::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  reset_locked();
}

bool WalWriter::reset_if_covered(std::uint64_t last_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_seq_ - 1 != last_seq) return false;
  reset_locked();
  return true;
}

void WalWriter::reset_locked() {
  if (::ftruncate(fd_, 0) != 0)
    throw std::runtime_error("wal: cannot truncate " + path_.string() + ": " +
                             std::strerror(errno));
  if (::lseek(fd_, 0, SEEK_SET) < 0)
    throw std::runtime_error("wal: cannot seek " + path_.string() + ": " +
                             std::strerror(errno));
  // blocking-ok: the post-compaction truncation must be durable before the caller reports the covering snapshot as the only source of truth
  if (::fsync(fd_) != 0)
    throw std::runtime_error("wal: fsync failed for " + path_.string() +
                             ": " + std::strerror(errno));
  bytes_ = 0;
  synced_bytes_ = 0;
  pending_ = 0;
}

std::uint64_t WalWriter::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t WalWriter::synced_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_bytes_;
}

}  // namespace gptc::db::engine
