#include "db/engine/fsutil.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gptc::db::engine {

void sync_parent_dir(const std::filesystem::path& path) {
  const std::filesystem::path dir = path.parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // directory sync is best-effort on exotic filesystems
  ::fsync(fd);
  ::close(fd);
}

void replace_file(const std::filesystem::path& path, std::string_view content,
                  std::string_view who,
                  const std::function<void()>& before_rename) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const auto fail = [&](const char* what, int err) {
    throw std::runtime_error(std::string(who) + ": " + what + " " +
                             tmp.string() + ": " + std::strerror(err));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open", errno);
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      fail("write failed for", err);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    fail("fsync failed for", err);
  }
  if (::close(fd) != 0) fail("close failed for", errno);
  if (before_rename) before_rename();
  std::filesystem::rename(tmp, path);
  sync_parent_dir(path);
}

}  // namespace gptc::db::engine
