// tmpfs flush policy for the benchmark's stores.
//
// The benchmark must keep its stores inside its own checkout, which sits
// on a shared disk whose flush latency swings from 0.1 ms to over 1 ms
// between minutes of the same hour. That swing, not the program, would set
// the numbers of every upload. So the crowd_bench binary defines fsync and
// fdatasync itself, which takes precedence over the C library for every
// call in the binary, the engine's included: each call checks that its
// descriptor is open, is counted, and returns at once, as both calls do on
// tmpfs. The engine still issues every flush at the same points and still
// acks an upload only after its group commit has flushed; what goes
// unmeasured is the device's flush latency alone. Durability reached any
// other way (O_DSYNC or O_SYNC writes, sync_file_range, msync) is not
// replaced and still pays the device's latency.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>

#include "bench.hpp"

namespace {

std::atomic<std::uint64_t> g_flush_calls{0};

int flush(int fd) {
  g_flush_calls.fetch_add(1, std::memory_order_relaxed);
  return ::fcntl(fd, F_GETFD) == -1 ? -1 : 0;
}

}  // namespace

extern "C" int fsync(int fd) { return flush(fd); }

extern "C" int fdatasync(int fd) { return flush(fd); }

namespace crowdbench {

std::uint64_t flush_calls() {
  return g_flush_calls.load(std::memory_order_relaxed);
}

}  // namespace crowdbench
