// Unit tests for the deterministic thread pool and the RNG stream-splitting
// contract the parallel loops rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

namespace gptc::parallel {
namespace {

TEST(ThreadPoolTest, SizeZeroPoolIsLegalAndRunsSerially) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> out(8, 0);
  parallel_for(&pool, out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, PoolOfOneMatchesSerialResults) {
  // The determinism contract in its smallest form: the same body over a
  // null pool (serial) and a 1-worker pool must produce identical slots.
  auto body_value = [](std::size_t i) {
    return std::sin(static_cast<double>(i) * 0.37) + static_cast<double>(i);
  };
  constexpr std::size_t kN = 257;
  std::vector<double> serial(kN), pooled(kN);
  parallel_for(nullptr, kN, [&](std::size_t i) { serial[i] = body_value(i); });
  ThreadPool pool(1);
  parallel_for(&pool, kN, [&](std::size_t i) { pooled[i] = body_value(i); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(serial[i], pooled[i]);
}

TEST(ParallelForTest, ManyWorkersMatchSerialResults) {
  constexpr std::size_t kN = 513;
  std::vector<double> serial = parallel_map(
      static_cast<ThreadPool*>(nullptr), kN,
      [](std::size_t i) { return std::cos(static_cast<double>(i)); });
  for (std::size_t workers : {2u, 4u, 7u}) {
    ThreadPool pool(workers);
    const std::vector<double> pooled = parallel_map(
        &pool, kN, [](std::size_t i) { return std::cos(static_cast<double>(i)); });
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(serial[i], pooled[i]);
  }
}

TEST(ParallelForTest, BodyExceptionIsRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 64,
                   [&](std::size_t i) {
                     if (i % 5 == 3) throw std::runtime_error("iteration died");
                   }),
      std::runtime_error);
}

TEST(ParallelForTest, LowestIndexExceptionWinsSerially) {
  // On the serial path the first (lowest-index) throwing iteration must be
  // the one reported, and later iterations must not run.
  std::vector<int> ran(10, 0);
  try {
    parallel_for(nullptr, 10, [&](std::size_t i) {
      ran[i] = 1;
      if (i >= 4) throw std::out_of_range("idx " + std::to_string(i));
    });
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "idx 4");
  }
  for (std::size_t i = 5; i < 10; ++i) EXPECT_EQ(ran[i], 0);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Outer loop saturates every worker; each iteration runs an inner
  // parallel_for on the same pool. The inner loops must detect they are on
  // a worker thread and run inline instead of queueing (which would wait on
  // workers that are all busy waiting — a deadlock).
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::vector<std::vector<int>> out(kOuter, std::vector<int>(kInner, 0));
  parallel_for(&pool, kOuter, [&](std::size_t i) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    parallel_for(&pool, kInner, [&](std::size_t j) {
      out[i][j] = static_cast<int>(i * kInner + j);
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i)
    for (std::size_t j = 0; j < kInner; ++j)
      EXPECT_EQ(out[i][j], static_cast<int>(i * kInner + j));
}

TEST(ParallelMapTest, ReturnsResultsInIndexOrder) {
  ThreadPool pool(3);
  const std::vector<std::size_t> out =
      parallel_map(&pool, 100, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RngStreamsTest, SplitStreamsMatchIndexedSplit) {
  const rng::Rng parent(12345);
  const auto streams = parent.split_streams(16);
  ASSERT_EQ(streams.size(), 16u);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    rng::Rng a = streams[i];
    rng::Rng b = parent.split(static_cast<std::uint64_t>(i));
    for (int k = 0; k < 32; ++k) EXPECT_EQ(a(), b());
  }
}

TEST(RngStreamsTest, StreamsAreReproducibleAndDisjoint) {
  const rng::Rng parent(987);
  const auto first = parent.split_streams(8);
  const auto second = parent.split_streams(8);
  for (std::size_t i = 0; i < 8; ++i) {
    rng::Rng a = first[i], b = second[i];
    for (int k = 0; k < 16; ++k) EXPECT_EQ(a(), b());
  }
  // Different indices must give statistically distinct streams: no two
  // streams may share their first few outputs.
  std::vector<std::uint64_t> heads;
  for (std::size_t i = 0; i < 8; ++i) {
    rng::Rng s = first[i];
    heads.push_back(s());
  }
  std::sort(heads.begin(), heads.end());
  EXPECT_EQ(std::adjacent_find(heads.begin(), heads.end()), heads.end());
}

TEST(RngStreamsTest, SplittingDoesNotPerturbParent) {
  rng::Rng a(555), b(555);
  (void)a.split_streams(32);
  (void)a.split("anything");
  for (int k = 0; k < 16; ++k) EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace gptc::parallel
