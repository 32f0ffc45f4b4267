// Concurrency tests for the crowd-repo server: many client threads mix
// durability-acked batch uploads with indexed queries against one server
// and the suite proves three properties under TSan:
//
//   1. no record is lost or duplicated — every acked batch is stored
//      exactly once, and the final count is exact;
//   2. snapshot isolation — a reader never observes part of a batch:
//      every marker query returns 0 or the full batch size;
//   3. clean shutdown drains — stop() lets in-flight requests finish, and
//      every upload that was acked before the connection broke is present
//      exactly once afterwards.
//
// Threads only write to their own slots; all assertions on shared state
// happen on the main thread after joining (keeps the test itself
// TSan-clean).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crowd/repo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace gptc::net {
namespace {

namespace fs = std::filesystem;
using json::Json;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

crowd::EvalUpload marked_eval(int writer, int batch, int k) {
  crowd::EvalUpload e;
  e.task_parameters = Json::object();
  e.task_parameters["w"] = static_cast<std::int64_t>(writer);
  e.task_parameters["b"] = static_cast<std::int64_t>(batch);
  e.task_parameters["k"] = static_cast<std::int64_t>(k);
  e.tuning_parameters = Json::object();
  e.tuning_parameters["mb"] = static_cast<std::int64_t>(k);
  e.output = 1.0 + 0.001 * static_cast<double>(k);
  return e;
}

struct ServerUnderTest {
  explicit ServerUnderTest(const fs::path& dir, std::size_t workers,
                           std::size_t max_connections) {
    db::engine::EngineOptions eo;
    eo.async_commit = true;
    repo = std::make_unique<crowd::SharedRepo>(
        crowd::SharedRepo::open_durable(dir, 11, eo));
    api_key = repo->register_user("crowd", "crowd@example.org");
    ServerOptions so;
    so.port = 0;
    so.workers = workers;
    so.max_connections = max_connections;
    server = std::make_unique<CrowdServer>(*repo, so);
    server->start();
  }

  std::unique_ptr<crowd::SharedRepo> repo;
  std::unique_ptr<CrowdServer> server;
  std::string api_key;
};

// 32 client threads (16 writers, 16 readers) against one server. Writers
// upload kBatches batches of kBatchSize marker records each; readers
// continuously query one (writer, batch) marker pair and record any
// partially-visible batch. Verified after join: atomicity held, nothing
// was lost, nothing was duplicated.
TEST(NetConcurrency, MixedUploadsAndQueriesKeepBatchesAtomic) {
  constexpr int kWriters = 16;
  constexpr int kReaders = 16;
  constexpr int kBatches = 12;
  constexpr int kBatchSize = 5;

  TempDir dir("gptc_net_conc_mixed");
  ServerUnderTest sut(dir.path(), /*workers=*/8, /*max_connections=*/64);
  const std::uint16_t port = sut.server->port();
  const std::string key = sut.api_key;

  std::atomic<bool> writers_done{false};
  std::vector<std::vector<std::int64_t>> acked_ids(kWriters);
  std::vector<std::string> writer_errors(kWriters);
  std::vector<std::string> reader_errors(kReaders);
  std::vector<std::uint64_t> partial_batches_seen(kReaders, 0);
  std::vector<std::uint64_t> reader_queries(kReaders, 0);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      try {
        CrowdClient client("127.0.0.1", port);
        for (int b = 0; b < kBatches; ++b) {
          std::vector<crowd::EvalUpload> batch;
          for (int k = 0; k < kBatchSize; ++k) {
            batch.push_back(marked_eval(w, b, k));
          }
          const auto ids = client.upload(key, "conc", batch);
          acked_ids[w].insert(acked_ids[w].end(), ids.begin(), ids.end());
        }
      } catch (const std::exception& e) {
        writer_errors[w] = e.what();
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      try {
        CrowdClient client("127.0.0.1", port);
        std::uint64_t i = static_cast<std::uint64_t>(r) * 7919;
        while (!writers_done.load(std::memory_order_relaxed)) {
          const int w = static_cast<int>(i % kWriters);
          const int b = static_cast<int>((i / kWriters) % kBatches);
          ++i;
          const auto records = client.query(
              key, "conc",
              "task_parameters.w = " + std::to_string(w) +
                  " AND task_parameters.b = " + std::to_string(b));
          ++reader_queries[r];
          // Snapshot isolation: a batch is visible whole or not at all.
          if (records.size() != 0 &&
              records.size() != static_cast<std::size_t>(kBatchSize)) {
            ++partial_batches_seen[r];
          }
        }
      } catch (const std::exception& e) {
        reader_errors[r] = e.what();
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  writers_done.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(writer_errors[w], "") << "writer " << w;
  }
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(reader_errors[r], "") << "reader " << r;
    EXPECT_EQ(partial_batches_seen[r], 0u)
        << "reader " << r << " observed a half-applied batch";
    EXPECT_GT(reader_queries[r], 0u) << "reader " << r << " never ran";
  }

  // No lost or duplicated acks.
  std::set<std::int64_t> unique_ids;
  std::size_t total_acked = 0;
  for (const auto& ids : acked_ids) {
    total_acked += ids.size();
    unique_ids.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(total_acked,
            static_cast<std::size_t>(kWriters * kBatches * kBatchSize));
  EXPECT_EQ(unique_ids.size(), total_acked) << "duplicate record ids acked";

  // Exact final state: every (w, b) marker pair is present exactly
  // kBatchSize times, and the total count matches.
  CrowdClient verify("127.0.0.1", port);
  EXPECT_EQ(verify.query(key, "conc", "").size(), total_acked);
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatches; ++b) {
      const auto records = verify.query(
          key, "conc",
          "task_parameters.w = " + std::to_string(w) +
              " AND task_parameters.b = " + std::to_string(b));
      EXPECT_EQ(records.size(), static_cast<std::size_t>(kBatchSize))
          << "writer " << w << " batch " << b;
    }
  }

  sut.server->stop();
}

// stop() during a write storm: whatever was acked before each client's
// connection broke must be present exactly once after the drain — and the
// server must come down cleanly with requests still in flight.
TEST(NetConcurrency, CleanShutdownDrainsInFlightUploads) {
  constexpr int kWriters = 8;

  TempDir dir("gptc_net_conc_drain");
  ServerUnderTest sut(dir.path(), /*workers=*/4, /*max_connections=*/32);
  const std::uint16_t port = sut.server->port();
  const std::string key = sut.api_key;

  std::atomic<int> batches_acked{0};
  std::vector<std::vector<std::int64_t>> acked_ids(kWriters);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      try {
        CrowdClient client("127.0.0.1", port);
        for (int b = 0;; ++b) {
          const auto ids =
              client.upload(key, "drain",
                            {marked_eval(w, b, 0), marked_eval(w, b, 1)});
          acked_ids[w].insert(acked_ids[w].end(), ids.begin(), ids.end());
          batches_acked.fetch_add(1);
        }
      } catch (const std::exception&) {
        // Expected eventually: shutting_down error or broken transport.
      }
    });
  }

  // Let the storm run until real work happened, then pull the plug while
  // requests are still in flight.
  while (batches_acked.load() < 50) std::this_thread::yield();
  sut.server->stop();
  for (std::thread& t : threads) t.join();

  // Every acked id exists exactly once in the store; nothing acked was
  // dropped by the drain, nothing was applied twice.
  std::set<std::int64_t> acked;
  std::size_t total_acked = 0;
  for (const auto& ids : acked_ids) {
    total_acked += ids.size();
    acked.insert(ids.begin(), ids.end());
  }
  ASSERT_EQ(acked.size(), total_acked) << "duplicate ids acked";
  ASSERT_GE(total_acked, 100u);

  std::map<std::int64_t, int> stored_count;
  for (const Json& r :
       sut.repo->query_where(sut.repo->authenticate_user(key).value(), "drain",
                             "task_parameters.k >= 0")) {
    stored_count[r.at("_id").as_int()] += 1;
  }
  for (const std::int64_t id : acked) {
    auto it = stored_count.find(id);
    ASSERT_NE(it, stored_count.end()) << "acked id " << id << " lost";
    EXPECT_EQ(it->second, 1) << "acked id " << id << " duplicated";
  }
  for (const auto& [id, count] : stored_count) {
    EXPECT_EQ(count, 1) << "stored id " << id << " appears " << count
                        << " times";
  }
}

// The server cap admits exactly max_connections concurrent clients; the
// rest get typed overloaded rejections and the accept loop never wedges.
TEST(NetConcurrency, OverloadRejectionsUnderConnectionStorm) {
  TempDir dir("gptc_net_conc_storm");
  ServerUnderTest sut(dir.path(), /*workers=*/4, /*max_connections=*/4);
  const std::uint16_t port = sut.server->port();
  const std::string key = sut.api_key;

  constexpr int kClients = 24;
  std::vector<int> ok(kClients, 0), overloaded(kClients, 0), other(kClients, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        try {
          CrowdClient client("127.0.0.1", port);
          client.upload(key, "storm", {marked_eval(t, i, 0)});
          ++ok[t];
        } catch (const RpcError& e) {
          if (e.code() == ErrorCode::Overloaded) {
            ++overloaded[t];
          } else {
            ++other[t];
          }
        } catch (const TransportError&) {
          // Connection raced the admission reply; also an orderly refusal.
          ++overloaded[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  int total_ok = 0, total_other = 0;
  for (int t = 0; t < kClients; ++t) {
    total_ok += ok[t];
    total_other += other[t];
  }
  EXPECT_GT(total_ok, 0) << "no client ever got through";
  EXPECT_EQ(total_other, 0) << "unexpected non-overload errors";

  // The server is still healthy after the storm.
  CrowdClient client("127.0.0.1", port);
  EXPECT_EQ(client.health().at("status").as_string(), "ok");
  EXPECT_EQ(client.query(key, "storm", "").size(),
            static_cast<std::size_t>(total_ok));
  sut.server->stop();
}

}  // namespace
}  // namespace gptc::net
