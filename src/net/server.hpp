// Concurrent crowd-repo server (the network face of crowd::SharedRepo).
//
// Architecture: one accept thread + a fixed parallel::ThreadPool of
// workers, connection-per-task. The accept thread never blocks on a
// client: admission control is a hard cap on concurrently served
// connections — at the cap a connection is answered with a best-effort
// `overloaded` error frame and closed immediately.
//
// Request handling is a read→dispatch→write loop per connection
// (protocol.hpp describes frames and the error vocabulary). Reads and
// writes run under kernel socket deadlines (socket.hpp), so a stalled
// client costs one worker for at most the timeout, then gets a typed
// `timeout` frame and a close.
//
// Durability of uploads: with EngineOptions::async_commit the repo's WAL
// appends are fsynced by the engine's group-commit thread; the upload
// handler blocks on wait_uploads_durable before acking, so a client that
// received {"ok":true} holds records that survive power loss.
//
// Endpoints (request {"op": ...}):
//   health             — liveness, no auth
//   stats              — request/error/connection counters, no auth
//   upload             — {api_key, problem, records:[...]} atomic batch
//   query_evaluations  — {api_key, problem, where?} via the query planner
//   explain            — {api_key, problem, where?} query-plan report
//                        (per shard: chosen index, selectivity estimates,
//                        candidate counts) without running the query
//
// Shutdown drains: stop() closes the listener, rejects new requests with
// `shutting_down`, half-closes idle connections, and waits for in-flight
// requests to finish writing their responses before returning.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>

#include "crowd/repo.hpp"
#include "json/json.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "parallel/thread_pool.hpp"

namespace gptc::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;       // 0 = ephemeral; CrowdServer::port() tells
  std::size_t workers = 4;      // connection-serving threads
  std::size_t max_connections = 64;   // admission-control cap
  std::size_t max_request_bytes = 4u << 20;  // frame payload bound
  std::uint32_t read_timeout_ms = 30'000;    // 0 = no deadline
  std::uint32_t write_timeout_ms = 30'000;
};

/// Snapshot of the server's monotonic counters (the `stats` endpoint).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // admission-control refusals
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_error = 0;        // typed-error responses sent
  std::uint64_t records_uploaded = 0;
};

class CrowdServer {
 public:
  /// The repo must outlive the server. The server only ever *writes*
  /// func_eval records (upload_batch); user/alias tables must be fully
  /// populated before start() — authenticate() and the normalizers read
  /// them without locks.
  CrowdServer(crowd::SharedRepo& repo, ServerOptions options);
  ~CrowdServer();

  CrowdServer(const CrowdServer&) = delete;
  CrowdServer& operator=(const CrowdServer&) = delete;

  /// Binds, listens, and spawns the accept thread. Throws on bind failure.
  void start();

  /// Drains and stops: no new connections, in-flight requests complete and
  /// their responses are written, then workers join. Idempotent.
  void stop();

  /// The bound port (after start()); with options.port == 0 this is the
  /// kernel-assigned ephemeral port.
  std::uint16_t port() const { return listener_.bound_port(); }

  ServerStats stats() const;

 private:
  void accept_loop() noexcept;
  void serve_connection(Socket sock) noexcept;

  /// One encoded response: the complete frame, and whether it is a success
  /// (make_result) or a typed error (make_error) for the stats counters.
  struct Reply {
    std::string frame;
    bool ok = false;
  };
  static Reply ok_reply(json::Json result);
  static Reply error_reply(ErrorCode code, const std::string& message);

  /// Dispatches one parsed request payload; always returns a response.
  Reply dispatch(const json::Json& request);

  /// The validated head every repository op shares: the authenticated
  /// caller, the problem name and the WHERE clause ("" when absent).
  struct RequestContext {
    crowd::AuthedUser user;
    std::string problem;
    std::string where;
  };
  /// Runs the shared request prologue in order — api_key present, api_key
  /// valid, problem present, and (with_where) where is a string — and
  /// returns the context, or the error reply of the first failing check.
  std::variant<RequestContext, Reply> request_context(
      const json::Json& request, bool with_where) const;

  Reply handle_upload(const json::Json& request);
  /// Serializes each visible record straight from the shard into the
  /// response frame while the repository visit runs (no record copies, no
  /// response tree); the bytes are those of encode_frame(make_result(...)).
  Reply handle_query(const json::Json& request);
  Reply handle_explain(const json::Json& request);
  json::Json stats_json() const;

  /// Registers / unregisters a live connection fd so stop() can
  /// half-close blocked readers. Returns false at the admission cap.
  bool track_connection(int fd);
  void untrack_connection(int fd);

  // guard-ok: reference bound at construction; SharedRepo locks internally
  crowd::SharedRepo& repo_;
  // guard-ok: finalized by start() before the worker/accept threads exist
  ServerOptions opts_;
  // guard-ok: opened by start() before the accept thread; stop()'s
  // shutdown(2) wake-up is the documented cross-thread close protocol
  TcpListener listener_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;  // guards live_fds_ (leaf lock)
  std::map<int, bool> live_fds_;  // guarded_by: conn_mu_

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> records_uploaded_{0};

  // guard-ok: created by start() before the accept thread; destroyed by
  // stop() after it joins
  std::unique_ptr<parallel::ThreadPool> pool_;
  std::thread accept_thread_;  // last: joined by stop()/dtor
};

}  // namespace gptc::net
