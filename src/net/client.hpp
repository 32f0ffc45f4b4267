// Client library for the crowd-repo server (the `gptc-client` side of
// the wire protocol). Used by `crowdctl --remote` and bench_server.
//
// One CrowdClient owns one TCP connection and issues framed JSON
// requests synchronously (the protocol is strictly request/response per
// connection; open several clients for parallelism). Server-reported
// errors surface as RpcError carrying the typed ErrorCode; transport
// failures (connect refused, timeout, mid-frame EOF) throw
// TransportError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "crowd/repo.hpp"
#include "json/json.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace gptc::net {

/// The server answered with {"ok": false, ...}.
class RpcError : public std::runtime_error {
 public:
  RpcError(ErrorCode code, const std::string& message)
      : std::runtime_error(error_code_name(code) + ": " + message),
        code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// The connection itself failed (refused, reset, deadline, bad frame).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ClientOptions {
  std::uint32_t recv_timeout_ms = 30'000;  // 0 = no deadline
  std::uint32_t send_timeout_ms = 30'000;
};

class CrowdClient {
 public:
  /// Connects immediately; throws TransportError on failure.
  CrowdClient(const std::string& host, std::uint16_t port,
              ClientOptions options = {});

  /// One request/response round trip. Returns the "result" payload of a
  /// successful response; throws RpcError on a typed server error and
  /// TransportError when the connection breaks or the response frame
  /// announces more than 64 MiB (before any of the payload is read).
  json::Json call(const json::Json& request);

  // --- Typed endpoint wrappers ---------------------------------------------

  json::Json health();
  json::Json stats();

  /// Uploads a batch; returns the assigned record ids. The server acks
  /// only after the batch is durable.
  std::vector<std::int64_t> upload(const std::string& api_key,
                                   const std::string& problem,
                                   const std::vector<crowd::EvalUpload>& evals);

  /// query_evaluations over the server's query planner.
  std::vector<json::Json> query(const std::string& api_key,
                                const std::string& problem,
                                const std::string& where);

  /// Query-plan report for a WHERE clause (SharedRepo::explain_where wire
  /// form): per shard the chosen index, every considered index with its
  /// selectivity estimate, and the candidate-set size.
  json::Json explain(const std::string& api_key, const std::string& problem,
                     const std::string& where);

 private:
  Socket sock_;
};

}  // namespace gptc::net
