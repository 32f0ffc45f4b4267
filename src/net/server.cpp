#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crowd/query_language.hpp"

namespace gptc::net {

CrowdServer::CrowdServer(crowd::SharedRepo& repo, ServerOptions options)
    : repo_(repo), opts_(std::move(options)) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.max_connections == 0) opts_.max_connections = 1;
}

CrowdServer::~CrowdServer() { stop(); }

void CrowdServer::start() {
  if (running_.load()) return;
  stopping_.store(false);
  listener_.listen(opts_.bind_address, opts_.port, /*backlog=*/128);
  pool_ = std::make_unique<parallel::ThreadPool>(opts_.workers);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void CrowdServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Wake the accept thread with shutdown() only; the descriptor itself
  // is closed after the join, when no other thread can touch it.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // Nudge blocked readers: in-flight requests keep their write side and
  // finish their response; idle connections see EOF and exit their loop.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& [fd, _] : live_fds_) ::shutdown(fd, SHUT_RD);
  }

  // The pool destructor drains every queued connection task and joins the
  // workers — after this, no request is half-served.
  pool_.reset();

  // Everything acked is already durable (upload waits on the committer);
  // a final sync flushes whatever the WAL buffered for non-acked paths.
  repo_.sync();
}

ServerStats CrowdServer::stats() const {
  ServerStats s;
  s.connections_accepted = accepted_.load();
  s.connections_rejected = rejected_.load();
  s.requests_ok = requests_ok_.load();
  s.requests_error = requests_error_.load();
  s.records_uploaded = records_uploaded_.load();
  return s;
}

bool CrowdServer::track_connection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (live_fds_.size() >= opts_.max_connections) return false;
  live_fds_.emplace(fd, true);
  return true;
}

void CrowdServer::untrack_connection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  live_fds_.erase(fd);
}

void CrowdServer::accept_loop() noexcept {
  while (!stopping_.load()) {
    Socket sock = listener_.accept();
    if (!sock.valid()) {
      if (stopping_.load() || !listener_.valid()) break;
      continue;  // transient accept failure
    }

    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.read_timeout_ms > 0)
      sock.set_recv_timeout_ms(opts_.read_timeout_ms);
    if (opts_.write_timeout_ms > 0)
      sock.set_send_timeout_ms(opts_.write_timeout_ms);

    if (!track_connection(sock.fd())) {
      // Admission control: at the cap, answer with a typed error and
      // close. Best effort — never stall the accept loop on a slow peer.
      rejected_.fetch_add(1);
      const Reply reply =
          error_reply(ErrorCode::Overloaded, "server connection cap reached");
      sock.send_all(reply.frame.data(), reply.frame.size());
      continue;  // Socket dtor closes
    }

    accepted_.fetch_add(1);
    // The task owns the socket; untracking happens when it finishes.
    auto shared = std::make_shared<Socket>(std::move(sock));
    pool_->enqueue([this, shared] { serve_connection(std::move(*shared)); });
  }
}

void CrowdServer::serve_connection(Socket sock) noexcept {
  const int fd = sock.fd();
  try {
    std::string body;
    while (true) {
      char header[kHeaderSize];
      IoStatus st = sock.recv_exact(header, kHeaderSize);
      if (st == IoStatus::Timeout) {
        const std::string frame = encode_frame(
            make_error(ErrorCode::Timeout, "read deadline expired"));
        sock.send_all(frame.data(), frame.size());
        break;
      }
      if (st != IoStatus::Ok) break;  // Eof = clean close

      const DecodedHeader h = decode_header(header);
      if (h.error) {
        requests_error_.fetch_add(1);
        const std::string frame = encode_frame(make_error(
            *h.error, *h.error == ErrorCode::BadVersion
                          ? "unsupported protocol version"
                          : "bad frame header"));
        sock.send_all(frame.data(), frame.size());
        break;  // stream position is untrustworthy
      }
      if (h.payload_size > opts_.max_request_bytes) {
        requests_error_.fetch_add(1);
        const std::string frame = encode_frame(make_error(
            ErrorCode::TooLarge,
            "payload exceeds " + std::to_string(opts_.max_request_bytes) +
                " bytes"));
        sock.send_all(frame.data(), frame.size());
        break;  // cannot resynchronize without reading the payload
      }

      body.assign(h.payload_size, '\0');
      if (h.payload_size > 0) {
        st = sock.recv_exact(body.data(), body.size());
        if (st == IoStatus::Timeout) {
          requests_error_.fetch_add(1);
          const std::string frame = encode_frame(
              make_error(ErrorCode::Timeout, "read deadline expired"));
          sock.send_all(frame.data(), frame.size());
          break;
        }
        if (st != IoStatus::Ok) break;
      }

      Reply reply;
      bool close_after = false;
      if (stopping_.load()) {
        reply = error_reply(ErrorCode::ShuttingDown, "server is draining");
        close_after = true;
      } else {
        json::Json request;
        bool parsed = false;
        try {
          request = json::Json::parse(body);
          parsed = true;
        } catch (const json::JsonError& e) {
          reply = error_reply(ErrorCode::BadJson, e.what());
        }
        if (parsed) reply = dispatch(request);
      }

      (reply.ok ? requests_ok_ : requests_error_).fetch_add(1);
      if (sock.send_all(reply.frame.data(), reply.frame.size()) !=
          IoStatus::Ok)
        break;
      if (close_after) break;
    }
  } catch (...) {
    // serve_connection is a pool task: never let an exception escape.
  }
  // Graceful close: flush our FIN, then drain (briefly — the deadline is
  // shortened first) whatever the client already queued. Closing with
  // unread bytes would RST the connection and could destroy the final
  // error frame before the client reads it.
  sock.shutdown_write();
  sock.set_recv_timeout_ms(250);
  sock.drain(1u << 20);
  untrack_connection(fd);
}

CrowdServer::Reply CrowdServer::ok_reply(json::Json result) {
  return {encode_frame(make_result(std::move(result))), true};
}

CrowdServer::Reply CrowdServer::error_reply(ErrorCode code,
                                            const std::string& message) {
  return {encode_frame(make_error(code, message)), false};
}

CrowdServer::Reply CrowdServer::dispatch(const json::Json& request) {
  try {
    if (!request.is_object()) {
      return error_reply(ErrorCode::BadRequest,
                         "request must be a JSON object");
    }
    const json::Json op = request.get_or("op", json::Json(nullptr));
    if (!op.is_string()) {
      return error_reply(ErrorCode::BadRequest, "missing \"op\" field");
    }
    const std::string& name = op.as_string();
    if (name == "health") {
      json::Json r = json::Json::object();
      r["status"] = "ok";
      return ok_reply(std::move(r));
    }
    if (name == "stats") return ok_reply(stats_json());
    if (name == "upload") return handle_upload(request);
    if (name == "query_evaluations") return handle_query(request);
    if (name == "explain") return handle_explain(request);
    return error_reply(ErrorCode::BadRequest, "unknown op: " + name);
  } catch (const json::JsonError& e) {
    return error_reply(ErrorCode::BadRequest, e.what());
  } catch (const std::exception& e) {
    return error_reply(ErrorCode::Internal, e.what());
  }
}

std::variant<CrowdServer::RequestContext, CrowdServer::Reply>
CrowdServer::request_context(const json::Json& request,
                             bool with_where) const {
  const json::Json key = request.get_or("api_key", json::Json(nullptr));
  if (!key.is_string()) {
    return error_reply(ErrorCode::Auth, "missing api_key");
  }
  std::optional<crowd::AuthedUser> user =
      repo_.authenticate_user(key.as_string());
  if (!user) {
    return error_reply(ErrorCode::Auth, "invalid or revoked API key");
  }
  const json::Json problem = request.get_or("problem", json::Json(nullptr));
  if (!problem.is_string()) {
    return error_reply(ErrorCode::BadRequest, "missing problem name");
  }
  RequestContext ctx{std::move(*user), problem.as_string(), ""};
  if (with_where) {
    const json::Json where = request.get_or("where", json::Json(""));
    if (!where.is_string()) {
      return error_reply(ErrorCode::BadRequest, "where must be a string");
    }
    ctx.where = where.as_string();
  }
  return ctx;
}

CrowdServer::Reply CrowdServer::handle_upload(const json::Json& request) {
  auto head = request_context(request, /*with_where=*/false);
  if (auto* error = std::get_if<Reply>(&head)) return std::move(*error);
  const RequestContext& ctx = std::get<RequestContext>(head);
  const json::Json records = request.get_or("records", json::Json(nullptr));
  if (!records.is_array() || records.as_array().empty()) {
    return error_reply(ErrorCode::BadRequest,
                       "records must be a non-empty array");
  }
  std::vector<crowd::EvalUpload> evals;
  evals.reserve(records.as_array().size());
  for (const json::Json& r : records.as_array()) {
    if (!r.is_object()) {
      return error_reply(ErrorCode::BadRequest,
                         "each record must be a JSON object");
    }
    try {
      evals.push_back(crowd::EvalUpload::from_json(r));
    } catch (const std::exception& e) {
      return error_reply(ErrorCode::BadRequest,
                         std::string("bad record: ") + e.what());
    }
  }

  const crowd::SharedRepo::UploadReceipt receipt =
      repo_.upload_batch(ctx.user, ctx.problem, evals);
  // The ack gate: with async group commit this blocks until the commit
  // thread fsynced the batch's WAL — the shard WAL its frame lives in, or
  // the engine commit WAL when the upload spans shards or wrote catalog
  // descriptors. If durability fails (CrashInjected in tests, fsync error
  // in production) this throws and the client gets `internal`, not an ack.
  repo_.wait_uploads_durable(receipt);
  records_uploaded_.fetch_add(receipt.ids.size());

  json::Json ids = json::Json::array();
  for (const std::int64_t id : receipt.ids) ids.as_array().emplace_back(id);
  json::Json r = json::Json::object();
  r["ids"] = std::move(ids);
  r["count"] = static_cast<std::int64_t>(receipt.ids.size());
  return ok_reply(std::move(r));
}

CrowdServer::Reply CrowdServer::handle_query(const json::Json& request) {
  auto head = request_context(request, /*with_where=*/true);
  if (auto* error = std::get_if<Reply>(&head)) return std::move(*error);
  const RequestContext& ctx = std::get<RequestContext>(head);
  // Only the shard reader locks are held while records serialize; the
  // socket write happens after the visit returns.
  std::string records;
  std::size_t count = 0;
  try {
    repo_.visit_where(ctx.user, ctx.problem, ctx.where,
                      [&](const json::Json& record) {
                        if (count++ > 0) records += ',';
                        record.dump_to(records);
                        return true;
                      });
  } catch (const crowd::QueryParseError& e) {
    return error_reply(ErrorCode::BadRequest, e.what());
  }
  // The count precedes the records in the payload, so they are spliced
  // in once the visit has counted them.
  return {encode_records_frame(count, records), true};
}

CrowdServer::Reply CrowdServer::handle_explain(const json::Json& request) {
  auto head = request_context(request, /*with_where=*/true);
  if (auto* error = std::get_if<Reply>(&head)) return std::move(*error);
  const RequestContext& ctx = std::get<RequestContext>(head);
  try {
    return ok_reply(repo_.explain_where(ctx.user, ctx.problem, ctx.where));
  } catch (const crowd::QueryParseError& e) {
    return error_reply(ErrorCode::BadRequest, e.what());
  }
}

json::Json CrowdServer::stats_json() const {
  const ServerStats s = stats();
  json::Json r = json::Json::object();
  r["connections_accepted"] = static_cast<std::int64_t>(s.connections_accepted);
  r["connections_rejected"] = static_cast<std::int64_t>(s.connections_rejected);
  r["requests_ok"] = static_cast<std::int64_t>(s.requests_ok);
  r["requests_error"] = static_cast<std::int64_t>(s.requests_error);
  r["records_uploaded"] = static_cast<std::int64_t>(s.records_uploaded);
  return r;
}

}  // namespace gptc::net
