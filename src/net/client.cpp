#include "net/client.hpp"

#include <utility>

namespace gptc::net {

namespace {

constexpr std::size_t kMaxResponseBytes = 64u << 20;

}  // namespace

CrowdClient::CrowdClient(const std::string& host, std::uint16_t port,
                         ClientOptions options) {
  try {
    sock_ = tcp_connect(host, port, options.recv_timeout_ms,
                        options.send_timeout_ms);
  } catch (const std::exception& e) {
    throw TransportError(e.what());
  }
}

json::Json CrowdClient::call(const json::Json& request) {
  const std::string frame = encode_frame(request);
  if (sock_.send_all(frame.data(), frame.size()) != IoStatus::Ok) {
    throw TransportError("send failed");
  }

  char header[kHeaderSize];
  IoStatus st = sock_.recv_exact(header, kHeaderSize);
  if (st == IoStatus::Timeout) throw TransportError("response timed out");
  if (st != IoStatus::Ok) throw TransportError("connection closed");
  const DecodedHeader h = decode_header(header);
  if (h.error) throw TransportError("malformed response header");
  if (h.payload_size > kMaxResponseBytes) {
    throw TransportError("response exceeds 64 MiB");
  }
  std::string body(h.payload_size, '\0');
  if (h.payload_size > 0) {
    st = sock_.recv_exact(body.data(), body.size());
    if (st == IoStatus::Timeout) throw TransportError("response timed out");
    if (st != IoStatus::Ok) throw TransportError("connection closed");
  }

  json::Json response;
  try {
    response = json::Json::parse(body);
  } catch (const json::JsonError& e) {
    throw TransportError(std::string("unparseable response: ") + e.what());
  }
  const json::Json ok = response.get_or("ok", json::Json(false));
  if (ok.is_bool() && ok.as_bool()) {
    // Moved, not copied: a query result holds the whole record set.
    json::Json& result = response["result"];
    return result.is_null() ? json::Json::object() : std::move(result);
  }
  const json::Json err = response.get_or("error", json::Json::object());
  const std::string code_name =
      err.get_or("code", json::Json("internal")).as_string();
  const std::string message =
      err.get_or("message", json::Json("")).as_string();
  throw RpcError(parse_error_code(code_name).value_or(ErrorCode::Internal),
                 message);
}

json::Json CrowdClient::health() {
  json::Json req = json::Json::object();
  req["op"] = "health";
  return call(req);
}

json::Json CrowdClient::stats() {
  json::Json req = json::Json::object();
  req["op"] = "stats";
  return call(req);
}

std::vector<std::int64_t> CrowdClient::upload(
    const std::string& api_key, const std::string& problem,
    const std::vector<crowd::EvalUpload>& evals) {
  json::Json records = json::Json::array();
  for (const crowd::EvalUpload& e : evals) {
    records.as_array().push_back(e.to_json());
  }
  json::Json req = json::Json::object();
  req["op"] = "upload";
  req["api_key"] = api_key;
  req["problem"] = problem;
  req["records"] = std::move(records);

  const json::Json result = call(req);
  std::vector<std::int64_t> ids;
  for (const json::Json& id : result.at("ids").as_array()) {
    ids.push_back(id.as_int());
  }
  return ids;
}

std::vector<json::Json> CrowdClient::query(const std::string& api_key,
                                           const std::string& problem,
                                           const std::string& where) {
  json::Json req = json::Json::object();
  req["op"] = "query_evaluations";
  req["api_key"] = api_key;
  req["problem"] = problem;
  req["where"] = where;

  json::Json result = call(req);
  std::vector<json::Json> records;
  for (json::Json& rec : result["records"].as_array()) {
    records.push_back(std::move(rec));
  }
  return records;
}

json::Json CrowdClient::explain(const std::string& api_key,
                                const std::string& problem,
                                const std::string& where) {
  json::Json req = json::Json::object();
  req["op"] = "explain";
  req["api_key"] = api_key;
  req["problem"] = problem;
  req["where"] = where;
  return call(req);
}

}  // namespace gptc::net
