#include "net/protocol.hpp"

#include <cstring>

namespace gptc::net {

std::string error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadFrame: return "bad_frame";
    case ErrorCode::BadVersion: return "bad_version";
    case ErrorCode::TooLarge: return "too_large";
    case ErrorCode::BadJson: return "bad_json";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Auth: return "auth";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Timeout: return "timeout";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

std::optional<ErrorCode> parse_error_code(const std::string& name) {
  for (const ErrorCode code :
       {ErrorCode::BadFrame, ErrorCode::BadVersion, ErrorCode::TooLarge,
        ErrorCode::BadJson, ErrorCode::BadRequest, ErrorCode::Auth,
        ErrorCode::Overloaded, ErrorCode::Timeout, ErrorCode::ShuttingDown,
        ErrorCode::Internal}) {
    if (error_code_name(code) == name) return code;
  }
  return std::nullopt;
}

std::string encode_header(std::uint32_t payload_size) {
  std::string h(kHeaderSize, '\0');
  std::memcpy(h.data(), kMagic, 4);
  h[4] = static_cast<char>(kProtocolVersion);
  h[5] = 0;  // flags
  h[6] = 0;  // reserved
  h[7] = 0;
  h[8] = static_cast<char>((payload_size >> 24) & 0xff);
  h[9] = static_cast<char>((payload_size >> 16) & 0xff);
  h[10] = static_cast<char>((payload_size >> 8) & 0xff);
  h[11] = static_cast<char>(payload_size & 0xff);
  return h;
}

namespace {

/// Writes the header of a frame built in place: kHeaderSize placeholder
/// bytes followed by the complete payload.
void seal_frame(std::string& frame) {
  const std::string header =
      encode_header(static_cast<std::uint32_t>(frame.size() - kHeaderSize));
  frame.replace(0, kHeaderSize, header);
}

}  // namespace

std::string encode_frame(const json::Json& payload) {
  std::string frame(kHeaderSize, '\0');
  payload.dump_to(frame);
  seal_frame(frame);
  return frame;
}

std::string encode_records_frame(std::size_t count,
                                 std::string_view records) {
  // make_result's keys in the writer's sorted order: "ok" < "result",
  // "count" < "records".
  const std::string head = R"({"ok":true,"result":{"count":)" +
                           std::to_string(count) + R"(,"records":[)";
  std::string frame(kHeaderSize, '\0');
  frame.reserve(kHeaderSize + head.size() + records.size() + 3);
  frame += head;
  frame += records;
  frame += "]}}";
  seal_frame(frame);
  return frame;
}

DecodedHeader decode_header(const char* header) {
  DecodedHeader out;
  if (std::memcmp(header, kMagic, 4) != 0) {
    out.error = ErrorCode::BadFrame;
    return out;
  }
  if (static_cast<std::uint8_t>(header[4]) != kProtocolVersion) {
    out.error = ErrorCode::BadVersion;
    return out;
  }
  // Flags and reserved bytes must be zero until a version bump assigns
  // them meaning: tolerating garbage here would let corrupt or
  // forward-version frames masquerade as valid v1 traffic.
  if (header[5] != 0 || header[6] != 0 || header[7] != 0) {
    out.error = ErrorCode::BadFrame;
    return out;
  }
  out.payload_size = (static_cast<std::uint32_t>(
                          static_cast<std::uint8_t>(header[8]))
                      << 24) |
                     (static_cast<std::uint32_t>(
                          static_cast<std::uint8_t>(header[9]))
                      << 16) |
                     (static_cast<std::uint32_t>(
                          static_cast<std::uint8_t>(header[10]))
                      << 8) |
                     static_cast<std::uint32_t>(
                         static_cast<std::uint8_t>(header[11]));
  // Every frame carries a JSON document, and no JSON document is empty: a
  // declared length of zero is a malformed frame, not an empty message.
  if (out.payload_size == 0) out.error = ErrorCode::BadFrame;
  return out;
}

json::Json make_result(json::Json result) {
  json::Json r = json::Json::object();
  r["ok"] = true;
  r["result"] = std::move(result);
  return r;
}

json::Json make_error(ErrorCode code, const std::string& message) {
  json::Json e = json::Json::object();
  e["code"] = error_code_name(code);
  e["message"] = message;
  json::Json r = json::Json::object();
  r["ok"] = false;
  r["error"] = std::move(e);
  return r;
}

}  // namespace gptc::net
