// Wire protocol of the crowd-repo server: length-prefixed JSON frames.
//
// Every message — request or response — is one frame:
//
//   offset  size  field
//   0       4     magic "GPTC"
//   4       1     protocol version (kProtocolVersion, currently 1)
//   5       1     flags (0; reserved for compression/continuation)
//   6       2     reserved (0)
//   8       4     payload length, big-endian unsigned
//   12      n     payload: one compact JSON document (UTF-8)
//
// Requests are objects with an "op" field naming the endpoint
// (server.hpp); responses are either
//
//   {"ok": true,  "result": {...}}
//   {"ok": false, "error": {"code": "<ErrorCode>", "message": "..."}}
//
// The error codes are a closed set (ErrorCode below) so clients can switch
// on them; the message is human-readable detail. Framing errors (bad
// magic, bad version, oversized length) are answered with a typed error
// frame and the connection is closed — the stream position can no longer
// be trusted. A payload that frames correctly but fails to parse
// (BadJson) or names an unknown op (BadRequest) keeps the connection
// alive: the frame boundary was sound, so the next request can proceed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "json/json.hpp"

namespace gptc::net {

inline constexpr char kMagic[4] = {'G', 'P', 'T', 'C'};
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 12;

/// Typed error vocabulary of the protocol. Serialized as the snake_case
/// strings of error_code_name (README "Server" documents each).
enum class ErrorCode {
  BadFrame,      // magic mismatch or unreadable header
  BadVersion,    // header version != kProtocolVersion
  TooLarge,      // declared payload length exceeds the server's bound
  BadJson,       // payload is not valid JSON
  BadRequest,    // JSON is valid but not a well-formed request
  Auth,          // missing/invalid/revoked API key
  Overloaded,    // admission control rejected the connection
  Timeout,       // read or write deadline expired mid-request
  ShuttingDown,  // server is draining; no new requests accepted
  Internal,      // unexpected server-side failure
};

std::string error_code_name(ErrorCode code);
std::optional<ErrorCode> parse_error_code(const std::string& name);

/// Serializes a frame header for a payload of `payload_size` bytes.
std::string encode_header(std::uint32_t payload_size);

/// Encodes one complete frame (header + compact JSON payload). The payload
/// is serialized straight into the frame buffer.
std::string encode_frame(const json::Json& payload);

/// The query response frame without a result tree: byte-identical to
/// encode_frame(make_result({"count": count, "records": [...]})) given the
/// records already serialized as comma-separated compact JSON.
std::string encode_records_frame(std::size_t count, std::string_view records);

/// Outcome of decoding a 12-byte header buffer.
struct DecodedHeader {
  std::uint32_t payload_size = 0;
  std::optional<ErrorCode> error;  // BadFrame / BadVersion when malformed
};

/// Validates magic + version, requires the flags/reserved bytes to be
/// zero, and extracts the payload length. A declared length of zero is
/// BadFrame (every frame carries a JSON document, never empty). Does not
/// enforce an upper size bound — the caller compares against its own
/// limit so TooLarge can be reported with the limit in the message.
DecodedHeader decode_header(const char* header);

/// Builds the standard success / error response payloads.
json::Json make_result(json::Json result);
json::Json make_error(ErrorCode code, const std::string& message);

}  // namespace gptc::net
