#include "db/engine/snapshot.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "db/engine/checksum.hpp"
#include "db/engine/fsutil.hpp"

namespace gptc::db::engine {

using json::Json;

namespace {

[[noreturn]] void corrupt(const std::filesystem::path& path,
                          const std::string& why) {
  throw std::runtime_error("snapshot: refusing " + path.string() + ": " +
                           why);
}

}  // namespace

std::optional<Snapshot> read_snapshot(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  // From here on the snapshot EXISTS: any validation failure is corruption
  // and must refuse recovery, not fall back to an older (stale) source.
  if (!text.empty() && text.back() == '\n') text.pop_back();
  if (text.size() < 8 + 1 + 1 || text[8] != ' ')
    corrupt(path, "malformed checksum framing");
  const std::string_view checksum(text.data(), 8);
  const std::string_view payload(text.data() + 9, text.size() - 9);
  if (hex32(crc32(payload)) != checksum) corrupt(path, "checksum mismatch");
  try {
    const Json j = Json::parse(payload);
    if (j.get_or("format", Json(0)).as_int() != 1)
      corrupt(path, "unknown format version");
    Snapshot snap;
    snap.collection_state = j.at("collection");
    snap.last_seq =
        static_cast<std::uint64_t>(j.at("last_seq").as_int());
    return snap;
  } catch (const json::JsonError& e) {
    corrupt(path, std::string("payload does not parse: ") + e.what());
  }
}

void write_snapshot(const std::filesystem::path& path,
                    const Json& collection_state, std::uint64_t last_seq,
                    FaultInjector* fault) {
  Json j = Json::object();
  j["format"] = 1;
  j["last_seq"] = static_cast<std::int64_t>(last_seq);
  j["collection"] = collection_state;
  const std::string payload = j.dump();
  const std::string content = hex32(crc32(payload)) + " " + payload + "\n";

  replace_file(path, content, "snapshot", [&] {
    if (fault && fault->fire(FaultPoint::SnapshotBeforeRename))
      throw CrashInjected("injected crash before snapshot rename: " +
                          path.string());
  });

  if (fault && fault->fire(FaultPoint::SnapshotAfterRename))
    throw CrashInjected("injected crash after snapshot rename: " +
                        path.string());
}

}  // namespace gptc::db::engine
