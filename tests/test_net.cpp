// Protocol-conformance tests for the crowd-repo server (src/net): every
// malformed input — truncated or oversized frames, garbage JSON, wrong
// protocol version, bad credentials, stalled clients — must produce the
// documented typed error and leave the server serving. Each abuse case
// ends with a health round trip over a fresh connection: the server
// survived. CI runs this suite under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "crowd/analytics.hpp"
#include "crowd/repo.hpp"
#include "crowd/variability.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

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

/// One durable repo + running server per fixture, async group commit on
/// (the production serving mode).
class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>(
        "gptc_net_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    db::engine::EngineOptions eo;
    eo.async_commit = true;
    repo_ = std::make_unique<crowd::SharedRepo>(
        crowd::SharedRepo::open_durable(dir_->path(), 7, eo));
    api_key_ = repo_->register_user("alice", "alice@example.org");
    repo_->add_machine_alias("Cori", {"cori", "cori-knl"});
  }

  void start(ServerOptions opts = {}) {
    opts.port = 0;
    server_ = std::make_unique<CrowdServer>(*repo_, opts);
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  CrowdClient client() { return CrowdClient("127.0.0.1", server_->port()); }

  /// Raw connection for hand-crafted (malformed) frames.
  Socket raw_connect() {
    return tcp_connect("127.0.0.1", server_->port(), /*recv_timeout_ms=*/5000,
                       /*send_timeout_ms=*/5000);
  }

  /// Reads one response frame; fails the test on a broken stream.
  Json read_frame(Socket& sock) {
    char header[kHeaderSize];
    EXPECT_EQ(sock.recv_exact(header, kHeaderSize), IoStatus::Ok);
    const DecodedHeader h = decode_header(header);
    EXPECT_FALSE(h.error.has_value());
    std::string body(h.payload_size, '\0');
    EXPECT_EQ(sock.recv_exact(body.data(), body.size()), IoStatus::Ok);
    return Json::parse(body);
  }

  static std::string error_code_of(const Json& response) {
    EXPECT_FALSE(response.at("ok").as_bool());
    return response.at("error").at("code").as_string();
  }

  /// The liveness probe every abuse case ends with: a fresh connection
  /// still gets a healthy answer, so the malformed input did not take the
  /// server down.
  void expect_alive() {
    EXPECT_EQ(client().health().at("status").as_string(), "ok");
  }

  crowd::EvalUpload make_eval(int mb, double runtime,
                              const std::string& machine = "cori") {
    crowd::EvalUpload e;
    e.task_parameters = Json::object();
    e.task_parameters["m"] = static_cast<std::int64_t>(1000);
    e.tuning_parameters = Json::object();
    e.tuning_parameters["mb"] = static_cast<std::int64_t>(mb);
    e.output = runtime;
    e.machine_configuration = Json::object();
    e.machine_configuration["machine_name"] = machine;
    return e;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<crowd::SharedRepo> repo_;
  std::unique_ptr<CrowdServer> server_;
  std::string api_key_;
};

// ---------------------------------------------------------------------------
// Happy paths

TEST_F(NetTest, HealthAndStats) {
  start();
  CrowdClient c = client();
  EXPECT_EQ(c.health().at("status").as_string(), "ok");
  const Json stats = c.stats();
  EXPECT_GE(stats.at("connections_accepted").as_int(), 1);
  EXPECT_EQ(stats.at("records_uploaded").as_int(), 0);
}

TEST_F(NetTest, UploadThenQueryRoundTrip) {
  start();
  CrowdClient c = client();
  const std::vector<std::int64_t> ids = c.upload(
      api_key_, "pdgeqrf",
      {make_eval(4, 1.5), make_eval(8, 2.5), make_eval(16, 3.5)});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_NE(ids[0], ids[1]);

  // The server normalized the machine tag on ingest ("cori" -> "Cori").
  const auto records = c.query(
      api_key_, "pdgeqrf",
      "machine_configuration.machine_name = 'Cori' AND "
      "tuning_parameters.mb >= 8");
  ASSERT_EQ(records.size(), 2u);
  for (const Json& r : records) {
    EXPECT_EQ(r.at("machine_configuration").at("machine_name").as_string(),
              "Cori");
    EXPECT_GE(r.at("tuning_parameters").at("mb").as_int(), 8);
  }

  const Json stats = c.stats();
  EXPECT_EQ(stats.at("records_uploaded").as_int(), 3);
}

TEST_F(NetTest, EachRequestAuthenticatesExactlyOnce) {
  start();
  CrowdClient c = client();
  c.upload(api_key_, "pdgeqrf", {make_eval(4, 1.5)});  // warm catalog paths

  // One stored-key hash per request: the handler authenticates once and
  // hands the AuthedUser proof to the repo, which must not re-hash.
  std::uint64_t before = crowd::SharedRepo::auth_hash_invocations();
  c.upload(api_key_, "pdgeqrf", {make_eval(8, 2.5)});
  EXPECT_EQ(crowd::SharedRepo::auth_hash_invocations() - before, 1u);

  before = crowd::SharedRepo::auth_hash_invocations();
  c.query(api_key_, "pdgeqrf", "tuning_parameters.mb >= 4");
  EXPECT_EQ(crowd::SharedRepo::auth_hash_invocations() - before, 1u);

  before = crowd::SharedRepo::auth_hash_invocations();
  c.explain(api_key_, "pdgeqrf", "tuning_parameters.mb >= 4");
  EXPECT_EQ(crowd::SharedRepo::auth_hash_invocations() - before, 1u);
}

TEST_F(NetTest, EmptyWhereReturnsWholeVisiblePartition) {
  start();
  CrowdClient c = client();
  c.upload(api_key_, "p1", {make_eval(1, 1.0), make_eval(2, 2.0)});
  c.upload(api_key_, "p2", {make_eval(3, 3.0)});
  EXPECT_EQ(c.query(api_key_, "p1", "").size(), 2u);
  EXPECT_EQ(c.query(api_key_, "p2", "").size(), 1u);
}

TEST_F(NetTest, QueryResponseBytesMatchEncodedResult) {
  // The query response is pinned byte for byte to
  // encode_frame(make_result({"count": n, "records": query_where(...)})),
  // at one and at four shards, for callers that see different subsets
  // (private and foreign shared records stay hidden), for an empty
  // result, and for records whose strings need escaping and whose outputs
  // are doubles of every written form.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    if (server_) server_->stop();
    server_.reset();
    repo_.reset();
    dir_ = std::make_unique<TempDir>("gptc_net_bytes_" +
                                     std::to_string(shards));
    db::engine::EngineOptions eo;
    eo.async_commit = true;
    eo.shards = shards;
    repo_ = std::make_unique<crowd::SharedRepo>(
        crowd::SharedRepo::open_durable(dir_->path(), 7, eo));
    const std::string alice = repo_->register_user("alice", "a@example.org");
    const std::string bob = repo_->register_user("bob", "b@example.org");
    const std::string carol = repo_->register_user("carol", "c@example.org");

    using Level = crowd::Accessibility::Level;
    const auto eval = [&](int mb, double runtime, Level level,
                          const std::string& shared_with = "") {
      crowd::EvalUpload e = make_eval(mb, runtime);
      e.task_parameters["label"] =
          std::string("q\"b\\s\nn\x01 \xC3\xA9\xF0\x9F\x98\x80");
      e.accessibility.level = level;
      if (!shared_with.empty()) e.accessibility.shared_with = {shared_with};
      return e;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    repo_->upload_batch(alice, "pq", {eval(4, 0.1, Level::Public),
                                      eval(8, 1e-300, Level::Private)});
    repo_->upload_batch(bob, "pq", {eval(4, 2.5, Level::Private),
                                    eval(8, 1e21, Level::Shared, "alice"),
                                    eval(32, -0.0, Level::Shared, "carol")});
    repo_->upload_batch(alice, "pq", {eval(16, 3.0, Level::Public),
                                      eval(64, nan, Level::Public)});
    repo_->upload_batch(bob, "other", {eval(2, 7.25, Level::Public)});
    start();

    Socket sock = raw_connect();
    for (const auto& [key, visible_all] :
         {std::pair{alice, 5u}, std::pair{bob, 6u}, std::pair{carol, 4u}}) {
      for (const auto& [problem, where] :
           {std::pair<std::string, std::string>{"pq", ""},
            {"pq", "tuning_parameters.mb >= 8"},
            {"pq", "tuning_parameters.mb > 1000"},
            {"nope", ""},
            {"other", ""}}) {
        Json request = Json::object();
        request["op"] = "query_evaluations";
        request["api_key"] = key;
        request["problem"] = problem;
        request["where"] = where;
        const std::string out = encode_frame(request);
        ASSERT_EQ(sock.send_all(out.data(), out.size()), IoStatus::Ok);
        char header[kHeaderSize];
        ASSERT_EQ(sock.recv_exact(header, kHeaderSize), IoStatus::Ok);
        const DecodedHeader h = decode_header(header);
        ASSERT_FALSE(h.error.has_value());
        std::string got(header, kHeaderSize);
        got.resize(kHeaderSize + h.payload_size);
        ASSERT_EQ(sock.recv_exact(got.data() + kHeaderSize, h.payload_size),
                  IoStatus::Ok);

        std::vector<Json> records = repo_->query_where(
            repo_->authenticate_user(key).value(), problem, where);
        if (problem == "pq" && where.empty()) {
          EXPECT_EQ(records.size(), visible_all);
        }
        Json result = Json::object();
        result["count"] = records.size();
        Json arr = Json::array();
        for (Json& r : records) arr.push_back(std::move(r));
        result["records"] = std::move(arr);
        EXPECT_EQ(got, encode_frame(make_result(std::move(result))))
            << problem << " WHERE " << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Auth failures

TEST_F(NetTest, RejectsBadAndRevokedApiKeys) {
  start();
  CrowdClient c = client();
  try {
    c.upload("not-a-key", "pdgeqrf", {make_eval(1, 1.0)});
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Auth);
  }

  const std::string revoked = repo_->issue_api_key("alice");
  ASSERT_TRUE(repo_->revoke_api_key(revoked));
  try {
    c.query(revoked, "pdgeqrf", "");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Auth);
  }

  // Auth errors keep the connection usable.
  EXPECT_EQ(c.health().at("status").as_string(), "ok");
  expect_alive();
}

TEST_F(NetTest, MissingApiKeyIsAuthError) {
  start();
  Socket sock = raw_connect();
  Json req = Json::object();
  req["op"] = "upload";
  const std::string frame = encode_frame(req);
  ASSERT_EQ(sock.send_all(frame.data(), frame.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "auth");
  expect_alive();
}

TEST_F(NetTest, RequestPrologueErrorsAreTypedAndOrdered) {
  // Every repository op validates the same head, in the same order:
  // api_key present -> api_key valid -> problem present -> (query/explain)
  // where is a string. Each row pins the error code and message the first
  // failing check answers with.
  start();
  struct Row {
    const char* request;  // "KEY" is replaced with a valid API key
    const char* code;
    const char* message;
  };
  const std::vector<Row> rows = {
      {R"({"op":"upload"})", "auth", "missing api_key"},
      {R"({"op":"upload","api_key":5,"problem":"p"})", "auth",
       "missing api_key"},
      {R"({"op":"upload","api_key":"nope","problem":"p"})", "auth",
       "invalid or revoked API key"},
      {R"({"op":"upload","api_key":"KEY"})", "bad_request",
       "missing problem name"},
      {R"({"op":"upload","api_key":"KEY","problem":"p","where":5})",
       "bad_request", "records must be a non-empty array"},
      {R"({"op":"query_evaluations"})", "auth", "missing api_key"},
      {R"({"op":"query_evaluations","api_key":"nope"})", "auth",
       "invalid or revoked API key"},
      {R"({"op":"query_evaluations","api_key":"KEY","where":5})",
       "bad_request", "missing problem name"},
      {R"({"op":"query_evaluations","api_key":"KEY","problem":"p","where":5})",
       "bad_request", "where must be a string"},
      {R"({"op":"explain"})", "auth", "missing api_key"},
      {R"({"op":"explain","api_key":"nope"})", "auth",
       "invalid or revoked API key"},
      {R"({"op":"explain","api_key":"KEY","where":5})", "bad_request",
       "missing problem name"},
      {R"({"op":"explain","api_key":"KEY","problem":"p","where":[]})",
       "bad_request", "where must be a string"},
  };
  // Prologue errors are answered in-band: one connection serves the table.
  Socket sock = raw_connect();
  for (const Row& row : rows) {
    std::string text = row.request;
    const std::size_t at = text.find("KEY");
    if (at != std::string::npos) text.replace(at, 3, api_key_);
    const std::string frame = encode_frame(Json::parse(text));
    ASSERT_EQ(sock.send_all(frame.data(), frame.size()), IoStatus::Ok);
    const Json response = read_frame(sock);
    EXPECT_EQ(error_code_of(response), row.code) << row.request;
    EXPECT_EQ(response.at("error").at("message").as_string(), row.message)
        << row.request;
  }
  expect_alive();
}

// ---------------------------------------------------------------------------
// Malformed frames

TEST_F(NetTest, BadMagicGetsBadFrameAndClose) {
  start();
  Socket sock = raw_connect();
  std::string header = encode_header(0);
  header[0] = 'X';  // corrupt the magic
  ASSERT_EQ(sock.send_all(header.data(), header.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_frame");
  // Framing errors close the connection: the next read sees EOF.
  char byte = 0;
  EXPECT_EQ(sock.recv_exact(&byte, 1), IoStatus::Eof);
  expect_alive();
}

TEST_F(NetTest, WrongVersionByteGetsBadVersionAndClose) {
  start();
  Socket sock = raw_connect();
  std::string header = encode_header(0);
  header[4] = 9;  // future protocol version
  ASSERT_EQ(sock.send_all(header.data(), header.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_version");
  char byte = 0;
  EXPECT_EQ(sock.recv_exact(&byte, 1), IoStatus::Eof);
  expect_alive();
}

TEST_F(NetTest, ZeroDeclaredPayloadLengthIsBadFrame) {
  start();
  Socket sock = raw_connect();
  // A syntactically perfect header declaring an empty payload: no frame
  // carries an empty JSON document, so this must be rejected as malformed
  // rather than answered or silently skipped.
  const std::string header = encode_header(0);
  ASSERT_EQ(sock.send_all(header.data(), header.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_frame");
  char byte = 0;
  EXPECT_EQ(sock.recv_exact(&byte, 1), IoStatus::Eof);
  expect_alive();
}

TEST_F(NetTest, NonzeroFlagsOrReservedBytesAreBadFrame) {
  start();
  for (std::size_t i = 5; i <= 7; ++i) {
    Socket sock = raw_connect();
    Json req = Json::object();
    req["op"] = "health";
    std::string frame = encode_frame(req);
    frame[i] = 1;
    ASSERT_EQ(sock.send_all(frame.data(), frame.size()), IoStatus::Ok);
    EXPECT_EQ(error_code_of(read_frame(sock)), "bad_frame") << "byte " << i;
  }
  expect_alive();
}

TEST_F(NetTest, HeaderBitFlipSweepNeverYieldsOk) {
  ServerOptions opts;
  opts.read_timeout_ms = 150;  // length-increasing flips end in a fast timeout
  start(opts);
  Json req = Json::object();
  req["op"] = "health";
  const std::string frame = encode_frame(req);
  // Deterministic single-bit corruption of every header byte: whatever the
  // flip hits — magic, version, flags, reserved, declared length — the
  // server must answer with a typed error, never treat the frame as valid.
  for (std::size_t byte = 0; byte < kHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Socket sock = raw_connect();
      std::string corrupted = frame;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      ASSERT_EQ(sock.send_all(corrupted.data(), corrupted.size()),
                IoStatus::Ok);
      EXPECT_FALSE(read_frame(sock).at("ok").as_bool())
          << "flipping byte " << byte << " bit " << bit
          << " must not yield a valid request";
    }
  }
  expect_alive();
}

TEST_F(NetTest, TruncatedHeaderThenCloseIsHarmless) {
  start();
  {
    Socket sock = raw_connect();
    const std::string header = encode_header(100);
    // Send 5 of the 12 header bytes, then vanish.
    ASSERT_EQ(sock.send_all(header.data(), 5), IoStatus::Ok);
  }
  expect_alive();
}

TEST_F(NetTest, TruncatedPayloadThenCloseIsHarmless) {
  start();
  {
    Socket sock = raw_connect();
    const std::string frame = encode_frame(Json::parse(R"({"op":"health"})"));
    // Full header, half the payload.
    ASSERT_EQ(sock.send_all(frame.data(), kHeaderSize + 3), IoStatus::Ok);
  }
  expect_alive();
}

TEST_F(NetTest, OversizedLengthGetsTooLargeAndClose) {
  ServerOptions opts;
  opts.max_request_bytes = 1024;
  start(opts);
  Socket sock = raw_connect();
  const std::string header = encode_header(10u << 20);  // 10 MiB declared
  ASSERT_EQ(sock.send_all(header.data(), header.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "too_large");
  char byte = 0;
  EXPECT_EQ(sock.recv_exact(&byte, 1), IoStatus::Eof);
  expect_alive();
}

TEST_F(NetTest, GarbageJsonGetsBadJsonAndKeepsConnection) {
  start();
  Socket sock = raw_connect();
  const std::string garbage = "{\"op\": \"heal";  // truncated JSON
  std::string frame = encode_header(static_cast<std::uint32_t>(garbage.size()));
  frame += garbage;
  ASSERT_EQ(sock.send_all(frame.data(), frame.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_json");

  // The frame boundary was sound, so the same connection still serves.
  const std::string health = encode_frame(Json::parse(R"({"op":"health"})"));
  ASSERT_EQ(sock.send_all(health.data(), health.size()), IoStatus::Ok);
  const Json response = read_frame(sock);
  EXPECT_TRUE(response.at("ok").as_bool());
  expect_alive();
}

TEST_F(NetTest, NonObjectAndUnknownOpAreBadRequests) {
  start();
  Socket sock = raw_connect();
  const std::string arr = encode_frame(Json::parse("[1,2,3]"));
  ASSERT_EQ(sock.send_all(arr.data(), arr.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_request");

  const std::string unknown = encode_frame(Json::parse(R"({"op":"launch"})"));
  ASSERT_EQ(sock.send_all(unknown.data(), unknown.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_request");

  const std::string noop = encode_frame(Json::parse(R"({"problem":"x"})"));
  ASSERT_EQ(sock.send_all(noop.data(), noop.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "bad_request");
  expect_alive();
}

TEST_F(NetTest, WronglyTypedOutputIsBadRequestNamingTheRecord) {
  // The batch is decoded before any record is stored: a second record whose
  // output is a string rejects the whole upload, named by its position.
  start();
  Socket sock = raw_connect();
  Json req = Json::object();
  req["op"] = "upload";
  req["api_key"] = api_key_;
  req["problem"] = "pdgeqrf";
  req["records"] = Json::parse(
      R"([{"tuning_parameters":{"mb":4},"output":1.5},)"
      R"( {"tuning_parameters":{"mb":8},"output":"x"}])");
  const std::string frame = encode_frame(req);
  ASSERT_EQ(sock.send_all(frame.data(), frame.size()), IoStatus::Ok);
  const Json response = read_frame(sock);
  EXPECT_EQ(error_code_of(response), "bad_request");
  EXPECT_EQ(response.at("error").at("message").as_string(),
            "record 2: output must be a number or null");
  EXPECT_EQ(repo_->num_records("pdgeqrf"), 0u);
  expect_alive();
}

TEST_F(NetTest, BadWhereClauseIsBadRequest) {
  start();
  CrowdClient c = client();
  c.upload(api_key_, "pdgeqrf", {make_eval(1, 1.0)});
  try {
    c.query(api_key_, "pdgeqrf", "mb >=");  // parse error
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
  expect_alive();
}

// ---------------------------------------------------------------------------
// Timeouts and admission control

TEST_F(NetTest, StalledClientGetsTimeoutFrame) {
  ServerOptions opts;
  opts.read_timeout_ms = 200;
  start(opts);
  Socket sock = raw_connect();
  // Send nothing; the server's read deadline expires and it answers with
  // a typed timeout error before closing.
  EXPECT_EQ(error_code_of(read_frame(sock)), "timeout");
  char byte = 0;
  EXPECT_EQ(sock.recv_exact(&byte, 1), IoStatus::Eof);
  expect_alive();
}

TEST_F(NetTest, StalledMidFrameGetsTimeoutFrame) {
  ServerOptions opts;
  opts.read_timeout_ms = 200;
  start(opts);
  Socket sock = raw_connect();
  // Declare a 64-byte payload but never send it.
  const std::string header = encode_header(64);
  ASSERT_EQ(sock.send_all(header.data(), header.size()), IoStatus::Ok);
  EXPECT_EQ(error_code_of(read_frame(sock)), "timeout");
  expect_alive();
}

TEST_F(NetTest, AdmissionControlRejectsBeyondCap) {
  ServerOptions opts;
  opts.max_connections = 1;
  opts.workers = 1;
  start(opts);

  Socket first = raw_connect();
  // Prove the first connection is established and serving.
  const std::string health = encode_frame(Json::parse(R"({"op":"health"})"));
  ASSERT_EQ(first.send_all(health.data(), health.size()), IoStatus::Ok);
  EXPECT_TRUE(read_frame(first).at("ok").as_bool());

  // The second connection exceeds the cap: typed overloaded error, closed,
  // and the accept loop never blocked.
  Socket second = raw_connect();
  EXPECT_EQ(error_code_of(read_frame(second)), "overloaded");
  char byte = 0;
  EXPECT_EQ(second.recv_exact(&byte, 1), IoStatus::Eof);

  // The first connection is untouched.
  ASSERT_EQ(first.send_all(health.data(), health.size()), IoStatus::Ok);
  EXPECT_TRUE(read_frame(first).at("ok").as_bool());
}

TEST_F(NetTest, StopRefusesNewConnections) {
  start();
  expect_alive();
  server_->stop();
  EXPECT_THROW(CrowdClient("127.0.0.1", server_->port()), TransportError);
}

TEST_F(NetTest, UploadsAreDurableOnAck) {
  start();
  client().upload(api_key_, "pdgeqrf",
                  {make_eval(4, 1.5), make_eval(8, 2.5)});
  server_->stop();
  server_.reset();
  repo_.reset();  // destroy without explicit sync

  // Reopen the directory: the acked batch must have survived.
  db::engine::EngineOptions eo;
  eo.async_commit = true;
  crowd::SharedRepo reopened =
      crowd::SharedRepo::open_durable(dir_->path(), 7, eo);
  EXPECT_EQ(reopened.num_records("pdgeqrf"), 2u);
}

// ---------------------------------------------------------------------------
// Crowd analytics over the records a client pulls

TEST_F(NetTest, RemoteAndLocalAnalyticsAgree) {
  // Runtime and energy uploads share one problem. The analytics read the
  // meta's objective from the records a remote query returns (both
  // objectives) exactly as from a local meta query (runtimes only).
  std::vector<crowd::EvalUpload> all;
  for (int i = 0; i < 12; ++i) {
    const int mb = 1 + i % 6;
    crowd::EvalUpload r = make_eval(mb, 1.0 + 0.25 * (mb - 3) * (mb - 3) +
                                            0.01 * i);
    crowd::EvalUpload e = r;
    e.output_name = "energy";
    e.output = i == 7 ? std::numeric_limits<double>::quiet_NaN()
                      : 1000.0 + 37.0 * mb + (i % 2 == 0 ? 400.0 : 0.0);
    all.push_back(e);
    all.push_back(r);
  }
  start();
  CrowdClient c = client();
  c.upload(api_key_, "p", all);

  crowd::MetaDescription meta;
  meta.api_key = api_key_;
  meta.tuning_problem_name = "p";
  meta.input_space = space::Space({space::Parameter::integer("m", 1, 5000)});
  meta.parameter_space =
      space::Space({space::Parameter::integer("mb", 1, 16)});
  const std::vector<Json> local = repo_->query_function_evaluations(meta);
  const std::vector<Json> remote = c.query(api_key_, "p", "");
  ASSERT_EQ(local.size(), 12u);
  ASSERT_EQ(remote.size(), 24u);

  const auto a = crowd::fit_surrogate(remote, meta, 3);
  const auto b = crowd::fit_surrogate(local, meta, 3);
  for (const double u : {0.0, 0.3, 0.55, 1.0}) {
    const gp::Prediction pa = a->predict({u}), pb = b->predict({u});
    EXPECT_EQ(pa.mean, pb.mean) << "u = " << u;
    EXPECT_EQ(pa.variance, pb.variance) << "u = " << u;
  }

  const auto ha = crowd::source_histories(remote, meta);
  const auto hb = crowd::source_histories(local, meta);
  ASSERT_EQ(ha.size(), 1u);
  ASSERT_EQ(hb.size(), 1u);
  ASSERT_EQ(ha[0].size(), 12u);  // the failed energy run is not a runtime
  ASSERT_EQ(hb[0].size(), 12u);
  EXPECT_EQ(ha[0].task(), hb[0].task());
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(ha[0].evals()[i].output, hb[0].evals()[i].output);
    EXPECT_EQ(ha[0].evals()[i].params, hb[0].evals()[i].params);
  }

  // Variability groups by configuration, not objective: a remote caller
  // pulls the objective's records with the WHERE clause.
  const crowd::VariabilityReport va = crowd::detect_variability(
      c.query(api_key_, "p", "output.runtime EXISTS"));
  const crowd::VariabilityReport vb = crowd::detect_variability(local);
  ASSERT_EQ(va.groups.size(), 6u);
  ASSERT_EQ(vb.groups.size(), 6u);
  for (std::size_t g = 0; g < 6; ++g) {
    EXPECT_EQ(va.groups[g].key, vb.groups[g].key);
    EXPECT_EQ(va.groups[g].record_ids, vb.groups[g].record_ids);
    EXPECT_EQ(va.groups[g].outputs, vb.groups[g].outputs);
    EXPECT_EQ(va.groups[g].outliers, vb.groups[g].outliers);
  }
  EXPECT_EQ(va.summary(), vb.summary());
}

// ---------------------------------------------------------------------------
// Protocol helpers

TEST(Protocol, HeaderRoundTrip) {
  const std::string h = encode_header(0xA1B2C3u);
  ASSERT_EQ(h.size(), kHeaderSize);
  const DecodedHeader d = decode_header(h.data());
  EXPECT_FALSE(d.error.has_value());
  EXPECT_EQ(d.payload_size, 0xA1B2C3u);
}

TEST(Protocol, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::BadFrame, ErrorCode::BadVersion, ErrorCode::TooLarge,
        ErrorCode::BadJson, ErrorCode::BadRequest, ErrorCode::Auth,
        ErrorCode::Overloaded, ErrorCode::Timeout, ErrorCode::ShuttingDown,
        ErrorCode::Internal}) {
    const auto parsed = parse_error_code(error_code_name(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(parse_error_code("no_such_code").has_value());
}

}  // namespace
}  // namespace gptc::net
