// crowd_pull — read-only crowd pulls of whole task histories.
//
// A fixed repo of kProblems problems x kTasksPerProblem tasks, each task
// holding a seeded number of records (tens to hundreds); one in ten of a
// task's records is private to another user and must not come back.
// kConnections closed-loop connections each cycle through their own seeded
// list of query_evaluations pulls ("task_parameters.m = .. AND
// task_parameters.n = .."). Every response's record count is checked
// against the count computed from the seeded data.
//
// The traced phase replays, beside each wire pull, the stages the server
// and client run for it, each timed on its own: authenticate_user,
// query_where, encode_frame(make_result(..)), Json::parse of that payload,
// and explain_where for the plan's candidate counts. What the stages do
// not cover of the round trip is the wire residual (socket, dispatch,
// copies).
#include "bench.hpp"
#include "hpcsim/machine.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"

namespace crowdbench {

using namespace gptc;

namespace {

constexpr std::size_t kProblems = 12;
constexpr std::size_t kTasksPerProblem = 8;
constexpr std::size_t kMinRecords = 20;
constexpr std::size_t kMaxRecords = 400;
constexpr std::size_t kPrivateEvery = 10;  // every 10th record is private
constexpr std::size_t kConnections = 1;  // the run is pinned to one CPU (run.py)
constexpr std::size_t kServerWorkers = 1;
constexpr std::size_t kPasses = 8;  // shuffled passes over all tasks per list
constexpr std::size_t kSlices = 10;  // metrics are medians over 10 time slices
constexpr int kSetupRepeats = 5;

struct Pull {
  std::int64_t m = 0, n = 0;
  std::string problem;
  std::string where;
  std::size_t total = 0;    // seeded records
  std::size_t visible = 0;  // records the tuner must get back
};

struct Data {
  std::vector<Pull> pulls;  // one per seeded task
  std::vector<std::vector<std::size_t>> lists;  // per connection: pull indexes
};

/// The seed permutes a fixed multiset, so every seed pulls the same mix:
/// task sizes are evenly spaced over [kMinRecords, kMaxRecords], and each
/// connection's list is kPasses shuffles of all tasks.
Data make_data(std::uint64_t seed) {
  Data d;
  const rng::Rng root = rng::Rng(seed).split("crowd_pull");
  constexpr std::size_t kTasks = kProblems * kTasksPerProblem;
  rng::Rng size_rng = root.split("sizes");
  const std::vector<std::size_t> rank = size_rng.permutation(kTasks);
  for (std::size_t p = 0; p < kProblems; ++p)
    for (std::size_t t = 0; t < kTasksPerProblem; ++t) {
      Pull pull;
      pull.m = 2000 + 1000 * static_cast<std::int64_t>(t);
      pull.n = 1000 + 250 * static_cast<std::int64_t>(p);
      pull.problem = "app" + std::to_string(p);
      pull.where = "task_parameters.m = " + std::to_string(pull.m) +
                   " AND task_parameters.n = " + std::to_string(pull.n);
      pull.total = kMinRecords + rank[d.pulls.size()] * (kMaxRecords - kMinRecords) / (kTasks - 1);
      pull.visible = pull.total - pull.total / kPrivateEvery;
      d.pulls.push_back(pull);
    }
  for (std::size_t c = 0; c < kConnections; ++c) {
    rng::Rng list_rng = root.split("list").split(c);
    std::vector<std::size_t> list;
    for (std::size_t pass = 0; pass < kPasses; ++pass)
      for (const std::size_t i : list_rng.permutation(kTasks)) list.push_back(i);
    d.lists.push_back(std::move(list));
  }
  return d;
}

/// Uploads every seeded task: the public records as the tuner, the
/// private ones as "other" (registered second, so the tuner's key still
/// authenticates with one hash).
void seed_repo(std::uint64_t seed, const Data& d, Fixture& f) {
  const std::string other = f.repo->register_user("other", "other@bench");
  const json::Json machine = hpcsim::MachineModel::cori_haswell().machine_configuration(8);
  rng::Rng rng = rng::Rng(seed).split("crowd_pull").split("records");
  for (const Pull& pull : d.pulls) {
    std::vector<crowd::EvalUpload> open, hidden;
    for (std::size_t i = 0; i < pull.total; ++i) {
      crowd::EvalUpload e;
      e.task_parameters = json::Json::object();
      e.task_parameters["m"] = pull.m;
      e.task_parameters["n"] = pull.n;
      e.tuning_parameters = json::Json::object();
      e.tuning_parameters["mb"] = rng.uniform_int(1, 15);
      e.tuning_parameters["nb"] = rng.uniform_int(1, 15);
      e.tuning_parameters["lg2npernode"] = rng.uniform_int(0, 4);
      e.tuning_parameters["p"] = rng.uniform_int(1, 255);
      e.output = rng.uniform(0.5, 50.0);
      e.machine_configuration = machine;
      if ((i + 1) % kPrivateEvery == 0) {
        e.accessibility.level = crowd::Accessibility::Level::Private;
        hidden.push_back(std::move(e));
      } else {
        open.push_back(std::move(e));
      }
    }
    f.repo->wait_uploads_durable(f.repo->upload_batch(f.key, pull.problem, open));
    if (!hidden.empty())
      f.repo->wait_uploads_durable(f.repo->upload_batch(other, pull.problem, hidden));
  }
}

/// Per-thread plan counters from explain_where in the traced phase.
struct PlanCounts {
  double candidates = 0, hits = 0, shards = 0, index_scans = 0;
};

Phase run_phase(const Data& d, Fixture& f, double seconds,
                std::vector<Trace>& traces, std::vector<PlanCounts>& plans) {
  return closed_loop(f, kConnections, seconds, [&](std::size_t t, net::CrowdClient& client,
                                                   std::uint64_t i, Phase& part) {
    const Pull& pull = d.pulls[d.lists[t][i % d.lists[t].size()]];
    Trace& trace = traces[t];
    ++part.attempted;
    ++part.wire_requests;
    Scope op(trace, "pull.op", Trace::kNoParent, i);
    std::size_t got = 0;
    {
      Scope rpc(trace, "net.rpc", op.id(), i);
      const Clock::time_point t0 = Clock::now();
      got = client.query(f.key, pull.problem, pull.where).size();
      const double ms = ms_between(t0, Clock::now());
      part.op_ms.push_back(ms);
      part.read_ms.push_back(ms);
      rpc.set_value(static_cast<double>(got));
    }
    if (got != pull.visible)
      fail(part.failures, pull.problem + " " + pull.where + ": got " + std::to_string(got) +
                         " records, seeded " + std::to_string(pull.visible));
    if (!trace.enabled()) return;

    std::optional<crowd::AuthedUser> user;
    {
      Scope s(trace, "crowd.authenticate", op.id(), i);
      user = f.repo->authenticate_user(f.key);
    }
    std::vector<json::Json> found;
    {
      Scope s(trace, "crowd.query_where", op.id(), i);
      found = f.repo->query_where(*user, pull.problem, pull.where);
      s.set_value(static_cast<double>(found.size()));
    }
    std::string frame;
    {
      Scope s(trace, "json.encode", op.id(), i);
      json::Json arr = json::Json::array();
      for (json::Json& rec : found) arr.as_array().push_back(std::move(rec));
      json::Json r = json::Json::object();
      r["records"] = std::move(arr);
      r["count"] = static_cast<std::int64_t>(found.size());
      frame = net::encode_frame(net::make_result(std::move(r)));
      s.set_value(static_cast<double>(frame.size()));
    }
    {
      Scope s(trace, "json.parse", op.id(), i);
      const json::Json parsed =
          json::Json::parse(std::string_view(frame).substr(net::kHeaderSize));
      s.set_value(static_cast<double>(parsed.at("result").at("count").as_int()));
    }
    const json::Json plan = f.repo->explain_where(*user, pull.problem, pull.where);
    PlanCounts& pc = plans[t];
    for (const json::Json& shard : plan.at("shards").as_array()) {
      pc.candidates += static_cast<double>(shard.at("candidates").as_int());
      pc.shards += 1;
      pc.index_scans += shard.at("index_scan").as_bool() ? 1 : 0;
    }
    pc.hits += static_cast<double>(got);
  }, kSlices);
}

}  // namespace

Report run_crowd_pull(const Options& opt) {
  const Data data = make_data(opt.seed);
  double setup_s = 0.0;
  auto fixture = timed_setup(opt, kSetupRepeats, [&](const std::filesystem::path& dir) {
    auto f = open_fixture(dir);
    seed_repo(opt.seed, data, *f);
    start_server(*f, kServerWorkers);
    net::CrowdClient warm("127.0.0.1", f->port());
    for (const Pull& pull : data.pulls) warm.query(f->key, pull.problem, pull.where);
    return f;
  }, setup_s);

  Report r;
  std::vector<Trace> off(kConnections, Trace(false));
  std::vector<PlanCounts> plans(kConnections);
  const Phase timed = run_phase(data, *fixture, opt.seconds, off, plans);
  r.failures = timed.failures;
  r.attempted = timed.attempted;
  r.failed = timed.failed;
  r.metrics = end_to_end_metrics(timed, setup_s);
  r.notes = phase_notes(timed);
  if (!opt.trace) return r;

  std::vector<Trace> traces(kConnections, Trace(true));
  const Phase traced = run_phase(data, *fixture, opt.seconds, traces, plans);
  add_traced_phase(r, timed, traced);
  std::vector<const Trace*> views;
  for (const Trace& t : traces) views.push_back(&t);
  write_trace(opt.trace_out, views);

  const Layers layers = derive_layers(views);
  const LayerStats& rpc = layer(layers, "net.rpc");
  double stages = 0.0;
  for (const char* stage : {"crowd.authenticate", "crowd.query_where", "json.encode", "json.parse"})
    stages += layer(layers, stage).total_ms;
  PlanCounts pc;
  for (const PlanCounts& p : plans) {
    pc.candidates += p.candidates;
    pc.hits += p.hits;
    pc.shards += p.shards;
    pc.index_scans += p.index_scans;
  }
  const auto ops = static_cast<double>(rpc.values.size());
  const auto p50_us = [&](const char* name) { return layer(layers, name).p50_ms() * 1e3; };
  r.layers["crowd.authenticate.p50_us"] = p50_us("crowd.authenticate");
  r.layers["crowd.query_where.p50_us"] = p50_us("crowd.query_where");
  r.layers["db.candidates_per_hit"] = pc.candidates / pc.hits;
  r.layers["db.index_scan_ratio"] = pc.index_scans / pc.shards;
  r.layers["json.encode.p50_us"] = p50_us("json.encode");
  r.layers["json.parse.p50_us"] = p50_us("json.parse");
  r.layers["net.residual_share"] = (rpc.total_ms - stages) / rpc.total_ms;
  r.layers["net.records_per_op"] = rpc.value_sum() / ops;
  r.layers["net.bytes_per_op"] = layer(layers, "json.encode").value_sum() / ops;
  return r;
}

}  // namespace crowdbench
