// tuning_session — the paper's crowd-tuning loop (Alg. 1, Sec. IV-B),
// composed from public calls, one tuner against the in-process server.
//
// Each session tunes one target pdgeqrf task with Multitask(TS) LCM
// transfer from pre-seeded source tasks: a random pilot evaluation, then
// kBudget iterations of
//   pull (CrowdClient::query, one per source task) -> gp::LcmModel::fit
//   -> core::maximize_ei on LcmModel::task_view -> pdgeqrf objective
//   -> CrowdClient::upload.
// The primary operation is one iteration. A pass runs one session on each
// target task; the timed phase runs whole passes, at least two, until the
// run's time is up, so every target weighs the same in the metrics however
// fast the host is. Pulls only ever hit the seeded source tasks (uploads
// land on target tasks nothing reads), so every pass does bitwise-identical
// arithmetic and a repeated session must reproduce its best-so-far trace.
// The fit and the EI search run serially (LcmOptions::pool and
// AcquisitionOptions::pool left null; the results are bitwise identical
// for any pool): on a few shared vCPUs, a pool's fork-join wake-ups swing
// an iteration's latency between runs far more than its arithmetic does.
#include <cmath>
#include <memory>
#include <optional>

#include "apps/pdgeqrf.hpp"
#include "bench.hpp"
#include "core/acquisition.hpp"
#include "core/history.hpp"
#include "gp/lcm.hpp"
#include "net/client.hpp"

namespace crowdbench {

using namespace gptc;

namespace {

constexpr int kNodes = 8;
constexpr std::size_t kServerWorkers = 1;  // one tuner connection
constexpr std::size_t kSourceSamples = 40;  // records per seeded source task
constexpr int kBudget = 20;                 // iterations per session
constexpr int kSetupRepeats = 9;
const char* const kProblem = "pdgeqrf";
const char* const kReplayProblem = "pdgeqrf_replay";  // traced upload replays

struct Task {
  std::int64_t m, n;
};
// No target shares an m or n value with a source, so the uploads never
// enter the index postings a pull's WHERE clause looks up.
const std::vector<Task> kSourceTasks = {{12000, 8000}, {16000, 12000}};
const std::vector<Task> kTargetTasks = {{10000, 10000}, {14000, 6000},
                                        {18000, 9000}};

space::Config task_config(const Task& t) {
  return {json::Json(t.m), json::Json(t.n)};
}

std::string source_where(const Task& t) {
  return "task_parameters.m = " + std::to_string(t.m) +
         " AND task_parameters.n = " + std::to_string(t.n);
}

struct Context {
  space::TuningProblem problem;
  hpcsim::MachineModel machine;
  std::uint64_t seed = 0;
  gp::LcmOptions lcm;
  core::AcquisitionOptions acq;

  crowd::EvalUpload eval(const Task& t, const space::Config& params,
                         double y) const {
    crowd::EvalUpload e;
    e.task_parameters = json::Json::object();
    e.task_parameters["m"] = t.m;
    e.task_parameters["n"] = t.n;
    e.tuning_parameters = problem.param_space.config_to_json(params);
    e.output = y;
    e.machine_configuration = machine.machine_configuration(kNodes);
    return e;
  }
};

Context make_context(std::uint64_t seed) {
  Context c;
  c.machine = hpcsim::MachineModel::cori_haswell();
  c.problem = apps::make_pdgeqrf_problem(c.machine, kNodes, seed);
  c.seed = seed;
  return c;
}

/// Seeded source histories: kSourceSamples successful random evaluations
/// per source task, uploaded directly (set-up, not the measured path).
void seed_sources(const Context& ctx, Fixture& f) {
  const space::Space& space = ctx.problem.param_space;
  for (std::size_t s = 0; s < kSourceTasks.size(); ++s) {
    rng::Rng rng = rng::Rng(ctx.seed).split("source").split(s);
    std::vector<crowd::EvalUpload> evals;
    while (evals.size() < kSourceSamples) {
      const space::Config params = space.sample(rng);
      const double y =
          ctx.problem.objective(task_config(kSourceTasks[s]), params);
      if (std::isfinite(y)) evals.push_back(ctx.eval(kSourceTasks[s], params, y));
    }
    f.repo->wait_uploads_durable(f.repo->upload_batch(f.key, kProblem, evals));
  }
}

gp::TaskData to_task_data(const std::vector<json::Json>& records,
                          const space::Space& space) {
  std::vector<la::Vector> rows;
  la::Vector y;
  for (const json::Json& r : records) {
    rows.push_back(
        space.encode(space.config_from_json(r.at("tuning_parameters"))));
    y.push_back(r.at("output").at("runtime").as_double());
  }
  return {la::Matrix::from_rows(rows), std::move(y)};
}

/// One tuner's state across the sessions of a phase.
struct Tuner {
  Context& ctx;
  net::CrowdClient client;
  Fixture& fixture;
  const crowd::AuthedUser user;
  Trace& trace;
  Phase& phase;
  std::uint64_t op = 0;

  void upload(const Task& t, const space::Config& params, double y) {
    ++phase.wire_requests;
    const auto ids = client.upload(fixture.key, kProblem, {ctx.eval(t, params, y)});
    phase.wire_records += ids.size();
    if (ids.size() != 1) fail(phase.failures, "upload acked " + std::to_string(ids.size()) + " ids, expected 1");
  }

  /// Traced phase only: the iteration's upload once more, in-process into a
  /// problem nothing reads, timing the authenticated upload_batch and
  /// wait_uploads_durable on their own, outside the iteration's span.
  void replay_upload(const crowd::EvalUpload& e) {
    Scope root(trace, "replay.upload", Trace::kNoParent, op);
    crowd::SharedRepo::UploadReceipt receipt;
    {
      Scope s(trace, "crowd.upload_batch", root.id(), op);
      receipt = fixture.repo->upload_batch(user, kReplayProblem, {e});
    }
    Scope s(trace, "db.wait_durable", root.id(), op);
    fixture.repo->wait_uploads_durable(receipt);
  }

  /// Runs the session on target slot `slot`; returns its best-so-far trace.
  std::vector<double> session(std::size_t slot) {
    const space::Space& space = ctx.problem.param_space;
    const Task& target = kTargetTasks[slot];
    const space::Config task = task_config(target);
    const rng::Rng rng = rng::Rng(ctx.seed).split("session").split(slot);
    core::TaskHistory history(task);

    rng::Rng pilot = rng.split("pilot");
    while (!history.best_output()) {
      const space::Config params = space.sample(pilot);
      const double y = ctx.problem.objective(task, params);
      history.add(params, y);
      upload(target, params, y);
    }

    const std::size_t target_index = kSourceTasks.size();
    auto model = std::make_shared<gp::LcmModel>(space.dim(),
                                                target_index + 1, ctx.lcm);
    std::vector<double> best_so_far;
    for (int i = 0; i < kBudget; ++i, ++op) {
      ++phase.attempted;
      const Clock::time_point t0 = Clock::now();
      const rng::Rng iter = rng.split("iteration").split(static_cast<std::uint64_t>(i));
      std::optional<Scope> it(std::in_place, trace, "session.iteration", Trace::kNoParent, op);

      std::vector<gp::TaskData> data;
      {
        Scope s(trace, "net.pull", it->id(), op);
        std::size_t pulled = 0;
        for (const Task& src : kSourceTasks) {
          const Clock::time_point r0 = Clock::now();
          ++phase.wire_requests;
          const auto records = client.query(fixture.key, kProblem, source_where(src));
          phase.read_ms.push_back(ms_between(r0, Clock::now()));
          if (records.size() != kSourceSamples)
            fail(phase.failures, "pull returned " + std::to_string(records.size()) +
                               " records, seeded " + std::to_string(kSourceSamples));
          pulled += records.size();
          data.push_back(to_task_data(records, space));
        }
        const core::TrainingData own = history.valid_data(space);
        data.push_back(gp::TaskData{own.x, own.y});
        s.set_value(static_cast<double>(pulled));
      }
      {
        Scope s(trace, "gp.lcm_fit", it->id(), op);
        std::size_t rows = 0;
        for (const gp::TaskData& d : data)
          rows += std::min(d.y.size(), ctx.lcm.max_samples_per_task);
        rng::Rng fit_rng = iter.split("fit");
        model->fit(std::move(data), fit_rng);
        s.set_value(static_cast<double>(rows));
      }
      la::Vector x;
      {
        Scope s(trace, "core.maximize_ei", it->id(), op);
        const auto view = gp::LcmModel::task_view(model, target_index);
        const std::vector<la::Vector> seeds = {space.encode(*history.best_config())};
        rng::Rng ei_rng = iter.split("ei");
        x = core::maximize_ei(*view, *history.best_output(), ei_rng, seeds, ctx.acq);
      }
      space::Config params = space.decode(x);
      rng::Rng dedup = iter.split("dedup");
      for (int r = 0; r < 8 && history.contains(params); ++r)
        params = space.sample(dedup);
      double y = 0.0;
      {
        Scope s(trace, "apps.objective", it->id(), op);
        y = ctx.problem.objective(task, params);
      }
      history.add(params, y);
      {
        Scope s(trace, "net.upload", it->id(), op);
        upload(target, params, y);
      }
      phase.op_ms.push_back(ms_between(t0, Clock::now()));
      it.reset();
      best_so_far.push_back(*history.best_output());
      if (trace.enabled()) replay_upload(ctx.eval(target, params, y));
    }
    return best_so_far;
  }
};

/// Runs whole passes over the target tasks until `min_passes` have run and
/// `seconds` have passed. Returns the first pass's best-so-far traces, one
/// per slot; a later pass over a slot must reproduce its trace exactly.
/// Each session is one slice of the phase, so a host stall that covers a
/// minority of the sessions does not move the reported medians.
/// `sessions` counts the sessions run.
std::vector<std::vector<double>> run_phase(Context& ctx, Fixture& f,
                                           double seconds, int min_passes,
                                           Trace& trace, Phase& phase,
                                           std::size_t& sessions) {
  Tuner tuner{ctx, net::CrowdClient("127.0.0.1", f.port()), f,
              *f.repo->authenticate_user(f.key), trace, phase};
  const net::ServerStats before = f.server->stats();
  const std::uint64_t hashes0 = crowd::SharedRepo::auth_hash_invocations();
  const std::uint64_t flushes0 = flush_calls();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<double>> first_pass;
  sessions = 0;
  try {
    for (int pass = 1;; ++pass) {
      for (std::size_t slot = 0; slot < kTargetTasks.size(); ++slot) {
        const std::size_t ops0 = phase.op_ms.size(), reads0 = phase.read_ms.size();
        const double slice_cpu0 = process_cpu_s();
        const Clock::time_point slice_t0 = Clock::now();
        std::vector<double> best = tuner.session(slot);
        phase.slices.push_back(
            Slice{{phase.op_ms.begin() + static_cast<std::ptrdiff_t>(ops0), phase.op_ms.end()},
                  {phase.read_ms.begin() + static_cast<std::ptrdiff_t>(reads0), phase.read_ms.end()},
                  ms_between(slice_t0, Clock::now()) / 1e3,
                  process_cpu_s() - slice_cpu0});
        ++sessions;
        if (pass == 1) {
          first_pass.push_back(std::move(best));
        } else if (best != first_pass[slot]) {
          fail(phase.failures, "session " + std::to_string(slot) +
                             " diverged from its first pass");
        }
      }
      if (pass >= min_passes && ms_between(t0, Clock::now()) >= seconds * 1e3) break;
    }
  } catch (const std::exception& e) {
    ++phase.failed;
    fail(phase.failures, std::string("tuning session aborted: ") + e.what());
  }
  phase.wall_s = ms_between(t0, Clock::now()) / 1e3;
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.peak_rss_mb = peak_rss_mb();
  phase.auth_hashes = crowd::SharedRepo::auth_hash_invocations() - hashes0;
  phase.flushes = flush_calls() - flushes0;
  check_server_counters(before, f.server->stats(), phase);
  return first_pass;
}

/// Warm-up: one pull per source over the wire and one LCM fit on them,
/// so the timed phase starts with the server's pages and the caches warm.
void warm_up(const Context& ctx, Fixture& f) {
  net::CrowdClient client("127.0.0.1", f.port());
  std::vector<gp::TaskData> data;
  for (const Task& src : kSourceTasks)
    data.push_back(to_task_data(client.query(f.key, kProblem, source_where(src)),
                                ctx.problem.param_space));
  gp::LcmModel model(ctx.problem.param_space.dim(), data.size(), ctx.lcm);
  rng::Rng rng = rng::Rng(ctx.seed).split("warm-up");
  model.fit(std::move(data), rng);
}

double mean_best(const std::vector<std::vector<double>>& traces) {
  double sum = 0.0;
  for (const auto& t : traces) sum += t.back();
  return traces.empty() ? 0.0 : sum / static_cast<double>(traces.size());
}

}  // namespace

Report run_tuning_session(const Options& opt) {
  Context ctx = make_context(opt.seed);
  double setup_s = 0.0;
  auto fixture = timed_setup(opt, kSetupRepeats, [&](const std::filesystem::path& dir) {
    auto f = open_fixture(dir);
    seed_sources(ctx, *f);
    start_server(*f, kServerWorkers);
    warm_up(ctx, *f);
    return f;
  }, setup_s);

  Report r;
  Trace untraced(false);
  Phase timed;
  std::size_t sessions = 0;
  // Two passes at least, so every run repeats every session.
  const auto reference =
      run_phase(ctx, *fixture, opt.seconds, 2, untraced, timed, sessions);
  r.failures = timed.failures;
  r.attempted = timed.attempted;
  r.failed = timed.failed;
  r.metrics = end_to_end_metrics(timed, setup_s);
  r.notes = phase_notes(timed);
  r.notes.push_back({"best_output_s", mean_best(reference), "s"});
  r.notes.push_back({"sessions", static_cast<double>(sessions), "count"});
  r.notes.push_back({"repeated_sessions",
                     static_cast<double>(sessions - kTargetTasks.size()), "count"});

  if (!opt.trace) return r;

  Trace trace(true);
  Phase traced;
  // One pass: the spans need no more, and it is compared with the first.
  const auto replay = run_phase(ctx, *fixture, 0.0, 1, trace, traced, sessions);
  if (replay != reference) fail(r.failures, "traced sessions diverged from the untraced run");
  add_traced_phase(r, timed, traced);
  write_trace(opt.trace_out, {&trace});

  const Layers layers = derive_layers({&trace});
  // Shares are of the iterations' time: the session's stages plus what none
  // of them covers (the iteration span's self time).
  double total = 0.0;
  for (const char* stage : {"session.iteration", "net.pull", "gp.lcm_fit",
                            "core.maximize_ei", "apps.objective", "net.upload"})
    total += layer(layers, stage).total_ms;
  const auto share = [&](const char* name) { return layer(layers, name).total_ms / total; };
  const auto p50_ms = [&](const char* name) { return layer(layers, name).p50_ms(); };
  r.layers["gp.lcm_fit.p50_ms"] = p50_ms("gp.lcm_fit");
  r.layers["gp.lcm_fit.share"] = share("gp.lcm_fit");
  r.layers["gp.lcm_fit.rows_p50"] = layer(layers, "gp.lcm_fit").value_p50();
  r.layers["core.maximize_ei.p50_ms"] = p50_ms("core.maximize_ei");
  r.layers["core.maximize_ei.share"] = share("core.maximize_ei");
  r.layers["apps.objective.share"] = share("apps.objective");
  r.layers["net.pull.p50_ms"] = p50_ms("net.pull");
  r.layers["net.pull.share"] = share("net.pull");
  r.layers["net.upload.p50_ms"] = p50_ms("net.upload");
  r.layers["net.upload.share"] = share("net.upload");
  r.layers["session.unaccounted_share"] = share("session.iteration");
  r.layers["session.best_output_s"] = mean_best(replay);
  r.layers["crowd.upload_batch.p50_us"] = p50_ms("crowd.upload_batch") * 1e3;
  r.layers["db.wait_durable.p50_us"] = p50_ms("db.wait_durable") * 1e3;
  r.layers["db.store_bytes_per_record"] =
      static_cast<double>(dir_bytes(fixture->dir)) /
      static_cast<double>(fixture->repo->num_records(kProblem) +
                          fixture->repo->num_records(kReplayProblem));
  r.layers["db.flushes_per_upload"] =
      static_cast<double>(timed.flushes) / static_cast<double>(timed.wire_records);
  return r;
}

}  // namespace crowdbench
