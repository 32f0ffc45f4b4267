// google-benchmark microbenchmarks of the library substrates: dense
// kernels, single-task GP (one-task LCM) fit/predict scaling, LCM fit, one
// LCM likelihood evaluation and one warm LCM refit, acquisition search, Sobol
// estimators, JSON parsing and encoding (synthetic and on the crowd_pull
// response shape) and document-store queries.
//
//   $ ./bench_micro_substrates [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "db/document_store.hpp"
#include "gp/lcm.hpp"
#include "json/json.hpp"
#include "la/matrix.hpp"
#include "opt/optimize.hpp"
#include "sa/sobol.hpp"

using namespace gptc;

namespace {

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  rng::Rng rng(seed);
  la::Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.normal();
  return m;
}

void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix a = random_matrix(n, n, 1);
  la::Matrix spd = la::matmul(a, a.transposed());
  spd.add_diagonal(static_cast<double>(n));
  for (auto _ : state) {
    la::Cholesky chol(spd);
    benchmark::DoNotOptimize(chol.log_det());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Cholesky)
    ->Arg(32)->Arg(64)->Arg(90)->Arg(128)->Arg(256)
    ->Complexity();

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_matrix(n, n, 2);
  const la::Matrix b = random_matrix(n, n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::matmul(a, b));
  }
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(4);
  const auto pts = opt::latin_hypercube(n, 4, rng);
  la::Vector y;
  for (const auto& p : pts) y.push_back(std::sin(5.0 * p[0]) + p[1]);
  const la::Matrix x = la::Matrix::from_rows(
      std::vector<la::Vector>(pts.begin(), pts.end()));
  for (auto _ : state) {
    rng::Rng fit_rng(5);
    const gp::SurrogatePtr model = gp::fit_single_task(4, {x, y}, {}, fit_rng);
    benchmark::DoNotOptimize(model->predict({0.3, 0.4, 0.5, 0.6}));
  }
}
BENCHMARK(BM_GpFit)->Arg(25)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_GpPredict(benchmark::State& state) {
  rng::Rng rng(6);
  const auto pts = opt::latin_hypercube(100, 4, rng);
  la::Vector y;
  for (const auto& p : pts) y.push_back(std::sin(5.0 * p[0]) + p[1]);
  rng::Rng fit_rng(7);
  const gp::SurrogatePtr model = gp::fit_single_task(
      4, {la::Matrix::from_rows({pts.begin(), pts.end()}), y}, {}, fit_rng);
  la::Vector q = {0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict(q));
  }
}
BENCHMARK(BM_GpPredict);

void BM_LcmFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(8);
  std::vector<gp::TaskData> tasks(2);
  for (int t = 0; t < 2; ++t) {
    const auto pts = opt::latin_hypercube(n, 2, rng);
    la::Vector y;
    for (const auto& p : pts)
      y.push_back((t + 1.0) * std::sin(4.0 * p[0]) + p[1]);
    tasks[static_cast<std::size_t>(t)] =
        gp::TaskData{la::Matrix::from_rows({pts.begin(), pts.end()}), y};
  }
  for (auto _ : state) {
    gp::LcmModel model(2, 2);
    rng::Rng fit_rng(9);
    model.fit(tasks, fit_rng);
    benchmark::DoNotOptimize(model.predict(1, {0.5, 0.5}));
  }
}
BENCHMARK(BM_LcmFit)->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

/// The tuning_session's stacked shape: d = 4, T = 3 tasks holding n rows
/// (n - n/3 - n/5, n/3, n/5).
std::vector<gp::TaskData> session_tasks(std::size_t n) {
  const std::size_t counts[3] = {n - n / 3 - n / 5, n / 3, n / 5};
  rng::Rng rng(15);
  std::vector<gp::TaskData> tasks;
  for (std::size_t t = 0; t < 3; ++t) {
    const auto pts = opt::latin_hypercube(counts[t], 4, rng);
    la::Vector y;
    for (const auto& p : pts)
      y.push_back(std::sin(4.0 * p[0] + 0.3 * static_cast<double>(t)) + p[1]);
    tasks.push_back({la::Matrix::from_rows({pts.begin(), pts.end()}), y});
  }
  return tasks;
}

// One LCM likelihood evaluation with its analytic gradient, the unit of
// every L-BFGS step, on session_tasks(n) with Q latents.
void BM_LcmNll(benchmark::State& state) {
  gp::LcmOptions opt;
  opt.num_latent = static_cast<std::size_t>(state.range(1));
  opt.fit_restarts = 0;
  opt.fit_evaluations = 1;  // the fit only loads the data
  gp::LcmModel model(4, 3, opt);
  rng::Rng fit_rng(16);
  model.fit(session_tasks(static_cast<std::size_t>(state.range(0))), fit_rng);
  la::Vector theta = model.hyperparameters(), grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.neg_log_likelihood(theta, grad));
  }
}
BENCHMARK(BM_LcmNll)
    ->Args({40, 1})->Args({90, 1})->Args({130, 1})->Args({90, 2})
    ->Unit(benchmark::kMicrosecond);

// One warm refit, the surrogate work a tuning_session iteration pays: a
// model fitted on session_tasks(n) with default options (Q latents) fits
// again after the first task gains one row. Each iteration refits a copy
// of the same fitted model; the copy is not timed.
void BM_LcmRefit(benchmark::State& state) {
  gp::LcmOptions opt;
  opt.num_latent = static_cast<std::size_t>(state.range(1));
  std::vector<gp::TaskData> tasks =
      session_tasks(static_cast<std::size_t>(state.range(0)));
  gp::LcmModel fitted(4, 3, opt);
  rng::Rng fit_rng(16);
  fitted.fit(tasks, fit_rng);
  rng::Rng row_rng(17);
  const la::Vector x = opt::latin_hypercube(1, 4, row_rng)[0];
  std::vector<la::Vector> rows;
  for (std::size_t i = 0; i < tasks[0].x.rows(); ++i)
    rows.emplace_back(tasks[0].x.row(i).begin(), tasks[0].x.row(i).end());
  rows.push_back(x);
  tasks[0].x = la::Matrix::from_rows(rows);
  tasks[0].y.push_back(std::sin(4.0 * x[0]) + x[1]);
  for (auto _ : state) {
    state.PauseTiming();
    gp::LcmModel model = fitted;
    rng::Rng refit_rng(18);
    state.ResumeTiming();
    model.fit(tasks, refit_rng);
    benchmark::DoNotOptimize(model.hyperparameters().data());
  }
}
BENCHMARK(BM_LcmRefit)->Args({90, 1})->Unit(benchmark::kMillisecond);

// Threads-vs-speedup: single-task GP fit with several starts, at 0 (serial
// path),
// 1, 2, 4 and 8 pool workers. Results are bitwise identical across the
// sweep (see tests/test_determinism.cpp); only wall time should change.
void BM_GpFitThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(4);
  const auto pts = opt::latin_hypercube(80, 4, rng);
  la::Vector y;
  for (const auto& p : pts) y.push_back(std::sin(5.0 * p[0]) + p[1]);
  const la::Matrix x = la::Matrix::from_rows({pts.begin(), pts.end()});
  gp::LcmOptions opt;
  opt.fit_restarts = 8;
  if (threads > 0) opt.pool = std::make_shared<parallel::ThreadPool>(threads);
  for (auto _ : state) {
    rng::Rng fit_rng(5);
    const gp::SurrogatePtr model = gp::fit_single_task(4, {x, y}, opt, fit_rng);
    benchmark::DoNotOptimize(model->predict({0.3, 0.4, 0.5, 0.6}));
  }
}
BENCHMARK(BM_GpFitThreads)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AcquisitionSearch(benchmark::State& state) {
  rng::Rng rng(10);
  const auto pts = opt::latin_hypercube(60, 4, rng);
  la::Vector y;
  for (const auto& p : pts) y.push_back(std::cos(4.0 * p[0]) + p[2]);
  rng::Rng fit_rng(11);
  const gp::SurrogatePtr model = gp::fit_single_task(
      4, {la::Matrix::from_rows({pts.begin(), pts.end()}), y}, {}, fit_rng);
  for (auto _ : state) {
    rng::Rng search_rng(12);
    benchmark::DoNotOptimize(
        core::maximize_ei(*model, 0.0, search_rng));
  }
}
BENCHMARK(BM_AcquisitionSearch)->Unit(benchmark::kMillisecond);

// Threads-vs-speedup for the acquisition DE search: the population
// evaluations (GP predictions) batch across the pool.
void BM_DeSearchThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(10);
  const auto pts = opt::latin_hypercube(60, 4, rng);
  la::Vector y;
  for (const auto& p : pts) y.push_back(std::cos(4.0 * p[0]) + p[2]);
  rng::Rng fit_rng(11);
  const gp::SurrogatePtr model = gp::fit_single_task(
      4, {la::Matrix::from_rows({pts.begin(), pts.end()}), y}, {}, fit_rng);
  core::AcquisitionOptions opt;
  if (threads > 0) opt.pool = std::make_shared<parallel::ThreadPool>(threads);
  for (auto _ : state) {
    rng::Rng search_rng(12);
    benchmark::DoNotOptimize(
        core::maximize_ei(*model, 0.0, search_rng, {}, opt));
  }
}
BENCHMARK(BM_DeSearchThreads)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SobolAnalysis(benchmark::State& state) {
  const sa::CubeFn f = [](const la::Vector& u) {
    return std::sin(6.0 * u[0]) + 0.5 * u[1] * u[2];
  };
  sa::SobolOptions opt;
  opt.base_samples = static_cast<std::size_t>(state.range(0));
  opt.bootstrap = 50;
  for (auto _ : state) {
    rng::Rng rng(13);
    benchmark::DoNotOptimize(
        sa::analyze_function(f, 3, {"a", "b", "c"}, rng, opt));
  }
}
BENCHMARK(BM_SobolAnalysis)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_JsonParse(benchmark::State& state) {
  json::Json doc = json::Json::object();
  for (int i = 0; i < 64; ++i) {
    json::Json rec = json::Json::object();
    rec["task"] = i;
    rec["runtime"] = 0.5 * i;
    rec["params"] = json::Json::parse(R"({"mb":4,"nb":8,"p":16})");
    doc["r" + std::to_string(i)] = std::move(rec);
  }
  const std::string text = doc.dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::Json::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParse);

/// The records of one crowd_pull query response: 190 func_eval records
/// shaped as SharedRepo stores them (~62 KB of compact JSON), parsed from
/// their text so each object is exact-size, as in the store.
std::vector<json::Json> pull_records() {
  rng::Rng rng(21);
  std::vector<json::Json> records;
  for (std::int64_t i = 0; i < 190; ++i) {
    json::Json tuning = json::Json::object();
    tuning["mb"] = rng.uniform_int(1, 15);
    tuning["nb"] = rng.uniform_int(1, 15);
    tuning["lg2npernode"] = rng.uniform_int(0, 4);
    tuning["p"] = rng.uniform_int(1, 255);
    json::Json r = json::Json::object();
    r["_id"] = 10000 + 7 * i;
    r["accessibility"] = "public";
    r["machine_configuration"] = json::Json::object(
        {{"cores", 32}, {"machine_name", "Cori"}, {"nodes", 8},
         {"partition", "haswell"}});
    r["output"] = json::Json::object({{"runtime", rng.uniform(0.5, 50.0)}});
    r["problem"] = "app3";
    r["software_configuration"] = json::Json::object();
    r["task_parameters"] = json::Json::object({{"m", 5000}, {"n", 1750}});
    r["tuning_parameters"] = std::move(tuning);
    r["user"] = "tuner";
    records.push_back(json::Json::parse(r.dump()));
  }
  return records;
}

/// The query response payload the client parses:
/// {"ok":true,"result":{"count":190,"records":[...]}}.
void BM_JsonParseRecords(benchmark::State& state) {
  const std::vector<json::Json> records = pull_records();
  json::Json payload = json::Json::object();
  payload["ok"] = true;
  payload["result"]["count"] = records.size();
  payload["result"]["records"] = json::Json(records);
  const std::string text = payload.dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::Json::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParseRecords);

/// The server's serialization of the same response's records: each stored
/// record's compact bytes appended to one comma-separated buffer.
void BM_JsonEncodeRecords(benchmark::State& state) {
  const std::vector<json::Json> records = pull_records();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    for (const json::Json& r : records) {
      if (!out.empty()) out += ',';
      r.dump_to(out);
    }
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonEncodeRecords);

void BM_DbQuery(benchmark::State& state) {
  db::Collection coll("func_eval");
  rng::Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    json::Json rec = json::Json::object();
    rec["problem"] = (i % 3 == 0) ? "pdgeqrf" : "hypre";
    json::Json task = json::Json::object();
    task["m"] = rng.uniform_int(1000, 20000);
    rec["task_parameters"] = std::move(task);
    coll.insert(std::move(rec));
  }
  const json::Json query = json::Json::parse(
      R"({"problem":"pdgeqrf","task_parameters.m":{"$gte":5000,"$lt":15000}})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(coll.find(query));
  }
}
BENCHMARK(BM_DbQuery)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
