#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"

namespace crowdbench {

using gptc::crowd::SharedRepo;
using gptc::net::CrowdServer;
using gptc::net::ServerOptions;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

// --- Tracing ----------------------------------------------------------------

std::size_t Trace::open(const char* name, std::size_t parent,
                        std::uint64_t op) {
  if (!enabled_) return kNoParent;
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start = Clock::now();
  spans_.push_back(s);
  return spans_.size() - 1;
}

void Trace::close(std::size_t span, double value) {
  if (!enabled_) return;
  spans_[span].end = Clock::now();
  spans_[span].value = value;
}

double LayerStats::value_sum() const {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

namespace {

/// Self time of each span of one trace: its duration minus its children's.
std::vector<double> self_times(const Trace& t) {
  const auto& spans = t.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = ms_between(spans[i].start, spans[i].end);
  for (const Span& s : spans)
    if (s.parent != Trace::kNoParent)
      self[s.parent] -= ms_between(s.start, s.end);
  return self;
}

}  // namespace

Layers derive_layers(const std::vector<const Trace*>& traces) {
  Layers out;
  for (const Trace* t : traces) {
    const std::vector<double> self = self_times(*t);
    for (std::size_t i = 0; i < self.size(); ++i) {
      LayerStats& l = out[t->spans()[i].name];
      l.self_ms.push_back(self[i]);
      l.values.push_back(t->spans()[i].value);
      l.total_ms += self[i];
    }
  }
  return out;
}

const LayerStats& layer(const Layers& layers, const std::string& name) {
  static const LayerStats empty;
  const auto it = layers.find(name);
  return it == layers.end() ? empty : it->second;
}

void write_trace(const std::filesystem::path& file,
                 const std::vector<const Trace*>& traces) {
  if (file.empty()) return;
  Clock::time_point origin = Clock::time_point::max();
  for (const Trace* t : traces)
    for (const Span& s : t->spans()) origin = std::min(origin, s.start);
  std::filesystem::create_directories(file.parent_path());
  std::ofstream out(file);
  for (std::size_t th = 0; th < traces.size(); ++th) {
    const auto& spans = traces[th]->spans();
    const std::vector<double> self = self_times(*traces[th]);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char line[512];
      std::snprintf(
          line, sizeof line,
          "{\"thread\":%zu,\"id\":%zu,\"parent\":%lld,\"op\":%llu,"
          "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
          "\"self_us\":%.3f,\"value\":%.17g}\n",
          th, i,
          s.parent == Trace::kNoParent ? -1LL : static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.op), s.name,
          ms_between(origin, s.start) * 1e3, ms_between(origin, s.end) * 1e3,
          self[i] * 1e3, s.value);
      out << line;
    }
  }
  if (!out) throw std::runtime_error("cannot write trace " + file.string());
}

// --- Fixture ---------------------------------------------------------------

Fixture::~Fixture() {
  if (server) server->stop();
  server.reset();
  repo.reset();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
}

gptc::db::engine::EngineOptions engine_options() {
  gptc::db::engine::EngineOptions eo;
  eo.async_commit = true;
  eo.checkpoint_wal_bytes = 1ULL << 30;
  eo.shards = 1;
  eo.recovery_threads = 1;
  return eo;
}

std::unique_ptr<Fixture> open_fixture(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto f = std::make_unique<Fixture>();
  f->dir = dir;
  f->repo = std::make_unique<SharedRepo>(
      SharedRepo::open_durable(dir, 0x5eed, engine_options()));
  f->key = f->repo->register_user("tuner", "tuner@bench");
  return f;
}

void start_server(Fixture& f, std::size_t workers) {
  ServerOptions so;
  so.port = 0;
  so.workers = workers;
  // Headroom above the workers: a closed connection frees its worker
  // asynchronously, and the next phase must not be refused meanwhile.
  so.max_connections = workers + 8;
  f.server = std::make_unique<CrowdServer>(*f.repo, so);
  f.server->start();
}

std::unique_ptr<Fixture> timed_setup(
    const Options& opt, int repeats,
    const std::function<std::unique_ptr<Fixture>(const std::filesystem::path&)>& setup,
    double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Fixture> f;
  for (int r = 0; r < repeats; ++r) {
    f.reset();  // tear down the previous set-up first: one store at a time
    const Clock::time_point t0 = Clock::now();
    f = setup(opt.dir / ("setup" + std::to_string(r)));
    times.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  setup_s = percentile(times, 0.5);
  return f;
}

// --- Phases -----------------------------------------------------------------

void Phase::merge(const Phase& part) {
  op_ms.insert(op_ms.end(), part.op_ms.begin(), part.op_ms.end());
  read_ms.insert(read_ms.end(), part.read_ms.begin(), part.read_ms.end());
  attempted += part.attempted;
  failed += part.failed;
  for (const std::string& f : part.failures) fail(failures, f);
  wire_requests += part.wire_requests;
  wire_records += part.wire_records;
}

Phase closed_loop(Fixture& f, std::size_t connections, double seconds,
                  const Step& step, std::size_t slices) {
  std::vector<std::unique_ptr<gptc::net::CrowdClient>> clients;
  for (std::size_t t = 0; t < connections; ++t)
    clients.push_back(std::make_unique<gptc::net::CrowdClient>("127.0.0.1", f.port()));
  std::vector<Phase> parts(connections);
  std::vector<std::vector<Slice>> part_slices(connections, std::vector<Slice>(slices));

  Phase phase;
  const gptc::net::ServerStats before = f.server->stats();
  const std::uint64_t hashes0 = SharedRepo::auth_hash_invocations();
  const std::uint64_t flushes0 = flush_calls();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const auto slice_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(slices)));
  const Clock::time_point deadline = t0 + slice_len * static_cast<long>(slices);
  const auto slice_of = [&](Clock::time_point at) {
    return std::min(slices - 1, static_cast<std::size_t>((at - t0) / slice_len));
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      Phase& part = parts[t];
      bool more = true;
      for (std::uint64_t i = 0; more; ++i) {
        const Clock::time_point start = Clock::now();
        if (start >= deadline) break;
        const std::size_t ops = part.op_ms.size(), reads = part.read_ms.size();
        try {
          step(t, *clients[t], i, part);
        } catch (const gptc::net::RpcError& e) {
          ++part.failed;
          fail(part.failures, e.what());
        } catch (const std::exception& e) {
          ++part.failed;
          fail(part.failures, e.what());
          more = false;
        }
        Slice& slice = part_slices[t][slice_of(start)];
        slice.op_ms.insert(slice.op_ms.end(), part.op_ms.begin() + static_cast<std::ptrdiff_t>(ops),
                           part.op_ms.end());
        slice.read_ms.insert(slice.read_ms.end(),
                             part.read_ms.begin() + static_cast<std::ptrdiff_t>(reads),
                             part.read_ms.end());
      }
    });
  }
  // Clock and CPU time at each slice boundary, as read when the sampler
  // wakes there; the phase's end closes the last slice.
  std::vector<Clock::time_point> at = {t0};
  std::vector<double> cpu_at = {cpu0};
  for (std::size_t k = 1; k < slices; ++k) {
    std::this_thread::sleep_until(t0 + slice_len * static_cast<long>(k));
    at.push_back(Clock::now());
    cpu_at.push_back(process_cpu_s());
  }
  for (std::thread& th : threads) th.join();
  const Clock::time_point end = Clock::now();
  phase.wall_s = ms_between(t0, end) / 1e3;
  phase.cpu_s = process_cpu_s() - cpu0;
  at.push_back(end);
  cpu_at.push_back(cpu0 + phase.cpu_s);
  phase.auth_hashes = SharedRepo::auth_hash_invocations() - hashes0;
  phase.flushes = flush_calls() - flushes0;
  phase.peak_rss_mb = peak_rss_mb();
  for (const Phase& part : parts) phase.merge(part);
  phase.slices.resize(slices);
  for (std::size_t k = 0; k < slices; ++k) {
    Slice& slice = phase.slices[k];
    for (const auto& ps : part_slices) {
      slice.op_ms.insert(slice.op_ms.end(), ps[k].op_ms.begin(), ps[k].op_ms.end());
      slice.read_ms.insert(slice.read_ms.end(), ps[k].read_ms.begin(), ps[k].read_ms.end());
    }
    slice.wall_s = ms_between(at[k], at[k + 1]) / 1e3;
    slice.cpu_s = cpu_at[k + 1] - cpu_at[k];
  }
  check_server_counters(before, f.server->stats(), phase);
  return phase;
}

void check_server_counters(const gptc::net::ServerStats& before,
                           const gptc::net::ServerStats& after, Phase& p) {
  const std::uint64_t ok = after.requests_ok - before.requests_ok;
  const std::uint64_t errors = after.requests_error - before.requests_error;
  const std::uint64_t records = after.records_uploaded - before.records_uploaded;
  if (ok + errors != p.wire_requests || errors != p.failed ||
      records != p.wire_records ||
      after.connections_rejected != before.connections_rejected)
    fail(p.failures, "server stats disagree with the client: ok=" +
                       std::to_string(ok) + " errors=" + std::to_string(errors) +
                       " records=" + std::to_string(records) + ", client sent " +
                       std::to_string(p.wire_requests) + " requests, " +
                       std::to_string(p.failed) + " failed, " +
                       std::to_string(p.wire_records) + " records acked");
}

// --- Results ----------------------------------------------------------------

std::map<std::string, double> end_to_end_metrics(const Phase& p, double setup_s) {
  std::vector<double> rate, p50, p90, read_p50, cpu_per_op;
  for (const Slice& s : p.slices) {
    if (s.op_ms.empty()) continue;
    const double ops = static_cast<double>(s.op_ms.size());
    rate.push_back(ops / s.wall_s);
    p50.push_back(percentile(s.op_ms, 0.5));
    p90.push_back(percentile(s.op_ms, 0.9));
    read_p50.push_back(percentile(s.read_ms, 0.5));
    cpu_per_op.push_back(s.cpu_s * 1e3 / ops);
  }
  const auto median = [](const std::vector<double>& v) { return percentile(v, 0.5); };
  return {
      {"setup_s", setup_s},
      {"ops_per_s", median(rate)},
      {"op_p50_ms", median(p50)},
      {"op_p90_ms", median(p90)},
      {"read_p50_ms", median(read_p50)},
      {"cpu_ms_per_op", median(cpu_per_op)},
      {"peak_rss_mb", p.peak_rss_mb},
  };
}

std::vector<Metric> phase_notes(const Phase& p) {
  return {
      {"error_ratio",
       p.attempted ? static_cast<double>(p.failed) / static_cast<double>(p.attempted)
                   : 0.0,
       "ratio"},
      {"op_count", static_cast<double>(p.op_ms.size()), "count"},
      {"read_count", static_cast<double>(p.read_ms.size()), "count"},
      {"phase_s", p.wall_s, "s"},
      {"slices", static_cast<double>(p.slices.size()), "count"},
  };
}

void add_traced_phase(Report& r, const Phase& timed, const Phase& traced) {
  for (const std::string& f : traced.failures) fail(r.failures, f);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  r.layers["parallel.cpu_utilization"] = timed.cpu_s / timed.wall_s;
  r.layers["crowd.auth_hashes_per_op"] =
      static_cast<double>(timed.auth_hashes) / static_cast<double>(timed.wire_requests);
  r.layers["trace.overhead_ratio"] =
      percentile(traced.op_ms, 0.5) / percentile(timed.op_ms, 0.5);
  r.notes.push_back({"traced_op_count", static_cast<double>(traced.op_ms.size()), "count"});
}

void fail(std::vector<std::string>& failures, const std::string& what) {
  if (failures.size() < 20) failures.push_back(what);
}

}  // namespace crowdbench
