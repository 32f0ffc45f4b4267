// Shared pieces of the crowd-tuning benchmark: options, timing helpers,
// the in-memory span recorder, the durable-repo + in-process server
// fixture, and the end-to-end metric set every workload reports.
//
// Everything here drives the library through its public headers; no
// library code is instrumented. Spans wrap the benchmark's own calls into
// each module (derive_layers gives self time per layer).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crowd/repo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace crowdbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path dir;        // scratch directory for the stores
  std::filesystem::path spec;       // BENCHMARK.json: metric names and units
  std::filesystem::path trace_out;  // span dump of the traced phase
};

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// High-water resident set size of the process, in MiB.
double peak_rss_mb();

/// fsync plus fdatasync calls made by this process so far
/// (device_sync.cpp: the binary's own versions, which return without
/// waiting for the disk).
std::uint64_t flush_calls();

/// Sum of the sizes of the regular files under `dir`.
std::uint64_t dir_bytes(const std::filesystem::path& dir);

// --- Tracing ----------------------------------------------------------------

/// One span: a timed call at a layer boundary. `parent` indexes the same
/// Trace's span vector (kNoParent for a root); spans of one primary
/// operation share `op`. `value` carries a count measured at the boundary
/// (stacked rows, records returned, bytes encoded, ...).
struct Span {
  const char* name = "";
  std::size_t parent = 0;
  std::uint64_t op = 0;
  Clock::time_point start, end;
  double value = 0.0;
};

/// Per-thread, append-only span recorder. Disabled traces record nothing,
/// so the untraced phases pay one branch per span.
class Trace {
 public:
  static constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::size_t open(const char* name, std::size_t parent, std::uint64_t op);
  void close(std::size_t span, double value = 0.0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Trace& trace, const char* name, std::size_t parent, std::uint64_t op)
      : trace_(trace), id_(trace.open(name, parent, op)) {}
  ~Scope() { trace_.close(id_, value_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::size_t id() const { return id_; }
  void set_value(double v) { value_ = v; }

 private:
  Trace& trace_;
  std::size_t id_;
  double value_ = 0.0;
};

/// Per span name, over every thread's trace: self times (duration minus
/// the time covered by child spans), total self time, and boundary values.
struct LayerStats {
  std::vector<double> self_ms;
  std::vector<double> values;
  double total_ms = 0.0;

  double p50_ms() const { return percentile(self_ms, 0.5); }
  double value_p50() const { return percentile(values, 0.5); }
  double value_sum() const;
};

using Layers = std::map<std::string, LayerStats>;

Layers derive_layers(const std::vector<const Trace*>& traces);

/// The named layer, or an empty one when no span had that name.
const LayerStats& layer(const Layers& layers, const std::string& name);

/// Writes every span as one JSON line (thread, id, parent, op, name,
/// start/end in microseconds from the earliest span, self time, value).
void write_trace(const std::filesystem::path& file,
                 const std::vector<const Trace*>& traces);

// --- Fixture ---------------------------------------------------------------

/// A durable crowd repository with async group commit plus an in-process
/// CrowdServer on an ephemeral port. The first registered user ("tuner")
/// owns the API key every client uses, so each authentication hashes once.
struct Fixture {
  std::filesystem::path dir;
  std::unique_ptr<gptc::crowd::SharedRepo> repo;
  std::unique_ptr<gptc::net::CrowdServer> server;
  std::string key;

  Fixture() = default;
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::uint16_t port() const { return server->port(); }
};

/// Engine settings of every benchmark store: async group commit (the
/// server's mode, fdatasync per commit batch), one shard, one recovery
/// thread, and a checkpoint threshold no run reaches, so a run's cost does
/// not depend on when a snapshot happens to fall.
gptc::db::engine::EngineOptions engine_options();

/// Opens a fresh durable repo in `dir` and registers the "tuner" user.
std::unique_ptr<Fixture> open_fixture(const std::filesystem::path& dir);

/// Starts the server over the fixture's repo with a fixed number of
/// connection workers (never derived from the host).
void start_server(Fixture& f, std::size_t workers);

/// Runs `setup` `repeats` times in fresh directories, tearing down all but
/// the last fixture; returns the last fixture and the median setup time.
std::unique_ptr<Fixture> timed_setup(
    const Options& opt, int repeats,
    const std::function<std::unique_ptr<Fixture>(const std::filesystem::path&)>& setup,
    double& setup_s);

// --- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A stretch of a phase's measured time. End-to-end metrics are computed
/// per slice and the median over slices is reported, so a host stall that
/// covers a minority of the slices does not move them.
struct Slice {
  std::vector<double> op_ms;
  std::vector<double> read_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One timed phase of a workload.
struct Phase {
  std::vector<double> op_ms;    // primary operations
  std::vector<double> read_ms;  // crowd reads issued inside the workload
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;         // process high-water RSS at phase end
  std::uint64_t auth_hashes = 0;    // SharedRepo::auth_hash_invocations delta
  std::uint64_t wire_requests = 0;  // authenticated requests sent
  std::uint64_t wire_records = 0;   // records acked by wire uploads
  std::uint64_t flushes = 0;        // flush_calls delta
  std::vector<std::string> failures;  // failed output checks
  std::vector<Slice> slices;          // the measured time, in order

  /// Appends another thread's part of the same phase (samples and counts).
  void merge(const Phase& part);
};

/// Closed loop over `connections` client connections, one thread each:
/// thread t calls step(t, client, i, part) for i = 0, 1, ... and sends its
/// next request only after the previous reply, until `seconds` have
/// passed. A step throwing RpcError counts one failed operation and the
/// loop goes on; any other exception also stops that thread. Wall time,
/// process CPU time, key hashes, flushes and the server's counters are
/// taken around the whole phase (see check_server_counters). The phase is
/// cut into `slices` equal stretches of time; an operation belongs to the
/// slice it started in.
using Step = std::function<void(std::size_t thread, gptc::net::CrowdClient& client,
                                std::uint64_t i, Phase& part)>;
Phase closed_loop(Fixture& f, std::size_t connections, double seconds,
                  const Step& step, std::size_t slices);

/// Cross-checks a phase against the server's own `stats` counters: every
/// request the phase sent was answered ok, the server sent exactly as many
/// error responses as the phase counted failures, and it acked exactly the
/// records the phase saw acked.
void check_server_counters(const gptc::net::ServerStats& before,
                           const gptc::net::ServerStats& after, Phase& p);

/// What a workload hands back to main: the result line's fields plus the
/// human-readable extras printed above it.
struct Report {
  std::vector<std::string> failures;  // failed output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Values by metric name; BENCHMARK.json gives the order and units.
  std::map<std::string, double> metrics;  // end-to-end (untraced runs)
  std::map<std::string, double> layers;   // per-layer (traced runs)
  std::vector<Metric> notes;    // printed only
};

/// Folds the traced phase into the report (its failures and counts) and
/// sets the per-layer metrics every workload derives alike:
/// parallel.cpu_utilization and crowd.auth_hashes_per_op from the untraced
/// phase, trace.overhead_ratio from both.
void add_traced_phase(Report& r, const Phase& timed, const Phase& traced);

/// The end-to-end metrics every workload reports: each but setup_s and
/// peak_rss_mb is the median over the phase's slices.
std::map<std::string, double> end_to_end_metrics(const Phase& p, double setup_s);

/// Extras every workload prints next to the end-to-end metrics.
std::vector<Metric> phase_notes(const Phase& p);

/// Records a failed check; `failures` stays small even if a check fires
/// on every operation.
void fail(std::vector<std::string>& failures, const std::string& what);

Report run_tuning_session(const Options& opt);
Report run_crowd_pull(const Options& opt);

}  // namespace crowdbench
