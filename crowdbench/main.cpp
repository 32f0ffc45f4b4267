// crowd_bench — the crowd-tuning benchmark program (see README.md).
//
//   crowd_bench --workload tuning_session|crowd_pull --seed N --seconds S
//               --trace 0|1 --dir PATH --spec BENCHMARK.json
//               [--trace-out FILE]
//
// Prints a human-readable table, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Metric
// names, order and units come from the spec (BENCHMARK.json) alone; a
// metric the workload computes that the spec does not list, or an
// end-to-end metric the spec lists that the workload does not compute,
// fails the run's output check.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "json/json.hpp"

using namespace crowdbench;
using gptc::json::Json;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "crowd_bench: %s\nusage: crowd_bench --workload "
               "tuning_session|crowd_pull --seed N --seconds S --trace 0|1 "
               "--dir PATH --spec BENCHMARK.json [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--dir") o.dir = v;
    else if (arg == "--spec") o.spec = v;
    else if (arg == "--trace-out") o.trace_out = v;
    else usage("unknown argument " + arg);
  }
  if (o.workload.empty() || o.dir.empty() || o.spec.empty())
    usage("--workload, --dir and --spec are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

Json read_spec(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// The metrics the spec lists under `key`, in its order and with its
/// units, holding the values the workload computed. A listed metric the
/// workload does not compute reads 0 when `missing_is_zero` (a layer the
/// workload never calls) and fails otherwise; a computed metric the spec
/// does not list fails.
std::vector<Metric> as_listed(const Json& spec, const std::string& key,
                              const std::map<std::string, double>& computed,
                              bool missing_is_zero,
                              std::vector<std::string>& failures) {
  std::vector<Metric> out;
  std::set<std::string> listed;
  for (const Json& m : spec.at(key).as_array()) {
    const std::string& name = m.at("name").as_string();
    listed.insert(name);
    const auto it = computed.find(name);
    if (it == computed.end() && !missing_is_zero) fail(failures, name + " is not computed");
    out.push_back({name, it == computed.end() ? 0.0 : it->second, m.at("unit").as_string()});
  }
  for (const auto& [name, value] : computed)
    if (!listed.contains(name)) fail(failures, name + " is not listed under " + key);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Json spec;
  Report r;
  try {
    spec = read_spec(opt.spec);
    if (opt.workload == "tuning_session") r = run_tuning_session(opt);
    else if (opt.workload == "crowd_pull") r = run_crowd_pull(opt);
    else usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowd_bench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  const std::vector<Metric> reported =
      opt.trace ? as_listed(spec, "per_layer", r.layers, true, r.failures)
                : as_listed(spec, "end_to_end", r.metrics, false, r.failures);
  print_table(opt.trace ? "per-layer (traced phase)" : "end-to-end", reported);
  print_table("notes", r.notes);
  for (const std::string& f : r.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  Json metrics = Json::object();
  for (const Metric& m : reported) {
    Json value = Json::object();
    value["value"] = m.value;
    value["unit"] = m.unit;
    metrics[m.name] = std::move(value);
  }
  Json out = Json::object();
  out["correct"] = r.failures.empty() && r.failed == 0;
  out["attempted"] = static_cast<std::int64_t>(r.attempted);
  out["failed"] = static_cast<std::int64_t>(r.failed);
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
