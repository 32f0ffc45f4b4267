#include "crowd/variability.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "crowd/repo.hpp"

namespace gptc::crowd {

namespace {

/// Modified z-score above which a record is an outlier (the textbook
/// Iglewicz–Hoaglin threshold).
constexpr double kOutlierZ = 3.5;

}  // namespace

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double m = values[mid];
  if (values.size() % 2 == 0) {
    const double lower =
        *std::max_element(values.begin(),
                          values.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + lower);
  }
  return m;
}

double mad_of(const std::vector<double>& values, double median) {
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::abs(v - median));
  return median_of(std::move(deviations));
}

std::vector<const RepeatedGroup*> VariabilityReport::noisy_groups() const {
  std::vector<const RepeatedGroup*> out;
  for (const auto& g : groups)
    if (g.noisy(options.noisy_relative_mad)) out.push_back(&g);
  return out;
}

std::vector<std::int64_t> VariabilityReport::outlier_record_ids() const {
  std::vector<std::int64_t> ids;
  for (const auto& g : groups)
    for (std::size_t i : g.outliers) ids.push_back(g.record_ids[i]);
  return ids;
}

std::size_t VariabilityReport::total_outliers() const {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.outliers.size();
  return n;
}

std::string VariabilityReport::summary() const {
  std::ostringstream os;
  os << groups.size() << " repeated-measurement group(s), "
     << noisy_groups().size() << " noisy (relative MAD > "
     << options.noisy_relative_mad << "), " << total_outliers()
     << " outlier record(s) (|z| > " << kOutlierZ << ")";
  return os.str();
}

VariabilityReport detect_variability(const std::vector<json::Json>& records,
                                     const VariabilityOptions& options) {
  // Group by the full configuration: same task, same tuning parameters,
  // same recorded environment.
  struct Entry {
    std::int64_t id;
    double output;
  };
  std::map<std::string, std::vector<Entry>> by_key;
  for (const auto& r : records) {
    const double y = stored_output(r);
    if (!std::isfinite(y)) continue;  // failures are not variability

    json::Json key = json::Json::object();
    key["task"] = r.get_or("task_parameters", json::Json::object());
    key["tuning"] = r.get_or("tuning_parameters", json::Json::object());
    key["machine"] = r.get_or("machine_configuration", json::Json::object());
    key["software"] = r.get_or("software_configuration", json::Json::object());
    by_key[key.dump()].push_back(
        Entry{r.get_or("_id", json::Json(std::int64_t{-1})).as_int(), y});
  }

  VariabilityReport report;
  report.options = options;
  for (auto& [key, entries] : by_key) {
    if (entries.size() < std::max<std::size_t>(options.min_repeats, 2))
      continue;
    RepeatedGroup g;
    g.key = key;
    for (const auto& e : entries) {
      g.record_ids.push_back(e.id);
      g.outputs.push_back(e.output);
    }
    g.median = median_of(g.outputs);
    g.mad = mad_of(g.outputs, g.median);
    g.relative_mad =
        std::abs(g.median) > 1e-300 ? g.mad / std::abs(g.median) : 0.0;
    if (g.mad > 1e-300) {
      for (std::size_t i = 0; i < g.outputs.size(); ++i) {
        // Iglewicz–Hoaglin modified z-score.
        const double z = 0.6745 * (g.outputs[i] - g.median) / g.mad;
        if (std::abs(z) > kOutlierZ) g.outliers.push_back(i);
      }
    }
    report.groups.push_back(std::move(g));
  }
  return report;
}

}  // namespace gptc::crowd
