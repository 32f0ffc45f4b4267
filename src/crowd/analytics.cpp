#include "crowd/analytics.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "crowd/repo.hpp"

namespace gptc::crowd {

using json::Json;

namespace {

/// A record as the analytics read it: its task and tuning configurations
/// over the meta's spaces and its objective (NaN for a failed run).
struct DecodedRecord {
  const Json* task;  // the record's task_parameters, the grouping key
  space::Config task_config, tuning_config;
  double y;
};

/// nullopt when the record's output does not hold meta.output_name or the
/// record lacks a task/tuning parameter the meta declares.
std::optional<DecodedRecord> decode_record(const Json& record,
                                           const MetaDescription& meta) {
  const Json* output = db::lookup_path(record, "output");
  const Json* task = db::lookup_path(record, "task_parameters");
  const Json* tuning = db::lookup_path(record, "tuning_parameters");
  if (!output || !output->contains(meta.output_name) || !task || !tuning)
    return std::nullopt;
  try {
    return DecodedRecord{task, meta.input_space.config_from_json(*task),
                         meta.parameter_space.config_from_json(*tuning),
                         stored_output(record)};
  } catch (const json::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace

std::vector<core::TaskHistory> source_histories(
    const std::vector<Json>& records, const MetaDescription& meta) {
  // Group records by their task-parameter JSON (canonical dump).
  std::vector<std::pair<std::string, core::TaskHistory>> groups;
  for (const auto& r : records) {
    auto d = decode_record(r, meta);
    if (!d) continue;
    const std::string key = d->task->dump();
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.emplace_back(key, core::TaskHistory(std::move(d->task_config)));
      it = std::prev(groups.end());
    }
    it->second.add(std::move(d->tuning_config), d->y);
  }
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.second.num_valid() > b.second.num_valid();
  });
  std::vector<core::TaskHistory> out;
  out.reserve(groups.size());
  for (auto& group : groups) out.push_back(std::move(group.second));
  return out;
}

gp::SurrogatePtr fit_surrogate(const std::vector<Json>& records,
                               const MetaDescription& meta,
                               std::uint64_t seed,
                               const gp::LcmOptions& options) {
  // One ungrouped history in input order: valid_data keeps the finite
  // outputs and encodes their configurations.
  core::TaskHistory all;
  for (const auto& r : records)
    if (auto d = decode_record(r, meta))
      all.add(std::move(d->tuning_config), d->y);
  const core::TrainingData data = all.valid_data(meta.parameter_space);
  if (data.size() < 2)
    throw std::runtime_error("fit_surrogate: fewer than 2 usable records");
  rng::Rng rng(rng::splitmix64(seed + 0x9e3779b9ULL));
  return gp::fit_single_task(meta.parameter_space.dim(), {data.x, data.y},
                             options, rng);
}

}  // namespace gptc::crowd
