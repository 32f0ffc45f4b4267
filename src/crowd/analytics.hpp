// Crowd analytics (paper Sec. IV-B) as functions over a record set: the
// func_eval records SharedRepo::query_function_evaluations returns locally
// or net::CrowdClient::query returns remotely. Query once, fit once, then
// predict (QueryPredictOutput) or sa::analyze_surrogate
// (QuerySensitivityAnalysis) on that model; detect_variability
// (crowd/variability.hpp) reads the same records. A record whose output
// lacks meta.output_name, or that lacks a task/tuning parameter the meta
// declares, is skipped.
#pragma once

#include <cstdint>
#include <vector>

#include "core/history.hpp"
#include "crowd/meta.hpp"
#include "gp/lcm.hpp"

namespace gptc::crowd {

/// One TaskHistory per distinct task-parameter combination (failed runs
/// included, as NaN), records in input order, histories ordered by
/// descending count of successful runs: the Tuner's TLA source input.
std::vector<core::TaskHistory> source_histories(
    const std::vector<json::Json>& records, const MetaDescription& meta);

/// QuerySurrogateModel: a single-task GP (a one-task LCM) fitted to the
/// records' finite outputs over meta.parameter_space, pooled in input
/// order; more than options.max_samples_per_task records are randomly
/// subsampled. Throws std::runtime_error if fewer than 2 records are
/// usable.
gp::SurrogatePtr fit_surrogate(const std::vector<json::Json>& records,
                               const MetaDescription& meta,
                               std::uint64_t seed = 0,
                               const gp::LcmOptions& options = {});

}  // namespace gptc::crowd
