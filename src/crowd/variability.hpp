// Performance-variability detection for crowd samples.
//
// The paper's conclusion names this as future work: "Detecting/diagnosing
// performance variability of performance samples (caused by system noise)".
// Crowd databases accumulate repeated measurements of the same
// configuration (same problem, task, tuning parameters and environment)
// from different runs and users; system noise makes those repeats
// disagree, and a single noisy outlier can mislead every TLA algorithm
// that trusts the data.
//
// This module groups records by configuration, computes robust dispersion
// statistics per group (median, median absolute deviation, coefficient of
// variation) and flags
//   * outlier records (modified z-score |0.6745 (x - median) / MAD| above
//     3.5 — the standard Iglewicz–Hoaglin rule), and
//   * noisy configurations (relative dispersion above a threshold),
// so tuners can drop or down-weight suspect samples before model fitting.
#pragma once

#include <string>
#include <vector>

#include "json/json.hpp"

namespace gptc::crowd {

struct VariabilityOptions {
  /// Groups with MAD/median above this are "noisy configurations".
  double noisy_relative_mad = 0.05;
  /// Ignore groups with fewer repeated measurements than this.
  std::size_t min_repeats = 2;
};

struct RepeatedGroup {
  /// Canonical JSON of the grouping key (task + tuning parameters +
  /// machine/software configuration).
  std::string key;
  std::vector<std::int64_t> record_ids;
  std::vector<double> outputs;
  double median = 0.0;
  /// Median absolute deviation (unscaled).
  double mad = 0.0;
  /// Robust relative dispersion: MAD / |median|.
  double relative_mad = 0.0;
  /// Indices into outputs/record_ids of flagged outliers.
  std::vector<std::size_t> outliers;

  bool noisy(double threshold) const { return relative_mad > threshold; }
};

struct VariabilityReport {
  std::vector<RepeatedGroup> groups;  // every group with >= min_repeats
  VariabilityOptions options;

  /// Groups whose dispersion exceeds options.noisy_relative_mad.
  std::vector<const RepeatedGroup*> noisy_groups() const;

  /// Record ids of every flagged outlier across all groups.
  std::vector<std::int64_t> outlier_record_ids() const;

  std::size_t total_outliers() const;

  /// Human-readable summary.
  std::string summary() const;
};

/// Robust statistics helpers (exposed for tests).
double median_of(std::vector<double> values);
double mad_of(const std::vector<double>& values, double median);

/// Analyzes function-evaluation records (the schema SharedRepo stores):
/// groups by (task_parameters, tuning_parameters, machine_configuration,
/// software_configuration), skipping failed (null-output) records. Each
/// record's value is its stored_output(); the records should share one
/// objective, as those of a query_function_evaluations call do (crowdctl's
/// variability command splits a problem's records by objective first).
VariabilityReport detect_variability(const std::vector<json::Json>& records,
                                     const VariabilityOptions& options = {});

}  // namespace gptc::crowd
