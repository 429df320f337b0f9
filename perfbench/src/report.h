// Metric catalogs and the result line.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by each untraced run.
const std::vector<MetricSpec>& end_to_end_catalog();
/// Every per-layer metric, reported by each traced run.
const std::vector<MetricSpec>& per_layer_catalog();

/// Adds the per-layer metrics that do not apply to a workload, as zeros, so
/// every traced run reports the same metric set.
void add_missing_layer_metrics(RunResult& r);

/// Checks `r` reports exactly `catalog` (names and units, any order).
/// Returns an empty string when it does, else what is wrong.
std::string check_against(const RunResult& r,
                          const std::vector<MetricSpec>& catalog);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const RunResult& r);

/// `value / base`, or 0 when the base is 0 (a layer the workload bypasses).
inline double ratio(double value, double base) {
  return base == 0 ? 0 : value / base;
}

}  // namespace perfbench
