// Workload entry points. Each runs repetitions until the run's time is
// spent, checks every delivery with the oracle, and reports the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "common.h"

namespace perfbench {

/// Runs `opts.workload`. Throws std::invalid_argument for an unknown name
/// and std::runtime_error when the workload cannot run at all (e.g. no UDP
/// sockets).
RunResult run_workload(const Options& opts);

RunResult run_udp_workload(const Options& opts);
RunResult run_sim_workload(const Options& opts);

}  // namespace perfbench
