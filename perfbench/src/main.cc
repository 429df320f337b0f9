// rrmp_perfbench: end-to-end + per-layer benchmark of RRMP.
//
//   rrmp_perfbench --workload <udp_saturate|udp_lossy_open|sim_regions>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//
// Prints notes to stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exit status: 0 when every
// delivery passed the oracle, 1 on an oracle violation (the JSON still
// prints, with "correct": false), 2 when the run could not be made at all.
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {

RunResult run_workload(const Options& opts) {
  if (opts.workload == "sim_regions") return run_sim_workload(opts);
  if (opts.workload == "udp_saturate" || opts.workload == "udp_lossy_open") {
    return run_udp_workload(opts);
  }
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
      if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrmp_perfbench: %s\n", e.what());
    return 2;
  }
  RunResult r;
  try {
    r = run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrmp_perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 2;
  }
  if (opts.trace) add_missing_layer_metrics(r);
  std::string bad = check_against(r, opts.trace ? per_layer_catalog()
                                                : end_to_end_catalog());
  if (!bad.empty()) {
    std::fprintf(stderr, "rrmp_perfbench: internal error: %s\n", bad.c_str());
    return 2;
  }
  for (const std::string& line : r.notes) {
    std::fprintf(stderr, "[%s] %s\n", opts.workload.c_str(), line.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "[%s] %-32s %16.6f %s\n", opts.workload.c_str(),
                 m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
