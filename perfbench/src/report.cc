#include "report.h"

#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> k = {
      {"setup_s", "s"},
      {"goodput_msgs_per_s", "1/s"},
      {"delivery_us_p50", "us"},
      {"delivery_us_p99", "us"},
      {"delivered_frac", "ratio"},
      {"buffer_msgs_mean", "msgs"},
      {"wire_datagrams_per_delivery", "ratio"},
      {"cpu_us_per_msg", "us"},
      {"peak_rss_mb", "MB"},
  };
  return k;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> k = {
      {"net.datagrams_per_msg", "count"},
      {"net.send_syscalls_per_msg", "count"},
      {"net.recv_syscalls_per_msg", "count"},
      {"net.poll_syscalls_per_msg", "count"},
      {"net.dropped_datagrams", "count"},
      {"net.send_ns_per_call", "ns"},
      {"net.loop_self_ns_per_msg", "ns"},
      {"proto.encode_ns_per_call", "ns"},
      {"proto.decode_ns_per_call", "ns"},
      {"proto.encodes_per_msg", "count"},
      {"proto.decodes_per_msg", "count"},
      {"proto.wire_bytes_per_msg", "B"},
      {"rrmp.handle_self_ns_per_call", "ns"},
      {"rrmp.handles_per_msg", "count"},
      {"rrmp.multicast_ns_per_call", "ns"},
      {"rrmp.timer_self_ns_per_fire", "ns"},
      {"rrmp.timer_fires_per_msg", "count"},
      {"rrmp.timers_scheduled_per_msg", "count"},
      {"rrmp.timers_cancelled_per_msg", "count"},
      {"rrmp.losses_per_msg", "count"},
      {"rrmp.requests_per_loss", "count"},
      {"rrmp.repairs_per_recovery", "count"},
      {"rrmp.open_recoveries_end", "count"},
      {"rrmp.recovery_us_p50", "us"},
      {"rrmp.recovery_us_p99", "us"},
      {"buffer.policy_ns_per_call", "ns"},
      {"buffer.policy_calls_per_msg", "count"},
      {"buffer.stores_per_msg", "count"},
      {"buffer.long_term_frac", "ratio"},
      {"buffer.residency_ms_mean", "ms"},
      {"buffer.peak_count", "count"},
      {"buffer.searches_per_loss", "count"},
      {"buffer.search_hops_per_search", "count"},
      {"metrics.sink_calls_per_msg", "count"},
      {"metrics.sink_ns_per_call", "ns"},
      {"sim.events_per_msg", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.packets_per_msg", "count"},
      {"sim.dropped_frac", "ratio"},
      {"harness.generator_lag_us_p99", "us"},
      {"harness.app_self_ns_per_msg", "ns"},
      {"harness.host_fidelity_ratio", "ratio"},
      {"harness.trace_goodput_ratio", "ratio"},
      {"harness.trace_cpu_ratio", "ratio"},
      {"proc.cpu_user_s", "s"},
      {"proc.cpu_sys_s", "s"},
      {"proc.idle_frac", "ratio"},
      {"proc.allocs_per_msg", "count"},
      {"proc.vol_ctx_switches_per_msg", "count"},
  };
  return k;
}

void add_missing_layer_metrics(RunResult& r) {
  std::set<std::string> have;
  for (const Metric& m : r.metrics) have.insert(m.name);
  for (const MetricSpec& s : per_layer_catalog()) {
    if (!have.count(s.name)) r.add(s.name, 0, s.unit);
  }
}

std::string check_against(const RunResult& r,
                          const std::vector<MetricSpec>& catalog) {
  std::set<std::string> seen;
  for (const Metric& m : r.metrics) {
    if (!seen.insert(m.name).second) return "metric reported twice: " + m.name;
    bool known = false;
    for (const MetricSpec& s : catalog) {
      if (m.name == s.name) {
        if (m.unit != s.unit) return "wrong unit for " + m.name;
        known = true;
      }
    }
    if (!known) return "metric not in the catalog: " + m.name;
    if (!std::isfinite(m.value)) return "non-finite value for " + m.name;
  }
  for (const MetricSpec& s : catalog) {
    if (!seen.count(s.name)) return std::string("metric missing: ") + s.name;
  }
  return {};
}

std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
