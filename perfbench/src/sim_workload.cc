// The simulator workload, sim_regions: a Cluster of 4 regions x 100 members
// (shards = 1). One sender per region multicasts 256 B every 5 ms of
// simulated time for 400 rounds, with a 5% scheduled drop of the initial
// dissemination, followed by a 1 s drain.
//
// Latencies and buffer occupancy are in simulated time (deterministic for a
// seed); goodput, CPU and memory are wall-clock and process figures. The
// Cluster builds its hosts, policies and sinks internally, so the per-layer
// split of this workload is counts plus sim.ns_per_event; span-timed layer
// metrics read 0 here.
#include <algorithm>
#include <stdexcept>

#include "harness/cluster.h"
#include "oracle.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rrmp::Duration;
using rrmp::MemberId;
using rrmp::MessageId;
using rrmp::TimePoint;

constexpr std::size_t kRegions = 4;
constexpr std::size_t kRegionSize = 100;
constexpr std::uint64_t kRounds = 400;
constexpr Duration kSendInterval = Duration::millis(5);
constexpr std::size_t kPayloadBytes = 256;
constexpr double kDropRate = 0.05;
constexpr Duration kDrain = Duration::seconds(1);
constexpr Duration kSampleInterval = Duration::millis(10);
/// Latency jitter (latency *= U(1, 1 + jitter)): a real network's delays
/// vary, and without it every seed would read the same median latency.
/// Small enough that one sender's messages never reorder (2.5 ms < 5 ms).
constexpr double kJitter = 0.05;
/// Set-up samples taken before each repetition, so the median spans the run.
constexpr std::size_t kSetupsPerRep = 10;

rrmp::harness::ClusterConfig cluster_config(std::uint64_t seed) {
  rrmp::harness::ClusterConfig cc;
  cc.region_sizes.assign(kRegions, kRegionSize);
  cc.seed = seed;
  cc.shards = 1;
  cc.jitter = kJitter;
  return cc;
}

struct Rep {
  double wall_s = 0;
  ProcSample proc;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  Histogram latencies;  // simulated time
  double buffer_mean = 0;
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
  std::uint64_t violations = 0;
  std::string violation_summary;
  std::uint64_t events = 0;
  rrmp::net::TrafficStats traffic;
  // Layer counts (traced runs only: they need the merged metrics).
  rrmp::RecordingSink::Counters counters;
  std::vector<double> recovery_us;
  std::uint64_t stored = 0, promoted = 0, departures = 0;
  double residency_us = 0;
  std::size_t peak_count = 0;
  std::uint64_t open_recoveries = 0;
};

Rep run_rep(std::uint64_t seed, std::uint64_t round, bool layer_counts) {
  Rep out;
  rrmp::harness::Cluster cluster(
      cluster_config(derive_seed(seed, kSeedGroup, round)));

  const std::size_t n = cluster.size();
  std::vector<MemberId> senders;
  for (rrmp::RegionId r = 0; r < kRegions; ++r) {
    senders.push_back(cluster.region_members(r).front());
  }
  DropSchedule drops(derive_seed(seed, kSeedDrops, round), kDropRate);
  cluster.network().set_data_drop_fn(
      [drops](const rrmp::proto::Message& msg, MemberId to) {
        const auto* d = std::get_if<rrmp::proto::Data>(&msg);
        return d != nullptr && drops.drops(d->id.source, d->id.seq, to);
      });
  DeliveryOracle oracle(derive_seed(seed, kSeedPayload, round), n, senders,
                        kPayloadBytes);
  for (MemberId m = 0; m < n; ++m) {
    rrmp::harness::SimHost* host = &cluster.host(m);
    cluster.endpoint(m).set_delivery_handler(
        [&oracle, host, m](const rrmp::proto::Data& d) {
          oracle.on_delivered(m, d, host->now().us() * 1000);
        });
  }

  const TimePoint start = cluster.now();
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    cluster.schedule_script(
        start + kSendInterval * static_cast<std::int64_t>(i), [&] {
          for (MemberId s : senders) {
            std::vector<std::uint8_t> payload = oracle.next_payload(s);
            MessageId expect{s, cluster.endpoint(s).highest_sent() + 1};
            oracle.on_sent(expect, cluster.now().us() * 1000);
            if (cluster.endpoint(s).multicast(std::move(payload)) != expect) {
              throw std::logic_error("multicast assigned an unexpected id");
            }
          }
        });
  }
  const Duration span = kSendInterval * static_cast<std::int64_t>(kRounds) + kDrain;
  double weighted = 0;  // buffered messages x simulated us
  for (Duration t = kSampleInterval; t <= span; t += kSampleInterval) {
    cluster.schedule_script(start + t, [&] {
      std::size_t count = 0;
      for (MemberId m = 0; m < n; ++m) count += cluster.endpoint(m).buffer().count();
      weighted += static_cast<double>(count) *
                  static_cast<double>(kSampleInterval.us());
    });
  }

  ProcSample p0 = ProcSample::now();
  std::uint64_t e0 = cluster.events_fired();
  cluster.run_for(span);
  out.proc = ProcSample::now() - p0;
  out.events = cluster.events_fired() - e0;
  out.wall_s = static_cast<double>(out.proc.wall) / 1e9;
  out.traffic = cluster.network().stats();

  oracle.add_missing_latencies(cluster.now().us() * 1000);
  out.sent = oracle.sent();
  out.attempted = oracle.pairs_attempted();
  out.missing = oracle.pairs_missing();
  out.violations = oracle.violations();
  out.violation_summary = oracle.violation_summary();
  out.completed = oracle.completed();
  out.latencies = oracle.latencies();
  out.buffer_mean = weighted / static_cast<double>(span.us()) /
                    static_cast<double>(n);

  if (layer_counts) {
    const rrmp::RecordingSink& sink = cluster.metrics();
    out.counters = sink.counters();
    for (Duration d : sink.recovery_latencies()) {
      out.recovery_us.push_back(static_cast<double>(d.us()));
    }
    for (MemberId m = 0; m < n; ++m) {
      const rrmp::buffer::BufferStats& st = cluster.endpoint(m).buffer().stats();
      out.stored += st.stored;
      out.promoted += st.promoted_long_term;
      out.departures += st.discarded + st.handed_off + st.evicted + st.shed;
      out.residency_us += static_cast<double>(st.total_buffer_time.us());
      out.peak_count = std::max(out.peak_count, st.peak_count);
      out.open_recoveries += cluster.endpoint(m).active_recoveries();
    }
  }
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

}  // namespace

RunResult run_sim_workload(const Options& opts) {
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(opts.seconds * 1e9);
  const std::uint64_t min_reps = opts.trace ? 1 : 3;

  std::vector<double> setups;
  std::vector<Rep> reps;
  std::int64_t longest = 0;
  for (std::uint64_t round = 0;; ++round) {
    std::int64_t elapsed = wall_ns() - start;
    if (round >= min_reps && elapsed + longest > budget) break;
    std::int64_t r0 = wall_ns();
    for (std::size_t i = 0; !opts.trace && i < kSetupsPerRep; ++i) {
      std::int64_t s0 = wall_ns();
      rrmp::harness::Cluster cluster(
          cluster_config(derive_seed(opts.seed, kSeedGroup, round)));
      setups.push_back(static_cast<double>(wall_ns() - s0) / 1e9);
    }
    reps.push_back(run_rep(opts.seed, round, opts.trace));
    longest = std::max(longest, wall_ns() - r0);
  }

  RunResult r;
  std::uint64_t missing = 0;
  for (const Rep& x : reps) {
    r.attempted += x.attempted;
    missing += x.missing;
    if (x.violations != 0) {
      r.correct = false;
      r.note("ORACLE VIOLATION: " + x.violation_summary);
    }
  }
  r.failed = missing;
  auto d = [](auto v) { return static_cast<double>(v); };

  if (!opts.trace) {
    // Pooled over repetitions: sums of work over sums of time, percentiles
    // over every delivery.
    double completed = 0, wall_s = 0, cpu_s = 0, sent = 0, sends = 0, pairs = 0,
           buffer = 0;
    Histogram lat;
    for (const Rep& x : reps) {
      completed += d(x.completed);
      wall_s += x.wall_s;
      cpu_s += x.proc.cpu_s();
      sent += d(x.sent);
      sends += d(x.traffic.sends);
      pairs += d(x.attempted);
      buffer += x.buffer_mean / d(reps.size());
      lat.merge(x.latencies);
    }
    r.add("setup_s", median(setups), "s");
    r.add("goodput_msgs_per_s", ratio(completed, wall_s), "1/s");
    r.add("delivery_us_p50", lat.percentile_us(0.50), "us");
    r.add("delivery_us_p99", lat.percentile_us(0.99), "us");
    r.add("delivered_frac", 1.0 - ratio(d(missing), d(r.attempted)), "ratio");
    r.add("buffer_msgs_mean", buffer, "msgs");
    r.add("wire_datagrams_per_delivery", ratio(sends, pairs), "ratio");
    r.add("cpu_us_per_msg", ratio(cpu_s * 1e6, sent), "us");
    r.add("peak_rss_mb", d(ProcSample::now().max_rss_kb) / 1024.0, "MB");
    r.note(std::to_string(reps.size()) + " repetitions (pooled); " +
           std::to_string(setups.size()) + " set-ups; " +
           std::to_string(r.attempted) + " delivery pairs; undelivered_frac " +
           std::to_string(ratio(d(missing), d(r.attempted))));
    return r;
  }

  double msgs = 0, events = 0, wall_ns_total = 0, sends = 0, dropped = 0;
  double stored = 0, promoted = 0, departures = 0, residency_us = 0, open = 0;
  double cpu = 0, allocs = 0, vcsw = 0;
  std::size_t peak = 0;
  rrmp::RecordingSink::Counters c;
  std::vector<double> recovery;
  for (const Rep& x : reps) {
    msgs += d(x.sent);
    events += d(x.events);
    wall_ns_total += d(x.proc.wall);
    sends += d(x.traffic.sends);
    dropped += d(x.traffic.dropped);
    stored += d(x.stored);
    promoted += d(x.promoted);
    departures += d(x.departures);
    residency_us += x.residency_us;
    open += d(x.open_recoveries);
    peak = std::max(peak, x.peak_count);
    cpu += x.proc.cpu_s();
    allocs += d(x.proc.allocs);
    vcsw += d(x.proc.vol_ctx_switches);
    c += x.counters;
    recovery.insert(recovery.end(), x.recovery_us.begin(), x.recovery_us.end());
  }
  double losses = d(c.losses_detected);
  // Every RecordingSink callback bumps exactly one counter, except a remote
  // repair, which bumps repairs_sent and remote_repairs_sent.
  double sink_calls = d(c.delivered + c.losses_detected + c.recoveries + c.stores +
                        c.discards + c.long_term_promotions + c.local_requests_sent +
                        c.remote_requests_sent + c.requests_received + c.repairs_sent +
                        c.searches_started + c.search_hops + c.searches_completed +
                        c.regional_multicasts + c.relays_suppressed + c.handoffs +
                        c.sends_deferred + c.credit_acks_sent +
                        c.credit_acks_suppressed + c.flow_stall_remcasts +
                        c.flow_stall_releases);
  r.add("rrmp.losses_per_msg", ratio(losses, msgs), "count");
  r.add("rrmp.requests_per_loss",
        ratio(d(c.local_requests_sent + c.remote_requests_sent), losses), "count");
  r.add("rrmp.repairs_per_recovery", ratio(d(c.repairs_sent), d(c.recoveries)), "count");
  r.add("rrmp.open_recoveries_end", ratio(open, d(reps.size())), "count");
  r.add("rrmp.recovery_us_p50", percentile(recovery, 0.50), "us");
  r.add("rrmp.recovery_us_p99", percentile(recovery, 0.99), "us");
  r.add("buffer.stores_per_msg", ratio(stored, msgs), "count");
  r.add("buffer.long_term_frac", ratio(promoted, stored), "ratio");
  r.add("buffer.residency_ms_mean", ratio(residency_us / 1e3, departures), "ms");
  r.add("buffer.peak_count", d(peak), "count");
  r.add("buffer.searches_per_loss", ratio(d(c.searches_started), losses), "count");
  r.add("buffer.search_hops_per_search",
        ratio(d(c.search_hops), d(c.searches_started)), "count");
  r.add("metrics.sink_calls_per_msg", ratio(sink_calls, msgs), "count");
  r.add("sim.events_per_msg", ratio(events, msgs), "count");
  r.add("sim.ns_per_event", ratio(wall_ns_total, events), "ns");
  r.add("sim.packets_per_msg", ratio(sends, msgs), "count");
  r.add("sim.dropped_frac", ratio(dropped, sends), "ratio");
  r.add("proc.cpu_user_s", median(collect(reps, [](const Rep& x) { return x.proc.user_s; })), "s");
  r.add("proc.cpu_sys_s", median(collect(reps, [](const Rep& x) { return x.proc.sys_s; })), "s");
  r.add("proc.idle_frac", 1.0 - ratio(cpu, wall_ns_total / 1e9), "ratio");
  r.add("proc.allocs_per_msg", ratio(allocs, msgs), "count");
  r.add("proc.vol_ctx_switches_per_msg", ratio(vcsw, msgs), "count");
  r.note(std::to_string(reps.size()) + " repetitions; per-layer figures pooled over them");
  return r;
}

}  // namespace perfbench
