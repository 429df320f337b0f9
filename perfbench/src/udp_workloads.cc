// The two real-UDP workloads: udp_saturate (closed loop, 64 B, no loss) and
// udp_lossy_open (open loop, 1 KiB, 10% scheduled drops).
//
// A run is a sequence of repetitions, each on a freshly built group. The
// untraced run times harness::UdpRuntime only. The traced run interleaves
// three builds on the same inputs — UdpRuntime, the benchmark-local host
// with spans off, and the local host with spans on — so it can report the
// per-layer split together with the host's fidelity and the tracing cost.
#include <algorithm>
#include <functional>
#include <stdexcept>

#include "oracle.h"
#include "report.h"
#include "trace.h"
#include "udp_groups.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rrmp::Duration;
using rrmp::MemberId;
using rrmp::MessageId;

constexpr std::uint16_t kBasePort = 41200;
/// Set-up samples taken before each round, so the median spans the run.
constexpr std::size_t kSetupsPerRound = 5;
/// The traced run fails when the local host's untraced goodput strays from
/// UdpRuntime's by more than this share: the split would then describe a
/// different program.
constexpr double kFidelityBound = 0.25;

struct UdpSpec {
  std::vector<std::size_t> regions;
  std::vector<MemberId> senders;
  std::size_t payload_bytes;
  bool closed_loop;
  std::size_t window = 0;     // closed loop: messages kept outstanding
  std::size_t messages = 0;   // closed loop: messages per repetition
  double rate_per_sender = 0; // open loop: msgs/s per sender
  double send_seconds = 0;    // open loop: length of the send schedule
  double drop_rate = 0;       // scheduled drops of the initial dissemination
  double settle_seconds = 0;  // open loop: window extends past the last send
  double drain_seconds = 1.0; // max wait for stragglers after the window
  double timeout_seconds = 10;
};

UdpSpec spec_for(const std::string& name) {
  UdpSpec s;
  s.regions = {4, 4};
  if (name == "udp_saturate") {
    s.senders = {0};
    s.payload_bytes = 64;
    s.closed_loop = true;
    s.window = 16;
    s.messages = 4000;
    s.drain_seconds = 0.05;
  } else if (name == "udp_lossy_open") {
    s.senders = {0, 4};
    s.payload_bytes = 1024;
    s.closed_loop = false;
    s.rate_per_sender = 1000;
    s.send_seconds = 1.0;
    s.drop_rate = 0.10;
    s.settle_seconds = 0.2;
  } else {
    throw std::invalid_argument("not a UDP workload: " + name);
  }
  return s;
}

struct BufferTotals {
  std::uint64_t stored = 0;
  std::uint64_t promoted = 0;
  std::uint64_t departures = 0;
  double residency_us = 0;
  std::size_t peak_count = 0;
};

/// One repetition on one group build.
struct Rep {
  // End-to-end sums over the measured window (pooled across repetitions).
  std::size_t members = 0;
  std::uint64_t window_sent = 0;
  std::uint64_t window_completed = 0;
  std::uint64_t window_datagrams = 0;  // scheduled drops included
  double buffer_weighted = 0;          // buffered messages x ns
  ProcSample proc;
  // Correctness at the end of the drain.
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
  std::uint64_t violations = 0;
  std::uint64_t drop_misuse = 0;
  std::string violation_summary;
  std::string missing_summary;
  // Layer figures over the whole repetition.
  std::uint64_t sent = 0;
  Histogram latencies;
  std::vector<double> recovery_us;
  std::vector<double> gen_lag_us;
  BusCounters bus;
  HostCounters host;
  rrmp::RecordingSink::Counters counters;
  BufferTotals buffer;
  std::uint64_t open_recoveries = 0;
  Tracer::Totals spans{};
};

Rep run_rep(const UdpSpec& spec, const rrmp::net::Topology& topo,
            GroupKind kind, Tracer* tracer, std::uint64_t seed,
            std::uint64_t round) {
  GroupConfig gc;
  gc.base_port = kBasePort;
  gc.seed = derive_seed(seed, kSeedGroup, round);
  gc.drops = DropSchedule(derive_seed(seed, kSeedDrops, round), spec.drop_rate);

  Rep out;
  std::unique_ptr<UdpGroup> g = make_group(kind, topo, gc, tracer);
  if (tracer) tracer->clear();

  const std::size_t n = g->size();
  const std::uint64_t per_sender =
      spec.closed_loop
          ? 0
          : static_cast<std::uint64_t>(spec.rate_per_sender * spec.send_seconds);
  const std::uint64_t total =
      spec.closed_loop ? spec.messages : per_sender * spec.senders.size();
  DeliveryOracle oracle(derive_seed(seed, kSeedPayload, round), n,
                        spec.senders, spec.payload_bytes);

  // Multicasts the next message of `source`; its latency clock starts at
  // `start_ns` (the due time in the open loop), or now when negative.
  auto send = [&](MemberId source, std::int64_t start_ns) {
    std::vector<std::uint8_t> payload = oracle.next_payload(source);
    MessageId expect{source, g->endpoint(source).highest_sent() + 1};
    oracle.on_sent(expect, start_ns < 0 ? wall_ns() : start_ns);
    if (g->multicast(source, std::move(payload)) != expect) {
      throw std::logic_error("multicast assigned an unexpected id");
    }
  };

  // A completion refills the closed loop's window, and the last one ends it.
  for (MemberId m = 0; m < n; ++m) {
    g->endpoint(m).set_delivery_handler([&, m](const rrmp::proto::Data& d) {
      Scope app(tracer, Layer::kApp);
      if (!oracle.on_delivered(m, d, wall_ns()) || !spec.closed_loop) return;
      if (oracle.sent() < total) {
        send(spec.senders[0], -1);
      } else if (oracle.all_complete()) {
        g->stop();
      }
    });
  }

  // Time-averaged buffer occupancy, sampled every millisecond.
  double weighted = 0;
  std::int64_t last_sample = 0;
  auto sample = [&] {
    std::int64_t now = wall_ns();
    std::size_t count = 0;
    for (MemberId m = 0; m < n; ++m) count += g->endpoint(m).buffer().count();
    weighted += static_cast<double>(count) * static_cast<double>(now - last_sample);
    last_sample = now;
  };
  std::function<void()> tick = [&] {
    {
      Scope app(tracer, Layer::kApp);
      sample();
    }
    g->bus().schedule_after(Duration::millis(1), tick);
  };

  // Open-loop generators: one per sender, offset evenly within the period.
  struct Gen {
    MemberId source;
    std::int64_t first_due;
    std::uint64_t next = 0;
  };
  std::vector<Gen> gens;
  std::vector<std::function<void()>> gen_fns;
  const std::int64_t period_ns =
      spec.closed_loop ? 0
                       : static_cast<std::int64_t>(1e9 / spec.rate_per_sender);

  ProcSample p0 = ProcSample::now();
  const std::int64_t t0 = p0.wall;
  last_sample = t0;
  if (spec.closed_loop) {
    for (std::size_t i = 0; i < spec.window && oracle.sent() < total; ++i) {
      send(spec.senders[0], -1);
    }
  } else {
    for (std::size_t k = 0; k < spec.senders.size(); ++k) {
      gens.push_back(Gen{spec.senders[k],
                         t0 + period_ns * static_cast<std::int64_t>(k) /
                                  static_cast<std::int64_t>(spec.senders.size())});
    }
    gen_fns.resize(gens.size());
    for (std::size_t k = 0; k < gens.size(); ++k) {
      gen_fns[k] = [&, k] {
        Scope app(tracer, Layer::kApp);
        Gen& gen = gens[k];
        std::int64_t now = wall_ns();
        while (gen.next < per_sender) {
          std::int64_t due =
              gen.first_due + static_cast<std::int64_t>(gen.next) * period_ns;
          if (due > now) break;
          out.gen_lag_us.push_back(static_cast<double>(now - due) / 1e3);
          send(gen.source, due);
          ++gen.next;
        }
        if (gen.next < per_sender) {
          std::int64_t due =
              gen.first_due + static_cast<std::int64_t>(gen.next) * period_ns;
          std::int64_t wait_us = std::max<std::int64_t>(
              0, (due - wall_ns() + 999) / 1000);
          g->bus().schedule_after(Duration::micros(wait_us), gen_fns[k]);
        }
      };
      g->bus().schedule_after(
          Duration::micros((gens[k].first_due - wall_ns() + 999) / 1000),
          gen_fns[k]);
    }
  }
  g->bus().schedule_after(Duration::millis(1), tick);

  // Measured window.
  const std::int64_t timeout = t0 + static_cast<std::int64_t>(spec.timeout_seconds * 1e9);
  if (spec.closed_loop) {
    while (!(oracle.sent() == total && oracle.all_complete()) &&
           wall_ns() < timeout) {
      g->run_for(Duration::millis(50));
    }
  } else {
    const std::int64_t window_end =
        t0 + static_cast<std::int64_t>((spec.send_seconds + spec.settle_seconds) * 1e9);
    for (std::int64_t now = wall_ns(); now < window_end; now = wall_ns()) {
      g->run_for(Duration::micros(std::min<std::int64_t>(
          20000, (window_end - now) / 1000 + 1)));
    }
  }
  sample();
  ProcSample p1 = ProcSample::now();
  out.proc = p1 - p0;
  out.members = n;
  out.window_sent = oracle.sent();
  out.window_completed = oracle.completed();
  out.window_datagrams = g->bus_counters().datagrams_sent + g->scheduled_drops();
  out.buffer_weighted = weighted;

  // Drain: stragglers get up to drain_seconds, then a short quiet period
  // exposes late duplicate deliveries.
  const std::int64_t drain_end =
      wall_ns() + static_cast<std::int64_t>(spec.drain_seconds * 1e9);
  while (!(oracle.sent() == total && oracle.all_complete()) &&
         wall_ns() < drain_end) {
    g->run_for(Duration::millis(20));
  }
  g->run_for(Duration::millis(5));

  oracle.add_missing_latencies(wall_ns());
  out.sent = oracle.sent();
  out.attempted = oracle.pairs_attempted();
  out.missing = oracle.pairs_missing();
  out.violations = oracle.violations();
  out.violation_summary = oracle.violation_summary();
  out.missing_summary = oracle.missing_summary();
  out.drop_misuse = g->drop_misuse();
  out.latencies = oracle.latencies();
  const rrmp::RecordingSink& sink = g->sink();
  out.counters = sink.counters();
  for (rrmp::Duration d : sink.recovery_latencies()) {
    out.recovery_us.push_back(static_cast<double>(d.us()));
  }
  for (MemberId m = 0; m < n; ++m) {
    const rrmp::buffer::BufferStats& st = g->endpoint(m).buffer().stats();
    out.buffer.stored += st.stored;
    out.buffer.promoted += st.promoted_long_term;
    out.buffer.departures +=
        st.discarded + st.handed_off + st.evicted + st.shed;
    out.buffer.residency_us += static_cast<double>(st.total_buffer_time.us());
    out.buffer.peak_count = std::max(out.buffer.peak_count, st.peak_count);
    out.open_recoveries += g->endpoint(m).active_recoveries();
  }
  out.bus = g->bus_counters();
  out.host = g->host_counters();
  if (tracer) out.spans = tracer->totals();
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

double goodput(const Rep& x) {
  return ratio(static_cast<double>(x.window_completed),
               static_cast<double>(x.proc.wall) / 1e9);
}

/// End-to-end figures pooled over repetitions: sums of work over sums of
/// time, and percentiles over every delivery. A repetition's own rate and
/// tail swing widely on a busy host; the pooled figure is what a run can
/// hold steady.
struct Pooled {
  double goodput = 0;
  double buffer_mean = 0;
  double datagrams_per_delivery = 0;
  double cpu_us_per_msg = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::size_t latency_samples = 0;
};

Pooled pool(const std::vector<Rep>& reps, const Histogram& lat) {
  double completed = 0, wall_ns = 0, weighted = 0, member_ns = 0,
         datagrams = 0, pairs = 0, cpu_s = 0, sent = 0;
  for (const Rep& x : reps) {
    auto d = [](auto v) { return static_cast<double>(v); };
    completed += d(x.window_completed);
    wall_ns += d(x.proc.wall);
    weighted += x.buffer_weighted;
    member_ns += d(x.proc.wall) * d(x.members);
    datagrams += d(x.window_datagrams);
    pairs += d(x.window_sent) * d(x.members - 1);
    cpu_s += x.proc.cpu_s();
    sent += d(x.window_sent);
  }
  Pooled p;
  p.goodput = ratio(completed, wall_ns / 1e9);
  p.buffer_mean = ratio(weighted, member_ns);
  p.datagrams_per_delivery = ratio(datagrams, pairs);
  p.cpu_us_per_msg = ratio(cpu_s * 1e6, sent);
  p.latency_samples = lat.count();
  p.p50_us = lat.percentile_us(0.50);
  p.p99_us = lat.percentile_us(0.99);
  return p;
}

void account(RunResult& r, const std::vector<Rep>& reps) {
  for (const Rep& x : reps) {
    r.attempted += x.attempted;
    r.failed += x.missing;
    if (x.violations != 0) {
      r.correct = false;
      r.note("ORACLE VIOLATION: " + x.violation_summary);
    }
    if (x.missing != 0) {
      r.note("undelivered (source:seq->receiver): " + x.missing_summary);
    }
    if (x.drop_misuse != 0) {
      r.correct = false;
      r.note("drop schedule consulted outside multicast(): " +
             std::to_string(x.drop_misuse) + " times");
    }
  }
}

/// After account(r, reps).
void add_end_to_end(RunResult& r, const std::vector<Rep>& reps,
                    const Histogram& latencies,
                    const std::vector<double>& setups) {
  const double undelivered = ratio(static_cast<double>(r.failed),
                                   static_cast<double>(r.attempted));
  Pooled p = pool(reps, latencies);
  r.add("setup_s", median(setups), "s");
  r.add("goodput_msgs_per_s", p.goodput, "1/s");
  r.add("delivery_us_p50", p.p50_us, "us");
  r.add("delivery_us_p99", p.p99_us, "us");
  r.add("delivered_frac", 1.0 - undelivered, "ratio");
  r.add("buffer_msgs_mean", p.buffer_mean, "msgs");
  r.add("wire_datagrams_per_delivery", p.datagrams_per_delivery, "ratio");
  r.add("cpu_us_per_msg", p.cpu_us_per_msg, "us");
  r.add("peak_rss_mb", static_cast<double>(ProcSample::now().max_rss_kb) / 1024.0, "MB");

  std::vector<double> g = collect(reps, goodput);
  r.note("goodput per repetition: min " + std::to_string(percentile(g, 0)) +
         ", quartiles " + std::to_string(percentile(g, 0.25)) + " / " +
         std::to_string(percentile(g, 0.5)) + " / " +
         std::to_string(percentile(g, 0.75)) + ", max " +
         std::to_string(percentile(g, 1)));
  r.note(std::to_string(reps.size()) + " repetitions (pooled); " +
         std::to_string(setups.size()) + " set-ups; " +
         std::to_string(p.latency_samples) +
         " delivery latencies; undelivered_frac " +
         std::to_string(undelivered));
}

void add_per_layer(RunResult& r, const std::vector<Rep>& runtime,
                   const std::vector<Rep>& local, const std::vector<Rep>& traced,
                   bool check_fidelity) {
  // Span-derived and counter figures: the traced local-host repetitions.
  double msgs = 0;
  BusCounters bus;
  HostCounters host;
  rrmp::RecordingSink::Counters c;
  BufferTotals buf;
  double open = 0;
  Tracer::Totals t{};
  for (const Rep& x : traced) {
    msgs += static_cast<double>(x.sent);
    bus.datagrams_sent += x.bus.datagrams_sent;
    bus.datagrams_received += x.bus.datagrams_received;
    bus.send_syscalls += x.bus.send_syscalls;
    bus.recv_syscalls += x.bus.recv_syscalls;
    bus.poll_syscalls += x.bus.poll_syscalls;
    host.encodes += x.host.encodes;
    host.decodes += x.host.decodes;
    host.wire_bytes += x.host.wire_bytes;
    host.timers_scheduled += x.host.timers_scheduled;
    host.timers_cancelled += x.host.timers_cancelled;
    c += x.counters;
    buf.stored += x.buffer.stored;
    buf.promoted += x.buffer.promoted;
    buf.departures += x.buffer.departures;
    buf.residency_us += x.buffer.residency_us;
    buf.peak_count = std::max(buf.peak_count, x.buffer.peak_count);
    open += static_cast<double>(x.open_recoveries);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i].calls += x.spans[i].calls;
      t[i].total_ns += x.spans[i].total_ns;
      t[i].self_ns += x.spans[i].self_ns;
    }
  }
  auto L = [&](Layer l) -> const Tracer::LayerTotals& {
    return t[static_cast<std::size_t>(l)];
  };
  auto d = [](auto v) { return static_cast<double>(v); };
  auto per_call = [&](Layer l, bool self) {
    return ratio(d(self ? L(l).self_ns : L(l).total_ns), d(L(l).calls));
  };
  double losses = d(c.losses_detected);

  r.add("net.datagrams_per_msg", ratio(d(bus.datagrams_sent), msgs), "count");
  r.add("net.send_syscalls_per_msg", ratio(d(bus.send_syscalls), msgs), "count");
  r.add("net.recv_syscalls_per_msg", ratio(d(bus.recv_syscalls), msgs), "count");
  r.add("net.poll_syscalls_per_msg", ratio(d(bus.poll_syscalls), msgs), "count");
  // Scheduled drops never reach the bus, so sent - received is what the
  // kernel dropped.
  r.add("net.dropped_datagrams", d(bus.datagrams_sent) - d(bus.datagrams_received), "count");
  r.add("net.send_ns_per_call", per_call(Layer::kNetSend, false), "ns");
  r.add("net.loop_self_ns_per_msg", ratio(d(L(Layer::kNetLoop).self_ns), msgs), "ns");
  r.add("proto.encode_ns_per_call", per_call(Layer::kProtoEncode, false), "ns");
  r.add("proto.decode_ns_per_call", per_call(Layer::kProtoDecode, false), "ns");
  r.add("proto.encodes_per_msg", ratio(d(host.encodes), msgs), "count");
  r.add("proto.decodes_per_msg", ratio(d(host.decodes), msgs), "count");
  r.add("proto.wire_bytes_per_msg", ratio(d(host.wire_bytes), msgs), "B");
  r.add("rrmp.handle_self_ns_per_call", per_call(Layer::kRrmpHandle, true), "ns");
  r.add("rrmp.handles_per_msg", ratio(d(L(Layer::kRrmpHandle).calls), msgs), "count");
  r.add("rrmp.multicast_ns_per_call", per_call(Layer::kRrmpMulticast, false), "ns");
  r.add("rrmp.timer_self_ns_per_fire", per_call(Layer::kRrmpTimer, true), "ns");
  r.add("rrmp.timer_fires_per_msg", ratio(d(L(Layer::kRrmpTimer).calls), msgs), "count");
  r.add("rrmp.timers_scheduled_per_msg", ratio(d(host.timers_scheduled), msgs), "count");
  r.add("rrmp.timers_cancelled_per_msg", ratio(d(host.timers_cancelled), msgs), "count");
  r.add("rrmp.losses_per_msg", ratio(losses, msgs), "count");
  r.add("rrmp.requests_per_loss",
        ratio(d(c.local_requests_sent + c.remote_requests_sent), losses), "count");
  r.add("rrmp.repairs_per_recovery", ratio(d(c.repairs_sent), d(c.recoveries)), "count");
  r.add("rrmp.open_recoveries_end", ratio(open, d(traced.size())), "count");
  r.add("buffer.policy_ns_per_call", per_call(Layer::kBufferPolicy, true), "ns");
  r.add("buffer.policy_calls_per_msg", ratio(d(L(Layer::kBufferPolicy).calls), msgs), "count");
  r.add("buffer.stores_per_msg", ratio(d(buf.stored), msgs), "count");
  r.add("buffer.long_term_frac", ratio(d(buf.promoted), d(buf.stored)), "ratio");
  r.add("buffer.residency_ms_mean", ratio(buf.residency_us / 1e3, d(buf.departures)), "ms");
  r.add("buffer.peak_count", d(buf.peak_count), "count");
  r.add("buffer.searches_per_loss", ratio(d(c.searches_started), losses), "count");
  r.add("buffer.search_hops_per_search", ratio(d(c.search_hops), d(c.searches_started)), "count");
  r.add("metrics.sink_calls_per_msg", ratio(d(L(Layer::kMetricsSink).calls), msgs), "count");
  r.add("metrics.sink_ns_per_call", per_call(Layer::kMetricsSink, false), "ns");
  r.add("harness.app_self_ns_per_msg", ratio(d(L(Layer::kApp).self_ns), msgs), "ns");

  // Wall-clock figures of the untraced UdpRuntime repetitions.
  std::vector<double> recovery, lag;
  double cpu = 0, wall = 0, allocs = 0, vcsw = 0, sent = 0;
  for (const Rep& x : runtime) {
    recovery.insert(recovery.end(), x.recovery_us.begin(), x.recovery_us.end());
    lag.insert(lag.end(), x.gen_lag_us.begin(), x.gen_lag_us.end());
    cpu += x.proc.cpu_s();
    wall += static_cast<double>(x.proc.wall) / 1e9;
    allocs += d(x.proc.allocs);
    vcsw += d(x.proc.vol_ctx_switches);
    sent += d(x.window_sent);
  }
  r.add("rrmp.recovery_us_p50", percentile(recovery, 0.50), "us");
  r.add("rrmp.recovery_us_p99", percentile(recovery, 0.99), "us");
  r.add("harness.generator_lag_us_p99", percentile(lag, 0.99), "us");
  r.add("proc.cpu_user_s", median(collect(runtime, [](const Rep& x) { return x.proc.user_s; })), "s");
  r.add("proc.cpu_sys_s", median(collect(runtime, [](const Rep& x) { return x.proc.sys_s; })), "s");
  r.add("proc.idle_frac", 1.0 - ratio(cpu, wall), "ratio");
  r.add("proc.allocs_per_msg", ratio(allocs, sent), "count");
  r.add("proc.vol_ctx_switches_per_msg", ratio(vcsw, sent), "count");

  // Fidelity of the local host, and what the spans cost.
  Pooled pr = pool(runtime, {}), pl = pool(local, {}), pt = pool(traced, {});
  double fidelity = ratio(pl.goodput, pr.goodput);
  r.add("harness.host_fidelity_ratio", fidelity, "ratio");
  r.add("harness.trace_goodput_ratio", ratio(pt.goodput, pl.goodput), "ratio");
  r.add("harness.trace_cpu_ratio", ratio(pt.cpu_us_per_msg, pl.cpu_us_per_msg), "ratio");
  r.note(std::to_string(runtime.size()) + " UdpRuntime, " + std::to_string(local.size()) +
         " local untraced and " + std::to_string(traced.size()) +
         " local traced repetitions (same inputs per round)");
  if (check_fidelity && (fidelity < 1.0 - kFidelityBound ||
                         fidelity > 1.0 / (1.0 - kFidelityBound))) {
    r.correct = false;
    r.note("FIDELITY CHECK FAILED: local host goodput / UdpRuntime goodput = " +
           std::to_string(fidelity));
  }
}

}  // namespace

RunResult run_udp_workload(const Options& opts) {
  const UdpSpec spec = spec_for(opts.workload);
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(opts.seconds * 1e9);
  const std::size_t min_rounds = opts.trace ? 1 : 3;

  Tracer tracer;
  struct Variant {
    GroupKind kind;
    Tracer* tracer;
    std::vector<Rep> reps = {};
    Histogram latencies = {};  // every repetition's, merged as they finish
  };
  std::vector<Variant> variants = {{GroupKind::kRuntime, nullptr}};
  if (opts.trace) {
    variants.push_back({GroupKind::kLocal, nullptr});
    variants.push_back({GroupKind::kLocal, &tracer});
  }

  // Rounds run every build on the same inputs, rotating which goes first.
  // Untraced rounds first time a few bare UdpRuntime constructions.
  rrmp::net::Topology topo = rrmp::net::make_hierarchy(spec.regions);
  std::vector<double> setups;
  std::int64_t longest_round = 0;
  for (std::uint64_t round = 0;; ++round) {
    std::int64_t elapsed = wall_ns() - start;
    if (round >= min_rounds && elapsed + longest_round > budget) break;
    std::int64_t r0 = wall_ns();
    for (std::size_t i = 0; !opts.trace && i < kSetupsPerRound; ++i) {
      GroupConfig gc;
      gc.base_port = kBasePort;
      gc.seed = derive_seed(opts.seed, kSeedGroup, round);
      std::int64_t s0 = wall_ns();
      auto g = make_group(GroupKind::kRuntime, topo, gc, nullptr);
      setups.push_back(static_cast<double>(wall_ns() - s0) / 1e9);
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
      Variant& v = variants[(round + i) % variants.size()];
      v.reps.push_back(run_rep(spec, topo, v.kind, v.tracer, opts.seed, round));
      v.latencies.merge(v.reps.back().latencies);
      v.reps.back().latencies = Histogram();
    }
    longest_round = std::max(longest_round, wall_ns() - r0);
  }

  RunResult r;
  for (const Variant& v : variants) account(r, v.reps);
  if (!opts.trace) {
    add_end_to_end(r, variants[0].reps, variants[0].latencies, setups);
  } else {
    add_per_layer(r, variants[0].reps, variants[1].reps, variants[2].reps,
                  opts.workload == "udp_saturate");
    if (!opts.trace_out.empty() && !tracer.write_csv(opts.trace_out)) {
      r.note("could not write spans to " + opts.trace_out);
    } else if (!opts.trace_out.empty()) {
      r.note("spans of the last traced repetition: " + opts.trace_out);
    }
  }
  return r;
}

}  // namespace perfbench
