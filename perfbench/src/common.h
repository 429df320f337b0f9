// Shared plumbing for the RRMP benchmark: clocks, seeds, payloads, the drop
// schedule, process counters, percentiles and the result record every
// workload fills in.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stateless 64-bit mix of a tuple of words (splitmix64 over a running
/// state): the one place seeds, drop decisions and payload bytes come from.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0,
                         std::uint64_t c = 0, std::uint64_t d = 0) {
  std::uint64_t s = a;
  std::uint64_t h = rrmp::splitmix64(s);
  s = h ^ b;
  h = rrmp::splitmix64(s);
  s = h ^ c;
  h = rrmp::splitmix64(s);
  s = h ^ d;
  return rrmp::splitmix64(s);
}

/// Domains separating the different seeds derived from the workload seed.
enum SeedDomain : std::uint64_t {
  kSeedGroup = 1,    // UdpRuntime / Cluster seed of one repetition
  kSeedDrops = 2,    // drop schedule of one repetition
  kSeedPayload = 3,  // payload bytes of one repetition
};

inline std::uint64_t derive_seed(std::uint64_t seed, SeedDomain domain,
                                 std::uint64_t rep) {
  return mix(seed, domain, rep);
}

/// Deterministic per-(source, seq, receiver) drop decision for the initial
/// dissemination. Keyed on the source too, so concurrent senders do not
/// share one loss pattern.
class DropSchedule {
 public:
  DropSchedule() = default;
  DropSchedule(std::uint64_t seed, double rate)
      : seed_(seed),
        threshold_(rate <= 0   ? 0
                   : rate >= 1 ? ~std::uint64_t{0}
                               : static_cast<std::uint64_t>(
                                     rate * 18446744073709551616.0)) {}

  bool drops(rrmp::MemberId source, std::uint64_t seq,
             rrmp::MemberId receiver) const {
    return threshold_ != 0 && mix(seed_, source, seq, receiver) < threshold_;
  }
  bool active() const { return threshold_ != 0; }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t threshold_ = 0;
};

/// The payload a sender multicasts as message (source, seq).
std::vector<std::uint8_t> make_payload(std::uint64_t seed,
                                       rrmp::MemberId source,
                                       std::uint64_t seq, std::size_t bytes);
/// True iff `payload` is exactly make_payload(seed, source, seq, bytes).
bool payload_matches(std::uint64_t seed, rrmp::MemberId source,
                     std::uint64_t seq, std::size_t bytes,
                     std::span<const std::uint8_t> payload);

/// Whole-process counters (getrusage) plus the benchmark's allocation count.
struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t vol_ctx_switches = 0;
  std::int64_t max_rss_kb = 0;
  std::uint64_t allocs = 0;
  std::int64_t wall = 0;  // wall_ns()

  static ProcSample now();
  ProcSample operator-(const ProcSample& o) const;
  double cpu_s() const { return user_s + sys_s; }
};

/// Allocations made through global operator new so far (alloc_counter.cc).
std::uint64_t allocation_count();

/// Linear-interpolated percentile (q in [0,1]); sorts `v` in place. 0 when
/// empty.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports: correctness, attempted/failed operations
/// ((message, receiver) delivery pairs), metrics and human-readable notes.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump path (traced runs); empty = none
};

}  // namespace perfbench
