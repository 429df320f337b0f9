// Log-linear latency histogram: 256 sub-buckets per power of two (0.4%
// relative width), exact below 256 ns. Constant memory however many
// samples a run records, so the benchmark's own bookkeeping does not move
// the process's peak RSS.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  void add_us(double us);
  void merge(const Histogram& o);
  std::uint64_t count() const { return n_; }
  /// Linear-interpolated percentile in microseconds (q in [0, 1]); values
  /// are spread evenly within a bucket. 0 when empty.
  double percentile_us(double q) const;

 private:
  std::vector<std::uint64_t> counts_;  // allocated on first add
  std::uint64_t n_ = 0;
};

}  // namespace perfbench
