#include "histogram.h"

#include <bit>
#include <cmath>

namespace perfbench {
namespace {

constexpr int kSubBits = 8;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

std::size_t index_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  int e = 63 - std::countl_zero(ns);  // >= kSubBits
  int shift = e - kSubBits;
  std::uint64_t mant = (ns >> shift) - kSub;
  return static_cast<std::size_t>(kSub + static_cast<std::uint64_t>(shift) * kSub + mant);
}

/// [lower bound, width) of bucket `i`, in ns.
void bounds_of(std::size_t i, double& lo, double& width) {
  if (i < kSub) {
    lo = static_cast<double>(i);
    width = 1;
    return;
  }
  std::size_t shift = (i - kSub) / kSub;
  std::size_t mant = (i - kSub) % kSub;
  lo = std::ldexp(static_cast<double>(kSub + mant), static_cast<int>(shift));
  width = std::ldexp(1.0, static_cast<int>(shift));
}

}  // namespace

void Histogram::add_us(double us) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  double ns = us * 1e3;
  ++counts_[index_of(ns <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(ns)))];
  ++n_;
}

void Histogram::merge(const Histogram& o) {
  if (o.n_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

double Histogram::percentile_us(double q) const {
  if (n_ == 0) return 0;
  double rank = q * static_cast<double>(n_ - 1);
  double before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    double c = static_cast<double>(counts_[i]);
    if (c == 0) continue;
    if (rank < before + c) {
      double lo, width;
      bounds_of(i, lo, width);
      return (lo + width * (rank - before + 0.5) / c) / 1e3;
    }
    before += c;
  }
  return 0;
}

}  // namespace perfbench
