#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {
// Fills `out` with the splitmix64 stream of (seed, source, seq).
void fill_payload(std::uint64_t seed, rrmp::MemberId source,
                  std::uint64_t seq, std::uint8_t* out, std::size_t bytes) {
  std::uint64_t state = mix(seed, source, seq);
  for (std::size_t off = 0; off < bytes; off += 8) {
    std::uint64_t w = rrmp::splitmix64(state);
    std::memcpy(out + off, &w, std::min<std::size_t>(8, bytes - off));
  }
}
}  // namespace

std::vector<std::uint8_t> make_payload(std::uint64_t seed,
                                       rrmp::MemberId source,
                                       std::uint64_t seq, std::size_t bytes) {
  std::vector<std::uint8_t> p(bytes);
  fill_payload(seed, source, seq, p.data(), bytes);
  return p;
}

bool payload_matches(std::uint64_t seed, rrmp::MemberId source,
                     std::uint64_t seq, std::size_t bytes,
                     std::span<const std::uint8_t> payload) {
  if (payload.size() != bytes) return false;
  std::uint8_t expect[4096];
  if (bytes > sizeof(expect)) {
    std::vector<std::uint8_t> p = make_payload(seed, source, seq, bytes);
    return std::memcmp(p.data(), payload.data(), bytes) == 0;
  }
  fill_payload(seed, source, seq, expect, bytes);
  return std::memcmp(expect, payload.data(), bytes) == 0;
}

ProcSample ProcSample::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  s.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  s.vol_ctx_switches = ru.ru_nvcsw;
  s.max_rss_kb = ru.ru_maxrss;
  s.allocs = allocation_count();
  s.wall = wall_ns();
  return s;
}

ProcSample ProcSample::operator-(const ProcSample& o) const {
  ProcSample d;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.vol_ctx_switches = vol_ctx_switches - o.vol_ctx_switches;
  d.max_rss_kb = max_rss_kb;
  d.allocs = allocs - o.allocs;
  d.wall = wall - o.wall;
  return d;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

}  // namespace perfbench
