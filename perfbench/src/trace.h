// In-memory span tracing for the per-layer split.
//
// One span per call into a layer boundary: layer, start, end, parent span
// and the message it concerns (spans of one message share its id). Spans are
// recorded from the benchmark's own files only — around the calls it makes
// into each module's public functions, inside the benchmark-local host, a
// forwarding MetricsSink and a forwarding RetentionPolicy. The event loop is
// single-threaded, so spans nest strictly and a span's self time is its
// duration minus the durations of its direct children.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/policy.h"
#include "common/types.h"
#include "rrmp/metrics.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kNetLoop,        // UdpBus::run_until
  kNetSend,        // UdpBus::send_shared
  kProtoEncode,    // proto::encode
  kProtoDecode,    // proto::decode_shared
  kRrmpMulticast,  // Endpoint::multicast
  kRrmpHandle,     // Endpoint::handle_message
  kRrmpTimer,      // an endpoint timer callback
  kBufferPolicy,   // a call into the RetentionPolicy (or one of its timers)
  kMetricsSink,    // a MetricsSink callback
  kApp,            // the benchmark's delivery handler (oracle, closed loop)
  kCount,
};

const char* layer_name(Layer l);

inline constexpr std::uint64_t kNoMsg = ~std::uint64_t{0};
inline std::uint64_t pack_msg(const rrmp::MessageId& id) {
  return (static_cast<std::uint64_t>(id.source) << 40) |
         (id.seq & ((std::uint64_t{1} << 40) - 1));
}

class Tracer {
 public:
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t msg;
    std::uint32_t parent;  // index into spans, or kNoParent
    Layer layer;
  };
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct LayerTotals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  using Totals = std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)>;

  Tracer() { spans_.reserve(1 << 16); }

  /// Opens a span; `msg` == kNoMsg inherits the enclosing span's message.
  std::uint32_t begin(Layer layer, std::uint64_t msg);
  void end(std::uint32_t index);
  /// Message of the innermost open span (kNoMsg when none).
  std::uint64_t current_msg() const {
    return stack_.empty() ? kNoMsg : spans_[stack_.back()].msg;
  }

  /// Per-layer calls, total and self time of the recorded spans.
  Totals totals() const;
  /// Drops recorded spans (open spans must be closed).
  void clear() { spans_.clear(); }
  /// Writes the recorded spans as CSV. Returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, Layer layer, std::uint64_t msg = kNoMsg)
      : t_(t), index_(t ? t->begin(layer, msg) : 0) {}
  ~Scope() {
    if (t_) t_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::uint32_t index_;
};

/// Forwarding MetricsSink: one kMetricsSink span per callback.
std::unique_ptr<rrmp::MetricsSink> make_tracing_sink(rrmp::MetricsSink& inner,
                                                     Tracer& tracer);

/// Forwarding RetentionPolicy around `inner`: one kBufferPolicy span per
/// call the store makes into the policy and per policy timer that fires
/// (the inner policy is bound to an environment that wraps its timers).
std::unique_ptr<rrmp::buffer::RetentionPolicy> make_tracing_policy(
    std::unique_ptr<rrmp::buffer::RetentionPolicy> inner, Tracer& tracer);

}  // namespace perfbench
