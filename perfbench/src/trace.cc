#include "trace.h"

#include <cstdio>

#include "buffer/store.h"
#include "common.h"

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kNetLoop: return "net.loop";
    case Layer::kNetSend: return "net.send";
    case Layer::kProtoEncode: return "proto.encode";
    case Layer::kProtoDecode: return "proto.decode";
    case Layer::kRrmpMulticast: return "rrmp.multicast";
    case Layer::kRrmpHandle: return "rrmp.handle";
    case Layer::kRrmpTimer: return "rrmp.timer";
    case Layer::kBufferPolicy: return "buffer.policy";
    case Layer::kMetricsSink: return "metrics.sink";
    case Layer::kApp: return "app.deliver";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t Tracer::begin(Layer layer, std::uint64_t msg) {
  std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
  if (msg == kNoMsg) msg = current_msg();
  auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{wall_ns(), 0, msg, parent, layer});
  stack_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t index) {
  spans_[index].end_ns = wall_ns();
  stack_.pop_back();
}

Tracer::Totals Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  Totals t{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotals& lt = t[static_cast<std::size_t>(s.layer)];
    std::int64_t dur = s.end_ns - s.start_ns;
    ++lt.calls;
    lt.total_ns += dur;
    lt.self_ns += dur - child_ns[i];
  }
  return t;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span,parent,layer,msg_source,msg_seq,start_ns,end_ns\n");
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    long long parent = s.parent == kNoParent ? -1 : s.parent;
    long long src = s.msg == kNoMsg ? -1 : static_cast<long long>(s.msg >> 40);
    long long seq = s.msg == kNoMsg
                        ? -1
                        : static_cast<long long>(
                              s.msg & ((std::uint64_t{1} << 40) - 1));
    std::fprintf(f, "%zu,%lld,%s,%lld,%lld,%lld,%lld\n", i, parent,
                 layer_name(s.layer), src, seq,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

namespace {

using rrmp::MemberId;
using rrmp::MessageId;
using rrmp::TimePoint;

class TracingSink final : public rrmp::MetricsSink {
 public:
  TracingSink(rrmp::MetricsSink& inner, Tracer& t) : in_(inner), t_(t) {}

#define PERFBENCH_FORWARD(call) \
  Scope s(&t_, Layer::kMetricsSink); \
  in_.call;

  void on_delivered(MemberId m, const MessageId& id, TimePoint t) override {
    PERFBENCH_FORWARD(on_delivered(m, id, t))
  }
  void on_loss_detected(MemberId m, const MessageId& id,
                        TimePoint t) override {
    PERFBENCH_FORWARD(on_loss_detected(m, id, t))
  }
  void on_recovered(MemberId m, const MessageId& id, TimePoint t,
                    rrmp::Duration latency) override {
    PERFBENCH_FORWARD(on_recovered(m, id, t, latency))
  }
  void on_buffer_stored(MemberId m, const MessageId& id,
                        TimePoint t) override {
    PERFBENCH_FORWARD(on_buffer_stored(m, id, t))
  }
  void on_buffer_discarded(MemberId m, const MessageId& id, TimePoint t,
                           bool was_long_term) override {
    PERFBENCH_FORWARD(on_buffer_discarded(m, id, t, was_long_term))
  }
  void on_promoted_long_term(MemberId m, const MessageId& id,
                             TimePoint t) override {
    PERFBENCH_FORWARD(on_promoted_long_term(m, id, t))
  }
  void on_request_sent(MemberId m, const MessageId& id, bool remote,
                       TimePoint t) override {
    PERFBENCH_FORWARD(on_request_sent(m, id, remote, t))
  }
  void on_request_received(MemberId m, const MessageId& id, bool remote,
                           TimePoint t) override {
    PERFBENCH_FORWARD(on_request_received(m, id, remote, t))
  }
  void on_repair_sent(MemberId m, const MessageId& id, bool remote,
                      TimePoint t) override {
    PERFBENCH_FORWARD(on_repair_sent(m, id, remote, t))
  }
  void on_search_started(MemberId m, const MessageId& id,
                         TimePoint t) override {
    PERFBENCH_FORWARD(on_search_started(m, id, t))
  }
  void on_search_hop(MemberId from, MemberId to, const MessageId& id,
                     TimePoint t) override {
    PERFBENCH_FORWARD(on_search_hop(from, to, id, t))
  }
  void on_search_completed(MemberId holder, const MessageId& id,
                           TimePoint t) override {
    PERFBENCH_FORWARD(on_search_completed(holder, id, t))
  }
  void on_regional_multicast(MemberId m, const MessageId& id,
                             TimePoint t) override {
    PERFBENCH_FORWARD(on_regional_multicast(m, id, t))
  }
  void on_relay_suppressed(MemberId m, const MessageId& id,
                           TimePoint t) override {
    PERFBENCH_FORWARD(on_relay_suppressed(m, id, t))
  }
  void on_handoff_sent(MemberId from, MemberId to, std::size_t messages,
                       TimePoint t) override {
    PERFBENCH_FORWARD(on_handoff_sent(from, to, messages, t))
  }
  void on_send_deferred(MemberId m, const MessageId& id,
                        TimePoint t) override {
    PERFBENCH_FORWARD(on_send_deferred(m, id, t))
  }
  void on_credit_ack_sent(MemberId m, TimePoint t) override {
    PERFBENCH_FORWARD(on_credit_ack_sent(m, t))
  }
  void on_credit_ack_suppressed(MemberId m, TimePoint t) override {
    PERFBENCH_FORWARD(on_credit_ack_suppressed(m, t))
  }
  void on_flow_stall_remcast(MemberId m, const MessageId& id,
                             TimePoint t) override {
    PERFBENCH_FORWARD(on_flow_stall_remcast(m, id, t))
  }
  void on_flow_stall_release(MemberId m, TimePoint t) override {
    PERFBENCH_FORWARD(on_flow_stall_release(m, t))
  }
#undef PERFBENCH_FORWARD

 private:
  rrmp::MetricsSink& in_;
  Tracer& t_;
};

/// The environment the wrapped policy sees: the endpoint's own, with every
/// policy timer callback run inside a kBufferPolicy span.
class TracingEnv final : public rrmp::buffer::PolicyEnv {
 public:
  TracingEnv(rrmp::buffer::PolicyEnv& inner, Tracer& t) : in_(inner), t_(t) {}

  TimePoint now() const override { return in_.now(); }
  std::uint64_t schedule(rrmp::Duration d, std::function<void()> fn) override {
    return in_.schedule(d, [t = &t_, fn = std::move(fn)] {
      Scope s(t, Layer::kBufferPolicy);
      fn();
    });
  }
  void cancel(std::uint64_t timer) override { in_.cancel(timer); }
  rrmp::RandomEngine& rng() override { return in_.rng(); }
  std::size_t region_size() const override { return in_.region_size(); }
  const std::vector<MemberId>& region_members() const override {
    return in_.region_members();
  }
  MemberId self() const override { return in_.self(); }
  rrmp::buffer::BudgetState budget() const override { return in_.budget(); }

 private:
  rrmp::buffer::PolicyEnv& in_;
  Tracer& t_;
};

class TracingPolicy final : public rrmp::buffer::RetentionPolicy {
 public:
  TracingPolicy(std::unique_ptr<RetentionPolicy> inner, Tracer& t)
      : in_(std::move(inner)), t_(t) {}

  const char* name() const override { return in_->name(); }
  bool needs_history_exchange() const override {
    return in_->needs_history_exchange();
  }
  bool handoff_includes_short_term() const override {
    return in_->handoff_includes_short_term();
  }
  void on_stored(const MessageId& id) override {
    Scope s(&t_, Layer::kBufferPolicy, pack_msg(id));
    in_->on_stored(id);
  }
  void on_handoff(const MessageId& id) override {
    Scope s(&t_, Layer::kBufferPolicy, pack_msg(id));
    in_->on_handoff(id);
  }
  void on_request_seen(const MessageId& id) override {
    Scope s(&t_, Layer::kBufferPolicy, pack_msg(id));
    in_->on_request_seen(id);
  }
  rrmp::buffer::EvictionPlan pick_victims(
      const rrmp::buffer::EvictionDemand& need) override {
    Scope s(&t_, Layer::kBufferPolicy);
    return in_->pick_victims(need);
  }

 protected:
  void on_bound() override {
    env_ = std::make_unique<TracingEnv>(env(), t_);
    in_->bind(&store(), env_.get());
  }

 private:
  std::unique_ptr<RetentionPolicy> in_;
  Tracer& t_;
  std::unique_ptr<TracingEnv> env_;
};

}  // namespace

std::unique_ptr<rrmp::MetricsSink> make_tracing_sink(rrmp::MetricsSink& inner,
                                                     Tracer& tracer) {
  return std::make_unique<TracingSink>(inner, tracer);
}

std::unique_ptr<rrmp::buffer::RetentionPolicy> make_tracing_policy(
    std::unique_ptr<rrmp::buffer::RetentionPolicy> inner, Tracer& tracer) {
  return std::make_unique<TracingPolicy>(std::move(inner), tracer);
}

}  // namespace perfbench
