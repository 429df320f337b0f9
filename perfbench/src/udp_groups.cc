#include "udp_groups.h"

#include <concepts>
#include <stdexcept>
#include <string>
#include <variant>

#include "buffer/factory.h"
#include "common/logging.h"
#include "proto/codec.h"

namespace perfbench {

using rrmp::Duration;
using rrmp::MemberId;
using rrmp::MessageId;

BusCounters UdpGroup::bus_counters() {
  const rrmp::net::UdpBus& b = bus();
  return {b.datagrams_sent(), b.datagrams_received(), b.send_syscalls(),
          b.recv_syscalls(), b.poll_syscalls()};
}

namespace {

std::uint64_t msg_key(const rrmp::proto::Message& m) {
  return std::visit(
      [](const auto& x) -> std::uint64_t {
        if constexpr (requires {
                        { x.id } -> std::convertible_to<const MessageId&>;
                      }) {
          return pack_msg(x.id);
        } else {
          return kNoMsg;
        }
      },
      m);
}

class RuntimeGroup final : public UdpGroup {
 public:
  RuntimeGroup(const rrmp::net::Topology& topology, const GroupConfig& c) {
    rrmp::harness::UdpRuntimeConfig rc;
    rc.base_port = c.base_port;
    rc.seed = c.seed;
    rc.emulate_latency = false;
    rc.workers = 1;
    if (c.drops.active()) {
      // UdpRuntime's drop_fn sees (seq, receiver) only. With flow control
      // off, Data reaches ip_multicast only synchronously inside
      // Endpoint::multicast, so the source is the member multicast() was
      // called on.
      rc.drop_fn = [this, drops = c.drops](std::uint64_t seq, MemberId to) {
        if (source_ == rrmp::kInvalidMember) {
          ++drop_misuse_;
          return false;
        }
        bool lost = drops.drops(source_, seq, to);
        scheduled_drops_ += lost;
        return lost;
      };
    }
    rt_ = std::make_unique<rrmp::harness::UdpRuntime>(topology, std::move(rc));
  }

  std::size_t size() const override { return rt_->size(); }
  rrmp::Endpoint& endpoint(MemberId m) override { return rt_->endpoint(m); }
  MessageId multicast(MemberId source,
                      std::vector<std::uint8_t> payload) override {
    source_ = source;
    MessageId id = rt_->endpoint(source).multicast(std::move(payload));
    source_ = rrmp::kInvalidMember;
    return id;
  }
  void run_for(Duration d) override { rt_->run_for(d); }
  rrmp::net::UdpBus& bus() override { return rt_->bus(); }
  const rrmp::RecordingSink& sink() override { return rt_->metrics(); }

 private:
  MemberId source_ = rrmp::kInvalidMember;
  std::unique_ptr<rrmp::harness::UdpRuntime> rt_;
};

class LocalGroup final : public UdpGroup {
 public:
  LocalGroup(const rrmp::net::Topology& topology, const GroupConfig& c,
             Tracer* tracer)
      : topology_(topology),
        config_(c),
        directory_(topology),
        tracer_(tracer),
        bus_(topology.member_count(), c.base_port) {
    if (tracer_) traced_sink_ = make_tracing_sink(sink_, *tracer_);
    rrmp::MetricsSink* sink = tracer_ ? traced_sink_.get() : &sink_;
    const std::size_t n = topology.member_count();
    const rrmp::harness::UdpRuntimeConfig defaults;
    rrmp::RandomEngine master(config_.seed);
    hosts_.reserve(n);
    endpoints_.reserve(n);
    for (MemberId m = 0; m < n; ++m) {
      hosts_.push_back(std::make_unique<Host>(m, *this, master.fork(m + 1)));
      auto policy = rrmp::buffer::make_policy(defaults.policy);
      if (tracer_) policy = make_tracing_policy(std::move(policy), *tracer_);
      endpoints_.push_back(std::make_unique<rrmp::Endpoint>(
          *hosts_.back(), defaults.protocol, std::move(policy), sink));
    }
    bus_.set_receive_callback(
        [this](MemberId to, MemberId from, rrmp::SharedBytes bytes) {
          std::optional<rrmp::proto::Message> msg;
          {
            Scope s(tracer_, Layer::kProtoDecode);
            ++counters_.decodes;
            msg = rrmp::proto::decode_shared(bytes);
          }
          if (!msg) {
            rrmp::log::warn("LocalGroup: dropping undecodable datagram (",
                            bytes.size(), " bytes)");
            return;
          }
          Scope s(tracer_, Layer::kRrmpHandle, msg_key(*msg));
          endpoints_[to]->handle_message(*msg, from);
        });
  }

  ~LocalGroup() override {
    for (auto& ep : endpoints_) ep->halt();
  }

  std::size_t size() const override { return endpoints_.size(); }
  rrmp::Endpoint& endpoint(MemberId m) override { return *endpoints_[m]; }
  MessageId multicast(MemberId source,
                      std::vector<std::uint8_t> payload) override {
    rrmp::Endpoint& ep = *endpoints_[source];
    Scope s(tracer_, Layer::kRrmpMulticast,
            pack_msg(MessageId{source, ep.highest_sent() + 1}));
    return ep.multicast(std::move(payload));
  }
  void run_for(Duration d) override {
    Scope s(tracer_, Layer::kNetLoop);
    bus_.run_until(bus_.now() + d);
  }
  rrmp::net::UdpBus& bus() override { return bus_; }
  const rrmp::RecordingSink& sink() override { return sink_; }
  HostCounters host_counters() const override { return counters_; }

 private:
  /// Mirrors UdpRuntime's member host (workers = 1, no latency emulation).
  class Host final : public rrmp::IHost {
   public:
    Host(MemberId self, LocalGroup& g, rrmp::RandomEngine rng)
        : self_(self),
          region_(g.topology_.region_of(self)),
          g_(g),
          rng_(std::move(rng)),
          local_view_(g.directory_.region_view(region_)),
          parent_view_(g.directory_.parent_view(region_)) {}

    MemberId self() const override { return self_; }
    rrmp::RegionId region() const override { return region_; }
    rrmp::TimePoint now() const override { return g_.bus_.now(); }

    rrmp::TimerHandle schedule(Duration d, std::function<void()> fn) override {
      ++g_.counters_.timers_scheduled;
      Tracer* t = g_.tracer_;
      if (t == nullptr) return g_.bus_.schedule_after(d, std::move(fn));
      return g_.bus_.schedule_after(
          d, [t, msg = t->current_msg(), fn = std::move(fn)] {
            Scope s(t, Layer::kRrmpTimer, msg);
            fn();
          });
    }
    void cancel(rrmp::TimerHandle timer) override {
      ++g_.counters_.timers_cancelled;
      g_.bus_.cancel(timer);
    }

    void send(MemberId to, rrmp::proto::Message msg) override {
      rrmp::SharedBytes wire = encode(msg);
      g_.counters_.wire_bytes += wire.size();
      Scope s(g_.tracer_, Layer::kNetSend);
      g_.bus_.send_shared(self_, to, std::move(wire));
    }

    void multicast_region(rrmp::proto::Message msg) override {
      rrmp::SharedBytes wire = encode(msg);
      for (MemberId m : g_.topology_.members_of(region_)) {
        if (m == self_) continue;
        g_.counters_.wire_bytes += wire.size();
        Scope s(g_.tracer_, Layer::kNetSend);
        g_.bus_.send_shared(self_, m, wire);
      }
    }

    void ip_multicast(rrmp::proto::Message msg) override {
      rrmp::SharedBytes wire = encode(msg);
      const auto* data = std::get_if<rrmp::proto::Data>(&msg);
      const DropSchedule& drops = g_.config_.drops;
      for (MemberId m = 0; m < g_.topology_.member_count(); ++m) {
        if (m == self_) continue;
        bool lost;
        if (drops.active() && data != nullptr) {
          lost = drops.drops(self_, data->id.seq, m);
          g_.scheduled_drops_ += lost;
        } else {
          lost = rng_.bernoulli(0.0);
        }
        if (lost) continue;
        g_.counters_.wire_bytes += wire.size();
        Scope s(g_.tracer_, Layer::kNetSend);
        g_.bus_.send_shared(self_, m, wire);
      }
    }

    rrmp::RandomEngine& rng() override { return rng_; }
    const rrmp::membership::RegionView& local_view() const override {
      return local_view_;
    }
    const rrmp::membership::RegionView& parent_view() const override {
      return parent_view_;
    }
    Duration rtt_estimate(MemberId) const override {
      return Duration::millis(2);  // UdpRuntime's raw-loopback floor
    }

   private:
    rrmp::SharedBytes encode(const rrmp::proto::Message& msg) {
      Scope s(g_.tracer_, Layer::kProtoEncode);
      ++g_.counters_.encodes;
      return rrmp::SharedBytes(rrmp::proto::encode(msg));
    }

    MemberId self_;
    rrmp::RegionId region_;
    LocalGroup& g_;
    rrmp::RandomEngine rng_;
    rrmp::membership::RegionView local_view_;
    rrmp::membership::RegionView parent_view_;
  };

  const rrmp::net::Topology& topology_;
  GroupConfig config_;
  rrmp::membership::Directory directory_;
  Tracer* tracer_;
  HostCounters counters_;
  rrmp::net::UdpBus bus_;
  rrmp::RecordingSink sink_;
  std::unique_ptr<rrmp::MetricsSink> traced_sink_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<rrmp::Endpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<UdpGroup> make_group(GroupKind kind,
                                     const rrmp::net::Topology& topology,
                                     GroupConfig config, Tracer* tracer) {
  // A few disjoint port ranges, in case another process holds one.
  constexpr int kAttempts = 8;
  std::string last_error;
  const std::uint16_t first = config.base_port;
  for (int i = 0; i < kAttempts; ++i) {
    config.base_port = static_cast<std::uint16_t>(first + i * 64);
    try {
      if (kind == GroupKind::kRuntime) {
        return std::make_unique<RuntimeGroup>(topology, config);
      }
      return std::make_unique<LocalGroup>(topology, config, tracer);
    } catch (const std::runtime_error& e) {
      last_error = e.what();
    }
  }
  throw std::runtime_error(
      "cannot bind UDP sockets on 127.0.0.1 (tried " +
      std::to_string(kAttempts) + " port ranges from " +
      std::to_string(first) + "): " + last_error +
      ". The UDP workloads need loopback UDP sockets; no metric was measured.");
}

}  // namespace perfbench
