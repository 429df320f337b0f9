// A group of RRMP members over real loopback UDP, in two builds:
//
//  - RuntimeGroup: the public harness::UdpRuntime, untouched. Every
//    end-to-end metric of the UDP workloads comes from it.
//  - LocalGroup: a benchmark-local IHost over net::UdpBus that mirrors
//    UdpRuntime's single-worker member host (the embedding contract of
//    examples/custom_host.cpp). With a Tracer it records a span around every
//    call into net, proto, rrmp, buffer and metrics; without one it is the
//    same program as RuntimeGroup, which the traced run checks by comparing
//    their goodput.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "harness/udp_runtime.h"
#include "membership/directory.h"
#include "net/topology.h"
#include "net/udp_host.h"
#include "rrmp/endpoint.h"
#include "rrmp/metrics.h"
#include "trace.h"

namespace perfbench {

/// Every group runs UdpRuntime's default protocol Config and policy
/// (two-phase, every optional layer off) on one worker, without latency
/// emulation.
struct GroupConfig {
  std::uint16_t base_port = 0;
  std::uint64_t seed = 1;
  /// Drop schedule for the initial dissemination; inactive = no loss.
  DropSchedule drops;
};

struct BusCounters {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t poll_syscalls = 0;
};

/// Host-level counts only the benchmark-local host can see.
struct HostCounters {
  std::uint64_t encodes = 0;
  std::uint64_t decodes = 0;
  std::uint64_t wire_bytes = 0;  // encoded bytes handed to the bus
  std::uint64_t timers_scheduled = 0;
  std::uint64_t timers_cancelled = 0;
};

class UdpGroup {
 public:
  UdpGroup() = default;
  virtual ~UdpGroup() = default;
  // Callbacks inside the group hold its address.
  UdpGroup(const UdpGroup&) = delete;
  UdpGroup& operator=(const UdpGroup&) = delete;

  virtual std::size_t size() const = 0;
  virtual rrmp::Endpoint& endpoint(rrmp::MemberId m) = 0;
  /// Endpoint::multicast on `source` (the drop schedule is keyed on it).
  virtual rrmp::MessageId multicast(rrmp::MemberId source,
                                    std::vector<std::uint8_t> payload) = 0;
  /// Services sockets and timers for `d` of wall-clock time, or until
  /// stop() is called from a callback.
  virtual void run_for(rrmp::Duration d) = 0;
  void stop() { bus().stop(); }
  virtual rrmp::net::UdpBus& bus() = 0;
  virtual const rrmp::RecordingSink& sink() = 0;
  BusCounters bus_counters();
  virtual HostCounters host_counters() const { return {}; }

  /// Times the drop schedule was consulted outside multicast() (must stay 0:
  /// the schedule would not know the source).
  std::uint64_t drop_misuse() const { return drop_misuse_; }
  /// Datagrams the drop schedule removed before they reached the bus.
  std::uint64_t scheduled_drops() const { return scheduled_drops_; }

 protected:
  std::uint64_t drop_misuse_ = 0;
  std::uint64_t scheduled_drops_ = 0;
};

/// Binds a group, trying a few port ranges before failing. Throws
/// std::runtime_error with a clear message when UDP sockets cannot be bound.
enum class GroupKind { kRuntime, kLocal };
std::unique_ptr<UdpGroup> make_group(GroupKind kind,
                                     const rrmp::net::Topology& topology,
                                     GroupConfig config, Tracer* tracer);

}  // namespace perfbench
