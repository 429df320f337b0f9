// Delivery correctness oracle.
//
// Every receiver's delivery handler reports to the oracle, which checks:
//  - exactly-once delivery per (message, receiver),
//  - a payload byte-identical to what the sender multicast,
//  - data only from an expected sender, and only for a sequence number that
//    sender has already multicast.
// A violation of any of these makes the run incorrect. A (message, receiver)
// pair still missing at the end of the drain is a failure, never filtered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "histogram.h"
#include "proto/messages.h"

namespace perfbench {

class DeliveryOracle {
 public:
  /// `members` receivers per message (every member but the source),
  /// `senders` the members allowed to multicast.
  DeliveryOracle(std::uint64_t payload_seed, std::size_t members,
                 std::vector<rrmp::MemberId> senders, std::size_t payload_bytes);

  /// Payload for the next message of `source`.
  std::vector<std::uint8_t> next_payload(rrmp::MemberId source) const;

  /// `source` multicast `id` (which must be its next sequence number); the
  /// latency clock of the message starts at `t_ns` (send or due time).
  void on_sent(const rrmp::MessageId& id, std::int64_t t_ns);

  /// Receiver `m` delivered `d` at `t_ns`. Returns true if this delivery
  /// completed the message (every receiver has it now).
  bool on_delivered(rrmp::MemberId m, const rrmp::proto::Data& d,
                    std::int64_t t_ns);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t completed() const { return completed_; }
  bool all_complete() const { return completed_ == sent_; }

  /// (message, receiver) pairs owed so far / still missing.
  std::uint64_t pairs_attempted() const;
  std::uint64_t pairs_missing() const;

  std::uint64_t violations() const {
    return duplicates_ + corrupt_ + unexpected_;
  }
  /// Human-readable summary of any violations (empty when none).
  std::string violation_summary() const;
  /// The first few still-missing pairs, as "source:seq->receiver".
  std::string missing_summary(std::size_t limit = 8) const;

  /// Counts every still-missing pair as delivered at `t_ns` in the latency
  /// sample: a failed delivery misses any latency limit, so it must not
  /// leave the tail.
  void add_missing_latencies(std::int64_t t_ns);

  /// Per-pair delivery latencies (receiver != source).
  const Histogram& latencies() const { return latencies_; }

 private:
  struct Stream {
    rrmp::MemberId source;
    std::vector<std::int64_t> start_ns;  // by seq-1
    std::vector<std::uint32_t> count;    // receivers delivered, by seq-1
    std::vector<std::uint64_t> seen;     // delivered-receiver bitmaps
  };
  Stream* stream_of(rrmp::MemberId source);

  std::uint64_t payload_seed_;
  std::size_t members_;
  std::size_t words_;  // bitmap words per message
  std::size_t payload_bytes_;
  std::vector<Stream> streams_;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t delivered_pairs_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t unexpected_ = 0;
  Histogram latencies_;
};

}  // namespace perfbench
