#include "oracle.h"

#include <stdexcept>

#include "common.h"

namespace perfbench {

DeliveryOracle::DeliveryOracle(std::uint64_t payload_seed, std::size_t members,
                               std::vector<rrmp::MemberId> senders,
                               std::size_t payload_bytes)
    : payload_seed_(payload_seed),
      members_(members),
      words_((members + 63) / 64),
      payload_bytes_(payload_bytes) {
  for (rrmp::MemberId s : senders) streams_.push_back(Stream{s, {}, {}, {}});
}

DeliveryOracle::Stream* DeliveryOracle::stream_of(rrmp::MemberId source) {
  for (Stream& s : streams_) {
    if (s.source == source) return &s;
  }
  return nullptr;
}

std::vector<std::uint8_t> DeliveryOracle::next_payload(
    rrmp::MemberId source) const {
  for (const Stream& s : streams_) {
    if (s.source == source) {
      return make_payload(payload_seed_, source, s.start_ns.size() + 1,
                          payload_bytes_);
    }
  }
  throw std::logic_error("oracle: not a sender");
}

void DeliveryOracle::on_sent(const rrmp::MessageId& id, std::int64_t t_ns) {
  Stream* s = stream_of(id.source);
  if (s == nullptr || id.seq != s->start_ns.size() + 1) {
    throw std::logic_error("oracle: sender sequence out of step");
  }
  s->start_ns.push_back(t_ns);
  s->count.push_back(0);
  s->seen.resize(s->seen.size() + words_, 0);
  ++sent_;
}

bool DeliveryOracle::on_delivered(rrmp::MemberId m, const rrmp::proto::Data& d,
                                  std::int64_t t_ns) {
  Stream* s = stream_of(d.id.source);
  if (s == nullptr || d.id.seq == 0 || d.id.seq > s->start_ns.size() ||
      m >= members_) {
    ++unexpected_;
    return false;
  }
  std::size_t i = d.id.seq - 1;
  std::uint64_t& word = s->seen[i * words_ + m / 64];
  std::uint64_t bit = std::uint64_t{1} << (m % 64);
  if (word & bit) {
    ++duplicates_;
    return false;
  }
  word |= bit;
  if (!payload_matches(payload_seed_, d.id.source, d.id.seq, payload_bytes_,
                       d.payload.span())) {
    ++corrupt_;
  }
  if (m == d.id.source) return false;  // the sender's own local delivery
  ++delivered_pairs_;
  latencies_.add_us(static_cast<double>(t_ns - s->start_ns[i]) / 1e3);
  if (++s->count[i] < members_ - 1) return false;
  ++completed_;
  return true;
}

std::uint64_t DeliveryOracle::pairs_attempted() const {
  return sent_ * (members_ - 1);
}

std::uint64_t DeliveryOracle::pairs_missing() const {
  return pairs_attempted() - delivered_pairs_;
}

void DeliveryOracle::add_missing_latencies(std::int64_t t_ns) {
  for (const Stream& s : streams_) {
    for (std::size_t i = 0; i < s.count.size(); ++i) {
      for (std::size_t k = s.count[i]; k < members_ - 1; ++k) {
        latencies_.add_us(static_cast<double>(t_ns - s.start_ns[i]) / 1e3);
      }
    }
  }
}

std::string DeliveryOracle::missing_summary(std::size_t limit) const {
  std::string out;
  std::size_t shown = 0;
  for (const Stream& s : streams_) {
    for (std::size_t i = 0; i < s.count.size(); ++i) {
      if (s.count[i] == members_ - 1) continue;
      for (std::size_t m = 0; m < members_; ++m) {
        if (m == s.source || (s.seen[i * words_ + m / 64] >> (m % 64)) & 1) {
          continue;
        }
        if (shown++ == limit) return out + " ...";
        if (!out.empty()) out += ", ";
        out += std::to_string(s.source) + ":" + std::to_string(i + 1) + "->" +
               std::to_string(m);
      }
    }
  }
  return out;
}

std::string DeliveryOracle::violation_summary() const {
  if (violations() == 0) return {};
  return "duplicate deliveries " + std::to_string(duplicates_) +
         ", corrupt payloads " + std::to_string(corrupt_) +
         ", unexpected data " + std::to_string(unexpected_);
}

}  // namespace perfbench
