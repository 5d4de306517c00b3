#include "cluster/net.h"

#include <limits>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"

namespace vaq {
namespace cluster {
namespace {

constexpr uint64_t kJitterSalt = 0x082efa98ec4e6c89ULL;

// Link coordinate for the fault plan and jitter: endpoint ids are small
// (nodes plus one coordinator), offset so negative ids stay distinct.
int64_t LinkOf(int from, int to) {
  return (static_cast<int64_t>(from) + 16) * 4096 +
         (static_cast<int64_t>(to) + 16);
}

double JitterUniform(uint64_t seed, int64_t link, int64_t seq) {
  uint64_t s = MixSeed(MixSeed(seed, kJitterSalt ^ static_cast<uint64_t>(link)),
                       static_cast<uint64_t>(seq));
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

}  // namespace

Net::Net(NetOptions options, const fault::FaultPlan* plan)
    : options_(options), plan_(plan), seed_(plan ? plan->seed() : 0) {}

void Net::Send(int from, int to, uint32_t tag, const char* tag_name,
               std::string payload, int64_t wire_bytes, double send_ms) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  static obs::CounterSlots messages("vaq_cluster_net_messages_total", "tag");
  static obs::Counter* const bytes =
      registry.GetCounter("vaq_cluster_net_bytes_total", {});
  const int64_t link = LinkOf(from, to);
  const int64_t seq = next_seq_++;
  ++stats_.messages;
  stats_.bytes += wire_bytes;
  messages.Get(tag_name)->Increment();
  bytes->Increment(wire_bytes);

  // Drops only delay: each lost copy schedules a retransmission one RTO
  // later, and the final attempt always goes through.
  double depart_ms = send_ms;
  int attempts = 1;
  if (plan_ != nullptr) {
    while (attempts < options_.max_attempts &&
           plan_->NetDrops(link, seq, attempts - 1)) {
      ++stats_.drops;
      registry.GetCounter("vaq_cluster_net_drops_total", {})->Increment();
      depart_ms += options_.rto_ms;
      ++attempts;
    }
    // Scheduled partition windows lose every copy transmitted inside
    // them; the sender retries on its RTO until the window lifts. When
    // the partition outlasts the attempt budget the final copy departs
    // the instant connectivity returns — same contract as drops: a
    // partition delays traffic, it never changes what is delivered.
    while (plan_->NetPartitioned(depart_ms)) {
      ++stats_.partition_drops;
      registry.GetCounter("vaq_cluster_net_partition_drops_total", {})
          ->Increment();
      if (attempts < options_.max_attempts) {
        depart_ms += options_.rto_ms;
        ++attempts;
      } else {
        depart_ms = plan_->PartitionClearMs(depart_ms);
      }
    }
  }
  Delivery delivery;
  delivery.from = from;
  delivery.to = to;
  delivery.tag = tag;
  delivery.seq = seq;
  delivery.sent_ms = send_ms;
  delivery.attempts = attempts;
  delivery.delivered_ms =
      depart_ms + options_.base_latency_ms +
      static_cast<double>(wire_bytes) * options_.per_byte_ms +
      options_.jitter_ms * JitterUniform(seed_, link, seq);
  const bool duplicated = plan_ != nullptr && plan_->NetDuplicates(link, seq);
  if (duplicated) {
    // The spurious copy arrives a little later (a fresh jitter draw past
    // the original) and is suppressed by the (link, seq) dedup on pop.
    Pending copy;
    copy.delivery = delivery;
    copy.delivery.delivered_ms +=
        options_.rto_ms * JitterUniform(seed_, link, ~seq);
    copy.delivered_ms = copy.delivery.delivered_ms;
    copy.duplicate = true;
    copy.order = next_order_++;
    queue_.push(std::move(copy));
  }
  delivery.payload = std::move(payload);
  Pending pending;
  pending.delivered_ms = delivery.delivered_ms;
  pending.delivery = std::move(delivery);
  pending.duplicate = false;
  pending.order = next_order_++;
  queue_.push(std::move(pending));
}

bool Net::NextDelivery(Delivery* out) {
  while (!queue_.empty()) {
    Pending pending = queue_.top();
    queue_.pop();
    if (pending.duplicate) {
      ++stats_.duplicates_suppressed;
      obs::MetricRegistry::Global()
          .GetCounter("vaq_cluster_net_duplicates_total", {})
          ->Increment();
      continue;
    }
    ++stats_.deliveries;
    *out = std::move(pending.delivery);
    return true;
  }
  return false;
}

double Net::PeekTimeMs() const {
  if (queue_.empty()) return std::numeric_limits<double>::infinity();
  return queue_.top().delivered_ms;
}

}  // namespace cluster
}  // namespace vaq
