// Simulated wall clock for deterministic resilience tests.
//
// Deadlines, retry backoff and circuit-breaker cool-downs all need a
// notion of elapsed time, but tying them to the real clock would make
// fault-injection runs irreproducible. `SimClock` is a monotone virtual
// clock advanced explicitly by whoever incurs simulated latency (model
// inference, timeouts, backoff sleeps); everything downstream reads the
// same deterministic timeline.
#ifndef VAQ_FAULT_SIM_CLOCK_H_
#define VAQ_FAULT_SIM_CLOCK_H_

namespace vaq {
namespace fault {

class SimClock {
 public:
  SimClock() = default;

  double now_ms() const { return now_ms_; }

  // Advances the clock; negative advances are ignored (time is monotone).
  void Advance(double ms) {
    if (ms > 0.0) now_ms_ += ms;
  }

  // Jumps to an absolute virtual time; a target in the past is ignored
  // (time is monotone). Event loops over sorted timelines (the traffic
  // front door, the cluster gather) advance with this.
  void AdvanceTo(double at_ms) { Advance(at_ms - now_ms_); }

  // Checkpoint body (ckpt::Archive, DESIGN.md §10).
  template <typename Archive>
  void Persist(Archive& ar) {
    ar.F64(now_ms_);
  }

 private:
  double now_ms_ = 0.0;
};

}  // namespace fault
}  // namespace vaq

#endif  // VAQ_FAULT_SIM_CLOCK_H_
