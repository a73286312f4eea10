// Self-learning delta^- monitor (Appendix A of the paper).
//
// Phase 1 (learning): for a configured number of activations the monitor
// only *records* the minimum observed distances (Algorithm 1) and denies all
// interposing, so IRQs are handled via the regular direct/delayed paths.
//
// Phase transition: the learned delta^-_Ip[l] is adjusted against a
// predefined upper bound delta^-_bIp[l] (Algorithm 2): any learned distance
// smaller than the bound is raised to the bound, capping the admissible
// long-term load.
//
// Phase 2 (run): activations conforming to the adjusted vector are admitted
// for interposed handling.
#pragma once

#include <cstdint>
#include <optional>

#include "mon/monitor.hpp"

namespace rthv::mon {

class LearningDeltaMonitor final : public ActivationMonitor {
 public:
  enum class Phase : std::uint8_t { kLearning, kRunning };

  /// @param depth            l, the number of tracked distances
  /// @param learning_events  activations consumed by the learning phase
  /// @param bound            delta^-_bIp[l]; empty = no bound (Fig. 7 curve a)
  LearningDeltaMonitor(std::size_t depth, std::uint64_t learning_events,
                       DeltaVector bound = {});

  bool record_and_check(sim::TimePoint now) override;

  [[nodiscard]] Phase phase() const { return phase_; }

  /// The learned minimum-distance vector (valid during and after learning;
  /// entries never observed remain at Duration::max()).
  [[nodiscard]] const DeltaVector& learned() const { return learned_; }

  /// The adjusted vector actually enforced in the run phase (only available
  /// once running).
  [[nodiscard]] const DeltaVector& enforced() const;

  [[nodiscard]] std::uint64_t learning_events_remaining() const {
    return learning_remaining_;
  }

  void visit(sim::StateWriter& ar) override { state(ar); }
  void visit(sim::StateReader& ar) override { state(ar); }

 private:
  template <class Ar>
  void state(Ar& ar) {
    ActivationMonitor::state(ar);
    ar(learning_remaining_);
    ar.vec(learned_);
    ar.vec(enforced_);  // empty while learning, depth entries once running
    ar.vec(tracebuffer_);
    ar(count_, phase_);
  }

  void learn(sim::TimePoint now);
  void finish_learning();
  void push(sim::TimePoint now);

  std::uint64_t learning_remaining_;
  DeltaVector bound_;  // lint: transient(configured upper bound; never mutated after construction)
  DeltaVector learned_;
  DeltaVector enforced_;
  std::vector<sim::TimePoint> tracebuffer_;
  std::size_t count_ = 0;
  Phase phase_ = Phase::kLearning;
};

}  // namespace rthv::mon
