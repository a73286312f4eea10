// Seeded snapshot-coverage fixture for the multi-core interconnect shape:
// a class with epoch-bucketed accounting whose regulator window escapes the
// state() visitor. The covered twin below proves the rule stays quiet on
// the real layout (config waived as structural, all mutable accounting
// visited).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fix_mc {

// The regulator window index is mutable accounting, but state() never
// touches it: a restored system silently resumes with the pre-restore
// window and grants the wrong budget.
class InterconnectMissesWindow {
 public:
  template <class Ar>
  void state(Ar& ar) {
    ar(cur_epoch_, demand_);
  }

 private:
  std::uint64_t cur_epoch_ = 0;
  std::uint64_t demand_ = 0;
  std::uint64_t window_ = 0;  // rthv-lint-expect: snapshot-coverage
};

// Covered twin: every accounting member visited plus a structural-config
// waiver; must stay quiet.
class InterconnectCovered {
 public:
  template <class Ar>
  void state(Ar& ar) {
    ar(cur_epoch_, demand_, window_);
  }

 private:
  std::uint32_t num_cores_ = 1;  // lint: transient(structural configuration)
  std::uint64_t cur_epoch_ = 0;
  std::uint64_t demand_ = 0;
  std::uint64_t window_ = 0;
};

}  // namespace fix_mc
