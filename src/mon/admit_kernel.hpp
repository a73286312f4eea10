// Branchless admission kernel for the delta^- full-window check.
//
// The check "for all i in [0, l): now - win[i] >= delta[i]" is a pure
// reduction over two contiguous int64 arrays, so it auto-vectorizes on any
// target without intrinsics or -march flags: the loop carries a single
// accumulator AND-ed with one comparison per lane and has no early exit,
// loads are unit-stride, and the trip count is the monitor depth.
//
// Two implementations share the exact same arithmetic on the exact same
// operands, so their verdicts are bit-identical by construction:
//   - admit_full_vector: branch-free AND-reduction (the SIMD-friendly form)
//   - admit_full_scalar: early-exit reference loop (Algorithm 1 as written)
// A process-wide knob selects which one the monitors use; the randomized
// differential test drives both over the same activation patterns.
//
// Hot-path rules (enforced by tools/rthv_lint): no allocation, no iostream,
// callers pass raw pointers into preexisting storage.
#pragma once

#include <cstddef>
#include <cstdint>

// The build stays at the portable x86-64 baseline (no -march flags), which
// has no 64-bit SIMD compare, so the AND-reduction loop compiles to tight
// scalar code there. No shipped configuration runs a delta^- vector deep
// enough for a wider instantiation to pay for its out-of-line call.

namespace rthv::mon {

/// Which admission kernel the delta-vector monitors run. kVector is the
/// default; kScalar exists as the bit-identical reference for differential
/// tests and as a debugging fallback.
enum class AdmitKernel : std::uint8_t { kVector, kScalar };

namespace detail {
inline AdmitKernel& admit_kernel_knob() {
  static AdmitKernel k = AdmitKernel::kVector;
  return k;
}
}  // namespace detail

inline AdmitKernel admit_kernel() { return detail::admit_kernel_knob(); }
inline void set_admit_kernel(AdmitKernel k) { detail::admit_kernel_knob() = k; }

/// Branch-free full-window conformance check: 1 iff the activation at
/// `now_ns` keeps every spanned distance, i.e. for all i in [0, l):
/// (now_ns - win_ns[i]) >= delta_ns[i], where win_ns[0] is the most recent
/// recorded activation. No early exit -- the AND-reduction is what lets the
/// compiler vectorize the loop.
inline bool admit_full_vector(const std::int64_t* win_ns, const std::int64_t* delta_ns,
                              std::size_t l, std::int64_t now_ns) {
  std::int64_t ok = 1;
  for (std::size_t i = 0; i < l; ++i) {
    ok &= static_cast<std::int64_t>((now_ns - win_ns[i]) >= delta_ns[i]);
  }
  return ok != 0;
}

/// Early-exit reference implementation of the same predicate, evaluating
/// the same comparisons in the same order (Algorithm 1's loop shape). Kept
/// as the differential-test oracle for admit_full_vector.
inline bool admit_full_scalar(const std::int64_t* win_ns, const std::int64_t* delta_ns,
                              std::size_t l, std::int64_t now_ns) {
  for (std::size_t i = 0; i < l; ++i) {
    if ((now_ns - win_ns[i]) < delta_ns[i]) return false;
  }
  return true;
}

/// Knob-dispatched full-window check used by the monitors' hot path.
///
/// Lane 0 (the consecutive-event distance d_min) is the tightest constraint
/// relative to typical gaps, so a violating activation almost always fails
/// there; rejecting on it before entering a kernel is an early-out of the
/// same AND-reduction (verdicts unchanged) that gives deny-heavy streams
/// the scalar loop's exit cost while conforming streams pay one
/// well-predicted compare.
inline bool admit_full(const std::int64_t* win_ns, const std::int64_t* delta_ns,
                       std::size_t l, std::int64_t now_ns) {
  if ((now_ns - win_ns[0]) < delta_ns[0]) return false;
  // Lane 0 is known conforming; the kernels reduce the remaining lanes.
  if (admit_kernel() == AdmitKernel::kScalar) {
    return admit_full_scalar(win_ns + 1, delta_ns + 1, l - 1, now_ns);
  }
  return admit_full_vector(win_ns + 1, delta_ns + 1, l - 1, now_ns);
}

}  // namespace rthv::mon
