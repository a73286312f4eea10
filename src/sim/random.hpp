// Deterministic pseudo-random number generation for workload synthesis.
//
// We ship our own xoshiro256** generator and inverse-CDF samplers instead of
// <random> distributions because libstdc++/libc++ distribution algorithms are
// implementation-defined: using them would make traces differ across
// standard libraries. Every experiment in this project is reproducible
// bit-for-bit from a seed.
#pragma once

#include <array>
#include <cstdint>

namespace rthv::sim {

/// SplitMix64 -- used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) -- fast, high-quality, tiny state.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01();

  /// Uniform double in (0, 1] -- safe as input to log().
  double uniform01_open_low();

  /// Uniform integer in [lo, hi] inclusive (unbiased via rejection).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_range(double lo, double hi);

  /// Exponentially distributed value with the given mean (inverse CDF).
  double exponential(double mean);

  /// Standard normal via Box-Muller (no state caching; two uniforms/call).
  double normal(double mean, double stddev);

 private:
  // The whole generator is this trivially copyable array, so checkpoints
  // copy it as one value; a restored copy continues the exact stream.
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace rthv::sim
