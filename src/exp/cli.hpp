// Tiny command-line parsing shared by the bench drivers.
//
// Recognises `--jobs N`, `--jobs=N` and `--jobs auto` (hardware
// concurrency), `--trace-out PATH` (Chrome trace-event JSON, Perfetto
// loadable), `--metrics-out PATH` (metrics JSON; `.txt` suffix selects the
// text dump), `--fault-plan PATH` (fault-injection plan, see
// src/fault/fault_plan.hpp) and `--chunk N` (largest number of run indices
// per work-stealing chunk, see exp/batch_runner.hpp); everything else is
// returned as positional arguments in order. Keeps the drivers' existing
// positional interfaces (e.g. an export directory) intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rthv::exp {

struct CliOptions {
  std::size_t jobs = 1;
  std::string trace_out;    // empty = tracing off
  std::string metrics_out;  // empty = no metrics dump
  std::string fault_plan;   // empty = no fault injection
  std::size_t chunk = 16;   // work-stealing chunk size (run indices)
  std::vector<std::string> positional;
};

/// Parses argv (past argv[0]). Exits with code 2 and a usage message on
/// stderr for a malformed --jobs or --chunk value.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv);

/// Parses a decimal integer in [min, max]. nullopt for an empty value, a
/// non-digit character (so any sign), or a value outside the range.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(
    std::string_view value, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Parses a positive decimal count. nullopt for an empty value, a non-digit
/// character, zero, or a value that does not fit in size_t.
[[nodiscard]] std::optional<std::size_t> parse_count(std::string_view value);

/// parse_count(), plus `auto` for one job per hardware thread.
[[nodiscard]] std::optional<std::size_t> parse_jobs(std::string_view value);

}  // namespace rthv::exp
