// Text-file system configuration.
//
// Lets a complete hypervisor system be described without recompiling -- the
// format is INI-like with repeatable [partition] / [source] / [slot]
// sections:
//
//     # paper baseline with a d_min monitor
//     [platform]
//     cpu_freq_hz = 200000000
//     ctx_invalidate_instructions = 5000
//     ctx_writeback_cycles = 5000
//
//     [overheads]
//     monitor_instructions = 128
//     sched_manipulation_instructions = 877
//     tdma_tick_instructions = 100
//
//     [mode]
//     interposing = true
//
//     [partition]
//     name = partition-1
//     slot_us = 6000
//     background_load = true
//
//     [partition]
//     name = partition-2
//     slot_us = 6000
//
//     [partition]
//     name = housekeeping
//     slot_us = 2000
//     background_load = false
//
//     [source]
//     name = irq-under-test
//     subscriber = 1
//     c_top_us = 5
//     c_bottom_us = 40
//     monitor = delta_min        # none | delta_min | token_bucket | learning
//     d_min_us = 1444
//
//     [slot]                     # optional explicit schedule entries
//     partition = 0
//     length_us = 3000
//
// Unknown keys and malformed lines raise ConfigError with the line number,
// and so do values the system could not run: a negative cost budget or
// handler cost (c_top_us, c_bottom_us), a cpi_milli <= 0, a length or
// budget past the simulated time range (the cost model is converted once
// at load, as the hypervisor will), a non-positive d_min_us for a
// delta_min / token_bucket / window_count monitor, and a subscriber that
// names no partition.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "core/system_config.hpp"

namespace rthv::core {

class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::size_t line, const std::string& message)
      : std::runtime_error("config line " + std::to_string(line) + ": " + message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses a configuration from a stream. Throws ConfigError on malformed
/// input and std::invalid_argument on semantically invalid combinations.
[[nodiscard]] SystemConfig load_config(std::istream& is);

/// Parses a configuration file.
[[nodiscard]] SystemConfig load_config_file(const std::string& path);

/// Serializes a configuration in the same format (round-trippable for the
/// supported feature set).
void save_config(std::ostream& os, const SystemConfig& config);

}  // namespace rthv::core
