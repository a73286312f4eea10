#include "core/config_loader.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "core/checked.hpp"
#include "hv/overhead_model.hpp"

namespace rthv::core {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::int64_t parse_int(std::size_t line, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const std::int64_t v = std::stoll(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument("trailing garbage");
    return v;
  } catch (const std::exception&) {
    throw ConfigError(line, "expected an integer, got '" + value + "'");
  }
}

/// A cost budget (instructions or cycles): any non-negative integer.
std::uint64_t parse_budget(std::size_t line, const std::string& key,
                           const std::string& value) {
  const std::int64_t v = parse_int(line, value);
  if (v < 0) throw ConfigError(line, key + " must not be negative, got " + value);
  return static_cast<std::uint64_t>(v);
}

/// A microsecond length; values past the simulated time range are errors.
sim::Duration parse_us(std::size_t line, const std::string& key,
                       const std::string& value) {
  const std::int64_t us = parse_int(line, value);
  try {
    return sim::Duration::us(us);
  } catch (const std::overflow_error&) {
    throw ConfigError(line, key + " overflows simulated time, got " + value);
  }
}

/// A handler cost in microseconds: a non-negative parse_us().
sim::Duration parse_cost_us(std::size_t line, const std::string& key,
                            const std::string& value) {
  const sim::Duration cost = parse_us(line, key, value);
  if (cost.is_negative()) throw ConfigError(line, key + " must not be negative, got " + value);
  return cost;
}

std::uint32_t parse_mask(std::size_t line, const std::string& value) {
  // Color masks read naturally in hex; accept any std::stoul base-0 prefix.
  try {
    std::size_t consumed = 0;
    const unsigned long v = std::stoul(value, &consumed, 0);
    if (consumed != value.size()) throw std::invalid_argument("trailing garbage");
    if (v > 0xFFFF'FFFFul) throw std::invalid_argument("mask exceeds 32 bits");
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    throw ConfigError(line, "expected a 32-bit mask, got '" + value + "'");
  }
}

bool parse_bool(std::size_t line, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw ConfigError(line, "expected a boolean, got '" + value + "'");
}

MonitorKind parse_monitor(std::size_t line, const std::string& value) {
  if (value == "none") return MonitorKind::kNone;
  if (value == "delta_min") return MonitorKind::kDeltaMin;
  if (value == "delta_vector") return MonitorKind::kDeltaVector;
  if (value == "learning") return MonitorKind::kLearning;
  if (value == "token_bucket") return MonitorKind::kTokenBucket;
  if (value == "window_count") return MonitorKind::kWindowCount;
  throw ConfigError(line, "unknown monitor kind '" + value + "'");
}

mon::DeltaVector parse_delta_vector(std::size_t line, const std::string& value) {
  // Space-separated microsecond values.
  mon::DeltaVector out;
  std::istringstream ss(value);
  std::string token;
  while (ss >> token) {
    out.push_back(parse_us(line, "delta_vector_us", token));
  }
  if (out.empty()) throw ConfigError(line, "empty delta vector");
  return out;
}

/// Monitors whose d_min (window, fill interval) must be positive.
bool needs_d_min(MonitorKind kind) {
  return kind == MonitorKind::kDeltaMin || kind == MonitorKind::kTokenBucket ||
         kind == MonitorKind::kWindowCount;
}

/// Where a [source]'s checked keys were set (the section header when unset).
struct SourceLines {
  std::size_t subscriber, c_bottom, d_min;
};

}  // namespace

SystemConfig load_config(std::istream& is) {
  SystemConfig cfg;
  cfg.partitions.clear();
  cfg.sources.clear();

  enum class Section {
    kNone, kPlatform, kOverheads, kMode, kPartition, kSource, kSlot,
    kInterconnect, kCore,
  };
  Section section = Section::kNone;
  std::size_t line_no = 0;
  std::string line;
  std::map<std::string, std::size_t, std::less<>> budget_lines;  // key -> line
  std::vector<SourceLines> source_lines;

  auto current_partition = [&]() -> PartitionSpec& {
    if (cfg.partitions.empty()) throw ConfigError(line_no, "no [partition] open");
    return cfg.partitions.back();
  };
  auto current_source = [&]() -> IrqSourceSpec& {
    if (cfg.sources.empty()) throw ConfigError(line_no, "no [source] open");
    return cfg.sources.back();
  };
  auto current_slot = [&]() -> ScheduleSlot& {
    if (cfg.schedule.empty()) throw ConfigError(line_no, "no [slot] open");
    return cfg.schedule.back();
  };

  while (std::getline(is, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') throw ConfigError(line_no, "unterminated section header");
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name == "platform") {
        section = Section::kPlatform;
      } else if (name == "overheads") {
        section = Section::kOverheads;
      } else if (name == "mode") {
        section = Section::kMode;
      } else if (name == "partition") {
        section = Section::kPartition;
        cfg.partitions.push_back(PartitionSpec{"", sim::Duration::zero(), true});
      } else if (name == "source") {
        section = Section::kSource;
        cfg.sources.push_back(IrqSourceSpec{});
        source_lines.push_back({line_no, line_no, line_no});
      } else if (name == "slot") {
        section = Section::kSlot;
        cfg.schedule.push_back(ScheduleSlot{0, sim::Duration::zero()});
      } else if (name == "interconnect") {
        section = Section::kInterconnect;
      } else if (name == "core") {
        // One [core] section per core, in core-id order: regulation budget.
        section = Section::kCore;
        cfg.interconnect.budgets.push_back(hw::CoreBandwidthBudget{});
      } else {
        throw ConfigError(line_no, "unknown section [" + name + "]");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) throw ConfigError(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) throw ConfigError(line_no, "empty key or value");

    switch (section) {
      case Section::kNone:
        throw ConfigError(line_no, "key outside any section");
      case Section::kPlatform:
        if (key == "cpu_freq_hz") {
          // A cycle lasts whole picoseconds: none at 0 Hz, 0 ps above 1 THz.
          const std::int64_t hz = parse_int(line_no, value);
          if (hz <= 0 || hz > 1'000'000'000'000) {
            throw ConfigError(line_no, "cpu_freq_hz out of range (1 .. 10^12 Hz), got " + value);
          }
          cfg.platform.cpu_freq_hz = static_cast<std::uint64_t>(hz);
        } else if (key == "cpi_milli") {
          const std::int64_t cpi = parse_int(line_no, value);
          if (cpi <= 0 || cpi > std::numeric_limits<std::uint32_t>::max()) {
            throw ConfigError(line_no, "cpi_milli out of range (1 .. 2^32-1), got " + value);
          }
          cfg.platform.cpi_milli = static_cast<std::uint32_t>(cpi);
        } else if (key == "ctx_invalidate_instructions") {
          cfg.platform.ctx_invalidate_instructions = parse_budget(line_no, key, value);
          budget_lines[key] = line_no;
        } else if (key == "ctx_writeback_cycles") {
          cfg.platform.ctx_writeback_cycles = hw::Cycles{parse_budget(line_no, key, value)};
          budget_lines[key] = line_no;
        } else if (key == "num_irq_lines") {
          cfg.platform.num_irq_lines = static_cast<std::uint32_t>(parse_int(line_no, value));
        } else {
          throw ConfigError(line_no, "unknown platform key '" + key + "'");
        }
        break;
      case Section::kOverheads:
        if (key == "monitor_instructions") {
          cfg.overheads.monitor_instructions = parse_budget(line_no, key, value);
        } else if (key == "sched_manipulation_instructions") {
          cfg.overheads.sched_manipulation_instructions = parse_budget(line_no, key, value);
        } else if (key == "tdma_tick_instructions") {
          cfg.overheads.tdma_tick_instructions = parse_budget(line_no, key, value);
        } else {
          throw ConfigError(line_no, "unknown overheads key '" + key + "'");
        }
        budget_lines[key] = line_no;
        break;
      case Section::kMode:
        if (key == "interposing") {
          cfg.mode = parse_bool(line_no, value) ? hv::TopHandlerMode::kInterposing
                                                : hv::TopHandlerMode::kOriginal;
        } else if (key == "background_quantum_us") {
          cfg.background_quantum = parse_us(line_no, key, value);
        } else if (key == "irq_queue_capacity") {
          cfg.irq_queue_capacity = static_cast<std::size_t>(parse_int(line_no, value));
        } else {
          throw ConfigError(line_no, "unknown mode key '" + key + "'");
        }
        break;
      case Section::kInterconnect:
        if (key == "cores") {
          cfg.interconnect.num_cores = static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "colors") {
          cfg.interconnect.num_colors = static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "epoch_us") {
          cfg.interconnect.epoch = parse_us(line_no, key, value);
        } else if (key == "base_access_ns") {
          cfg.interconnect.base_access_ns =
              static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "conflict_access_ns") {
          cfg.interconnect.conflict_access_ns =
              static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "half_load_accesses") {
          cfg.interconnect.half_load_accesses =
              static_cast<std::uint64_t>(parse_int(line_no, value));
        } else if (key == "route_latency_us") {
          cfg.interconnect.route_latency = parse_us(line_no, key, value);
        } else if (key == "route_accesses") {
          cfg.interconnect.route_accesses =
              static_cast<std::uint64_t>(parse_int(line_no, value));
        } else {
          throw ConfigError(line_no, "unknown interconnect key '" + key + "'");
        }
        break;
      case Section::kCore:
        if (cfg.interconnect.budgets.empty()) {
          throw ConfigError(line_no, "no [core] open");
        }
        if (key == "budget_accesses") {
          cfg.interconnect.budgets.back().budget_accesses =
              static_cast<std::uint64_t>(parse_int(line_no, value));
        } else if (key == "replenish_us") {
          cfg.interconnect.budgets.back().replenish_period =
              parse_us(line_no, key, value);
        } else {
          throw ConfigError(line_no, "unknown core key '" + key + "'");
        }
        break;
      case Section::kPartition:
        if (key == "name") {
          current_partition().name = value;
        } else if (key == "slot_us") {
          const sim::Duration slot = parse_us(line_no, key, value);
          if (!slot.is_positive()) {
            throw ConfigError(line_no, "slot_us out of range (must be positive), got " + value);
          }
          current_partition().slot_length = slot;
        } else if (key == "background_load") {
          current_partition().background_load = parse_bool(line_no, value);
        } else if (key == "core") {
          current_partition().core = static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "color_mask") {
          current_partition().color_mask = parse_mask(line_no, value);
        } else if (key == "mem_accesses_per_us") {
          current_partition().mem_accesses_per_us =
              static_cast<std::uint64_t>(parse_int(line_no, value));
        } else {
          throw ConfigError(line_no, "unknown partition key '" + key + "'");
        }
        break;
      case Section::kSource:
        if (key == "name") {
          current_source().name = value;
        } else if (key == "subscriber") {
          const std::int64_t p = parse_int(line_no, value);
          if (p < 0 || p > std::numeric_limits<std::uint32_t>::max()) {
            throw ConfigError(line_no, "subscriber out of range, got " + value);
          }
          current_source().subscriber = static_cast<std::uint32_t>(p);
          source_lines.back().subscriber = line_no;
        } else if (key == "c_top_us") {
          current_source().c_top = parse_cost_us(line_no, key, value);
        } else if (key == "c_bottom_us") {
          current_source().c_bottom = parse_cost_us(line_no, key, value);
          source_lines.back().c_bottom = line_no;
        } else if (key == "monitor") {
          current_source().monitor = parse_monitor(line_no, value);
        } else if (key == "d_min_us") {
          current_source().d_min = parse_us(line_no, key, value);
          source_lines.back().d_min = line_no;
        } else if (key == "delta_vector_us") {
          current_source().delta_vector = parse_delta_vector(line_no, value);
        } else if (key == "learning_depth") {
          current_source().learning_depth =
              static_cast<std::size_t>(parse_int(line_no, value));
        } else if (key == "learning_events") {
          current_source().learning_events =
              static_cast<std::uint64_t>(parse_int(line_no, value));
        } else if (key == "bucket_depth") {
          current_source().bucket_depth =
              static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "window_events") {
          current_source().window_events =
              static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "direct_delivery") {
          current_source().direct_delivery = parse_bool(line_no, value);
        } else if (key == "core") {
          current_source().core = static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "bh_accesses") {
          current_source().bh_accesses =
              static_cast<std::uint64_t>(parse_int(line_no, value));
        } else {
          throw ConfigError(line_no, "unknown source key '" + key + "'");
        }
        break;
      case Section::kSlot:
        if (key == "partition") {
          current_slot().partition = static_cast<std::uint32_t>(parse_int(line_no, value));
        } else if (key == "length_us") {
          current_slot().length = parse_us(line_no, key, value);
        } else {
          throw ConfigError(line_no, "unknown slot key '" + key + "'");
        }
        break;
    }
  }

  // Semantic validation (beyond what HypervisorSystem checks itself).
  if (cfg.partitions.empty()) {
    throw std::invalid_argument("config defines no partitions");
  }
  for (std::size_t i = 0; i < cfg.partitions.size(); ++i) {
    if (cfg.partitions[i].name.empty()) {
      throw std::invalid_argument("partition " + std::to_string(i) + " has no name");
    }
    if (cfg.schedule.empty() && !cfg.partitions[i].slot_length.is_positive()) {
      throw std::invalid_argument("partition '" + cfg.partitions[i].name +
                                  "' has no slot_us and no [slot] entries exist");
    }
  }
  for (const auto& s : cfg.schedule) {
    if (!s.length.is_positive()) {
      throw std::invalid_argument("[slot] entry without a positive length_us");
    }
  }
  if (cfg.num_cores() == 0) {
    throw std::invalid_argument("[interconnect] cores must be >= 1");
  }
  for (const auto& p : cfg.partitions) {
    if (p.core >= cfg.num_cores()) {
      throw std::invalid_argument("partition '" + p.name + "' assigned to core " +
                                  std::to_string(p.core) + " of " +
                                  std::to_string(cfg.num_cores()));
    }
  }
  for (const auto& s : cfg.sources) {
    if (s.core >= cfg.num_cores()) {
      throw std::invalid_argument("source '" + s.name + "' originates on core " +
                                  std::to_string(s.core) + " of " +
                                  std::to_string(cfg.num_cores()));
    }
  }

  // Convert the cost model once, as the hypervisor will, so a budget past
  // the simulated time range is reported at its key instead of mid-run.
  const auto oh = [&] {
    try {
      return hv::OverheadModel(cfg.platform, cfg.overheads);
    } catch (const hv::BudgetOverflow& e) {
      const auto it = budget_lines.find(e.key());
      throw ConfigError(it == budget_lines.end() ? line_no : it->second, e.what());
    }
  }();
  for (std::size_t i = 0; i < cfg.sources.size(); ++i) {
    const IrqSourceSpec& s = cfg.sources[i];
    const SourceLines& at = source_lines[i];
    if (s.subscriber >= cfg.partitions.size()) {
      throw ConfigError(at.subscriber, "subscriber " + std::to_string(s.subscriber) +
                                           " out of range (" +
                                           std::to_string(cfg.partitions.size()) +
                                           " partitions)");
    }
    if (needs_d_min(s.monitor) && !s.d_min.is_positive()) {
      throw ConfigError(at.d_min, "d_min_us must be positive for this monitor");
    }
    // The hypervisor charges Eq. 13's C'_BH per interposition.
    try {
      (void)oh.effective_bottom_cost(s.c_bottom);
    } catch (const ArithmeticError&) {
      throw ConfigError(at.c_bottom,
                        "c_bottom_us + C_sched + 2 C_ctx overflows simulated time");
    }
  }
  return cfg;
}

SystemConfig load_config_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open config file: " + path);
  return load_config(is);
}

void save_config(std::ostream& os, const SystemConfig& cfg) {
  os << "[platform]\n"
     << "cpu_freq_hz = " << cfg.platform.cpu_freq_hz << "\n"
     << "cpi_milli = " << cfg.platform.cpi_milli << "\n"
     << "ctx_invalidate_instructions = " << cfg.platform.ctx_invalidate_instructions << "\n"
     << "ctx_writeback_cycles = " << cfg.platform.ctx_writeback_cycles.count() << "\n"
     << "num_irq_lines = " << cfg.platform.num_irq_lines << "\n\n";
  os << "[overheads]\n"
     << "monitor_instructions = " << cfg.overheads.monitor_instructions << "\n"
     << "sched_manipulation_instructions = "
     << cfg.overheads.sched_manipulation_instructions << "\n"
     << "tdma_tick_instructions = " << cfg.overheads.tdma_tick_instructions << "\n\n";
  os << "[mode]\n"
     << "interposing = "
     << (cfg.mode == hv::TopHandlerMode::kInterposing ? "true" : "false") << "\n"
     << "background_quantum_us = " << cfg.background_quantum.count_ns() / 1000 << "\n"
     << "irq_queue_capacity = " << cfg.irq_queue_capacity << "\n";
  // Multi-core sections are emitted only when in use, so single-core
  // configs round-trip byte-identically with older versions.
  if (cfg.num_cores() > 1 || !cfg.interconnect.budgets.empty()) {
    const hw::InterconnectConfig& ic = cfg.interconnect;
    os << "\n[interconnect]\n"
       << "cores = " << ic.num_cores << "\n"
       << "colors = " << ic.num_colors << "\n"
       << "epoch_us = " << ic.epoch.count_ns() / 1000 << "\n"
       << "base_access_ns = " << ic.base_access_ns << "\n"
       << "conflict_access_ns = " << ic.conflict_access_ns << "\n"
       << "half_load_accesses = " << ic.half_load_accesses << "\n"
       << "route_latency_us = " << ic.route_latency.count_ns() / 1000 << "\n"
       << "route_accesses = " << ic.route_accesses << "\n";
    for (const auto& b : ic.budgets) {
      os << "\n[core]\n"
         << "budget_accesses = " << b.budget_accesses << "\n"
         << "replenish_us = " << b.replenish_period.count_ns() / 1000 << "\n";
    }
  }
  for (const auto& p : cfg.partitions) {
    os << "\n[partition]\n"
       << "name = " << p.name << "\n";
    // Partitions of an explicit [slot] schedule may have no slot length.
    if (p.slot_length.is_positive()) os << "slot_us = " << p.slot_length.count_ns() / 1000 << "\n";
    os << "background_load = " << (p.background_load ? "true" : "false") << "\n";
    if (p.core != 0) os << "core = " << p.core << "\n";
    if (p.color_mask != 0xFFFF'FFFFu) {
      os << "color_mask = 0x" << std::hex << p.color_mask << std::dec << "\n";
    }
    if (p.mem_accesses_per_us != 0) {
      os << "mem_accesses_per_us = " << p.mem_accesses_per_us << "\n";
    }
  }
  for (const auto& s : cfg.sources) {
    os << "\n[source]\n"
       << "name = " << s.name << "\n"
       << "subscriber = " << s.subscriber << "\n"
       << "c_top_us = " << s.c_top.count_ns() / 1000 << "\n"
       << "c_bottom_us = " << s.c_bottom.count_ns() / 1000 << "\n";
    switch (s.monitor) {
      case MonitorKind::kNone:
        os << "monitor = none\n";
        break;
      case MonitorKind::kDeltaMin:
        os << "monitor = delta_min\n"
           << "d_min_us = " << s.d_min.count_ns() / 1000 << "\n";
        break;
      case MonitorKind::kDeltaVector: {
        os << "monitor = delta_vector\n"
           << "delta_vector_us =";
        for (const auto d : s.delta_vector) os << " " << d.count_ns() / 1000;
        os << "\n";
        break;
      }
      case MonitorKind::kLearning: {
        os << "monitor = learning\n"
           << "learning_depth = " << s.learning_depth << "\n"
           << "learning_events = " << s.learning_events << "\n";
        if (!s.delta_vector.empty()) {
          os << "delta_vector_us =";
          for (const auto d : s.delta_vector) os << " " << d.count_ns() / 1000;
          os << "\n";
        }
        break;
      }
      case MonitorKind::kTokenBucket:
        os << "monitor = token_bucket\n"
           << "d_min_us = " << s.d_min.count_ns() / 1000 << "\n"
           << "bucket_depth = " << s.bucket_depth << "\n";
        break;
      case MonitorKind::kWindowCount:
        os << "monitor = window_count\n"
           << "d_min_us = " << s.d_min.count_ns() / 1000 << "\n"
           << "window_events = " << s.window_events << "\n";
        break;
    }
    if (s.direct_delivery) os << "direct_delivery = true\n";
    if (s.core != 0) os << "core = " << s.core << "\n";
    if (s.bh_accesses != 0) os << "bh_accesses = " << s.bh_accesses << "\n";
  }
  for (const auto& s : cfg.schedule) {
    os << "\n[slot]\n"
       << "partition = " << s.partition << "\n"
       << "length_us = " << s.length.count_ns() / 1000 << "\n";
  }
}

}  // namespace rthv::core
