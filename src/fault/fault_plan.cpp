#include "fault/fault_plan.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace rthv::fault {

using sim::Duration;

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStorm: return "storm";
    case FaultKind::kSpurious: return "spurious";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDrift: return "drift";
    case FaultKind::kOverrun: return "overrun";
    case FaultKind::kFlood: return "flood";
    case FaultKind::kAdversary: return "adversary";
    case FaultKind::kCount_: break;
  }
  return "?";
}

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::int64_t parse_int(std::string_view value, std::size_t line) {
  bool negative = false;
  std::string_view digits = value;
  if (!digits.empty() && (digits.front() == '-' || digits.front() == '+')) {
    negative = digits.front() == '-';
    digits.remove_prefix(1);
  }
  if (digits.empty()) throw FaultPlanError(line, "expected a number, got '" + std::string(value) + "'");
  std::int64_t out = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      throw FaultPlanError(line, "expected a number, got '" + std::string(value) + "'");
    }
    out = out * 10 + (c - '0');
  }
  return negative ? -out : out;
}

std::uint64_t parse_u64(std::string_view value, std::size_t line) {
  const std::int64_t v = parse_int(value, line);
  if (v < 0) throw FaultPlanError(line, "value must be non-negative");
  return static_cast<std::uint64_t>(v);
}

struct Section {
  FaultKind kind;
  bool campaign = false;
};

Section parse_section(std::string_view name, std::size_t line) {
  if (name == "campaign") return Section{FaultKind::kCount_, true};
  for (int k = 0; k < static_cast<int>(FaultKind::kCount_); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == to_string(kind)) return Section{kind, false};
  }
  throw FaultPlanError(line, "unknown section '[" + std::string(name) + "]'");
}

/// Whether `key` is meaningful for sections of `kind`. Keys are checked
/// per kind, not just against the global vocabulary: `drift_ppm` under
/// `[storm]` is a typo, and a typo must not silently weaken a campaign.
bool key_allowed(FaultKind kind, std::string_view key) {
  if (key == "start_us" || key == "start_ms") return true;
  if (key == "source") return kind != FaultKind::kDrift;
  switch (kind) {
    case FaultKind::kStorm:
      return key == "bursts" || key == "burst_len" || key == "distance_us" ||
             key == "distance_ns" || key == "period_us" || key == "period_ms";
    case FaultKind::kSpurious:
      return key == "count" || key == "mean_us";
    case FaultKind::kDrop:
      return key == "count" || key == "period_us" || key == "period_ms";
    case FaultKind::kDrift:
      return key == "drift_ppm" || key == "jitter_us";
    case FaultKind::kOverrun:
      return key == "boundaries" || key == "lead_us";
    case FaultKind::kFlood:
      return key == "count" || key == "distance_us" || key == "distance_ns";
    case FaultKind::kAdversary:
      return key == "count" || key == "distance_us" || key == "distance_ns" ||
             key == "probe_every" || key == "probe_under_us" ||
             key == "probe_under_ns";
    case FaultKind::kCount_:
      break;
  }
  return false;
}

/// Dispatches one `key = value` line into the spec. Unknown keys (globally
/// or for the section's kind) are an error.
void apply_key(InjectionSpec& spec, std::string_view key, std::string_view value,
               std::size_t line) {
  if (!key_allowed(spec.kind, key)) {
    throw FaultPlanError(line, "key '" + std::string(key) + "' is not valid in [" +
                                   std::string(to_string(spec.kind)) + "]");
  }
  const auto u64 = [&] { return parse_u64(value, line); };
  const auto i64 = [&] { return parse_int(value, line); };
  if (key == "source") {
    spec.source = static_cast<std::uint32_t>(u64());
  } else if (key == "start_us") {
    spec.start = sim::TimePoint::at_us(i64());
  } else if (key == "start_ms") {
    spec.start = sim::TimePoint::origin() + Duration::ms(i64());
  } else if (key == "count" || key == "bursts" || key == "boundaries") {
    spec.count = u64();
  } else if (key == "burst_len") {
    spec.burst_len = u64();
  } else if (key == "distance_us") {
    spec.distance = Duration::us(i64());
  } else if (key == "distance_ns") {
    spec.distance = Duration::ns(i64());
  } else if (key == "period_us") {
    spec.period = Duration::us(i64());
  } else if (key == "period_ms") {
    spec.period = Duration::ms(i64());
  } else if (key == "mean_us") {
    spec.mean = Duration::us(i64());
  } else if (key == "drift_ppm") {
    spec.drift_ppm = i64();
  } else if (key == "jitter_us") {
    spec.jitter = Duration::us(i64());
  } else if (key == "lead_us") {
    spec.lead = Duration::us(i64());
  } else if (key == "probe_every") {
    spec.probe_every = u64();
  } else if (key == "probe_under_us") {
    spec.probe_under = Duration::us(i64());
  } else if (key == "probe_under_ns") {
    spec.probe_under = Duration::ns(i64());
  } else {
    throw FaultPlanError(line, "unknown key '" + std::string(key) + "'");
  }
}

void validate(const InjectionSpec& spec, std::size_t line) {
  switch (spec.kind) {
    case FaultKind::kStorm:
      if (spec.count == 0 || spec.burst_len == 0) {
        throw FaultPlanError(line, "[storm] needs bursts > 0 and burst_len > 0");
      }
      if (!spec.distance.is_positive() && spec.burst_len > 1) {
        throw FaultPlanError(line, "[storm] needs distance_us > 0 for multi-raise bursts");
      }
      if (!spec.period.is_positive() && spec.count > 1) {
        throw FaultPlanError(line, "[storm] needs period_ms > 0 for repeated bursts");
      }
      break;
    case FaultKind::kSpurious:
      if (spec.count == 0 || !spec.mean.is_positive()) {
        throw FaultPlanError(line, "[spurious] needs count > 0 and mean_us > 0");
      }
      break;
    case FaultKind::kDrop:
      if (spec.count == 0 || !spec.period.is_positive()) {
        throw FaultPlanError(line, "[drop] needs count > 0 and period_us/ms > 0");
      }
      break;
    case FaultKind::kDrift:
      if (spec.drift_ppm == 0 && !spec.jitter.is_positive()) {
        throw FaultPlanError(line, "[drift] needs drift_ppm != 0 or jitter_us > 0");
      }
      break;
    case FaultKind::kOverrun:
      if (spec.count == 0 || !spec.lead.is_positive()) {
        throw FaultPlanError(line, "[overrun] needs boundaries > 0 and lead_us > 0");
      }
      break;
    case FaultKind::kFlood:
      if (spec.count == 0 || !spec.distance.is_positive()) {
        throw FaultPlanError(line, "[flood] needs count > 0 and distance_us > 0");
      }
      break;
    case FaultKind::kAdversary:
      if (spec.count == 0) throw FaultPlanError(line, "[adversary] needs count > 0");
      break;
    case FaultKind::kCount_:
      break;
  }
}

}  // namespace

FaultPlan load_fault_plan(std::istream& in) {
  FaultPlan plan;
  InjectionSpec* current = nullptr;
  bool in_campaign = false;
  std::size_t section_line = 0;
  std::size_t line_no = 0;
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view text = trim(raw);
    if (const auto hash = text.find_first_of("#;"); hash != std::string_view::npos) {
      text = trim(text.substr(0, hash));
    }
    if (text.empty()) continue;

    if (text.front() == '[') {
      if (text.back() != ']') throw FaultPlanError(line_no, "unterminated section header");
      if (current != nullptr) validate(*current, section_line);
      const Section section = parse_section(trim(text.substr(1, text.size() - 2)), line_no);
      in_campaign = section.campaign;
      section_line = line_no;
      if (in_campaign) {
        current = nullptr;
      } else {
        plan.injections.push_back(InjectionSpec{});
        plan.injections.back().kind = section.kind;
        current = &plan.injections.back();
      }
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string_view::npos) {
      throw FaultPlanError(line_no, "expected 'key = value'");
    }
    const std::string_view key = trim(text.substr(0, eq));
    const std::string_view value = trim(text.substr(eq + 1));
    if (!in_campaign && current == nullptr) {
      throw FaultPlanError(line_no, "key outside of any section");
    }
    try {
      if (!in_campaign) {
        apply_key(*current, key, value, line_no);
      } else if (key == "horizon_ms") {
        plan.horizon = Duration::ms(parse_int(value, line_no));
      } else if (key == "horizon_s") {
        plan.horizon = Duration::s(parse_int(value, line_no));
      } else {
        throw FaultPlanError(line_no, "unknown key '" + std::string(key) + "'");
      }
    } catch (const std::overflow_error&) {
      throw FaultPlanError(line_no, std::string(key) + " overflows simulated time, got '" +
                                        std::string(value) + "'");
    }
  }
  if (current != nullptr) validate(*current, section_line);
  return plan;
}

FaultPlan load_fault_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open fault plan '" + path + "'");
  return load_fault_plan(in);
}

namespace {

void write_ns_key(std::ostream& out, const char* base, Duration d) {
  if (d.count_ns() % 1000 == 0) {
    out << base << "_us = " << d.count_ns() / 1000 << "\n";
  } else {
    out << base << "_ns = " << d.count_ns() << "\n";
  }
}

}  // namespace

void save_fault_plan(std::ostream& out, const FaultPlan& plan) {
  if (plan.horizon.is_positive()) {
    out << "[campaign]\nhorizon_ms = " << plan.horizon.count_ns() / 1'000'000 << "\n\n";
  }
  for (const auto& spec : plan.injections) {
    out << "[" << to_string(spec.kind) << "]\n";
    if (spec.kind != FaultKind::kDrift) out << "source = " << spec.source << "\n";
    if (spec.start != sim::TimePoint::origin()) {
      out << "start_us = " << spec.start.count_ns() / 1000 << "\n";
    }
    switch (spec.kind) {
      case FaultKind::kStorm:
        out << "bursts = " << spec.count << "\nburst_len = " << spec.burst_len << "\n";
        write_ns_key(out, "distance", spec.distance);
        out << "period_us = " << spec.period.count_ns() / 1000 << "\n";
        break;
      case FaultKind::kSpurious:
        out << "count = " << spec.count << "\nmean_us = " << spec.mean.count_ns() / 1000
            << "\n";
        break;
      case FaultKind::kDrop:
        out << "count = " << spec.count
            << "\nperiod_us = " << spec.period.count_ns() / 1000 << "\n";
        break;
      case FaultKind::kDrift:
        out << "drift_ppm = " << spec.drift_ppm
            << "\njitter_us = " << spec.jitter.count_ns() / 1000 << "\n";
        break;
      case FaultKind::kOverrun:
        out << "boundaries = " << spec.count
            << "\nlead_us = " << spec.lead.count_ns() / 1000 << "\n";
        break;
      case FaultKind::kFlood:
        out << "count = " << spec.count << "\n";
        write_ns_key(out, "distance", spec.distance);
        break;
      case FaultKind::kAdversary:
        out << "count = " << spec.count << "\n";
        if (spec.distance.is_positive()) write_ns_key(out, "distance", spec.distance);
        if (spec.probe_every != 0) {
          out << "probe_every = " << spec.probe_every << "\n";
          write_ns_key(out, "probe_under", spec.probe_under);
        }
        break;
      case FaultKind::kCount_:
        break;
    }
    out << "\n";
  }
}

}  // namespace rthv::fault
