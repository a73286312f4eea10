#include "obs/exporters.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

namespace rthv::obs {

std::string_view to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kIrq: return "irq";
    case TraceCategory::kTopHandler: return "top";
    case TraceCategory::kMonitor: return "mon";
    case TraceCategory::kScheduler: return "sched";
    case TraceCategory::kInterpose: return "interpose";
    case TraceCategory::kBottom: return "bottom";
    case TraceCategory::kGuest: return "guest";
    case TraceCategory::kOther: return "other";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kCount_: break;
  }
  return "?";
}

std::string_view to_string(TracePoint p) {
  switch (p) {
    case TracePoint::kStart: return "start";
    case TracePoint::kSlotSwitch: return "slot-switch";
    case TracePoint::kSlotDeferred: return "slot-deferred";
    case TracePoint::kPartitionRestart: return "restart";
    case TracePoint::kTopEnter: return "top-enter";
    case TracePoint::kTopExit: return "top-exit";
    case TracePoint::kMonitorAdmit: return "mon-admit";
    case TracePoint::kMonitorDeny: return "mon-deny";
    case TracePoint::kInterposeDeny: return "interpose-deny";
    case TracePoint::kInterposeEnter: return "interpose-enter";
    case TracePoint::kInterposeReturn: return "interpose-return";
    case TracePoint::kInterposeExitDeferred: return "interpose-exit-deferred";
    case TracePoint::kIrqPush: return "irq-push";
    case TracePoint::kIrqPop: return "irq-pop";
    case TracePoint::kIrqDrop: return "irq-drop";
    case TracePoint::kBottomStart: return "bh-start";
    case TracePoint::kBottomResume: return "bh-resume";
    case TracePoint::kBottomEnd: return "bh-end";
    case TracePoint::kHealth: return "health";
    case TracePoint::kInterposeStart: return "interpose-start";
    case TracePoint::kFaultInject: return "fault-inject";
    case TracePoint::kDirectDeliver: return "direct-deliver";
    case TracePoint::kDirectComplete: return "direct-complete";
    case TracePoint::kInterposeCharge: return "interpose-charge";
    case TracePoint::kCount_: break;
  }
  return "?";
}

std::string_view to_string(InterposeDenyReason r) {
  switch (r) {
    case InterposeDenyReason::kMonitor: return "monitor";
    case InterposeDenyReason::kEngineBusy: return "engine-busy";
    case InterposeDenyReason::kGuestMasked: return "guest-masked";
    case InterposeDenyReason::kBacklog: return "backlog";
    case InterposeDenyReason::kCount_: break;
  }
  return "?";
}

namespace {

std::string id_name(const std::vector<std::string>& names, std::uint32_t id,
                    const char* prefix) {
  if (id < names.size()) return names[id];
  return prefix + std::to_string(id);
}

void write_payload(std::ostream& os, std::uint64_t v) {
  if (v == kNoValue) {
    os << '-';
  } else {
    os << v;
  }
}

}  // namespace

void render_text(std::ostream& os, const std::vector<TraceEvent>& events,
                 const TraceMeta* meta) {
  static const std::vector<std::string> kNoNames;
  const auto& pnames = meta != nullptr ? meta->partition_names : kNoNames;
  const auto& snames = meta != nullptr ? meta->source_names : kNoNames;
  for (const auto& e : events) {
    os << "t=" << e.time_ns << " " << to_string(e.point) << " ["
       << to_string(e.category) << "]";
    if (e.partition != kNoId) os << " part=" << id_name(pnames, e.partition, "partition");
    if (e.source != kNoId) os << " src=" << id_name(snames, e.source, "src");
    os << " a0=";
    write_payload(os, e.arg0);
    os << " a1=";
    write_payload(os, e.arg1);
    os << "\n";
  }
}

std::string render_text(const std::vector<TraceEvent>& events, const TraceMeta* meta) {
  std::ostringstream os;
  render_text(os, events, meta);
  return os.str();
}

namespace {

// Track layout of the Chrome export. Partition p occupies tid p+1; two
// synthetic tracks carry hypervisor-context and monitor-decision events.
constexpr std::uint32_t kHypervisorTid = 1000;
constexpr std::uint32_t kMonitorTid = 1001;

class ChromeWriter {
 public:
  ChromeWriter(std::ostream& os, const TraceMeta& meta) : os_(os), meta_(meta) {}

  void write(const std::vector<TraceEvent>& events, std::uint64_t dropped) {
    os_ << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": { \"dropped_events\": "
        << dropped << " },\n\"traceEvents\": [\n";
    emit_metadata(events);
    for (const auto& e : events) handle(e);
    // Balance every span still open when the stream ends.
    for (auto& [tid, stack] : stacks_) {
      while (!stack.empty()) emit_end(tid);
    }
    os_ << "\n]\n}\n";
  }

 private:
  using Stack = std::vector<std::string>;

  void handle(const TraceEvent& e) {
    last_ns_ = e.time_ns;
    switch (e.point) {
      case TracePoint::kStart:
      case TracePoint::kSlotSwitch:
      case TracePoint::kInterposeEnter:
      case TracePoint::kInterposeReturn:
        switch_context(e);
        break;
      case TracePoint::kTopEnter:
        emit_begin(kHypervisorTid, "top:" + source_name(e.source));
        break;
      case TracePoint::kTopExit:
        if (!stacks_[kHypervisorTid].empty()) emit_end(kHypervisorTid);
        break;
      case TracePoint::kBottomStart:
      case TracePoint::kBottomResume: {
        // A resume after an IRQ preemption lands while the span from
        // kBottomStart is still open; only open a new span when the handler
        // re-enters a context whose spans were closed by a switch.
        const std::uint32_t tid = partition_tid(e.partition);
        if (!bh_open(tid)) emit_begin(tid, "bh:" + source_name(e.source));
        break;
      }
      case TracePoint::kBottomEnd: {
        const std::uint32_t tid = partition_tid(e.partition);
        if (!bh_open(tid)) emit_begin(tid, "bh:" + source_name(e.source));
        emit_end(tid);
        break;
      }
      case TracePoint::kMonitorAdmit:
      case TracePoint::kMonitorDeny:
      case TracePoint::kInterposeDeny:
      case TracePoint::kInterposeStart:
      case TracePoint::kInterposeCharge:
        emit_instant(kMonitorTid, e);
        break;
      case TracePoint::kSlotDeferred:
      case TracePoint::kPartitionRestart:
      case TracePoint::kInterposeExitDeferred:
      case TracePoint::kIrqPush:
      case TracePoint::kIrqPop:
      case TracePoint::kIrqDrop:
      case TracePoint::kHealth:
      case TracePoint::kFaultInject:
      case TracePoint::kDirectDeliver:
      case TracePoint::kDirectComplete:
      case TracePoint::kCount_:
        emit_instant(kHypervisorTid, e);
        break;
    }
  }

  /// A context change closes everything still open on the departing
  /// partition track (a bottom handler cut off by its budget, then the
  /// context span itself) and opens the new partition's context span.
  void switch_context(const TraceEvent& e) {
    if (active_tid_ != kNoId) {
      while (!stacks_[active_tid_].empty()) emit_end(active_tid_);
    }
    active_tid_ = partition_tid(e.partition);
    emit_begin(active_tid_, partition_name(e.partition));
  }

  [[nodiscard]] bool bh_open(std::uint32_t tid) {
    const Stack& s = stacks_[tid];
    return !s.empty() && s.back().starts_with("bh:");
  }

  [[nodiscard]] static std::uint32_t partition_tid(std::uint32_t partition) {
    return partition == kNoId ? kHypervisorTid : partition + 1;
  }

  [[nodiscard]] std::string partition_name(std::uint32_t id) const {
    return id_name(meta_.partition_names, id, "partition");
  }
  [[nodiscard]] std::string source_name(std::uint32_t id) const {
    return id_name(meta_.source_names, id, "src");
  }

  void emit_metadata(const std::vector<TraceEvent>& events) {
    event_prelude();
    os_ << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"rthv\"}}";
    // Name every partition track that can appear, plus the synthetic ones.
    std::map<std::uint32_t, std::string> threads;
    threads[kHypervisorTid] = "hypervisor";
    threads[kMonitorTid] = "monitor";
    for (const auto& e : events) {
      if (e.partition != kNoId) {
        threads.emplace(partition_tid(e.partition), partition_name(e.partition));
      }
    }
    for (const auto& [tid, name] : threads) {
      event_prelude();
      os_ << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
          << ", \"name\": \"thread_name\", \"args\": {\"name\": \"" << name << "\"}}";
    }
  }

  void emit_begin(std::uint32_t tid, std::string name) {
    event_prelude();
    os_ << "{\"ph\": \"B\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": ";
    write_ts();
    os_ << ", \"name\": \"" << name << "\"}";
    stacks_[tid].push_back(std::move(name));
  }

  void emit_end(std::uint32_t tid) {
    stacks_[tid].pop_back();
    event_prelude();
    os_ << "{\"ph\": \"E\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": ";
    write_ts();
    os_ << "}";
  }

  void emit_instant(std::uint32_t tid, const TraceEvent& e) {
    event_prelude();
    os_ << "{\"ph\": \"i\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": ";
    write_ts();
    os_ << ", \"s\": \"t\", \"name\": \"" << to_string(e.point) << "\", \"args\": {";
    bool first = true;
    const auto arg = [&](const char* key, std::uint64_t v) {
      if (v == kNoValue) return;
      os_ << (first ? "" : ", ") << "\"" << key << "\": " << v;
      first = false;
    };
    if (e.partition != kNoId) {
      os_ << "\"partition\": \"" << partition_name(e.partition) << "\"";
      first = false;
    }
    if (e.source != kNoId) {
      os_ << (first ? "" : ", ") << "\"source\": \"" << source_name(e.source) << "\"";
      first = false;
    }
    switch (e.point) {
      case TracePoint::kMonitorAdmit:
      case TracePoint::kMonitorDeny:
        arg("distance_ns", e.arg0);
        arg("seq", e.arg1);
        break;
      case TracePoint::kInterposeDeny:
        os_ << (first ? "" : ", ") << "\"reason\": \""
            << to_string(static_cast<InterposeDenyReason>(e.arg0)) << "\"";
        first = false;
        arg("seq", e.arg1);
        break;
      case TracePoint::kHealth:
        arg("kind", e.arg0);
        break;
      default:
        arg("a0", e.arg0);
        arg("a1", e.arg1);
        break;
    }
    os_ << "}}";
  }

  /// Comma/newline separation between array entries.
  void event_prelude() {
    if (!first_event_) os_ << ",\n";
    first_event_ = false;
  }

  /// ts is in microseconds; emit ns with exact decimal microsecond form.
  void write_ts() {
    os_ << last_ns_ / 1000 << "." << static_cast<char>('0' + (last_ns_ / 100) % 10)
        << static_cast<char>('0' + (last_ns_ / 10) % 10)
        << static_cast<char>('0' + last_ns_ % 10);
  }

  std::ostream& os_;
  const TraceMeta& meta_;
  std::map<std::uint32_t, Stack> stacks_;
  std::uint32_t active_tid_ = kNoId;
  std::int64_t last_ns_ = 0;
  bool first_event_ = true;
};

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const TraceMeta& meta, std::uint64_t dropped) {
  ChromeWriter(os, meta).write(events, dropped);
}

}  // namespace rthv::obs
