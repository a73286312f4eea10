// ARINC653-style sampling ports.
//
// Complementing the queueing IPC (IpcRouter), a sampling port carries a
// single message that every write overwrites; reads do not consume and any
// partition may read. Each port declares a refresh period: a read returns
// the value together with a freshness verdict (age <= refresh period), the
// mechanism avionics software uses to detect stale producers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hv/types.hpp"

namespace rthv::hv {

using PortId = std::uint32_t;

struct PortSample {
  PartitionId writer = kInvalidPartition;
  std::uint64_t payload = 0;
  sim::TimePoint written_at;
  bool fresh = false;  // age <= refresh period at read time
};

class SamplingPortBus {
 public:
  /// Creates a port; `refresh_period` defines the freshness horizon.
  PortId create_port(std::string name, sim::Duration refresh_period);

  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] const std::string& port_name(PortId port) const;

  /// Overwrites the port's value.
  void write(PortId port, PartitionId writer, std::uint64_t payload, sim::TimePoint now);

  /// Reads without consuming; std::nullopt if never written.
  [[nodiscard]] std::optional<PortSample> read(PortId port, sim::TimePoint now) const;

  [[nodiscard]] std::uint64_t writes(PortId port) const;
  [[nodiscard]] std::uint64_t reads(PortId port) const;

  /// Checkpoint of each port's mutable value/counter state (port names and
  /// refresh periods are configuration).
  template <class Ar>
  void state(Ar& ar) {
    ar.expect(ports_.size(), "SamplingPortBus port count");
    for (Port& p : ports_) {
      ar(p.written, p.writer, p.payload, p.written_at, p.write_count, p.read_count);
    }
  }

 private:
  struct Port {
    std::string name;
    sim::Duration refresh;
    bool written = false;
    PartitionId writer = kInvalidPartition;
    std::uint64_t payload = 0;
    sim::TimePoint written_at;
    std::uint64_t write_count = 0;
    mutable std::uint64_t read_count = 0;
  };
  std::vector<Port> ports_;
};

}  // namespace rthv::hv
