// Inter-partition communication (Fig. 1's "IPC" arrow).
//
// A minimal hypervisor-mediated mailbox: bounded FIFO of fixed-size
// messages per partition. Guests invoke it through the hypervisor's
// hypercall interface only while their partition context is active, which
// preserves spatial isolation (no shared memory between partitions).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "hv/types.hpp"

namespace rthv::hv {

struct IpcMessage {
  PartitionId sender = kInvalidPartition;
  std::uint64_t tag = 0;
  std::uint64_t payload = 0;
  sim::TimePoint sent_at;
};

class IpcRouter {
 public:
  IpcRouter(std::uint32_t num_partitions, std::size_t mailbox_capacity = 32);

  /// Delivers a message to `dst`'s mailbox; false if the mailbox is full.
  bool send(PartitionId src, PartitionId dst, std::uint64_t tag, std::uint64_t payload,
            sim::TimePoint now);

  /// Pops the oldest message for `dst`, if any.
  std::optional<IpcMessage> receive(PartitionId dst);

  [[nodiscard]] std::size_t pending(PartitionId dst) const;
  [[nodiscard]] std::uint64_t sent_total() const { return sent_; }
  [[nodiscard]] std::uint64_t dropped_total() const { return dropped_; }

  /// Checkpoint of all mailboxes and counters.
  template <class Ar>
  void state(Ar& ar) {
    ar.expect(mailboxes_.size(), "IPC mailbox count");
    for (auto& box : mailboxes_) ar.vec(box);
    ar(sent_, dropped_);
  }

 private:
  std::size_t capacity_;  // lint: transient(structural mailbox bound fixed at construction)
  std::vector<std::deque<IpcMessage>> mailboxes_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace rthv::hv
