#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/frame_ring.h"
#include "sim/function_ref.h"
#include "sim/time.h"

namespace kwikr::net {

/// Unidirectional wired link with a serialization rate, propagation delay and
/// a drop-tail FIFO queue. Models the paper's wired segment between the
/// remote peer / server and the Wi-Fi AP. Use two instances for full duplex.
/// Send computes `depart = max(now, previous depart) + serialization`, so an
/// unfaulted link costs one event per packet (its "net.wire_prop" arrival);
/// a fault hook adds a "net.wire_tx" event at the departure to consult it.
/// A departure at the current tick counts as already gone, so a Send at that
/// tick finds its queue slot free whatever the order of same-tick events
/// (DESIGN.md §11 on how this differs from a two-event pipeline).
class WiredLink {
 public:
  /// Per-packet delivery callback. Non-owning (kwikr::FunctionRef): bind a
  /// member function or a named long-lived callable — see wifi::Channel's
  /// hook lifetime note.
  using Receiver = kwikr::FunctionRef<void(Packet&&)>;

  struct Config {
    std::int64_t rate_bps = 100'000'000;       ///< 100 Mbps default.
    sim::Duration propagation = sim::Millis(1);
    std::size_t queue_capacity_packets = 1000;
  };

  WiredLink(sim::EventLoop& loop, Config config, Receiver receiver);

  /// Enqueues a packet; drops (and counts) when the queue is full.
  void Send(Packet packet);

  /// Fault-injection verdict for one packet, consulted after serialization
  /// (see faults::FaultInjector). `drop` loses the packet on the wire;
  /// `extra_delay` adds propagation latency to this packet only, letting
  /// later packets overtake it (WAN reordering/jitter).
  struct LinkFault {
    bool drop = false;
    sim::Duration extra_delay = 0;
  };
  using FaultHook = std::function<LinkFault(const Packet& packet)>;
  void SetFaultHook(FaultHook hook);

  /// Queued packets: accepted ones whose departure is still in the future
  /// (drops the departed ones from the ring first).
  [[nodiscard]] std::size_t queue_length() {
    PruneDeparted();
    return departures_.size();
  }
  /// Packets scheduled to arrive: counted at Send on an unfaulted link, at
  /// the departure once the hook passes them on a faulted one.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Packets the fault hook lost on the wire (excluded from `delivered`).
  [[nodiscard]] std::uint64_t faulted() const { return faulted_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void Propagate(Packet packet, sim::Time from);
  void PruneDeparted();

  sim::EventLoop& loop_;
  Config config_;
  Receiver receiver_;
  FaultHook fault_hook_;
  sim::FrameRing<sim::Time> departures_;  ///< pending, ascending.
  sim::Time free_at_ = 0;                 ///< last accepted departure.
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t faulted_ = 0;
};

}  // namespace kwikr::net
