#include "net/wired_link.h"

#include <algorithm>
#include <utility>

namespace kwikr::net {

WiredLink::WiredLink(sim::EventLoop& loop, Config config, Receiver receiver)
    : loop_(loop),
      config_(config),
      receiver_(receiver),
      departures_(config.queue_capacity_packets) {}

void WiredLink::Send(Packet packet) {
  // Departures follow in closed form, so no event marks the end of
  // serialization: a packet whose departure is not in the future has left.
  PruneDeparted();
  const sim::Time depart =
      std::max(loop_.now(), free_at_) +
      sim::TransmissionTime(static_cast<std::int64_t>(packet.size_bytes) * 8,
                            config_.rate_bps);
  if (!departures_.push_back(depart)) {
    ++dropped_;
    return;
  }
  free_at_ = depart;
  if (!fault_hook_) {
    Propagate(std::move(packet), depart);
    return;
  }
  // Fault injection: the wire may lose the packet or hold it beyond the
  // nominal propagation delay (jitter → later packets overtake). The hook
  // runs at the departure, so its RNG draws keep their time and order.
  auto on_depart = [this, packet = std::move(packet)]() mutable {
    const LinkFault fault = fault_hook_(packet);
    if (fault.drop) {
      ++faulted_;
      return;
    }
    Propagate(std::move(packet),
              loop_.now() + std::max<sim::Duration>(fault.extra_delay, 0));
  };
  static_assert(sim::InlineTask::fits_inline<decltype(on_depart)>);
  loop_.ScheduleAt(depart, "net.wire_tx", std::move(on_depart));
}

void WiredLink::SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

void WiredLink::PruneDeparted() {
  while (!departures_.empty() && departures_.front() <= loop_.now()) {
    departures_.pop_front();
  }
}

void WiredLink::Propagate(Packet packet, sim::Time from) {
  ++delivered_;
  // The Packet must stay within InlineTask's buffer so per-hop delivery
  // never allocates.
  auto deliver = [this, packet = std::move(packet)]() mutable {
    receiver_(std::move(packet));
  };
  static_assert(sim::InlineTask::fits_inline<decltype(deliver)>);
  loop_.ScheduleAt(from + config_.propagation, "net.wire_prop",
                   std::move(deliver));
}

}  // namespace kwikr::net
