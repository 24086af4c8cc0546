#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "net/packet.h"
#include "net/wired_link.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "transport/tcp_reno.h"
#include "transport/token_bucket.h"
#include "transport/udp_stream.h"

namespace kwikr::transport {
namespace {

// --------------------------------------------------------- TokenBucket ----

TEST(TokenBucket, RateZeroPassesThrough) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket bucket(loop, TokenBucket::Config{},
                     [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 100'000;  // way beyond any burst.
  bucket.Send(p);
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(bucket.backlog(), 0u);
}

TEST(TokenBucket, BurstPassesImmediately) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 1'000'000;
  config.burst_bytes = 3000;
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  bucket.Send(p);
  bucket.Send(p);
  bucket.Send(p);
  EXPECT_EQ(forwarded, 3);
}

TEST(TokenBucket, SustainedRateMatchesConfig) {
  sim::EventLoop loop;
  std::int64_t bytes_out = 0;
  TokenBucket::Config config;
  config.rate_bps = 800'000;  // 100 KB/s
  config.burst_bytes = 2000;
  config.queue_capacity_packets = 10'000;
  TokenBucket bucket(loop, config,
                     [&](net::Packet p) { bytes_out += p.size_bytes; });
  // Offer 2x the rate for 10 seconds.
  for (int t = 0; t < 10'000; ++t) {
    loop.ScheduleAt(sim::Millis(t), [&bucket] {
      net::Packet p;
      p.size_bytes = 200;
      bucket.Send(p);
    });
  }
  loop.RunUntil(sim::Seconds(10));
  // ~1 MB expected (+burst slack).
  EXPECT_NEAR(static_cast<double>(bytes_out), 1'000'000.0, 60'000.0);
}

TEST(TokenBucket, OverflowDrops) {
  sim::EventLoop loop;
  TokenBucket::Config config;
  config.rate_bps = 8'000;  // 1 KB/s: effectively stalled.
  config.burst_bytes = 100;
  config.queue_capacity_packets = 5;
  TokenBucket bucket(loop, config, [](net::Packet) {});
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 20; ++i) bucket.Send(p);
  EXPECT_GT(bucket.dropped(), 0u);
  EXPECT_LE(bucket.backlog(), 5u);
}

TEST(TokenBucket, DisablingFlushesBacklog) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 8'000;
  config.burst_bytes = 100;
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 5; ++i) bucket.Send(p);
  EXPECT_EQ(forwarded, 0);
  bucket.SetRate(0);
  EXPECT_EQ(forwarded, 5);
  EXPECT_EQ(bucket.backlog(), 0u);
}

TEST(TokenBucket, RateChangeTakesEffect) {
  sim::EventLoop loop;
  std::int64_t bytes_out = 0;
  TokenBucket::Config config;
  config.rate_bps = 80'000;  // 10 KB/s
  config.burst_bytes = 1000;
  config.queue_capacity_packets = 100'000;
  TokenBucket bucket(loop, config,
                     [&](net::Packet p) { bytes_out += p.size_bytes; });
  for (int t = 0; t < 4000; ++t) {
    loop.ScheduleAt(sim::Millis(t), [&bucket] {
      net::Packet p;
      p.size_bytes = 500;
      bucket.Send(p);
    });
  }
  loop.ScheduleAt(sim::Seconds(2), [&bucket] { bucket.SetRate(800'000); });
  loop.RunUntil(sim::Seconds(2));
  const std::int64_t at_2s = bytes_out;
  EXPECT_NEAR(static_cast<double>(at_2s), 20'000.0, 5'000.0);
  loop.RunUntil(sim::Seconds(4));
  // After the rate increase the backlog drains at 100 KB/s.
  EXPECT_GT(bytes_out - at_2s, 150'000);
}

// ------------------------------------------------------------- UdpCbr -----

TEST(UdpCbr, EmitsAtConfiguredCadence) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<sim::Time> sends;
  UdpCbrSender::Config config;
  config.interval = sim::Millis(20);
  config.packet_bytes = 500;
  UdpCbrSender sender(loop, ids, config, [&](net::Packet) {
    sends.push_back(loop.now());
  });
  sender.Start();
  loop.RunUntil(sim::Millis(100));
  sender.Stop();
  // t = 0, 20, 40, 60, 80, 100.
  EXPECT_EQ(sends.size(), 6u);
  EXPECT_EQ(sends[1] - sends[0], sim::Millis(20));
}

TEST(UdpCbr, PacketsCarrySequenceAndTimestamp) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<net::Packet> packets;
  UdpCbrSender::Config config;
  config.src = 1;
  config.dst = 2;
  config.flow = 77;
  config.tos = net::kTosVoice;
  UdpCbrSender sender(loop, ids, config, [&](net::Packet p) {
    packets.push_back(std::move(p));
  });
  sender.Start();
  loop.RunUntil(sim::Millis(40));
  ASSERT_GE(packets.size(), 2u);
  EXPECT_EQ(packets[0].udp.sequence, 0u);
  EXPECT_EQ(packets[1].udp.sequence, 1u);
  EXPECT_EQ(packets[1].udp.sender_timestamp, sim::Millis(20));
  EXPECT_EQ(packets[0].flow, 77u);
  EXPECT_EQ(packets[0].tos, net::kTosVoice);
}

TEST(UdpOwdReceiver, TracksMinimumAndNormalizes) {
  UdpOwdReceiver receiver(5);
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.flow = 5;
  p.udp.sender_timestamp = 0;
  receiver.OnPacket(p, sim::Millis(30));  // owd 30
  p.udp.sender_timestamp = sim::Millis(20);
  receiver.OnPacket(p, sim::Millis(40));  // owd 20 (new min)
  p.udp.sender_timestamp = sim::Millis(40);
  receiver.OnPacket(p, sim::Millis(90));  // owd 50
  EXPECT_EQ(receiver.min_owd(), sim::Millis(20));
  const auto normalized = receiver.NormalizedOwdMillis();
  ASSERT_EQ(normalized.size(), 3u);
  EXPECT_DOUBLE_EQ(normalized[0], 10.0);
  EXPECT_DOUBLE_EQ(normalized[1], 0.0);
  EXPECT_DOUBLE_EQ(normalized[2], 30.0);
}

TEST(UdpOwdReceiver, IgnoresOtherFlows) {
  UdpOwdReceiver receiver(5);
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.flow = 6;
  receiver.OnPacket(p, sim::Millis(10));
  EXPECT_EQ(receiver.received(), 0u);
}

// ------------------------------------------------------------ TcpReno -----

/// Symmetric fixed-delay path harness for TCP tests: data crosses a
/// WiredLink bottleneck; ACKs return after a fixed delay.
struct TcpHarness {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::unique_ptr<net::WiredLink> bottleneck;
  std::unique_ptr<TcpRenoSender> sender;
  std::unique_ptr<TcpRenoReceiver> receiver;

  void OnBottleneck(net::Packet p) { receiver->OnSegment(p, loop.now()); }

  explicit TcpHarness(std::int64_t rate_bps, std::size_t queue = 100,
                      sim::Duration delay = sim::Millis(10)) {
    net::WiredLink::Config link;
    link.rate_bps = rate_bps;
    link.propagation = delay;
    link.queue_capacity_packets = queue;
    bottleneck = std::make_unique<net::WiredLink>(
        loop, link,
        net::WiredLink::Receiver::Member<&TcpHarness::OnBottleneck>(this));
    sender = std::make_unique<TcpRenoSender>(
        loop, 1, 10, 20, ids,
        [this](net::Packet p) { bottleneck->Send(std::move(p)); });
    receiver = std::make_unique<TcpRenoReceiver>(
        1, 20, 10, ids, [this, delay](net::Packet p) {
          loop.ScheduleIn(delay, [this, p = std::move(p)]() mutable {
            sender->OnAck(p);
          });
        });
  }
};

TEST(TcpReno, SlowStartDoublesWindow) {
  TcpHarness h(1'000'000'000, 10'000);  // effectively unconstrained.
  h.sender->Start();
  // After a few RTTs in slow start cwnd should have grown far beyond the
  // initial window.
  h.loop.RunUntil(sim::Millis(150));  // ~7 RTTs of 20 ms.
  EXPECT_GT(h.sender->cwnd(), 100.0);
  EXPECT_EQ(h.sender->retransmissions(), 0);
  h.sender->Stop();
}

TEST(TcpReno, AchievesHighBottleneckUtilization) {
  TcpHarness h(10'000'000, 100);  // 10 Mbps bottleneck.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(10));
  h.sender->Stop();
  const double goodput_bps =
      static_cast<double>(h.receiver->bytes_received()) * 8.0 / 10.0;
  EXPECT_GT(goodput_bps, 7'000'000.0);
  EXPECT_LT(goodput_bps, 10'500'000.0);
}

TEST(TcpReno, LossTriggersFastRetransmitAndCwndReduction) {
  TcpHarness h(5'000'000, 25);  // small buffer forces drops.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(5));
  h.sender->Stop();
  EXPECT_GT(h.sender->retransmissions(), 0);
  // Despite losses the transfer keeps making progress.
  EXPECT_GT(h.receiver->segments_received(), 1000);
  // ssthresh must have been pulled down from its initial huge value.
  EXPECT_LT(h.sender->ssthresh(), 1e6);
}

TEST(TcpReno, SurvivesTotalBlackholeViaRto) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  int sent = 0;
  bool blackhole = false;
  std::unique_ptr<TcpRenoSender> sender;
  std::unique_ptr<TcpRenoReceiver> receiver;
  receiver = std::make_unique<TcpRenoReceiver>(
      1, 20, 10, ids, [&](net::Packet p) {
        loop.ScheduleIn(sim::Millis(5), [&, p]() { sender->OnAck(p); });
      });
  sender = std::make_unique<TcpRenoSender>(
      loop, 1, 10, 20, ids, [&](net::Packet p) {
        ++sent;
        if (blackhole) return;  // drop everything.
        loop.ScheduleIn(sim::Millis(5), [&, p]() {
          receiver->OnSegment(p, loop.now());
        });
      });
  sender->Start();
  loop.ScheduleAt(sim::Millis(200), [&] { blackhole = true; });
  loop.ScheduleAt(sim::Millis(900), [&] { blackhole = false; });
  loop.RunUntil(sim::Seconds(6));
  sender->Stop();
  EXPECT_GT(sender->timeouts(), 0);
  // Recovered and made further progress after the blackhole lifted.
  EXPECT_GT(sender->segments_acked(), 100);
}

TEST(TcpReno, RttEstimateTracksPathDelay) {
  TcpHarness h(100'000'000, 1000, sim::Millis(25));  // RTT = 50 ms.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(2));
  h.sender->Stop();
  EXPECT_GT(h.sender->srtt(), sim::Millis(45));
  EXPECT_LT(h.sender->srtt(), sim::Millis(200));
}

TEST(TcpReno, StopHaltsTransmission) {
  TcpHarness h(10'000'000);
  h.sender->Start();
  h.loop.RunUntil(sim::Millis(100));
  h.sender->Stop();
  const auto acked = h.sender->segments_acked();
  h.loop.RunUntil(sim::Seconds(2));
  // A few in-flight segments may still land, but no meaningful progress.
  EXPECT_LT(h.sender->segments_acked() - acked, 300);
}

TEST(TcpAllocations, LossyRenoBulkFlowAllocatesNothingAfterWarmUp) {
  TcpHarness h(5'000'000, 25);  // small drop-tail buffer: steady losses.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(5));
  const std::int64_t retx_before = h.sender->retransmissions();
  const std::int64_t received_before = h.receiver->segments_received();
  const std::uint64_t executed_before = h.loop.executed();
  const std::uint64_t allocations_before = AllocationCount();
  h.loop.RunUntil(sim::Seconds(15));
  const std::uint64_t allocations = AllocationCount() - allocations_before;
  h.sender->Stop();
  // Losses in the measured phase mean out-of-order arrivals and RTO
  // re-arms: the reorder window and the RTO timer were both exercised.
  ASSERT_GT(h.sender->retransmissions() - retx_before, 5);
  ASSERT_GT(h.receiver->segments_received() - received_before, 3'000);
  EXPECT_EQ(allocations, 0u)
      << "allocations per event: "
      << static_cast<double>(allocations) /
             static_cast<double>(h.loop.executed() - executed_before);
}

// --------------------------------------------------------- TCP RTO timer --

net::Packet AckOf(std::int64_t cumulative) {
  net::Packet ack;
  ack.protocol = net::Protocol::kTcp;
  ack.flow = 1;
  ack.tcp.is_ack = true;
  ack.tcp.ack = cumulative;
  return ack;
}

/// RTO exactness harness: the data path is a black hole that logs every
/// transmission, and the test delivers ACKs by hand, so each RTO shows up
/// as a send at an exact instant.
struct RtoHarness {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<sim::Time> sends;
  std::int64_t next_unsent = 0;  ///< one past the highest seq sent.
  TcpSender sender{loop, 1, 10, 20, ids, [this](net::Packet p) {
                     sends.push_back(loop.now());
                     next_unsent = std::max(next_unsent, p.tcp.seq + 1);
                   }};

  void AckAt(sim::Time at, std::int64_t cumulative) {
    loop.ScheduleAt(at, [this, cumulative] {
      sender.OnAck(AckOf(cumulative));
    });
  }

  /// ACKs of segments 0..9, one every 10 ms from 50 ms to 140 ms. Only the
  /// first is an RTT sample (50 ms): srtt = 50 ms, rttvar = 25 ms, so
  /// rto = max(min_rto, srtt + 4 * rttvar) = 200 ms.
  static constexpr sim::Time kLastAck = sim::Millis(140);
  void StartAndAckFirstWindow() {
    sender.Start();
    for (int i = 0; i < 10; ++i) AckAt(sim::Millis(50 + 10 * i), i + 1);
  }

  [[nodiscard]] std::vector<sim::Time> SendsAfter(sim::Time t) const {
    std::vector<sim::Time> out;
    for (const sim::Time at : sends) {
      if (at > t) out.push_back(at);
    }
    return out;
  }
};

TEST(TcpRto, FiresExactlyOneRtoAfterTheLastAckAndDoublesOnEachBackoff) {
  RtoHarness h;
  h.StartAndAckFirstWindow();
  h.loop.RunUntil(sim::Seconds(7));
  ASSERT_EQ(h.sender.srtt(), sim::Millis(50));
  // Each RTO retransmits one segment (cwnd falls to 1) and nothing else is
  // sent after the last ACK: the sends are the RTO instants. 200 ms after
  // the last ACK, then intervals of 400, 800, 1600 and 3200 ms.
  const std::vector<sim::Time> expected = {
      sim::Millis(340), sim::Millis(740), sim::Millis(1540),
      sim::Millis(3140), sim::Millis(6340)};
  EXPECT_EQ(h.SendsAfter(RtoHarness::kLastAck), expected);
  EXPECT_EQ(h.sender.timeouts(), 5);
  EXPECT_EQ(h.sender.retransmissions(), 5);
}

TEST(TcpRto, BackoffResetPullsTheDeadlineBeforeThePendingWakeup) {
  RtoHarness h;
  h.StartAndAckFirstWindow();
  // The first RTO (340 ms) retransmits segment 10 and backs off: the next
  // deadline, and the pending wakeup, are at 740 ms. The ACK of that
  // retransmission at 400 ms resets the backoff and re-arms for 600 ms,
  // earlier than the wakeup, which must be replaced.
  h.AckAt(sim::Millis(400), 11);
  h.loop.RunUntil(sim::Millis(900));
  EXPECT_EQ(h.SendsAfter(sim::Millis(400)),
            std::vector<sim::Time>{sim::Millis(600)});
  EXPECT_EQ(h.sender.timeouts(), 2);
}

/// Counts dispatches of one event type.
class TypeCounter : public sim::EventLoopProbe {
 public:
  explicit TypeCounter(const char* type) : type_(type) {}
  void OnExecuted(const char* type, sim::Time, double) override {
    if (std::strcmp(type, type_) == 0) ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  const char* type_;
  std::uint64_t count_ = 0;
};

TEST(TcpRto, WakeupsLeftByFullAcknowledgementsFireNoTimeout) {
  RtoHarness h;
  TypeCounter rto_wakeups("tcp.rto");
  h.loop.SetProbe(&rto_wakeups);
  h.sender.Start();
  // Every 50 ms one ACK covers everything sent so far: each ACK leaves the
  // flow fully acknowledged (the sender disarms without cancelling) before
  // it sends the next window, so earlier wakeups keep falling due ahead of
  // the moving deadline.
  int acks = 0;
  for (sim::Time t = sim::Millis(50); t < sim::Seconds(10);
       t += sim::Millis(50)) {
    h.loop.ScheduleAt(t, [&h] { h.sender.OnAck(AckOf(h.next_unsent)); });
    ++acks;
  }
  h.loop.RunUntil(sim::Seconds(10));
  h.loop.SetProbe(nullptr);
  EXPECT_EQ(h.sender.timeouts(), 0);
  EXPECT_EQ(h.sender.retransmissions(), 0);
  EXPECT_TRUE(h.sender.rto_armed());
  // Stale wakeups did run, but fewer than one per ACK.
  EXPECT_GT(rto_wakeups.count(), 0u);
  EXPECT_LT(rto_wakeups.count(), static_cast<std::uint64_t>(acks));
}

TEST(TcpRto, StopAndDestructionCancelThePendingWakeup) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  auto make_sender = [&] {
    return std::make_unique<TcpSender>(loop, 1, 10, 20, ids,
                                       [](net::Packet) {});
  };
  // Stop() with the wakeup pending, then destruction. A surviving wakeup
  // would dereference the destroyed sender in the RunUntil.
  auto sender = make_sender();
  sender->Start();
  loop.RunUntil(sim::Millis(10));
  ASSERT_TRUE(sender->rto_armed());
  ASSERT_EQ(loop.pending(), 1u);  // the wakeup.
  sender->Stop();
  EXPECT_FALSE(sender->rto_armed());
  EXPECT_EQ(loop.pending(), 0u);
  sender.reset();
  loop.RunUntil(sim::Seconds(20));

  // Destruction alone, while the wakeup (due 21 s, the initial 1 s RTO) is
  // stale: the ACK at 20.5 s moved the deadline to 22 s.
  sender = make_sender();
  sender->Start();
  loop.ScheduleAt(sim::Millis(20'500), [&] { sender->OnAck(AckOf(1)); });
  loop.RunUntil(sim::Millis(20'600));
  ASSERT_TRUE(sender->rto_armed());
  ASSERT_EQ(loop.pending(), 1u);
  sender.reset();
  EXPECT_EQ(loop.pending(), 0u);
  loop.RunUntil(sim::Seconds(40));
}

// ----------------------------------------------------- TcpRenoReceiver ----

TEST(TcpRenoReceiver, ReordersOutOfOrderSegments) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<std::int64_t> acks;
  TcpRenoReceiver receiver(1, 20, 10, ids, [&](net::Packet p) {
    acks.push_back(p.tcp.ack);
  });
  auto segment = [&](std::int64_t seq) {
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.flow = 1;
    p.size_bytes = 1500;
    p.tcp.seq = seq;
    return p;
  };
  receiver.OnSegment(segment(0), 0);
  receiver.OnSegment(segment(2), 0);  // hole at 1.
  receiver.OnSegment(segment(1), 0);  // fills the hole.
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0], 1);
  EXPECT_EQ(acks[1], 1);  // duplicate ACK while the hole exists.
  EXPECT_EQ(acks[2], 3);
  EXPECT_EQ(receiver.segments_received(), 3);
}

TEST(TcpRenoReceiver, IgnoresForeignFlows) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  int acks = 0;
  TcpRenoReceiver receiver(1, 20, 10, ids, [&](net::Packet) { ++acks; });
  net::Packet p;
  p.protocol = net::Protocol::kTcp;
  p.flow = 2;
  p.tcp.seq = 0;
  receiver.OnSegment(p, 0);
  EXPECT_EQ(acks, 0);
}

TEST(TcpRenoReceiver, DuplicateSegmentsNotDoubleCounted) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  TcpRenoReceiver receiver(1, 20, 10, ids, [](net::Packet) {});
  net::Packet p;
  p.protocol = net::Protocol::kTcp;
  p.flow = 1;
  p.size_bytes = 1500;
  p.tcp.seq = 0;
  receiver.OnSegment(p, 0);
  receiver.OnSegment(p, 0);
  EXPECT_EQ(receiver.segments_received(), 1);
}

/// The ordered-set receiver the reorder window replaced, as the reference
/// model: returns the cumulative ACK for each arriving segment.
struct ReferenceReceiver {
  std::int64_t cumulative = 0;
  std::int64_t bytes = 0;
  std::set<std::int64_t> held;

  std::int64_t OnSegment(std::int64_t seq, std::int32_t size_bytes) {
    if (seq >= cumulative) {
      held.insert(seq);
      while (!held.empty() && *held.begin() == cumulative) {
        held.erase(held.begin());
        ++cumulative;
        bytes += size_bytes - 40;
      }
    }
    return cumulative;
  }
};

TEST(TcpRenoReceiver, ReorderWindowMatchesOrderedSetReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    net::PacketIdAllocator ids;
    std::vector<std::int64_t> acks;
    TcpRenoReceiver receiver(1, 20, 10, ids, [&](net::Packet p) {
      acks.push_back(p.tcp.ack);
    });
    ReferenceReceiver reference;
    std::size_t segments = 0;
    auto deliver = [&](std::int64_t seq) {
      net::Packet p;
      p.protocol = net::Protocol::kTcp;
      p.flow = 1;
      p.size_bytes = static_cast<std::int32_t>(rng.UniformInt(41, 1500));
      p.tcp.seq = seq;
      receiver.OnSegment(p, 0);
      ++segments;
      const std::int64_t expected_ack = reference.OnSegment(seq, p.size_bytes);
      return acks.size() == segments && acks.back() == expected_ack &&
             receiver.segments_received() == reference.cumulative &&
             receiver.bytes_received() == reference.bytes;
    };
    // Windows of fresh segments arrive shuffled. 5% are lost and arrive in
    // the next window instead, 5% arrive twice, and after 5% of arrivals a
    // stale segment (at or below the cumulative ACK) shows up. Every eighth
    // window is up to 4096 segments wide, so a loss at its start holds
    // segments far beyond the initial ring span and the ring must grow.
    std::vector<std::int64_t> lost;
    std::int64_t next = 0;
    for (int round = 0; round < 40; ++round) {
      std::vector<std::int64_t> arrivals = std::move(lost);
      lost.clear();
      const std::int64_t width =
          rng.UniformInt(1, round % 8 == 7 ? 4096 : 300);
      for (std::int64_t i = 0; i < width; ++i, ++next) {
        (rng.Bernoulli(0.05) ? lost : arrivals).push_back(next);
      }
      for (std::size_t i = arrivals.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(arrivals[i - 1], arrivals[j]);
      }
      for (const std::int64_t seq : arrivals) {
        ASSERT_TRUE(deliver(seq)) << "seed " << seed << " seq " << seq;
        if (rng.Bernoulli(0.05)) {
          ASSERT_TRUE(deliver(seq)) << "seed " << seed << " dup " << seq;
        }
        if (rng.Bernoulli(0.05)) {
          const std::int64_t stale = rng.UniformInt(0, reference.cumulative);
          ASSERT_TRUE(deliver(stale)) << "seed " << seed << " stale " << stale;
        }
      }
    }
    for (const std::int64_t seq : lost) {
      ASSERT_TRUE(deliver(seq)) << "seed " << seed << " seq " << seq;
    }
    EXPECT_EQ(receiver.segments_received(), next) << "seed " << seed;
  }
}

}  // namespace
}  // namespace kwikr::transport
