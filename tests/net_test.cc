#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/checksum.h"
#include "net/packet.h"
#include "net/wire.h"
#include "net/wired_link.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace kwikr::net {
namespace {

// ------------------------------------------------------------ Checksum ----

TEST(Checksum, RfcExampleVector) {
  // Classic RFC 1071 worked example: 0x0001 0xf203 0xf4f5 0xf6f7.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data), 0xffff - 0xddf2 + 0);  // ~0xddf2
  EXPECT_EQ(InternetChecksum(data), 0x220d);
}

TEST(Checksum, ZeroDataChecksumIsAllOnes) {
  const std::vector<std::uint8_t> data(10, 0);
  EXPECT_EQ(InternetChecksum(data), 0xFFFF);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> even = {0x12, 0x34, 0xab, 0x00};
  const std::vector<std::uint8_t> odd = {0x12, 0x34, 0xab};
  EXPECT_EQ(InternetChecksum(even), InternetChecksum(odd));
}

TEST(Checksum, EmbeddedChecksumValidates) {
  IcmpEchoWire echo;
  echo.ident = 0xBEEF;
  echo.sequence = 7;
  echo.payload = {1, 2, 3, 4, 5};
  const auto wire = echo.Serialize();
  EXPECT_TRUE(ChecksumIsValid(wire));
}

TEST(Checksum, CorruptionDetected) {
  IcmpEchoWire echo;
  echo.ident = 1;
  echo.payload = {9, 9, 9};
  auto wire = echo.Serialize();
  wire[8] ^= 0x01;
  EXPECT_FALSE(ChecksumIsValid(wire));
}

// ---------------------------------------------------------------- Wire ----

TEST(IcmpEchoWire, SerializeParseRoundTrip) {
  IcmpEchoWire echo;
  echo.type = 8;
  echo.ident = 0x1234;
  echo.sequence = 0x5678;
  echo.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const auto wire = echo.Serialize();
  const auto parsed = IcmpEchoWire::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, 8);
  EXPECT_EQ(parsed->ident, 0x1234);
  EXPECT_EQ(parsed->sequence, 0x5678);
  EXPECT_EQ(parsed->payload, echo.payload);
}

TEST(IcmpEchoWire, EmptyPayloadRoundTrip) {
  IcmpEchoWire echo;
  echo.ident = 42;
  const auto parsed = IcmpEchoWire::Parse(echo.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(IcmpEchoWire, ShortInputRejected) {
  const std::vector<std::uint8_t> junk = {8, 0, 0};
  EXPECT_FALSE(IcmpEchoWire::Parse(junk).has_value());
}

TEST(IcmpEchoWire, BadChecksumRejected) {
  IcmpEchoWire echo;
  echo.ident = 5;
  auto wire = echo.Serialize();
  wire[4] ^= 0xFF;
  EXPECT_FALSE(IcmpEchoWire::Parse(wire).has_value());
}

TEST(Ipv4HeaderView, ParsesMinimalHeader) {
  std::vector<std::uint8_t> header(20, 0);
  header[0] = 0x45;  // v4, ihl=5
  header[1] = 0xb8;  // TOS
  header[8] = 64;    // TTL
  header[9] = 1;     // ICMP
  header[12] = 192;
  header[13] = 168;
  header[14] = 1;
  header[15] = 1;
  const auto view = Ipv4HeaderView::Parse(header);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ihl_bytes, 20);
  EXPECT_EQ(view->tos, 0xb8);
  EXPECT_EQ(view->ttl, 64);
  EXPECT_EQ(view->protocol, 1);
  EXPECT_EQ(view->src, 0xC0A80101u);
}

TEST(Ipv4HeaderView, RejectsNonV4) {
  std::vector<std::uint8_t> header(20, 0);
  header[0] = 0x65;  // v6?
  EXPECT_FALSE(Ipv4HeaderView::Parse(header).has_value());
}

TEST(Ipv4HeaderView, RejectsShortBuffer) {
  std::vector<std::uint8_t> header(10, 0);
  header[0] = 0x45;
  EXPECT_FALSE(Ipv4HeaderView::Parse(header).has_value());
}

TEST(Ipv4HeaderView, RejectsTruncatedOptions) {
  std::vector<std::uint8_t> header(20, 0);
  header[0] = 0x4F;  // ihl = 60 bytes, but only 20 present.
  EXPECT_FALSE(Ipv4HeaderView::Parse(header).has_value());
}

// -------------------------------------------------------------- Packet ----

TEST(Packet, DescribeMentionsProtocolAndAddresses) {
  Packet p;
  p.protocol = Protocol::kIcmp;
  p.id = 9;
  p.src = 100;
  p.dst = 1;
  p.tos = kTosVoice;
  const std::string text = Describe(p);
  EXPECT_NE(text.find("ICMP"), std::string::npos);
  EXPECT_NE(text.find("0xb8"), std::string::npos);
}

TEST(Packet, IdAllocatorIsMonotonic) {
  PacketIdAllocator ids;
  const auto a = ids.Next();
  const auto b = ids.Next();
  EXPECT_LT(a, b);
}

TEST(Packet, TosConstantsMatchPaper) {
  EXPECT_EQ(kTosBestEffort, 0x00);
  EXPECT_EQ(kTosVoice, 0xb8);  // paper Section 5.2.
}

// ----------------------------------------------------------- WiredLink ----

TEST(WiredLink, DeliversAfterSerializationAndPropagation) {
  sim::EventLoop loop;
  std::vector<sim::Time> arrivals;
  WiredLink::Config config;
  config.rate_bps = 8'000'000;  // 1 byte/us
  config.propagation = sim::Millis(2);
  auto on_arrival = [&](Packet) { arrivals.push_back(loop.now()); };
  WiredLink link(loop, config, on_arrival);

  Packet p;
  p.size_bytes = 1000;  // 1 ms serialization.
  link.Send(p);
  loop.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], sim::Millis(3));
}

TEST(WiredLink, BackToBackPacketsSerialize) {
  sim::EventLoop loop;
  std::vector<sim::Time> arrivals;
  WiredLink::Config config;
  config.rate_bps = 8'000'000;
  config.propagation = 0;
  auto on_arrival = [&](Packet) { arrivals.push_back(loop.now()); };
  WiredLink link(loop, config, on_arrival);

  Packet p;
  p.size_bytes = 1000;
  link.Send(p);
  link.Send(p);
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::Millis(1));
  EXPECT_EQ(arrivals[1], sim::Millis(2));
}

TEST(WiredLink, DropsWhenQueueFull) {
  sim::EventLoop loop;
  int delivered = 0;
  WiredLink::Config config;
  config.rate_bps = 8'000;  // very slow
  config.queue_capacity_packets = 3;
  auto on_arrival = [&](Packet) { ++delivered; };
  WiredLink link(loop, config, on_arrival);

  Packet p;
  p.size_bytes = 100;
  for (int i = 0; i < 10; ++i) link.Send(p);
  EXPECT_GT(link.dropped(), 0u);
  loop.Run();
  EXPECT_EQ(delivered + static_cast<int>(link.dropped()), 10);
}

TEST(WiredLink, PreservesOrder) {
  sim::EventLoop loop;
  std::vector<std::uint64_t> order;
  WiredLink::Config config;
  auto on_arrival = [&](Packet p) { order.push_back(p.id); };
  WiredLink link(loop, config, on_arrival);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Packet p;
    p.id = i;
    p.size_bytes = 500;
    link.Send(p);
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(WiredLink, CountsDelivered) {
  sim::EventLoop loop;
  WiredLink link(loop, WiredLink::Config{}, [](Packet&&) {});
  Packet p;
  p.size_bytes = 100;
  link.Send(p);
  link.Send(p);
  loop.Run();
  EXPECT_EQ(link.delivered(), 2u);
  EXPECT_EQ(link.queue_length(), 0u);
}

// Differential check against the closed-form recurrence
//   depart_k = max(send_k, depart_{k-1}) + ser_k,  arrival_k = depart_k + prop
// where packet k is dropped iff accepted packets whose departure is still
// after send_k already fill the queue. Small capacities hit drop-tail, and a
// quarter of the sends land exactly on a pending departure tick.
TEST(WiredLink, MatchesClosedFormDepartureRecurrence) {
  sim::Rng rng(0x5EED);
  const std::int64_t rates[] = {8'000, 1'000'000, 100'000'000, 1'000'000'000};
  std::uint64_t total_drops = 0;
  for (int trial = 0; trial < 200; ++trial) {
    sim::EventLoop loop;
    WiredLink::Config config;
    config.rate_bps = rates[rng.UniformInt(0, 3)];
    config.propagation = rng.UniformInt(0, 3) * 250 * sim::kMicrosecond;
    config.queue_capacity_packets =
        static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::vector<std::pair<std::uint64_t, sim::Time>> arrivals;
    auto on_arrival = [&](Packet p) { arrivals.emplace_back(p.id, loop.now()); };
    WiredLink link(loop, config, on_arrival);

    std::vector<std::pair<std::uint64_t, sim::Time>> expected;
    std::vector<sim::Time> pending;  // model departures, ascending.
    std::uint64_t expected_drops = 0;
    sim::Time send = 0;
    sim::Time free_at = 0;
    for (std::uint64_t id = 1; id <= 40; ++id) {
      std::erase_if(pending, [&](sim::Time d) { return d <= send; });
      Packet p;
      p.id = id;
      p.size_bytes = static_cast<std::int32_t>(rng.UniformInt(40, 1500));
      const sim::Duration ser = sim::TransmissionTime(
          static_cast<std::int64_t>(p.size_bytes) * 8, config.rate_bps);
      if (pending.size() >= config.queue_capacity_packets) {
        ++expected_drops;
      } else {
        free_at = std::max(send, free_at) + ser;
        pending.push_back(free_at);
        expected.emplace_back(id, free_at + config.propagation);
      }
      loop.ScheduleAt(send, [&link, p] { link.Send(p); });
      if (!pending.empty() && rng.Bernoulli(0.25)) {
        send = pending.front();
      } else {
        send += rng.UniformInt(0, 2 * ser);
      }
    }
    loop.Run();
    EXPECT_EQ(arrivals, expected) << "trial " << trial;
    EXPECT_EQ(link.dropped(), expected_drops) << "trial " << trial;
    EXPECT_EQ(link.delivered(), expected.size()) << "trial " << trial;
    total_drops += expected_drops;
  }
  EXPECT_GT(total_drops, 0u);  // the trials do reach drop-tail.
}

/// Counts dispatches per event type.
struct TypeCountingProbe : sim::EventLoopProbe {
  std::map<std::string, int> counts;
  void OnExecuted(const char* type, sim::Time, double) override {
    ++counts[type];
  }
};

TEST(WiredLink, UnfaultedLinkCostsOneDispatchPerPacket) {
  constexpr int kPackets = 50;
  for (const bool faulted : {false, true}) {
    sim::EventLoop loop;
    TypeCountingProbe probe;
    loop.SetProbe(&probe);
    int arrivals = 0;
    auto on_arrival = [&](Packet) { ++arrivals; };
    WiredLink link(loop, WiredLink::Config{}, on_arrival);
    if (faulted) {
      link.SetFaultHook([](const Packet&) { return WiredLink::LinkFault{}; });
    }
    Packet p;
    p.size_bytes = 1200;
    for (int i = 0; i < kPackets; ++i) link.Send(p);
    loop.Run();
    EXPECT_EQ(arrivals, kPackets);
    EXPECT_EQ(probe.counts["net.wire_prop"], kPackets);
    EXPECT_EQ(probe.counts["net.wire_tx"], faulted ? kPackets : 0);
  }
}

}  // namespace
}  // namespace kwikr::net
