#include "onoc/onoc_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "noc/traffic.hpp"

namespace sctm::onoc {
namespace {

using noc::Message;
using noc::MsgClass;
using noc::Topology;

Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes) {
  Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = MsgClass::kData;
  return m;
}

OnocParams token_params() {
  OnocParams p;
  p.arbitration = Arbitration::kTokenRing;
  return p;
}

OnocParams setup_params() {
  OnocParams p;
  p.arbitration = Arbitration::kPathSetup;
  return p;
}

TEST(OnocNetwork, ChannelsKeyOffNodeCountNotLayout) {
  // The crossbar is keyed by node id, so any topology kind works as the tile
  // layout — here a ring, which the pre-graph implementation rejected.
  Simulator sim;
  OnocNetwork net(sim, "onoc", Topology::ring(8), token_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 5, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, 5);
}

TEST(OnocNetwork, TokenModeDeliversSingleMessage) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, token_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_GE(got[0].latency(), net.zero_load_latency(got[0]) - 1);
}

TEST(OnocNetwork, SetupModeDeliversSingleMessage) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, setup_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(net.idle());
  // Setup adds two control traversals: latency well above zero-load.
  EXPECT_GT(got[0].latency(), net.zero_load_latency(got[0]));
}

TEST(OnocNetwork, ZeroLoadLatencyFormula) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocParams p = token_params();
  p.wavelengths = 16;          // 16 * 10 Gb/s / 8 / 2GHz = 10 B/cycle
  p.eo_latency = 2;
  p.oe_latency = 3;
  OnocNetwork net(sim, "onoc", t, p);
  const auto m = make_msg(1, 0, 15, 100);  // ser = 10 cycles
  const Cycle tof = p.tof_cycles(t.distance(0, 15), t.width());
  EXPECT_EQ(net.zero_load_latency(m), 2u + 10u + tof + 3u);
}

TEST(OnocNetwork, SelfMessageSkipsArbitration) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  OnocNetwork net(sim, "onoc", t, token_params());
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 3, 3, 64));
  sim.run();
  EXPECT_EQ(got.latency(), net.zero_load_latency(got));
}

TEST(OnocNetwork, TokenContentionSerializesSameDestination) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, token_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  // Three writers to node 15 at the same time: transfers must serialize.
  net.inject(make_msg(1, 0, 15, 640));
  net.inject(make_msg(2, 1, 15, 640));
  net.inject(make_msg(3, 2, 15, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  std::vector<Cycle> arrivals;
  for (const auto& m : got) arrivals.push_back(m.arrive_time);
  std::sort(arrivals.begin(), arrivals.end());
  const Cycle ser = net.params().ser_cycles(640);
  EXPECT_GE(arrivals[1], arrivals[0] + ser);
  EXPECT_GE(arrivals[2], arrivals[1] + ser);
}

TEST(OnocNetwork, SetupContentionSerializesSameDestination) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, setup_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 15, 640));
  net.inject(make_msg(2, 1, 15, 640));
  net.inject(make_msg(3, 2, 15, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  std::vector<Cycle> arrivals;
  for (const auto& m : got) arrivals.push_back(m.arrive_time);
  std::sort(arrivals.begin(), arrivals.end());
  const Cycle ser = net.params().ser_cycles(640);
  EXPECT_GE(arrivals[1], arrivals[0] + ser);
  EXPECT_GE(arrivals[2], arrivals[1] + ser);
}

TEST(OnocNetwork, DistinctDestinationsProceedInParallel) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, token_params());
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 12, 640));
  net.inject(make_msg(2, 1, 13, 640));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  // No cross-channel interference: both near zero-load latency.
  for (const auto& m : got) {
    EXPECT_LE(m.latency(), net.zero_load_latency(m) + 16);
  }
}

TEST(OnocNetwork, LargeTransferFasterThanEnocWouldBe) {
  // ONOC bandwidth at 16 lambdas = 10 B/cycle; a 4 KiB transfer finishes in
  // ~410 cycles + overheads, far beyond what a 16 B/flit wormhole mesh does
  // per hop chain — sanity-check the bandwidth math only.
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, token_params());
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 0, 15, 4096));
  sim.run();
  const Cycle ser = net.params().ser_cycles(4096);
  EXPECT_NEAR(static_cast<double>(got.latency()), static_cast<double>(ser),
              30.0);
}

TEST(OnocNetwork, LosslessUnderSyntheticLoadTokenMode) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, token_params());
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.2;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 11;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(OnocNetwork, LosslessUnderSyntheticLoadSetupMode) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, setup_params());
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.15;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 12;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(OnocNetwork, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    const auto t = Topology::mesh(4, 4);
    OnocNetwork net(sim, "onoc", t, setup_params());
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.1;
    tp.warmup = 100;
    tp.measure = 1000;
    tp.seed = 21;
    noc::TrafficGenerator gen(sim, "gen", net, t, tp);
    gen.run_to_completion();
    return std::pair{gen.latency().mean(), sim.now()};
  };
  EXPECT_EQ(run(), run());
}

TEST(OnocNetwork, MoreWavelengthsCutSerialization) {
  OnocParams a = token_params();
  a.wavelengths = 8;
  OnocParams b = token_params();
  b.wavelengths = 64;
  EXPECT_GT(a.ser_cycles(4096), b.ser_cycles(4096));
  EXPECT_NEAR(static_cast<double>(a.ser_cycles(4096)),
              8.0 * static_cast<double>(b.ser_cycles(4096)), 8.0);
}

TEST(OnocNetwork, DataBytesAccounted) {
  Simulator sim;
  const auto t = Topology::mesh(2, 2);
  OnocNetwork net(sim, "onoc", t, token_params());
  net.inject(make_msg(1, 0, 3, 100));
  net.inject(make_msg(2, 1, 2, 50));
  sim.run();
  EXPECT_EQ(net.data_bytes(), 150u);
}

// Delivery-chained re-arm: the flush that granted the original request has
// run and disarmed by the time the request is delivered, so a reply injected
// from the deliver callback must schedule a fresh late-band flush and be
// granted in its delivery cycle. The reference injects the same reply from
// an ordinary event at that cycle; both runs must agree exactly. Two large
// transfers keep the reply's channel busy (token: receive channel 0, SWMR:
// source channel 5) so the grant depends on the cycle it is computed at.
std::vector<Message> run_reply(Arbitration arb, Cycle reply_at) {
  Simulator sim;
  OnocParams p;
  p.arbitration = arb;
  OnocNetwork net(sim, "onoc", Topology::mesh(4, 4), p);
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) {
    got.push_back(m);
    if (m.id == 1 && reply_at == kNoCycle) net.inject(make_msg(4, 5, 0, 64));
  });
  net.inject(make_msg(1, 0, 5, 64));
  net.inject(make_msg(2, 7, 0, 4096));
  net.inject(make_msg(3, 5, 9, 4096));
  if (reply_at != kNoCycle) {
    sim.schedule_at(reply_at, [&] { net.inject(make_msg(4, 5, 0, 64)); });
  }
  sim.run();
  return got;
}

void expect_reply_granted_in_delivery_cycle(Arbitration arb) {
  const std::vector<Message> chained = run_reply(arb, kNoCycle);
  ASSERT_EQ(chained.size(), 4u);
  const Cycle delivered = chained[0].arrive_time;
  ASSERT_EQ(chained[0].id, 1u);
  const auto reply = std::find_if(chained.begin(), chained.end(),
                                  [](const Message& m) { return m.id == 4; });
  ASSERT_NE(reply, chained.end());
  EXPECT_EQ(reply->inject_time, delivered);

  const std::vector<Message> reference = run_reply(arb, delivered);
  ASSERT_EQ(reference.size(), chained.size());
  for (std::size_t i = 0; i < chained.size(); ++i) {
    EXPECT_EQ(chained[i].id, reference[i].id) << i;
    EXPECT_EQ(chained[i].inject_time, reference[i].inject_time) << i;
    EXPECT_EQ(chained[i].arrive_time, reference[i].arrive_time) << i;
  }
}

TEST(OnocNetwork, DeliverCallbackReplyRearmsFlushToken) {
  expect_reply_granted_in_delivery_cycle(Arbitration::kTokenRing);
}

TEST(OnocNetwork, DeliverCallbackReplyRearmsFlushSwmr) {
  expect_reply_granted_in_delivery_cycle(Arbitration::kSwmr);
}

// Queued-channel walk: the flush visits only channels with requests, in
// ascending order, whatever order the requests arrived in. Channels 3, 63,
// 64, 200 and 255 span all four 64-bit words of a 256-channel mask; they are
// queued in the same cycle in scrambled order.
constexpr NodeId kFlushChannels[] = {3, 63, 64, 200, 255};
constexpr NodeId kScrambled[] = {200, 3, 255, 64, 63};

// One request per channel (token: the receive channel is dst, SWMR: the
// source channel is src). `same_grant` picks requests whose grants and
// zero-load latencies coincide, so every transfer starts in one cycle and
// arrives in one cycle, and the delivery order is the flush order; otherwise
// each request has its own source and hence, under token arbitration, its
// own wait.
std::vector<Message> flush_requests(const OnocNetwork& net, bool same_grant) {
  std::vector<Message> out;
  for (const NodeId c : kScrambled) {
    Message m = make_msg(static_cast<MsgId>(c) + 1, 0, 0, 64);
    if (net.params().arbitration == Arbitration::kTokenRing) {
      m.dst = c;
      m.src = same_grant ? 1 : (c + 37) % 256;
    } else {
      m.src = c;
      m.dst = c % 16 == 15 ? c - 1 : c + 1;  // one hop: equal latency
    }
    out.push_back(m);
  }
  if (same_grant && net.params().arbitration == Arbitration::kTokenRing) {
    // Pad each message so E/O + serialization + flight + O/E is the same
    // for every destination.
    Cycle target = 0;
    for (const Message& m : out) {
      target = std::max(target, net.zero_load_latency(m));
    }
    for (Message& m : out) {
      while (net.zero_load_latency(m) < target) ++m.size_bytes;
      EXPECT_EQ(net.zero_load_latency(m), target);
    }
  }
  return out;
}

struct FlushRun {
  std::vector<Message> delivered;
  std::uint64_t arb_waits = 0;
  double arb_wait_mean = 0;
  double arb_wait_variance = 0;
  std::string stats;
};

FlushRun run_flush(Simulator& sim, OnocNetwork& net, bool same_grant) {
  FlushRun r;
  net.set_deliver_callback(
      [&](const Message& m) { r.delivered.push_back(m); });
  for (const Message& m : flush_requests(net, same_grant)) net.inject(m);
  sim.run();
  const Accumulator& w = sim.stats().accumulator("onoc.arb_wait");
  r.arb_waits = w.count();
  r.arb_wait_mean = w.mean();
  r.arb_wait_variance = w.variance();
  r.stats = sim.stats().report();
  return r;
}

void expect_flush_walks_queued_channels_ascending(Arbitration arb) {
  Simulator sim;
  OnocParams p;
  p.arbitration = arb;
  OnocNetwork net(sim, "onoc", Topology::mesh(16, 16), p);
  auto channel = [arb](const Message& m) {
    return arb == Arbitration::kTokenRing ? m.dst : m.src;
  };

  // Grants and transmission starts: one start cycle, one arrival cycle, so
  // the delivery order is the order the flush granted the channels in.
  const FlushRun first = run_flush(sim, net, true);
  ASSERT_EQ(first.delivered.size(), std::size(kFlushChannels));
  for (std::size_t i = 0; i < first.delivered.size(); ++i) {
    EXPECT_EQ(channel(first.delivered[i]), kFlushChannels[i]) << i;
    EXPECT_EQ(first.delivered[i].arrive_time, first.delivered[0].arrive_time);
  }

  // Requests queued but never flushed must not survive reset(): the mask
  // and queues start empty, and the re-run matches the first exactly.
  sim.reset();
  net.reset();
  net.inject(make_msg(900, 7, 130, 64));
  net.inject(make_msg(901, 130, 7, 64));
  sim.reset();
  net.reset();
  const FlushRun again = run_flush(sim, net, true);
  ASSERT_EQ(again.delivered.size(), first.delivered.size());
  for (std::size_t i = 0; i < first.delivered.size(); ++i) {
    EXPECT_EQ(again.delivered[i].id, first.delivered[i].id) << i;
    EXPECT_EQ(again.delivered[i].arrive_time, first.delivered[i].arrive_time);
  }
  EXPECT_EQ(again.stats, first.stats);

  // Arb-wait stat order: with a distinct wait per channel, the streaming
  // accumulator matches one fed in ascending channel order. Each wait is the
  // transfer's start (arrival minus zero-load latency) less the cycle-0
  // request time.
  sim.reset();
  net.reset();
  const FlushRun waits = run_flush(sim, net, false);
  ASSERT_EQ(waits.delivered.size(), std::size(kFlushChannels));
  Accumulator ascending;
  for (const NodeId c : kFlushChannels) {
    const auto m = std::find_if(
        waits.delivered.begin(), waits.delivered.end(),
        [&](const Message& d) { return channel(d) == c; });
    ASSERT_NE(m, waits.delivered.end());
    ascending.add(
        static_cast<double>(m->arrive_time - net.zero_load_latency(*m)));
  }
  EXPECT_EQ(waits.arb_waits, ascending.count());
  EXPECT_EQ(waits.arb_wait_mean, ascending.mean());
  EXPECT_EQ(waits.arb_wait_variance, ascending.variance());
}

TEST(OnocNetwork, FlushWalksQueuedChannelsAscendingToken) {
  expect_flush_walks_queued_channels_ascending(Arbitration::kTokenRing);
}

TEST(OnocNetwork, FlushWalksQueuedChannelsAscendingSwmr) {
  expect_flush_walks_queued_channels_ascending(Arbitration::kSwmr);
}

}  // namespace
}  // namespace sctm::onoc
