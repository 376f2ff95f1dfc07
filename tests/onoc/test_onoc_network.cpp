#include "onoc/onoc_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

}  // namespace
}  // namespace sctm::onoc
