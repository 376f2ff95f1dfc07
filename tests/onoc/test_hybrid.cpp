#include "onoc/hybrid_network.hpp"

#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "noc/traffic.hpp"

namespace sctm::onoc {
namespace {

using noc::Message;
using noc::Topology;

Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes) {
  Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = noc::MsgClass::kData;
  return m;
}

TEST(Hybrid, PolicySteersByDistanceAndSize) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  HybridParams p;
  p.distance_threshold = 3;
  p.size_threshold = 64;
  HybridNetwork net(sim, "hy", topo, p);
  // Short+near -> electrical.
  EXPECT_FALSE(net.goes_optical(make_msg(1, 0, 1, 8)));
  // Far -> optical even when small.
  EXPECT_TRUE(net.goes_optical(make_msg(2, 0, 15, 8)));
  // Big -> optical even when near.
  EXPECT_TRUE(net.goes_optical(make_msg(3, 0, 1, 64)));
  // Loopback always electrical-side bookkeeping.
  EXPECT_FALSE(net.goes_optical(make_msg(4, 5, 5, 512)));
}

TEST(Hybrid, DeliversOnBothLayers) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  HybridNetwork net(sim, "hy", topo, HybridParams{});
  int delivered = 0;
  net.set_deliver_callback([&](const Message&) { ++delivered; });
  net.inject(make_msg(1, 0, 1, 8));    // electrical
  net.inject(make_msg(2, 0, 15, 8));   // optical (distance)
  net.inject(make_msg(3, 5, 6, 512));  // optical (size)
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.electrical_count(), 1u);
  EXPECT_EQ(net.optical_count(), 2u);
  EXPECT_NEAR(net.optical_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(net.injected_count(), 3u);
  EXPECT_EQ(net.delivered_count(), 3u);
}

TEST(Hybrid, LayerCountersMatchSteering) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  HybridNetwork net(sim, "hy", topo, HybridParams{});
  net.set_deliver_callback([](const Message&) {});
  MsgId id = 1;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) net.inject(make_msg(id++, s, d, 8));
    }
  }
  sim.run();
  EXPECT_EQ(net.electrical().delivered_count(), net.electrical_count());
  EXPECT_EQ(net.optical().delivered_count(), net.optical_count());
  EXPECT_EQ(net.delivered_count(), 240u);
}

TEST(Hybrid, ThresholdExtremesDegenerate) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  HybridParams all_optical;
  all_optical.distance_threshold = 1;
  all_optical.size_threshold = 1;
  HybridNetwork opt(sim, "hy1", topo, all_optical);
  opt.set_deliver_callback([](const Message&) {});
  opt.inject(make_msg(1, 0, 1, 4));
  HybridParams all_electrical;
  all_electrical.distance_threshold = 100;
  all_electrical.size_threshold = 1u << 30;
  HybridNetwork el(sim, "hy2", topo, all_electrical);
  el.set_deliver_callback([](const Message&) {});
  el.inject(make_msg(1, 0, 15, 4096));
  sim.run();
  EXPECT_EQ(opt.optical_count(), 1u);
  EXPECT_EQ(opt.electrical_count(), 0u);
  EXPECT_EQ(el.optical_count(), 0u);
  EXPECT_EQ(el.electrical_count(), 1u);
}

TEST(Hybrid, LosslessUnderSyntheticLoad) {
  Simulator sim;
  const auto topo = Topology::mesh(4, 4);
  HybridNetwork net(sim, "hy", topo, HybridParams{});
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.15;
  tp.packet_bytes = 8;  // below the size threshold: distance decides
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 31;
  noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
  EXPECT_GT(net.optical_count(), 0u);
  EXPECT_GT(net.electrical_count(), 0u);
}

TEST(Hybrid, FullSystemRunsAndCapturesFixedPoint) {
  using namespace core;
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  NetSpec spec;
  spec.kind = NetKind::kHybrid;
  const auto exec = run_execution(app, spec, {});
  EXPECT_GT(exec.trace.records.size(), 100u);
  const auto rep = run_replay(ReplayTrace(exec.trace), spec, {});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < exec.trace.records.size(); ++i) {
    if (rep.result.inject_time[i] != exec.trace.records[i].inject_time ||
        rep.result.arrive_time[i] != exec.trace.records[i].arrive_time) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Hybrid, ShortMessagesFasterThanPureOnoc) {
  // The hybrid's reason to exist: near/short messages skip E/O conversion
  // and arbitration.
  auto mean_short_latency = [](core::NetKind kind) {
    Simulator sim;
    const auto topo = Topology::mesh(4, 4);
    core::NetSpec spec;
    spec.kind = kind;
    auto net = core::make_factory(spec)(sim);
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.05;
    tp.packet_bytes = 8;
    tp.pattern = noc::TrafficPattern::kNeighbor;  // distance-1 traffic
    tp.warmup = 200;
    tp.measure = 2000;
    tp.seed = 17;
    noc::TrafficGenerator gen(sim, "gen", *net, topo, tp);
    gen.run_to_completion();
    return gen.latency().mean();
  };
  EXPECT_LT(mean_short_latency(core::NetKind::kHybrid),
            mean_short_latency(core::NetKind::kOnocSetup));
}

}  // namespace
}  // namespace sctm::onoc
