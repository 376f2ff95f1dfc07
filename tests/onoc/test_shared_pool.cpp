#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "noc/traffic.hpp"
#include "onoc/onoc_network.hpp"
#include "trace/capture.hpp"

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

OnocParams pool_params(int channels) {
  OnocParams p;
  p.arbitration = Arbitration::kSharedPool;
  p.pool_channels = channels;
  return p;
}

TEST(SharedPool, RejectsEmptyPool) {
  Simulator sim;
  EXPECT_THROW(
      OnocNetwork(sim, "onoc", Topology::mesh(4, 4), pool_params(0)),
      std::invalid_argument);
}

TEST(SharedPool, SingleMessagePaysArbitrationRound) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, pool_params(4));
  Message got;
  net.set_deliver_callback([&](const Message& m) { got = m; });
  net.inject(make_msg(1, 0, 15, 64));
  sim.run();
  // Half a token round (8 hops on 16 nodes) on top of zero-load.
  EXPECT_EQ(got.latency(), net.zero_load_latency(got) + 8);
}

TEST(SharedPool, ParallelismBoundedByPoolSize) {
  // Two channels, three concurrent large transfers between disjoint pairs:
  // exactly one must wait a full serialization behind the others.
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, pool_params(2));
  std::vector<Message> got;
  net.set_deliver_callback([&](const Message& m) { got.push_back(m); });
  net.inject(make_msg(1, 0, 12, 640));
  net.inject(make_msg(2, 1, 13, 640));
  net.inject(make_msg(3, 2, 14, 640));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  std::vector<Cycle> arrivals;
  for (const auto& m : got) arrivals.push_back(m.arrive_time);
  std::sort(arrivals.begin(), arrivals.end());
  const Cycle ser = net.params().ser_cycles(640);
  EXPECT_LT(arrivals[1], arrivals[0] + ser / 2);  // two run concurrently
  EXPECT_GE(arrivals[2], arrivals[0] + ser);      // the third queues
}

TEST(SharedPool, MoreChannelsMeanLowerLatencyUnderLoad) {
  auto mean_latency = [](int channels) {
    Simulator sim;
    const auto t = Topology::mesh(4, 4);
    OnocNetwork net(sim, "onoc", t, pool_params(channels));
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.1;
    tp.warmup = 300;
    tp.measure = 3000;
    tp.seed = 51;
    noc::TrafficGenerator gen(sim, "gen", net, t, tp);
    gen.run_to_completion();
    return gen.latency().mean();
  };
  EXPECT_GT(mean_latency(2), mean_latency(16));
}

TEST(SharedPool, LosslessUnderLoad) {
  Simulator sim;
  const auto t = Topology::mesh(4, 4);
  OnocNetwork net(sim, "onoc", t, pool_params(4));
  noc::TrafficGenerator::Params tp;
  tp.injection_rate = 0.15;
  tp.warmup = 200;
  tp.measure = 2000;
  tp.seed = 52;
  noc::TrafficGenerator gen(sim, "gen", net, t, tp);
  gen.run_to_completion();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.injected_count(), net.delivered_count());
}

TEST(SharedPool, FixedPointBitExact) {
  using namespace core;
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  NetSpec spec;
  spec.kind = NetKind::kOnocToken;  // placeholder, overridden below
  spec.onoc.arbitration = Arbitration::kSharedPool;
  spec.onoc.pool_channels = 4;
  // Drive through the factory path that honors spec.onoc as-is: token kind
  // overwrites arbitration, so build the network directly instead.
  auto factory = [&](Simulator& sim) -> std::unique_ptr<noc::Network> {
    return std::make_unique<OnocNetwork>(sim, "net", spec.topo, spec.onoc);
  };
  // Execution-driven capture over the same factory.
  Simulator sim;
  auto net = factory(sim);
  fullsys::CmpSystem cmp(sim, "cmp", *net, spec.topo, {},
                         fullsys::build_app(app));
  trace::TraceCapture capture(cmp, app.name, "shared-pool", 16);
  const Cycle rt = cmp.run_to_completion();
  const auto tr = std::move(capture).finalize(rt);

  const auto rep = replay(ReplayTrace(tr), factory, {});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < tr.records.size(); ++i) {
    if (rep.inject_time[i] != tr.records[i].inject_time ||
        rep.arrive_time[i] != tr.records[i].arrive_time) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sctm::onoc
