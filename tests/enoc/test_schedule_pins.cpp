// Golden schedule pins for the ENoC data plane.
//
// Each case runs a deterministic workload on a mesh or torus at one of four
// (link_latency, credit_latency) pairs and compares three observables with
// recorded values: the order-sensitive activity hash, a digest of every
// (message, delivery cycle) pair in delivery order, and the router-tick
// count. The values were recorded from a data plane that scheduled one
// kernel event per link and credit traversal and arbitrated over
// std::vector<bool>, so they pin today's queues and word-mask arbiters to
// that reference. Any change to when a flit crosses a link, when a credit
// lands or which requester an arbiter picks moves at least one of them.
//
// Workloads:
//  * dense  — staggered all-to-few bursts with a same-cycle reply from every
//             delivery (credit stalls, VC contention, drain-time
//             activations);
//  * sparse — single messages separated by random idle gaps, long enough
//             that the self-gating clock stops while upstream credits are
//             still in flight; every odd-numbered delivery injects a reply
//             one cycle later, restarting the clock before slower credits
//             land;
//  * fault  — the dense workload with every ENoC fault class armed, so the
//             corrupt-tail NACK and re-injection path runs;
//  * wide   — packed bursts into four hot nodes with 8 VCs per vnet (80
//             (port, VC) pairs on a mesh router), so the VC allocator's
//             request masks span more than one 64-bit word; run with the
//             matrix arbiter.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "enoc/enoc_network.hpp"
#include "fault/fault_spec.hpp"

namespace sctm::enoc {
namespace {

using noc::Message;
using noc::MsgClass;
using noc::Topology;

enum class Workload { kDense, kSparse, kFault, kWide };

struct PinCase {
  const char* name;
  bool torus;
  Cycle link_latency;
  Cycle credit_latency;
  Workload workload;
  // Values recorded from the reference implementation.
  std::uint64_t activity_hash;
  std::uint64_t delivery_digest;
  std::uint64_t router_ticks;
  std::size_t deliveries;
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

struct Observed {
  std::uint64_t activity_hash = 0;
  std::uint64_t delivery_digest = 0;
  std::uint64_t router_ticks = 0;
  std::size_t deliveries = 0;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Message make_msg(MsgId id, NodeId src, NodeId dst, std::uint32_t bytes,
                 MsgClass cls) {
  Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.cls = cls;
  return m;
}

Observed run_case(const PinCase& c) {
  Simulator sim;
  const Topology topo = c.torus ? Topology::torus(4, 4) : Topology::mesh(4, 4);
  EnocParams p;
  p.vnets = 2;
  p.vcs_per_vnet = c.workload == Workload::kWide ? 8 : 2;
  p.buffer_depth = c.workload == Workload::kSparse ? 2 : 4;
  p.link_latency = c.link_latency;
  p.credit_latency = c.credit_latency;
  p.routing = c.torus ? noc::RoutingAlgo::kTorusDor : noc::RoutingAlgo::kXY;
  if (c.workload == Workload::kWide) p.arbiter = ArbiterKind::kMatrix;
  EnocNetwork net(sim, "enoc", topo, p);
  if (c.workload == Workload::kFault) {
    fault::FaultSpec fs;
    fs.seed = 11;
    fs.enoc_flit_corrupt_rate = 0.02;
    fs.enoc_flit_drop_rate = 0.01;
    fs.enoc_link_stuck_rate = 0.002;
    net.install_fault_model(fs);
  }
  const int n = topo.node_count();

  Observed out;
  out.delivery_digest = 0xcbf29ce484222325ULL;
  constexpr MsgId kReplyBase = 1000000;
  MsgId reply_next = kReplyBase;
  const bool sparse = c.workload == Workload::kSparse;
  net.set_deliver_callback([&](const Message& m) {
    out.delivery_digest = fnv(fnv(out.delivery_digest, m.id), sim.now());
    ++out.deliveries;
    if (m.id >= kReplyBase) return;
    const Message reply =
        make_msg(reply_next++, m.dst, m.src, 8, MsgClass::kRequest);
    if (!sparse) {
      net.inject(reply);  // same cycle: the clock keeps running
    } else if (m.id % 2 == 1) {
      // One cycle later: the clock has stopped with this delivery's credits
      // still in flight and restarts before the slower ones land.
      sim.schedule_in(1, [&net, reply] { net.inject(reply); });
    }
  });

  MsgId next = 1;
  if (c.workload == Workload::kSparse) {
    // Integer-only draws: std::mt19937_64's output sequence is fixed by the
    // standard, the distribution classes are not.
    std::mt19937_64 rng(42);
    Cycle t = 0;
    for (int i = 0; i < 60; ++i) {
      t += 1 + rng() % 70;
      const auto src = static_cast<NodeId>(rng() % n);
      auto dst = static_cast<NodeId>(rng() % n);
      if (dst == src) dst = (dst + 1) % n;
      const auto bytes = static_cast<std::uint32_t>(16 + 16 * (rng() % 6));
      const MsgId id = next++;
      sim.schedule_at(t, [&net, id, src, dst, bytes] {
        net.inject(make_msg(id, src, dst, bytes, MsgClass::kData));
      });
    }
  } else {
    // The wide workload packs its bursts and aims them at four hot nodes, so
    // VCs and switch ports stay contended for most of the run.
    const bool wide = c.workload == Workload::kWide;
    const Cycle spacing = wide ? 4 : 30;
    for (int burst = 0; burst < 6; ++burst) {
      sim.schedule_in(static_cast<Cycle>(burst) * spacing, [&net, &next, burst,
                                                            n, wide] {
        for (int i = 0; i < 10; ++i) {
          const auto src = static_cast<NodeId>((burst * 7 + i * 5) % n);
          auto dst = wide ? static_cast<NodeId>(5 * (i % 4) % n)
                          : static_cast<NodeId>((i * 11 + burst * 3 + 3) % n);
          if (dst == src) dst = (dst + 1) % n;
          const MsgClass cls = i % 2 == 0 ? MsgClass::kData : MsgClass::kRequest;
          net.inject(make_msg(next++, src, dst, 32 + 32 * (i % 4), cls));
        }
      });
    }
  }
  sim.run();
  out.activity_hash = net.activity_hash();
  out.router_ticks = net.router_ticks();
  return out;
}

class SchedulePins : public ::testing::TestWithParam<PinCase> {};

TEST_P(SchedulePins, MatchesRecordedSchedule) {
  const PinCase& c = GetParam();
  const Observed o = run_case(c);
  EXPECT_EQ(o.deliveries, c.deliveries);
  EXPECT_EQ(o.activity_hash, c.activity_hash);
  EXPECT_EQ(o.delivery_digest, c.delivery_digest);
  EXPECT_EQ(o.router_ticks, c.router_ticks);
  // On mismatch, the line to paste when a schedule change is intended.
  if (HasFailure()) {
    ADD_FAILURE() << "observed: 0x" << std::hex << o.activity_hash << "ULL, 0x"
                  << o.delivery_digest << "ULL, " << std::dec << o.router_ticks
                  << "u, " << o.deliveries;
  }
}

// Name, torus, link latency, credit latency, workload, then the recorded
// activity hash, delivery digest, router ticks and delivery count.
INSTANTIATE_TEST_SUITE_P(
    Recorded, SchedulePins,
    ::testing::Values(
        PinCase{"mesh_l1_c1_dense", false, 1, 1, Workload::kDense,
                0x2c251a35ebee67dULL, 0x10a7da47787a0a6eULL, 1873u, 120},
        PinCase{"mesh_l2_c1_dense", false, 2, 1, Workload::kDense,
                0xa3727190e4005fd0ULL, 0xabcd554a79b2d5ecULL, 1914u, 120},
        PinCase{"mesh_l1_c3_dense", false, 1, 3, Workload::kDense,
                0x94485262eed060fcULL, 0xc01190e73ee6f97eULL, 1958u, 120},
        PinCase{"mesh_l2_c2_dense", false, 2, 2, Workload::kDense,
                0x178c727f12f949a5ULL, 0xd54c202246288ff8ULL, 1963u, 120},
        PinCase{"torus_l1_c1_dense", true, 1, 1, Workload::kDense,
                0x917c5a4792ec66cfULL, 0x7c9af1d50869a69aULL, 1649u, 120},
        PinCase{"torus_l2_c1_dense", true, 2, 1, Workload::kDense,
                0xce70f21f38d0e388ULL, 0xfa05fa5d773460fbULL, 1734u, 120},
        PinCase{"torus_l1_c3_dense", true, 1, 3, Workload::kDense,
                0x6eb5b927ca3040eULL, 0x18621cb54e1dd967ULL, 1747u, 120},
        PinCase{"torus_l2_c2_dense", true, 2, 2, Workload::kDense,
                0x108ffeec737e133aULL, 0xb87f6fa3693e9efbULL, 1787u, 120},
        PinCase{"mesh_l1_c1_sparse", false, 1, 1, Workload::kSparse,
                0xb824d7acdee37228ULL, 0x5442bf92435fc6feULL, 2201u, 90},
        PinCase{"mesh_l2_c1_sparse", false, 2, 1, Workload::kSparse,
                0xefe0b7e2c0f45b91ULL, 0x837e606e246d70ffULL, 2306u, 90},
        PinCase{"mesh_l1_c3_sparse", false, 1, 3, Workload::kSparse,
                0xd0ea8b7dba9233e7ULL, 0xfd39df483997c18eULL, 2393u, 90},
        PinCase{"mesh_l2_c2_sparse", false, 2, 2, Workload::kSparse,
                0x34027d195c1b1c91ULL, 0x87236b0d3fb15579ULL, 2404u, 90},
        PinCase{"torus_l1_c1_sparse", true, 1, 1, Workload::kSparse,
                0x43de27a339c3050dULL, 0xcb1c9bed43ef96f2ULL, 1996u, 90},
        PinCase{"torus_l2_c1_sparse", true, 2, 1, Workload::kSparse,
                0x13f68f9a8a6cc4cfULL, 0xeb9193bb34c051a1ULL, 2095u, 90},
        PinCase{"torus_l1_c3_sparse", true, 1, 3, Workload::kSparse,
                0xf6c76835a5e58a5bULL, 0x6f7034098066b338ULL, 2187u, 90},
        PinCase{"torus_l2_c2_sparse", true, 2, 2, Workload::kSparse,
                0x8d67abbbaa8e32a1ULL, 0x9224b7a0fc65d7b3ULL, 2191u, 90},
        PinCase{"mesh_l1_c1_fault", false, 1, 1, Workload::kFault,
                0x20a1384b01ecae5eULL, 0x194566718f7b2fefULL, 2814u, 120},
        PinCase{"mesh_l2_c1_fault", false, 2, 1, Workload::kFault,
                0xffc4edb9ea769628ULL, 0x7a26675c0f888428ULL, 2927u, 120},
        PinCase{"mesh_l1_c3_fault", false, 1, 3, Workload::kFault,
                0x2a10b2b83dfefdd5ULL, 0x7fd1fadaf0c4d3aaULL, 2448u, 120},
        PinCase{"mesh_l2_c2_fault", false, 2, 2, Workload::kFault,
                0xe063c55fa1d38777ULL, 0x7ebe33c536c30834ULL, 2658u, 120},
        PinCase{"torus_l1_c1_fault", true, 1, 1, Workload::kFault,
                0x389354f1bbfad8b0ULL, 0x2d77f4bc924ad6bfULL, 2084u, 120},
        PinCase{"torus_l2_c1_fault", true, 2, 1, Workload::kFault,
                0x78bb96b732b18ba1ULL, 0x981cf4b7f24c975ULL, 2272u, 120},
        PinCase{"torus_l1_c3_fault", true, 1, 3, Workload::kFault,
                0xa8e85cecdfd39524ULL, 0x73c3c774bec64d80ULL, 2291u, 120},
        PinCase{"torus_l2_c2_fault", true, 2, 2, Workload::kFault,
                0x84e2e3620091f104ULL, 0x60b399f6eeb4daf7ULL, 2267u, 120},
        PinCase{"mesh_l1_c1_wide", false, 1, 1, Workload::kWide,
                0xfb83bc1e5b56e58aULL, 0x8e49396824cc26c4ULL, 1371u, 120},
        PinCase{"mesh_l2_c2_wide", false, 2, 2, Workload::kWide,
                0x912192d087c87100ULL, 0x255f29701842aac2ULL, 1452u, 120},
        PinCase{"torus_l1_c1_wide", true, 1, 1, Workload::kWide,
                0xce4ccbc7fa66d5f7ULL, 0x9f3c95d57097f9b6ULL, 1317u, 120},
        PinCase{"torus_l1_c3_wide", true, 1, 3, Workload::kWide,
                0x8f72a6740d083836ULL, 0x19262405582e1957ULL, 1343u, 120}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sctm::enoc
