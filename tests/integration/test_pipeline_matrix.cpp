// Integration matrix: the full capture -> serialize -> replay pipeline over
// every (capture network, target network) pair, asserting the structural
// invariants that must hold regardless of configuration:
//   * every record is delivered on the target;
//   * the replayed schedule respects every dependency;
//   * replaying on the capture network is the bit-exact fixed point;
//   * serialization round-trips bit-exactly through a temp file.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/driver.hpp"
#include "trace/trace_io.hpp"

namespace sctm {
namespace {

using core::NetKind;

struct Pair {
  NetKind capture;
  NetKind target;
};

std::string kind_name(NetKind k) {
  std::string s = core::to_string(k);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class PipelineMatrix : public ::testing::TestWithParam<Pair> {};

TEST_P(PipelineMatrix, CaptureSerializeReplay) {
  const auto [cap_kind, tgt_kind] = GetParam();

  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;

  core::NetSpec cap_spec;
  cap_spec.kind = cap_kind;
  core::NetSpec tgt_spec;
  tgt_spec.kind = tgt_kind;

  const auto exec = core::run_execution(app, cap_spec, {});
  ASSERT_GT(exec.trace.records.size(), 100u);

  // Serialize through a file.
  const std::string path = "/tmp/sctm_matrix_" + kind_name(cap_kind) + "_" +
                           kind_name(tgt_kind) + ".bin";
  trace::write_binary_file(exec.trace, path);
  const auto loaded = trace::read_binary_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded, exec.trace);

  // Replay on the target; every dependency must hold in the new schedule.
  const core::ReplayTrace rt(loaded);
  const auto rep = core::run_replay(rt, tgt_spec, {});
  for (std::uint32_t i = 0; i < rt.size(); ++i) {
    EXPECT_NE(rep.result.arrive_time[i], kNoCycle);
    const auto& deps = loaded.records[i].deps;
    for (std::uint32_t k = 0; k < deps.size(); ++k) {
      const auto p = rt.dep_parent_index(i, k);
      EXPECT_GE(rep.result.inject_time[i],
                rep.result.arrive_time[p] + deps[k].slack);
    }
  }

  // Same-network replay is the fixed point. It is bit-exact for every
  // network whose arbitration state is fully driven by the replayed
  // messages; the path-setup ONOC carries *hidden* control traffic whose
  // intra-cycle interleaving the trace cannot encode, leaving a small
  // bounded wobble (documented in DESIGN.md), so it gets a tolerance.
  if (cap_kind == tgt_kind) {
    if (cap_kind == NetKind::kOnocSetup) {
      double sum = 0;
      for (std::size_t i = 0; i < loaded.records.size(); ++i) {
        const auto a = rep.result.arrive_time[i];
        const auto b = loaded.records[i].arrive_time;
        sum += static_cast<double>(a > b ? a - b : b - a);
      }
      EXPECT_LT(sum / static_cast<double>(loaded.records.size()), 5.0);
      const double rt_err =
          std::abs(static_cast<double>(rep.result.runtime) -
                   static_cast<double>(loaded.capture_runtime)) /
          static_cast<double>(loaded.capture_runtime);
      EXPECT_LT(rt_err, 0.02);
    } else {
      for (std::size_t i = 0; i < loaded.records.size(); ++i) {
        ASSERT_EQ(rep.result.inject_time[i], loaded.records[i].inject_time);
        ASSERT_EQ(rep.result.arrive_time[i], loaded.records[i].arrive_time);
      }
    }
  }
}

std::vector<Pair> all_pairs() {
  const NetKind kinds[] = {NetKind::kEnoc, NetKind::kOnocToken,
                           NetKind::kOnocSetup, NetKind::kOnocSwmr,
                           NetKind::kHybrid};
  std::vector<Pair> out;
  for (const auto c : kinds) {
    for (const auto t : kinds) out.push_back({c, t});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PipelineMatrix,
                         ::testing::ValuesIn(all_pairs()),
                         [](const auto& info) {
                           return kind_name(info.param.capture) + "_to_" +
                                  kind_name(info.param.target);
                         });

}  // namespace
}  // namespace sctm
