// Determinism matrix for concurrent replay sessions. explore() runs one
// ReplaySession per worker thread, so a session must share no mutable state
// with any other. Replaying one spec on N sessions at once — one per
// parallel_for worker — must give every session results bit-identical to a
// serial run on the calling thread: full schedules, derived runtime, kernel
// event counts AND the complete final stat registry, on every network kind
// and on the 3D and file-defined fabrics. The file also pins the in-place
// rebind fast path against fresh construction.
#include "core/replay_session.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/driver.hpp"
#include "noc/routing.hpp"

namespace sctm::core {
namespace {

fullsys::AppParams small_app(const char* name) {
  fullsys::AppParams app;
  app.name = name;
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  return app;
}

fullsys::FullSysParams small_sys() {
  fullsys::FullSysParams sys;
  sys.l1_sets = 8;
  sys.l1_ways = 2;
  sys.l2_sets = 32;
  sys.l2_ways = 4;
  return sys;
}

NetSpec spec_of(NetKind kind) {
  NetSpec s;
  s.kind = kind;
  return s;
}

constexpr NetKind kAllKinds[] = {NetKind::kIdeal,     NetKind::kEnoc,
                                 NetKind::kOnocToken, NetKind::kOnocSetup,
                                 NetKind::kOnocSwmr,  NetKind::kHybrid};

const ReplayTrace& shared_rt() {
  static const trace::Trace trace =
      run_execution(small_app("jacobi"), spec_of(NetKind::kEnoc), small_sys())
          .trace;
  static const ReplayTrace rt(trace);
  return rt;
}

/// Runs one full replay and returns the result plus the rendered final stat
/// registry (every counter the components registered — a divergence anywhere
/// in the datapath shows up here even if the schedule happens to match).
struct MatrixRun {
  ReplayResult result;
  std::string stats_report;
};

MatrixRun run_spec(const ReplayTrace& rt, const NetSpec& spec) {
  ReplaySession session(rt, spec, ReplayConfig{});
  session.run();
  MatrixRun out;
  out.stats_report = session.result().stats.report();
  out.result = session.take_result();
  return out;
}

/// Replays `spec` on `threads` sessions at once, one per parallel_for worker
/// (the way explore() runs candidates), and checks each against `serial`.
void expect_concurrent_runs_match(const ReplayTrace& rt, const NetSpec& spec,
                                  const MatrixRun& serial, unsigned threads) {
  std::vector<MatrixRun> runs(threads);
  parallel_for(
      threads, [&](std::size_t i) { runs[i] = run_spec(rt, spec); }, threads);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MatrixRun& par = runs[i];
    const std::string what =
        "threads=" + std::to_string(threads) + " session " + std::to_string(i);
    EXPECT_EQ(par.result.inject_time, serial.result.inject_time) << what;
    EXPECT_EQ(par.result.arrive_time, serial.result.arrive_time) << what;
    EXPECT_EQ(par.result.runtime, serial.result.runtime) << what;
    EXPECT_EQ(par.result.events, serial.result.events) << what;
    EXPECT_EQ(par.result.iterations, serial.result.iterations) << what;
    EXPECT_EQ(par.stats_report, serial.stats_report) << what;
  }
}

class ParallelReplayMatrix : public ::testing::TestWithParam<NetKind> {};

TEST_P(ParallelReplayMatrix, AnyThreadCountIsBitIdenticalToSerial) {
  const NetSpec spec = spec_of(GetParam());
  const MatrixRun serial = run_spec(shared_rt(), spec);
  ASSERT_FALSE(serial.result.arrive_time.empty());
  for (const unsigned threads : {2u, 3u, 8u}) {
    expect_concurrent_runs_match(shared_rt(), spec, serial, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ParallelReplayMatrix,
                         ::testing::ValuesIn(kAllKinds), [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Topology determinism matrix ------------------------------------------

// The graph-backed fabrics go through the same guarantee: every network
// kind, on a 3D lattice and on a file-defined irregular fabric, replays
// bit-identically on any number of concurrent sessions. Traces are captured per
// topology (the replay engine requires the trace's core count to match the
// fabric), with the fabric's natural routing algorithm.
NetSpec spec_on(NetKind kind, const noc::Topology& topo) {
  NetSpec s;
  s.kind = kind;
  s.topo = topo;
  s.enoc.routing = noc::default_algo(topo);
  s.hybrid.electrical.routing = s.enoc.routing;
  return s;
}

const ReplayTrace& trace_on(const noc::Topology& topo) {
  static std::map<std::string, std::unique_ptr<ReplayTrace>> cache;
  auto& slot = cache[topo.describe()];
  if (!slot) {
    fullsys::AppParams app = small_app("jacobi");
    app.cores = topo.node_count();
    slot = std::make_unique<ReplayTrace>(
        run_execution(app, spec_on(NetKind::kEnoc, topo), small_sys()).trace);
  }
  return *slot;
}

/// The shipped 12-node dragonfly-style fabric, located from this source
/// file's absolute path (same idiom as ShippedConfigsParse).
const noc::Topology* shipped_file_topology() {
  static const std::unique_ptr<noc::Topology> topo = [] {
    std::string root = __FILE__;
    const auto cut = root.rfind("tests/");
    if (cut == std::string::npos) return std::unique_ptr<noc::Topology>();
    try {
      return std::make_unique<noc::Topology>(
          noc::Topology::from_file(root.substr(0, cut) +
                                   "configs/group12.topo"));
    } catch (const std::exception&) {
      return std::unique_ptr<noc::Topology>();
    }
  }();
  return topo.get();
}

class TopologyReplayMatrix : public ::testing::TestWithParam<NetKind> {};

TEST_P(TopologyReplayMatrix, Mesh3DIsBitIdenticalAtAnyThreadCount) {
  const NetSpec spec = spec_on(GetParam(), noc::Topology::mesh3d(4, 4, 2));
  const ReplayTrace& rt = trace_on(spec.topo);
  const MatrixRun serial = run_spec(rt, spec);
  ASSERT_FALSE(serial.result.arrive_time.empty());
  for (const unsigned threads : {2u, 8u}) {
    expect_concurrent_runs_match(rt, spec, serial, threads);
  }
}

TEST_P(TopologyReplayMatrix, FileFabricIsBitIdenticalAtAnyThreadCount) {
  const noc::Topology* topo = shipped_file_topology();
  if (topo == nullptr) GTEST_SKIP() << "configs/group12.topo not reachable";
  const NetSpec spec = spec_on(GetParam(), *topo);
  const ReplayTrace& rt = trace_on(spec.topo);
  const MatrixRun serial = run_spec(rt, spec);
  ASSERT_FALSE(serial.result.arrive_time.empty());
  for (const unsigned threads : {2u, 8u}) {
    expect_concurrent_runs_match(rt, spec, serial, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopologyReplayMatrix,
                         ::testing::ValuesIn(kAllKinds), [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- In-place rebind fast path -------------------------------------------

void expect_identical(const ReplayResult& a, const ReplayResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.inject_time, b.inject_time) << what;
  EXPECT_EQ(a.arrive_time, b.arrive_time) << what;
  EXPECT_EQ(a.runtime, b.runtime) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
}

// Parameter-only spec changes must patch the network in place and still be
// bit-identical to a freshly built session, including the walk back to the
// original parameters.
TEST(InPlaceRebind, EnocParameterChangesMatchFresh) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;

  NetSpec base = spec_of(NetKind::kEnoc);
  NetSpec wide = base;
  wide.enoc.vcs_per_vnet = 4;  // resizes every per-VC structure
  wide.enoc.buffer_depth = 2;
  NetSpec matrix = base;
  matrix.enoc.arbiter = enoc::ArbiterKind::kMatrix;

  ReplaySession session(rt, base, cfg);
  for (const NetSpec* spec : {&wide, &matrix, &base}) {
    session.rebind(*spec);
    EXPECT_TRUE(session.last_rebind_in_place());
    const ReplayResult fresh = replay(rt, make_factory(*spec), cfg);
    expect_identical(session.run(), fresh, spec->describe());
  }
}

TEST(InPlaceRebind, IdealParameterChangesMatchFresh) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;

  NetSpec base = spec_of(NetKind::kIdeal);
  NetSpec slow = base;
  slow.ideal.per_hop_latency = 7;
  slow.ideal.bytes_per_cycle = 4;

  ReplaySession session(rt, base, cfg);
  session.rebind(slow);
  EXPECT_TRUE(session.last_rebind_in_place());
  expect_identical(session.run(), replay(rt, make_factory(slow), cfg),
                   "ideal reparam");
  session.rebind(base);
  EXPECT_TRUE(session.last_rebind_in_place());
  expect_identical(session.run(), replay(rt, make_factory(base), cfg),
                   "ideal back to base");
}

// Kind or topology changes — and the parameter-baked ONoC backends — must
// fall back to the full rebuild, transparently.
TEST(InPlaceRebind, StructuralChangesFallBackToRebuild) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;

  ReplaySession session(rt, spec_of(NetKind::kEnoc), cfg);
  session.rebind(spec_of(NetKind::kIdeal));  // kind change
  EXPECT_FALSE(session.last_rebind_in_place());
  expect_identical(session.run(),
                   replay(rt, make_factory(spec_of(NetKind::kIdeal)), cfg),
                   "kind change");

  NetSpec onoc_a = spec_of(NetKind::kOnocToken);
  session.rebind(onoc_a);
  EXPECT_FALSE(session.last_rebind_in_place());
  NetSpec onoc_b = onoc_a;
  onoc_b.onoc.wavelengths += 4;  // ONoC params are construction-baked
  session.rebind(onoc_b);
  EXPECT_FALSE(session.last_rebind_in_place());
  expect_identical(session.run(), replay(rt, make_factory(onoc_b), cfg),
                   "onoc param change rebuilds");

  NetSpec torus = spec_of(NetKind::kEnoc);
  torus.topo = noc::Topology::torus(4, 4);
  torus.enoc.routing = noc::RoutingAlgo::kTorusDor;
  session.rebind(torus);
  EXPECT_FALSE(session.last_rebind_in_place());  // topology change
  expect_identical(session.run(), replay(rt, make_factory(torus), cfg),
                   "topology change rebuilds");
}

// An equal spec is a no-op rebind (the pure reset-reuse path).
TEST(InPlaceRebind, EqualSpecIsNoop) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;
  const NetSpec spec = spec_of(NetKind::kEnoc);

  ReplaySession session(rt, spec, cfg);
  const ReplayResult fresh = replay(rt, make_factory(spec), cfg);
  expect_identical(session.run(), fresh, "before");
  const noc::Network* before = &session.network();
  session.rebind(spec);
  EXPECT_TRUE(session.last_rebind_in_place());
  EXPECT_EQ(&session.network(), before);  // same object, not rebuilt
  expect_identical(session.run(), fresh, "after noop rebind");
}

}  // namespace
}  // namespace sctm::core
