// Differential tests for the session reset/reuse protocol: a ReplaySession
// recycled through Simulator::reset() + Network::reset() must be
// bit-identical to fresh construction on every network kind and in both
// replay modes, including after rebind() and across randomized walks over
// the design space.
#include "core/replay_session.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/driver.hpp"

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

// One shared capture (the tests only compare replays against each other, so
// a single trace exercises every network kind).
const ReplayTrace& shared_rt() {
  static const trace::Trace trace =
      run_execution(small_app("fft"), spec_of(NetKind::kEnoc), small_sys())
          .trace;
  static const ReplayTrace rt(trace);
  return rt;
}

ReplayConfig config_for(ReplayMode mode) {
  ReplayConfig cfg;
  cfg.mode = mode;
  return cfg;
}

// Full-schedule equality: every replayed time, the derived runtime, the
// kernel event count and the iteration count. This is the "bit-identical"
// acceptance bar — not a summary-statistic comparison.
void expect_identical(const ReplayResult& reused, const ReplayResult& fresh,
                      const std::string& what) {
  EXPECT_EQ(reused.inject_time, fresh.inject_time) << what;
  EXPECT_EQ(reused.arrive_time, fresh.arrive_time) << what;
  EXPECT_EQ(reused.runtime, fresh.runtime) << what;
  EXPECT_EQ(reused.events, fresh.events) << what;
  EXPECT_EQ(reused.iterations, fresh.iterations) << what;
}

class SessionKindMode
    : public ::testing::TestWithParam<std::tuple<NetKind, ReplayMode>> {};

// Reset-reuse differential: one session run repeatedly must reproduce the
// fresh-construction result exactly, on every network kind in both modes.
TEST_P(SessionKindMode, ResetReuseMatchesFresh) {
  const auto [kind, mode] = GetParam();
  const ReplayTrace& rt = shared_rt();
  const NetSpec spec = spec_of(kind);
  const ReplayConfig cfg = config_for(mode);

  const ReplayResult fresh = replay(rt, make_factory(spec), cfg);
  ReplaySession session(rt, make_factory(spec), cfg);
  for (int round = 1; round <= 3; ++round) {
    const ReplayResult& reused = session.run();
    expect_identical(reused, fresh, "run round " + std::to_string(round));
  }
}

// Same differential for the single-pass entry point, which defers the stat
// snapshot (the allocation-free steady-state path).
TEST_P(SessionKindMode, RunPassReuseMatchesReplayOnce) {
  const auto [kind, mode] = GetParam();
  const ReplayTrace& rt = shared_rt();
  const NetSpec spec = spec_of(kind);
  const ReplayConfig cfg = config_for(mode);

  ReplayResult fresh;
  {
    ReplaySession once(rt, make_factory(spec), cfg);
    once.run_pass();
    once.snapshot_stats();
    fresh = once.take_result();
  }
  ReplaySession session(rt, make_factory(spec), cfg);
  for (int round = 1; round <= 3; ++round) {
    const ReplayResult& reused = session.run_pass();
    expect_identical(reused, fresh, "pass round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SessionKindMode,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(ReplayMode::kNaive,
                                         ReplayMode::kSelfCorrecting)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == ReplayMode::kNaive ? "_naive"
                                                            : "_sctm";
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The iterative engine (truncated window, multi-pass refinement) recycles
// prev_inject_ and the pass log across runs; reuse must still converge to
// the identical trajectory.
TEST(ReplaySession, IterativeRefinementMatchesFresh) {
  const ReplayTrace& rt = shared_rt();
  NetSpec target = spec_of(NetKind::kIdeal);
  target.ideal.per_hop_latency = 20;  // force real correction work
  ReplayConfig cfg;
  cfg.dependency_window = 1;
  cfg.max_iterations = 12;
  cfg.convergence_threshold = 0.5;

  const ReplayResult fresh = replay(rt, make_factory(target), cfg);
  ASSERT_GT(fresh.iterations, 1);  // the config must actually iterate

  ReplaySession session(rt, make_factory(target), cfg);
  for (int round = 1; round <= 2; ++round) {
    const ReplayResult& reused = session.run();
    expect_identical(reused, fresh, "iterative round " + std::to_string(round));
    EXPECT_EQ(reused.iteration_log.size(), fresh.iteration_log.size());
    for (std::size_t i = 0; i < fresh.iteration_log.size(); ++i) {
      EXPECT_EQ(reused.iteration_log[i].iter, fresh.iteration_log[i].iter);
      EXPECT_DOUBLE_EQ(reused.iteration_log[i].residual,
                       fresh.iteration_log[i].residual);
      EXPECT_EQ(reused.iteration_log[i].events, fresh.iteration_log[i].events);
    }
  }
}

// rebind() swaps the network under a live session (what exploration does
// between unequal candidates); results before, after, and after rebinding
// back must all match fresh construction.
TEST(ReplaySession, RebindMatchesFresh) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;
  const NetSpec enoc = spec_of(NetKind::kEnoc);
  const NetSpec ideal = spec_of(NetKind::kIdeal);

  const ReplayResult fresh_enoc = replay(rt, make_factory(enoc), cfg);
  const ReplayResult fresh_ideal = replay(rt, make_factory(ideal), cfg);

  ReplaySession session(rt, make_factory(enoc), cfg);
  expect_identical(session.run(), fresh_enoc, "initial enoc");
  session.rebind(make_factory(ideal));
  expect_identical(session.run(), fresh_ideal, "after rebind to ideal");
  session.rebind(make_factory(enoc));
  expect_identical(session.run(), fresh_enoc, "after rebind back to enoc");
}

// Randomized walk: one session driven through a random sequence of network
// kinds (pure reset when the kind repeats, rebind when it changes) must
// match fresh construction at every step. Seeded, so failures reproduce.
TEST(ReplaySession, RandomizedWalkMatchesFresh) {
  const ReplayTrace& rt = shared_rt();
  for (const ReplayMode mode :
       {ReplayMode::kNaive, ReplayMode::kSelfCorrecting}) {
    const ReplayConfig cfg = config_for(mode);
    std::map<int, ReplayResult> fresh;  // keyed by kind index, lazily filled
    Rng rng(0xC0FFEE + static_cast<std::uint64_t>(mode));

    int bound = static_cast<int>(rng.next_below(std::size(kAllKinds)));
    ReplaySession session(rt, make_factory(spec_of(kAllKinds[bound])), cfg);
    for (int step = 0; step < 12; ++step) {
      const int pick = static_cast<int>(rng.next_below(std::size(kAllKinds)));
      if (pick != bound) {
        session.rebind(make_factory(spec_of(kAllKinds[pick])));
        bound = pick;
      }
      auto it = fresh.find(bound);
      if (it == fresh.end()) {
        it = fresh
                 .emplace(bound, replay(rt, make_factory(spec_of(
                                            kAllKinds[bound])),
                                        cfg))
                 .first;
      }
      expect_identical(session.run(), it->second,
                       std::string("step ") + std::to_string(step) + " on " +
                           to_string(kAllKinds[bound]));
    }
  }
}

// take_result() moves the schedule out and the next run must rebuild it
// from scratch — the wrapper API (replay) depends on this.
TEST(ReplaySession, TakeResultLeavesSessionReusable) {
  const ReplayTrace& rt = shared_rt();
  const ReplayConfig cfg;
  const NetSpec spec = spec_of(NetKind::kEnoc);

  ReplaySession session(rt, make_factory(spec), cfg);
  session.run();
  const ReplayResult taken = session.take_result();
  EXPECT_EQ(taken.inject_time.size(), rt.size());

  const ReplayResult& again = session.run();
  expect_identical(again, taken, "run after take_result");
}

}  // namespace
}  // namespace sctm::core
