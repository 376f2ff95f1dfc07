// The kept-edge index (build_kept_deps) and the replay scan that walks it.
//
// The index is parent-major: a delivery walks only its own enforced edges.
// These tests check it against an independent, record-major reference of
// the kept sets (the `window` smallest-slack deps, ties broken by parent
// id), and check that replay over it injects every record at exactly
// max(arrive' + slack) over its kept parents, at fan-in and fan-out far
// beyond what the capture apps produce per record.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/replay.hpp"

namespace sctm::core {
namespace {

using Edge = std::pair<std::uint32_t, Cycle>;  // (parent index, slack)

trace::TraceRecord record(MsgId id, NodeId src, NodeId dst, Cycle inject,
                          Cycle arrive) {
  trace::TraceRecord r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.size_bytes = 16;
  r.inject_time = inject;
  r.arrive_time = arrive;
  return r;
}

// Makes records[child] depend on records[parent] with the slack the capture
// times imply.
void depend(trace::Trace& t, std::size_t child, std::size_t parent) {
  const trace::TraceRecord& p = t.records[parent];
  trace::TraceRecord& c = t.records[child];
  c.deps.push_back({p.id, c.inject_time - p.arrive_time});
}

trace::Trace empty_trace(std::int32_t nodes) {
  trace::Trace t;
  t.app = "synthetic";
  t.capture_network = "ideal";
  t.nodes = nodes;
  return t;
}

// Record-major reference: record i's kept deps as sorted (parent, slack).
std::vector<std::vector<Edge>> reference_kept(const ReplayTrace& rt,
                                              std::uint32_t window) {
  std::vector<std::vector<Edge>> out(rt.size());
  for (std::uint32_t i = 0; i < rt.size(); ++i) {
    std::vector<std::tuple<Cycle, MsgId, std::uint32_t>> all;
    for (std::uint32_t k = 0; k < rt.dep_count(i); ++k) {
      all.emplace_back(rt.deps_begin(i)[k].slack, rt.deps_begin(i)[k].parent,
                       rt.dep_parent_index(i, k));
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min<std::size_t>(all.size(), window));
    for (const auto& [slack, id, p] : all) out[i].emplace_back(p, slack);
    std::sort(out[i].begin(), out[i].end());
  }
  return out;
}

// Regroups the parent-major edges by child, checking along the way that
// every parent's children are ascending.
std::vector<std::vector<Edge>> regroup(const KeptDepsCsr& csr,
                                       std::uint32_t n) {
  std::vector<std::vector<Edge>> out(n);
  EXPECT_EQ(csr.child_offset.size(), n + 1u);
  for (std::uint32_t p = 0; p < n; ++p) {
    EXPECT_TRUE(std::is_sorted(csr.child.begin() + csr.edges_begin(p),
                               csr.child.begin() + csr.edges_end(p)))
        << "children of " << p << " not ascending";
    for (std::uint32_t e = csr.edges_begin(p); e < csr.edges_end(p); ++e) {
      out[csr.child[e]].emplace_back(p, csr.slack[e]);
    }
  }
  for (auto& v : out) std::sort(v.begin(), v.end());
  return out;
}

void expect_matches_reference(const ReplayTrace& rt, std::uint32_t window) {
  ReplayConfig cfg;
  cfg.dependency_window = window;
  const KeptDepsCsr csr = build_kept_deps(rt, cfg);
  const auto want = reference_kept(rt, window);
  EXPECT_EQ(regroup(csr, rt.size()), want);
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < rt.size(); ++i) {
    EXPECT_EQ(csr.count(i), want[i].size()) << "record " << i;
    total += want[i].size();
  }
  EXPECT_EQ(csr.child.size(), total);
  EXPECT_EQ(csr.slack.size(), total);
}

// Records 0..3 are roots; record 4 depends on all of them, listed out of id
// order, with slacks 10, 5, 5, 2 — records 1 and 2 tie on slack.
trace::Trace tie_trace() {
  trace::Trace t = empty_trace(4);
  t.records.push_back(record(1, 0, 1, 0, 90));
  t.records.push_back(record(2, 1, 2, 0, 95));
  t.records.push_back(record(3, 2, 3, 0, 95));
  t.records.push_back(record(4, 3, 0, 0, 98));
  t.records.push_back(record(5, 1, 3, 100, 110));
  for (const std::size_t p : {2u, 0u, 3u, 1u}) depend(t, 4, p);
  t.records.push_back(record(6, 0, 2, 120, 130));
  depend(t, 5, 4);
  depend(t, 5, 1);
  return t;
}

TEST(KeptDeps, FullWindowKeepsEveryEdge) {
  const ReplayTrace rt(tie_trace());
  expect_matches_reference(rt, ReplayConfig{}.dependency_window);
  ReplayConfig cfg;
  const KeptDepsCsr csr = build_kept_deps(rt, cfg);
  EXPECT_EQ(csr.count(4), 4u);
  EXPECT_EQ(csr.child.size(), 6u);
}

TEST(KeptDeps, TruncatedWindowBreaksSlackTiesByParentId) {
  const ReplayTrace rt(tie_trace());
  for (std::uint32_t w = 0; w <= 4; ++w) expect_matches_reference(rt, w);

  // Window 2 keeps record 4's slack-2 dep (index 3) and, of the slack-5
  // tie, id 2 (index 1) although id 3 (index 2) is listed first. Record 5
  // fits the window, so index 1's edges are children 4 then 5.
  ReplayConfig cfg;
  cfg.dependency_window = 2;
  const KeptDepsCsr csr = build_kept_deps(rt, cfg);
  ASSERT_EQ(csr.count(4), 2u);
  ASSERT_EQ(csr.edges_end(1) - csr.edges_begin(1), 2u);
  EXPECT_EQ(csr.child[csr.edges_begin(1)], 4u);
  EXPECT_EQ(csr.slack[csr.edges_begin(1)], 5u);
  EXPECT_EQ(csr.child[csr.edges_begin(1) + 1], 5u);
  EXPECT_EQ(csr.edges_end(2) - csr.edges_begin(2), 0u);
  EXPECT_EQ(csr.edges_end(0) - csr.edges_begin(0), 0u);
  ASSERT_EQ(csr.edges_end(3) - csr.edges_begin(3), 1u);
  EXPECT_EQ(csr.slack[csr.edges_begin(3)], 2u);
}

TEST(KeptDeps, DuplicateParentKeepsBothEdges) {
  trace::Trace t = empty_trace(4);
  t.records.push_back(record(1, 0, 1, 0, 10));
  t.records.push_back(record(2, 1, 2, 0, 12));
  t.records.push_back(record(3, 1, 3, 20, 30));
  depend(t, 2, 0);
  depend(t, 2, 1);
  depend(t, 2, 0);
  t.records.push_back(record(4, 2, 0, 25, 35));
  depend(t, 3, 0);
  const ReplayTrace rt(t);
  for (std::uint32_t w = 0; w <= 4; ++w) expect_matches_reference(rt, w);

  ReplayConfig cfg;
  const KeptDepsCsr csr = build_kept_deps(rt, cfg);
  EXPECT_EQ(csr.count(2), 3u);
  // Parent 0's edges: child 2 twice, then child 3 — ascending child order.
  ASSERT_EQ(csr.edges_end(0) - csr.edges_begin(0), 3u);
  const std::uint32_t e = csr.edges_begin(0);
  EXPECT_EQ(csr.child[e], 2u);
  EXPECT_EQ(csr.child[e + 1], 2u);
  EXPECT_EQ(csr.child[e + 2], 3u);
  EXPECT_EQ(csr.slack[e], 10u);
}

TEST(KeptDeps, NaiveModeKeepsNothing) {
  const ReplayTrace rt(tie_trace());
  ReplayConfig cfg;
  cfg.mode = ReplayMode::kNaive;
  const KeptDepsCsr csr = build_kept_deps(rt, cfg);
  EXPECT_TRUE(csr.child.empty());
  for (std::uint32_t i = 0; i < rt.size(); ++i) EXPECT_EQ(csr.count(i), 0u);
}

// 300 roots, a barrier-release record depending on every one of them, 300
// dependents of that release (every third also depends on a root), and a
// record listing the release twice.
trace::Trace fan_trace() {
  constexpr std::size_t kRoots = 300;
  trace::Trace t = empty_trace(16);
  MsgId id = 1;
  Cycle last_arrive = 0;
  for (std::size_t i = 0; i < kRoots; ++i) {
    const Cycle inject = i % 37;
    const Cycle arrive = inject + 5 + i % 3;
    t.records.push_back(record(id++, static_cast<NodeId>(i % 16),
                               static_cast<NodeId>((i * 7 + 3) % 16), inject,
                               arrive));
    last_arrive = std::max(last_arrive, arrive);
  }
  const std::size_t release = t.records.size();
  t.records.push_back(record(id++, 0, 5, last_arrive + 1, last_arrive + 9));
  for (std::size_t p = 0; p < kRoots; ++p) depend(t, release, p);
  const Cycle release_arrive = t.records[release].arrive_time;
  for (std::size_t j = 0; j < kRoots; ++j) {
    const std::size_t c = t.records.size();
    t.records.push_back(record(id++, 5, static_cast<NodeId>(j % 16),
                               release_arrive + j % 11,
                               release_arrive + j % 11 + 6));
    depend(t, c, release);
    if (j % 3 == 0) depend(t, c, (j * 13) % kRoots);
  }
  const std::size_t twice = t.records.size();
  t.records.push_back(record(id++, 5, 9, release_arrive + 4,
                             release_arrive + 12));
  depend(t, twice, release);
  depend(t, twice, release);
  return t;
}

TEST(KeptDeps, FanInAndFanOutInjectAtMaxOfKeptParents) {
  const ReplayTrace rt(fan_trace());
  NetSpec spec;
  spec.kind = NetKind::kIdeal;
  spec.ideal.per_hop_latency = 3;  // slower than the captured times
  for (const std::uint32_t window : {ReplayConfig{}.dependency_window, 2u}) {
    ReplayConfig cfg;
    cfg.dependency_window = window;
    // One pass: records with kept deps have no lower bound, so each is
    // injected exactly when its last kept parent's slack runs out.
    const ReplayResult r = replay_once(rt, make_factory(spec), cfg);
    const auto kept = reference_kept(rt, window);
    std::size_t checked = 0;
    for (std::uint32_t i = 0; i < rt.size(); ++i) {
      if (kept[i].empty()) {
        EXPECT_EQ(r.inject_time[i], rt.inject_time(i)) << "root " << i;
        continue;
      }
      Cycle want = 0;
      for (const auto& [p, slack] : kept[i]) {
        want = std::max(want, r.arrive_time[p] + slack);
      }
      EXPECT_EQ(r.inject_time[i], want) << "record " << i << " window "
                                        << window;
      ++checked;
    }
    EXPECT_EQ(checked, 302u);
  }
}

}  // namespace
}  // namespace sctm::core
