#include "core/replay.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/replay_session.hpp"

namespace sctm::core {

const char* to_string(ReplayMode m) {
  switch (m) {
    case ReplayMode::kNaive: return "naive";
    case ReplayMode::kSelfCorrecting: return "self-correcting";
  }
  return "?";
}

Histogram ReplayResult::latency_histogram() const {
  Histogram h;
  for (std::size_t i = 0; i < inject_time.size(); ++i) {
    h.add(arrive_time[i] - inject_time[i]);
  }
  return h;
}

KeptDepsCsr build_kept_deps(const ReplayTrace& rt,
                            const ReplayConfig& config) {
  const std::uint32_t n = rt.size();
  const std::uint32_t window = config.dependency_window;

  KeptDepsCsr csr;
  csr.kept.assign(n, 0);
  csr.child_offset.assign(n + 1, 0);
  if (config.mode == ReplayMode::kNaive) return csr;

  // Calls fn(k) for each kept position k of record i's full dependency list:
  // all of them when the list fits the window, else the `window` smallest by
  // (slack, parent id). `order` is scratch reused across records.
  std::vector<std::uint32_t> order;
  auto for_each_kept = [&](std::uint32_t i, auto&& fn) {
    const std::uint32_t dc = rt.dep_count(i);
    if (dc <= window) {
      for (std::uint32_t k = 0; k < dc; ++k) fn(k);
      return;
    }
    const trace::TraceDep* deps = rt.deps_begin(i);
    order.resize(dc);
    std::iota(order.begin(), order.end(), 0u);
    std::partial_sort(order.begin(), order.begin() + window, order.end(),
                      [deps](std::uint32_t a, std::uint32_t b) {
                        if (deps[a].slack != deps[b].slack) {
                          return deps[a].slack < deps[b].slack;
                        }
                        return deps[a].parent < deps[b].parent;
                      });
    for (std::uint32_t j = 0; j < window; ++j) fn(order[j]);
  };

  // Count edges per parent into child_offset[p + 1], prefix-sum to starts.
  for (std::uint32_t i = 0; i < n; ++i) {
    csr.kept[i] = std::min(rt.dep_count(i), window);
    for_each_kept(i, [&](std::uint32_t k) {
      ++csr.child_offset[rt.dep_parent_index(i, k) + 1];
    });
  }
  for (std::uint32_t p = 0; p < n; ++p) {
    csr.child_offset[p + 1] += csr.child_offset[p];
  }
  csr.child.resize(csr.child_offset[n]);
  csr.slack.resize(csr.child_offset[n]);

  // Fill in ascending child order, using child_offset[p] as p's cursor (it
  // ends at p + 1's start; the shift below restores the starts).
  for (std::uint32_t i = 0; i < n; ++i) {
    const trace::TraceDep* deps = rt.deps_begin(i);
    for_each_kept(i, [&](std::uint32_t k) {
      const std::uint32_t e = csr.child_offset[rt.dep_parent_index(i, k)]++;
      csr.child[e] = i;
      csr.slack[e] = deps[k].slack;
    });
  }
  for (std::uint32_t p = n; p > 0; --p) {
    csr.child_offset[p] = csr.child_offset[p - 1];
  }
  csr.child_offset[0] = 0;
  return csr;
}

// Both engines are thin wrappers over a throwaway ReplaySession — the
// session owns the simulator, the network and every pass buffer, and is the
// single implementation of the pass loop (see core/replay_session.hpp).
// Long-lived callers (iterative sweeps, exploration) construct a session
// directly and reuse it across passes and candidates.

ReplayResult replay_once(const ReplayTrace& rt, const NetworkFactory& factory,
                         const ReplayConfig& config,
                         const std::vector<Cycle>* baseline) {
  ReplaySession session(rt, factory, config);
  session.run_pass(baseline);
  session.snapshot_stats();
  return session.take_result();
}

ReplayResult replay(const ReplayTrace& rt, const NetworkFactory& factory,
                    const ReplayConfig& config) {
  if (!rt.finalized()) {
    throw std::logic_error("replay: ReplayTrace not finalized");
  }
  if (rt.empty()) {
    // The factory is never called for an empty trace.
    ReplayResult empty;
    return empty;
  }
  ReplaySession session(rt, factory, config);
  session.run();
  return session.take_result();
}

ReplayResult replay(const trace::Trace& trace, const NetworkFactory& factory,
                    const ReplayConfig& config) {
  return replay(ReplayTrace(trace), factory, config);
}

}  // namespace sctm::core
