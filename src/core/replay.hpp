// Trace replay engines: the naive timestamped strawman and the
// Self-Correction Trace Model (the paper's contribution).
//
// Naive replay injects every record at its captured timestamp. It is fast
// but frozen: when the target network is faster or slower than the capture
// network, the injected load no longer matches what a real system would do.
//
// Self-correcting replay rebuilds injection times from the dependency
// annotations on the fly: record r becomes eligible when all of its parents
// have arrived *in the replay*, and is injected at
//     t'(r) = max over deps (arrival'(parent) + slack).
// Dependency-free records anchor at their captured timestamps. Because the
// dependency graph is a DAG in capture order, a single event-driven pass
// yields the exact fixed point when dependencies are complete — replaying on
// the capture network reproduces the captured schedule bit-exactly (tested).
//
// Truncated dependencies model a bounded capture/replay budget: only the `W`
// tightest (smallest-slack) dependencies are enforced online; each record
// also carries a baseline time (initially the captured timestamp) that acts
// as a lower bound. The driver then iterates: after each pass the baselines
// are re-derived from the full dependency list evaluated against the
// previous pass's arrival times, until injection times stop moving — the
// "self-correction ... in a reasonable period of time" trade-off knob.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "core/replay_input.hpp"
#include "noc/network.hpp"
#include "trace/record.hpp"

namespace sctm::core {

enum class ReplayMode { kNaive, kSelfCorrecting };

const char* to_string(ReplayMode m);

struct ReplayConfig {
  ReplayMode mode = ReplayMode::kSelfCorrecting;
  /// Max dependencies enforced online per record (smallest-slack first).
  /// Unlimited by default; ignored in naive mode.
  std::uint32_t dependency_window = std::numeric_limits<std::uint32_t>::max();
  /// Iterative refinement for truncated windows (see IterativeReplayer).
  int max_iterations = 8;
  /// Converged when the mean |Δinject| between passes drops below this.
  double convergence_threshold = 0.5;
  /// Ignored: nothing reads it, and no CLI flag or config key sets it. The
  /// benchmark definition still assigns it for its `lanes=W` reference
  /// session; the field goes together with that session in a change to the
  /// benchmark.
  unsigned threads = 1;
};

/// Outcome of one replay pass.
struct ReplayResult {
  /// Per-iteration observability record (the convergence trajectory the
  /// metrics document exports): pass number, mean |Δinject| against the
  /// previous pass (0 for the first / exactly-converged passes), kernel
  /// events executed by the pass, and its wall time.
  struct IterationRecord {
    int iter = 1;
    double residual = 0.0;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
  };

  /// Per record (same order as the trace): replayed times.
  std::vector<Cycle> inject_time;
  std::vector<Cycle> arrive_time;
  /// Predicted application runtime (latest arrival).
  Cycle runtime = 0;
  /// Kernel events executed across all passes (cost metric, R-A2).
  std::uint64_t events = 0;
  /// Iterations actually used (1 for single-pass engines).
  int iterations = 1;
  /// Mean |Δinject| of the final iteration (0 when exactly converged).
  double residual = 0.0;
  /// One record per pass, in pass order.
  std::vector<IterationRecord> iteration_log;
  /// Stat-registry snapshot of the (final) pass's simulator — the target
  /// network's counters (transmissions, arbitration waits, scoreboard
  /// activity), surfaced in the run-metrics document.
  StatRegistry stats;

  Histogram latency_histogram() const;
};

/// Runs one replay pass of `trace` over a fresh network built by `factory`.
/// The factory is called once per pass with the Simulator to use; it must
/// return a network with trace.nodes endpoints.
using NetworkFactory =
    std::function<std::unique_ptr<noc::Network>(Simulator&)>;

/// The enforced (kept) dependency edges of a trace, indexed by parent: the
/// edges out of record p are [child_offset[p], child_offset[p+1]) of the
/// parallel `child`/`slack` arrays, in ascending child order. A delivery
/// walks exactly its own kept edges, so the per-cycle dependency scan costs
/// O(edges resolved) however wide the full dependency lists are. Built once
/// per trace and replay config; the iterative engine replays it many times.
struct KeptDepsCsr {
  std::vector<std::uint32_t> kept;          // per record: enforced dep count
  std::vector<std::uint32_t> child_offset;  // size records+1, parent-major
  std::vector<std::uint32_t> child;         // dependent record index
  std::vector<Cycle> slack;                 // parallels child

  std::uint32_t count(std::uint32_t rec) const { return kept[rec]; }
  std::uint32_t edges_begin(std::uint32_t parent) const {
    return child_offset[parent];
  }
  std::uint32_t edges_end(std::uint32_t parent) const {
    return child_offset[parent + 1];
  }
};

/// Builds the kept-edge index for `rt` under `config` in O(edges): no edges
/// in naive mode; otherwise each record keeps its `window` smallest-slack
/// deps (ties broken by parent id), or all of them when the list fits.
KeptDepsCsr build_kept_deps(const ReplayTrace& rt, const ReplayConfig& config);

/// Batches records that become eligible at the same cycle so they can be
/// injected in capture order (same-cycle arbitration ties must resolve as
/// they did at capture). Allocation-free in steady state, upholding the
/// kernel invariant (DESIGN.md §7): the cycle→batch index is a
/// capacity-retaining FlatMap and batch storage is drawn from a recycled
/// vector pool — unlike the former std::unordered_map<Cycle, std::vector>,
/// which put a node allocation plus vector churn on every batch open/close.
class EligibilityBatcher {
 public:
  /// Appends `idx` to cycle `t`'s batch. Returns true when `t` had no open
  /// batch — the caller must then schedule the flush event for `t`.
  bool add(Cycle t, std::uint32_t idx) {
    if (const std::uint32_t* slot = slot_at_.find(t)) {
      pool_[*slot].push_back(idx);
      return false;
    }
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    pool_[slot].push_back(idx);
    slot_at_.insert(t, slot);
    return true;
  }

  /// Sorts cycle `t`'s batch ascending (record/capture order), invokes
  /// fn(idx) for each entry, and recycles the batch slot. No-op when `t` has
  /// no open batch. The mapping is retired before dispatch, so a re-entrant
  /// add() for the same cycle opens a fresh batch instead of corrupting the
  /// one being drained.
  template <typename Fn>
  void flush(Cycle t, Fn&& fn) {
    const std::uint32_t* found = slot_at_.find(t);
    if (found == nullptr) return;
    const std::uint32_t slot = *found;
    slot_at_.erase(t);
    std::sort(pool_[slot].begin(), pool_[slot].end());
    // Index-based: fn may grow the pool (re-entrant add for another cycle).
    for (std::size_t i = 0; i < pool_[slot].size(); ++i) fn(pool_[slot][i]);
    pool_[slot].clear();
    free_.push_back(slot);
  }

  /// Levels every pooled batch's capacity up to the high-water batch size.
  /// The slot->cycle assignment permutes across passes (LIFO free-list
  /// recycling), so without this a slot that only ever held small batches
  /// re-grows when a later identical pass hands it a large one — capacities
  /// converge only after several passes. The session calls this at pass end
  /// so that pass 2 onward batches without touching the heap.
  void equalize() {
    std::size_t cap = 0;
    for (const auto& b : pool_) cap = std::max(cap, b.capacity());
    for (auto& b : pool_) b.reserve(cap);
  }

  std::size_t open_batches() const { return slot_at_.size(); }

 private:
  FlatMap<Cycle, std::uint32_t> slot_at_;
  std::vector<std::vector<std::uint32_t>> pool_;
  std::vector<std::uint32_t> free_;
};

/// Full engine: naive mode and full-window self-correcting mode run one
/// pass; truncated windows iterate to a fixed point per the config.
ReplayResult replay(const ReplayTrace& rt, const NetworkFactory& factory,
                    const ReplayConfig& config);

}  // namespace sctm::core
