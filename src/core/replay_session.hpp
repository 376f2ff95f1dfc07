// Reusable replay sessions: one Simulator + one network + all pass-scoped
// buffers, recycled across passes and across runs.
//
// The replay engines are multi-pass by nature (iterative self-correction)
// and multi-run by usage (design-space exploration replays one trace over
// dozens of candidates). The original engine rebuilt the Simulator, the
// network and every per-pass vector from scratch for each pass — paying
// construction, allocation and page-faulting costs that dwarf the event
// kernel on small traces. A ReplaySession instead owns all of that state
// and threads the reset() protocol through it between passes:
//
//   sim_.reset()    — queue cleared with its tie-break counter rewound,
//                     stat values zeroed in place (entries survive, so
//                     components' cached references stay valid),
//   net_->reset()   — routers / arbitration / pending tables back to
//                     freshly-constructed state, capacity retained.
//
// Reset-reuse is bit-identical to fresh construction (the differential
// tests replay every network kind both ways and compare full schedules),
// and passes 2..N run without a single heap allocation (asserted by the
// alloc-counting test).
//
// replay() in replay.hpp is a thin wrapper over a throwaway session;
// exploration keeps one long-lived session per worker thread and rebind()s
// it only when the candidate's NetSpec differs.
//
// A session is single-threaded: parallelism lives across sessions, one per
// explore worker (DESIGN.md §10).
#pragma once

#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/replay.hpp"

namespace sctm::core {

class ReplaySession {
 public:
  /// Binds the session to `rt` (borrowed; must outlive the session), builds
  /// its kept-edge index for `config` and builds the network once via
  /// `factory`.
  ReplaySession(const ReplayTrace& rt, const NetworkFactory& factory,
                const ReplayConfig& config);

  /// Spec-aware binding: like the factory constructor but the session
  /// remembers the NetSpec it built, enabling the rebind(NetSpec) fast path.
  ReplaySession(const ReplayTrace& rt, const NetSpec& spec,
                const ReplayConfig& config);

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  /// Full engine on the current network: one pass in naive / full-window
  /// mode, iterative refinement to a fixed point for truncated windows.
  /// Exactly replay()'s semantics (and used to implement it). The returned
  /// reference is into the session; it stays valid until the next run.
  /// Includes a final stat snapshot.
  const ReplayResult& run();

  /// One replay pass: reset, seed from `baseline` lower bounds (captured
  /// anchors when null), drain. The stat snapshot is deferred to
  /// snapshot_stats() — after a warmup pass this makes repeated calls
  /// allocation-free, which the steady-state alloc test asserts. The result
  /// reference stays valid until the next pass.
  const ReplayResult& run_pass(const std::vector<Cycle>* baseline = nullptr);

  /// Rebuilds the network with a new factory (topology or parameters
  /// changed), erasing the old network's stat entries. The trace binding,
  /// kept-edge index and every pass buffer are kept — this is what
  /// exploration does between candidates whose NetSpec differs; candidates
  /// with equal specs skip it and pure-reset instead. Drops any NetSpec
  /// binding (a factory is opaque, so the fast path can't be keyed).
  void rebind(const NetworkFactory& factory);

  /// Spec-aware rebind. Diffs `spec` against the bound spec memberwise:
  /// equal specs are a no-op; same kind + topology with only parameter
  /// changes patch the live network in place (Ideal: set_params, ENoC:
  /// reparameterize — no reconstruction, stat entries survive); anything
  /// else (kind/topology change, or ONoC/Hybrid whose parameters are baked
  /// into token rings and channel tables at construction) falls back to the
  /// full factory rebuild. Either way the session ends reset and bound to
  /// `spec` — in-place vs rebuild is observable only through
  /// last_rebind_in_place() and speed.
  void rebind(const NetSpec& spec);

  /// Whether the most recent rebind(NetSpec) took the in-place fast path.
  bool last_rebind_in_place() const { return last_rebind_in_place_; }

  /// Copies the simulator's stat registry into result().stats (the one
  /// allocating step run_pass() defers).
  void snapshot_stats();

  /// Moves the result out (for the wrapper API). The session's result
  /// buffers are left empty; the next run()/run_pass() re-sizes them.
  ReplayResult take_result();

  const ReplayResult& result() const { return result_; }
  const ReplayConfig& config() const { return config_; }
  const noc::Network& network() const { return *net_; }
  noc::Network& network() { return *net_; }

 private:
  void bind_network(const NetworkFactory& factory);
  void run_pass_prepared();  // bound_ already filled; core of every pass
  void inject_record(std::uint32_t idx);
  void mark_eligible(std::uint32_t idx, Cycle t);
  void on_deliver(const noc::Message& msg);
  void ensure_cycle_event(Cycle t);
  void on_cycle(Cycle t);
  void drain_deliveries();

  const ReplayTrace& rt_;
  ReplayConfig config_;
  bool naive_;

  KeptDepsCsr kept_;  // enforced dependency edges, parent-major

  Simulator sim_;
  std::unique_ptr<noc::Network> net_;
  NetSpec bound_spec_;
  bool has_spec_ = false;
  bool last_rebind_in_place_ = false;

  // Pass-scoped state, sized once to rt_.size() and recycled every pass.
  std::vector<std::uint32_t> pending_;  // unresolved kept deps per record
  std::vector<Cycle> ready_;   // max(arrival' + slack) over resolved deps
  std::vector<Cycle> bound_;   // per-record lower bound for this pass
  std::vector<Cycle> prev_inject_;  // previous pass's schedule (residual)
  EligibilityBatcher eligible_;
  std::vector<ReplayResult::IterationRecord> log_;  // run()'s pass log

  /// Deliveries of the current cycle with children, in delivery order; the
  /// late-band dependency scan drains them. Capacity retained.
  std::vector<std::uint32_t> delivered_;
  /// Cycles with a scheduled on_cycle event (the unified late-band event:
  /// delivered scan, then eligibility flush — one per cycle).
  FlatMap<Cycle, std::uint32_t> cycle_event_at_;

  ReplayResult result_;
  double pass_wall_ = 0.0;  // wall seconds of the latest pass
};

}  // namespace sctm::core
