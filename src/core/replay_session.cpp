#include "core/replay_session.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace sctm::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ReplaySession::ReplaySession(const ReplayTrace& rt,
                             const NetworkFactory& factory,
                             const ReplayConfig& config)
    : rt_(rt),
      config_(config),
      naive_(config.mode == ReplayMode::kNaive) {
  if (!rt_.finalized()) {
    throw std::logic_error("replay: ReplayTrace not finalized");
  }
  kept_ = build_kept_deps(rt_, config_);
  const std::uint32_t n = rt_.size();
  pending_.assign(n, 0);
  ready_.assign(n, 0);
  bound_.assign(n, 0);
  prev_inject_.assign(n, 0);
  result_.inject_time.reserve(n);
  result_.arrive_time.reserve(n);
  bind_network(factory);
}

ReplaySession::ReplaySession(const ReplayTrace& rt, const NetSpec& spec,
                             const ReplayConfig& config)
    : ReplaySession(rt, make_factory(spec), config) {
  bound_spec_ = spec;
  has_spec_ = true;
}

void ReplaySession::bind_network(const NetworkFactory& factory) {
  net_ = factory(sim_);
  if (!net_) throw std::logic_error("replay: factory returned null network");
  if (net_->node_count() != rt_.nodes()) {
    throw std::invalid_argument("replay: network size != trace nodes");
  }
  auto cb = [this](const noc::Message& msg) { on_deliver(msg); };
  static_assert(noc::Network::DeliverFn::fits_inline<decltype(cb)>(),
                "delivery callback must stay within the SBO budget");
  net_->set_deliver_callback(std::move(cb));
}

void ReplaySession::rebind(const NetworkFactory& factory) {
  // Destroy the old network before erasing the stat entries its components
  // hold references into, then rewind the kernel for the fresh build.
  net_.reset();
  sim_.stats().reset();
  sim_.reset();
  has_spec_ = false;
  last_rebind_in_place_ = false;
  bind_network(factory);
}

void ReplaySession::rebind(const NetSpec& spec) {
  if (has_spec_ && bound_spec_ == spec) {
    // Nothing changed; the next pass's reset protocol is all that's needed.
    last_rebind_in_place_ = true;
    return;
  }
  // The in-place paths keep the constructed network (and any installed
  // FaultModel) alive, so they additionally require an unchanged fault
  // regime — a new spec means new streams, rates and registered counters,
  // which only a rebuild delivers.
  const bool same_shape = has_spec_ && bound_spec_.kind == spec.kind &&
                          bound_spec_.topo == spec.topo &&
                          bound_spec_.fault == spec.fault;
  if (same_shape && spec.kind == NetKind::kIdeal) {
    // Parameters are only read at inject time — patch and reset.
    sim_.reset();
    net_->reset();
    static_cast<noc::IdealNetwork&>(*net_).set_params(spec.ideal);
    last_rebind_in_place_ = true;
  } else if (same_shape && spec.kind == NetKind::kEnoc) {
    // Rebuild router datapaths in place; stat entries and delivery callback
    // survive. Kernel reset first — the tick event lives in its queue.
    sim_.reset();
    static_cast<enoc::EnocNetwork&>(*net_).reparameterize(spec.enoc);
    last_rebind_in_place_ = true;
  } else {
    // Kind/topology changes — and the ONoC/Hybrid backends, whose parameters
    // are baked into token rings and channel tables at construction — take
    // the full rebuild path.
    rebind(make_factory(spec));
  }
  bound_spec_ = spec;
  has_spec_ = true;
}

void ReplaySession::inject_record(std::uint32_t idx) {
  noc::Message m;
  m.id = rt_.id(idx);
  m.src = rt_.src(idx);
  m.dst = rt_.dst(idx);
  m.size_bytes = rt_.size_bytes(idx);
  m.cls = rt_.cls(idx);
  m.tag = idx;
  result_.inject_time[idx] = sim_.now();
  net_->inject(m);
}

// Same-cycle injections must enter the network in capture order (record ids
// increase with capture event order), or arbitration ties resolve
// differently and the fixed-point property breaks. Eligible records are
// therefore batched per cycle and flushed sorted from the cycle's unified
// late-band event (on_cycle), which drains the cycle's deliveries first —
// so children unlocked by a same-cycle delivery land in the same sorted
// batch, never in a second sub-batch that would split the capture order.
void ReplaySession::mark_eligible(std::uint32_t idx, Cycle t) {
  if (eligible_.add(t, idx)) ensure_cycle_event(t);
}

void ReplaySession::ensure_cycle_event(Cycle t) {
  if (cycle_event_at_.find(t) != nullptr) return;
  cycle_event_at_.insert(t, 1);
  auto ev = [this, t] { on_cycle(t); };
  static_assert(InlineFn::fits_inline<decltype(ev)>());
  sim_.schedule_late(t, std::move(ev));
}

// The per-cycle merge point: all of cycle t's deliveries ran in the normal
// band, so the delivered buffer is complete when this late event fires. A
// delivery that slips in afterwards (a zero-latency network injecting from
// the flush below) re-arms the event — the late band keeps draining until
// empty, so nothing waits a cycle.
void ReplaySession::on_cycle(Cycle t) {
  drain_deliveries();
  // Retire the sentinel only after the scan: a child the scan makes eligible
  // at this same cycle must join the batch flushed below, not re-arm.
  cycle_event_at_.erase(t);
  eligible_.flush(t, [this](std::uint32_t i) { inject_record(i); });
}

void ReplaySession::on_deliver(const noc::Message& msg) {
  const auto idx = static_cast<std::uint32_t>(msg.tag);
  result_.arrive_time[idx] = msg.arrive_time;
  if (naive_) return;
  if (!rt_.has_dependents(idx)) return;
  delivered_.push_back(idx);
  ensure_cycle_event(sim_.now());
}

// The eligibility scan over this cycle's deliveries, in delivery order: each
// delivery walks its own kept edges, children ascending. Which delivery
// unlocks a child is timing-independent: a pending count only reaches zero
// once every kept parent of the cycle has been applied.
void ReplaySession::drain_deliveries() {
  for (const std::uint32_t idx : delivered_) {
    const Cycle arrive = result_.arrive_time[idx];
    for (std::uint32_t e = kept_.edges_begin(idx); e < kept_.edges_end(idx);
         ++e) {
      const std::uint32_t c = kept_.child[e];
      ready_[c] = std::max(ready_[c], arrive + kept_.slack[e]);
      if (--pending_[c] == 0) {
        mark_eligible(c, std::max({ready_[c], bound_[c], sim_.now()}));
      }
    }
  }
  delivered_.clear();
}

void ReplaySession::run_pass_prepared() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t n = rt_.size();

  // The whole point: reset, don't rebuild. Both calls retain capacity, so
  // after a warmup pass this entire function is allocation-free.
  sim_.reset();
  net_->reset();

  result_.inject_time.assign(n, kNoCycle);
  result_.arrive_time.assign(n, kNoCycle);
  delivered_.clear();
  cycle_event_at_.clear();

  // Seed: fill the pending counts; everything without pending kept deps
  // starts at its bound, in ascending record order.
  for (std::uint32_t i = 0; i < n; ++i) {
    pending_[i] = kept_.count(i);
    ready_[i] = 0;
    if (pending_[i] == 0) mark_eligible(i, bound_[i]);
  }

  sim_.run();
  eligible_.equalize();  // next pass batches allocation-free in any slot

  for (std::uint32_t i = 0; i < n; ++i) {
    if (result_.arrive_time[i] == kNoCycle) {
      throw std::logic_error(
          "replay: record never delivered (dependency cycle or lost "
          "message), id=" + std::to_string(rt_.id(i)));
    }
  }
  result_.runtime =
      n == 0 ? 0
             : *std::max_element(result_.arrive_time.begin(),
                                 result_.arrive_time.end());
  result_.events = sim_.events_executed();
  pass_wall_ = seconds_since(t0);
}

const ReplayResult& ReplaySession::run_pass(const std::vector<Cycle>* baseline) {
  const std::uint32_t n = rt_.size();
  if (baseline != nullptr) {
    for (std::uint32_t i = 0; i < n; ++i) bound_[i] = (*baseline)[i];
  } else {
    // First pass: anchor dependency-less schedules at the captured times.
    for (std::uint32_t i = 0; i < n; ++i) {
      bound_[i] = kept_.count(i) == 0 ? rt_.inject_time(i) : 0;
    }
  }
  run_pass_prepared();
  result_.iterations = 1;
  result_.residual = 0.0;
  result_.iteration_log.clear();
  result_.iteration_log.push_back({1, 0.0, result_.events, pass_wall_});
  return result_;
}

const ReplayResult& ReplaySession::run() {
  const std::uint32_t n = rt_.size();
  std::uint32_t max_deps = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    max_deps = std::max(max_deps, rt_.dep_count(i));
  }
  const bool single_pass = naive_ || config_.dependency_window >= max_deps;

  for (std::uint32_t i = 0; i < n; ++i) {
    bound_[i] = kept_.count(i) == 0 ? rt_.inject_time(i) : 0;
  }
  run_pass_prepared();
  log_.clear();
  log_.push_back({1, 0.0, result_.events, pass_wall_});
  result_.iterations = 1;
  result_.residual = 0.0;
  std::uint64_t total_events = result_.events;

  if (!single_pass) {
    // Iterative self-correction for truncated windows: re-derive each
    // record's lower bound from its *full* dependency list evaluated against
    // the previous pass's arrival times, then replay again, until injection
    // times stop moving.
    for (int iter = 2; iter <= config_.max_iterations; ++iter) {
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t dc = rt_.dep_count(i);
        if (dc == 0) {
          bound_[i] = rt_.inject_time(i);  // anchors never move
          continue;
        }
        Cycle b = 0;
        const trace::TraceDep* deps = rt_.deps_begin(i);
        for (std::uint32_t k = 0; k < dc; ++k) {
          // Parents were resolved to record indices at finalize() — no id
          // lookup in the iteration hot loop.
          const std::uint32_t p = rt_.dep_parent_index(i, k);
          b = std::max(b, result_.arrive_time[p] + deps[k].slack);
        }
        bound_[i] = b;
      }
      prev_inject_.swap(result_.inject_time);
      run_pass_prepared();
      total_events += result_.events;

      double shift = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto a = result_.inject_time[i];
        const auto b = prev_inject_[i];
        shift += static_cast<double>(a > b ? a - b : b - a);
      }
      shift /= static_cast<double>(n);
      log_.push_back({iter, shift, result_.events, pass_wall_});
      result_.iterations = iter;
      result_.residual = shift;
      if (shift < config_.convergence_threshold) break;
    }
  }
  result_.events = total_events;
  result_.iteration_log = log_;
  snapshot_stats();
  return result_;
}

void ReplaySession::snapshot_stats() { result_.stats = sim_.stats(); }

ReplayResult ReplaySession::take_result() {
  ReplayResult out = std::move(result_);
  result_ = ReplayResult{};
  return out;
}

}  // namespace sctm::core
