// The simulation kernel: one clock, one event queue, one stat registry.
//
// Single-threaded by design. Components schedule closures; the kernel
// advances time to the earliest event and never backwards. A run ends when
// the queue drains, a deadline passes, or a component calls stop().
//
// The event path is allocation-free in steady state: closures are move-only
// InlineFn callables (56-byte small-buffer budget — keep captures within it,
// see common/inline_fn.hpp) and run_until() drains one cycle at a time from
// the queue's calendar wheel (batch dispatch), so no per-event heap traffic
// and no per-event priority-queue maintenance.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace sctm {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Cycle now() const { return now_; }

  /// Schedules `fn` at absolute cycle `t`; `t` must be >= now().
  void schedule_at(Cycle t, EventFn fn);

  /// Schedules `fn` `delta` cycles from now (delta may be 0: runs later this
  /// cycle, after all currently pending same-cycle events).
  void schedule_in(Cycle delta, EventFn fn);

  /// Schedules `fn` in the *late band* of cycle `t`: it runs after every
  /// normally-scheduled event of that cycle regardless of scheduling order.
  void schedule_late(Cycle t, EventFn fn);

  /// Runs until the queue drains or a deadline/stop fires.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs events with time <= deadline. Time is left at
  /// min(deadline, last event time) — i.e. it does not jump past the deadline
  /// when the queue still has later events.
  std::uint64_t run_until(Cycle deadline);

  /// Executes exactly one event if any is pending; returns whether it did.
  bool step();

  /// Requests termination; takes effect before the next event dispatch.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Clears the queue and resets time to zero. Stats are left intact so a
  /// driver can reset between warmup and measurement phases independently.
  void reset_time();

  /// Full session reset: the kernel becomes observationally identical to a
  /// freshly constructed Simulator — queue emptied with its sequence counter
  /// rewound (tie-break order repeats bit-exactly), time/executed-count/stop
  /// flag zeroed, and every registered stat *value* zeroed. Stat registry
  /// *entries* survive, so components holding cached counter/accumulator
  /// references (routers, networks) stay valid across resets; capacity of
  /// the queue's wheel buckets and far heap is retained. Components whose
  /// events were dropped by the queue clear must be reset too (see
  /// noc::Network::reset()).
  void reset();

  StatRegistry& stats() { return stats_; }
  const StatRegistry& stats() const { return stats_; }

  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return queue_.total_pushed(); }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  StatRegistry stats_;
  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace sctm
