// Minimal task parallelism for experiment sweeps.
//
// Individual simulations are single-threaded and deterministic; sweeps over
// independent configurations (explore candidates, the bench harness,
// parameter studies) are embarrassingly parallel. parallel_for runs fn(i) for
// i in [0, n) over a worker pool with an atomic work counter; the first
// exception thrown by any task is rethrown on the caller after all workers
// join, and determinism is preserved as long as tasks only touch disjoint
// state (each task owns its own Simulator).
//
// The callable is passed by reference through a type-erased (context, thunk)
// pair — no std::function, so dispatching a capture-heavy lambda never heap
// allocates. The callable must outlive the call (it always does: parallel_for
// joins before returning).
#pragma once

#include <cstddef>
#include <memory>

namespace sctm {

/// Number of workers parallel_for uses for `threads == 0` (hardware
/// concurrency, at least 1).
unsigned default_parallelism();

/// The one thread-count convention for every `--threads`-style knob:
/// 0 resolves to default_parallelism(), anything else is taken literally
/// (clamped to >= 1). parallel_for, explore() workers and the run-metrics
/// manifests all resolve through here, so "0 = hardware" means the same
/// worker count everywhere.
unsigned resolve_threads(unsigned requested);

namespace detail {
void parallel_for_impl(std::size_t n, void (*thunk)(void*, std::size_t),
                       void* ctx, unsigned threads);
}  // namespace detail

template <typename Fn>
void parallel_for(std::size_t n, const Fn& fn, unsigned threads = 0) {
  detail::parallel_for_impl(
      n,
      [](void* ctx, std::size_t i) { (*static_cast<const Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
      threads);
}

}  // namespace sctm
