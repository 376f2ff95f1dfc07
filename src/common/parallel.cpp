#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sctm {

unsigned default_parallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned resolve_threads(unsigned requested) {
  return requested == 0 ? default_parallelism() : std::max(1u, requested);
}

namespace detail {

void parallel_for_impl(std::size_t n, void (*thunk)(void*, std::size_t),
                       void* ctx, unsigned threads) {
  if (n == 0) return;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(resolve_threads(threads), n));
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) thunk(ctx, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        thunk(ctx, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace sctm
