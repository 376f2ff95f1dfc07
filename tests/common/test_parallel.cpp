#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sctm {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroTasksIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ResultsMatchSerial) {
  std::vector<double> par(256), ser(256);
  auto work = [](std::size_t i) {
    double x = static_cast<double>(i);
    for (int k = 0; k < 100; ++k) x = x * 1.0000001 + 0.5;
    return x;
  };
  parallel_for(256, [&](std::size_t i) { par[i] = work(i); });
  for (std::size_t i = 0; i < 256; ++i) ser[i] = work(i);
  EXPECT_EQ(par, ser);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(64,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, MoreThreadsThanTasks) {
  std::atomic<int> count{0};
  parallel_for(3, [&](std::size_t) { count.fetch_add(1); }, /*threads=*/64);
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, DefaultParallelismPositive) {
  EXPECT_GE(default_parallelism(), 1u);
}

// The one `--threads` convention: 0 = one per hardware thread, anything
// else taken literally.
TEST(ParallelFor, ResolveThreadsZeroMeansHardware) {
  EXPECT_EQ(resolve_threads(0), default_parallelism());
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(5), 5u);
}

}  // namespace
}  // namespace sctm
