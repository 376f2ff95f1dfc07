#include "enoc/arbiter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

namespace sctm::enoc {
namespace {

RequestMask bits(std::initializer_list<int> set, int width) {
  RequestMask m(width);
  for (const int i : set) m.set(i);
  return m;
}

TEST(RoundRobin, NoRequestsNoGrant) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.grant(bits({}, 4)), -1);
}

TEST(RoundRobin, SingleRequesterWins) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.grant(bits({2}, 4)), 2);
}

TEST(RoundRobin, RotatesAmongContenders) {
  RoundRobinArbiter a(3);
  const auto all = bits({0, 1, 2}, 3);
  EXPECT_EQ(a.grant(all), 0);
  EXPECT_EQ(a.grant(all), 1);
  EXPECT_EQ(a.grant(all), 2);
  EXPECT_EQ(a.grant(all), 0);
}

TEST(RoundRobin, SkipsIdleRequesters) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.grant(bits({1, 3}, 4)), 1);
  EXPECT_EQ(a.grant(bits({1, 3}, 4)), 3);
  EXPECT_EQ(a.grant(bits({1, 3}, 4)), 1);
}

TEST(RoundRobin, FairUnderSaturation) {
  RoundRobinArbiter a(4);
  std::map<int, int> wins;
  const auto all = bits({0, 1, 2, 3}, 4);
  for (int i = 0; i < 400; ++i) wins[a.grant(all)]++;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(RoundRobin, ResetRestoresPriority) {
  RoundRobinArbiter a(4);
  (void)a.grant(bits({0, 1}, 4));
  a.reset();
  EXPECT_EQ(a.grant(bits({0, 1}, 4)), 0);
}

TEST(Matrix, SingleRequesterWins) {
  MatrixArbiter a(4);
  EXPECT_EQ(a.grant(bits({3}, 4)), 3);
}

TEST(Matrix, LeastRecentlyGrantedWins) {
  MatrixArbiter a(3);
  const auto all = bits({0, 1, 2}, 3);
  EXPECT_EQ(a.grant(all), 0);
  EXPECT_EQ(a.grant(all), 1);
  EXPECT_EQ(a.grant(all), 2);
  EXPECT_EQ(a.grant(all), 0);
}

TEST(Matrix, WinnerDropsBehindNewcomer) {
  MatrixArbiter a(3);
  EXPECT_EQ(a.grant(bits({0}, 3)), 0);
  // 0 just won; against 2 it should now lose.
  EXPECT_EQ(a.grant(bits({0, 2}, 3)), 2);
}

TEST(Matrix, FairUnderSaturation) {
  MatrixArbiter a(4);
  std::map<int, int> wins;
  const auto all = bits({0, 1, 2, 3}, 4);
  for (int i = 0; i < 400; ++i) wins[a.grant(all)]++;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(Matrix, NoRequestsNoGrant) {
  MatrixArbiter a(2);
  EXPECT_EQ(a.grant(bits({}, 2)), -1);
}

TEST(RequestMaskTest, NextSetWalksEveryWord) {
  RequestMask m(130);
  EXPECT_EQ(m.next_set(0), -1);
  for (const int i : {0, 63, 64, 127, 129}) m.set(i);
  std::vector<int> seen;
  for (int i = m.next_set(0); i >= 0; i = m.next_set(i + 1)) seen.push_back(i);
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 127, 129}));
  EXPECT_EQ(m.next_set(128), 129);
  EXPECT_EQ(m.next_set(130), -1);
  m.clear();
  EXPECT_EQ(m.next_set(0), -1);
}

// Reference arbiters over std::vector<bool>: the scalar implementations the
// word-mask arbiters replaced, kept here as the differential oracle.
class RefRoundRobin {
 public:
  explicit RefRoundRobin(int width) : width_(width) {}
  int grant(const std::vector<bool>& requests) {
    for (int off = 0; off < width_; ++off) {
      const int idx = (next_ + off) % width_;
      if (requests[idx]) {
        next_ = (idx + 1) % width_;
        return idx;
      }
    }
    return -1;
  }
  void reset() { next_ = 0; }

 private:
  int width_;
  int next_ = 0;
};

class RefMatrix {
 public:
  explicit RefMatrix(int width) : width_(width) { reset(); }
  int grant(const std::vector<bool>& requests) {
    int winner = -1;
    for (int i = 0; i < width_ && winner < 0; ++i) {
      if (!requests[i]) continue;
      bool beaten = false;
      for (int j = 0; j < width_; ++j) {
        if (j != i && requests[j] && prio_[j][i]) {
          beaten = true;
          break;
        }
      }
      if (!beaten) winner = i;
    }
    if (winner >= 0) {
      for (int j = 0; j < width_; ++j) {
        prio_[winner][j] = false;
        if (j != winner) prio_[j][winner] = true;
      }
    }
    return winner;
  }
  void reset() {
    prio_.assign(width_, std::vector<bool>(width_, false));
    for (int i = 0; i < width_; ++i) {
      for (int j = i + 1; j < width_; ++j) prio_[i][j] = true;
    }
  }

 private:
  int width_;
  std::vector<std::vector<bool>> prio_;  // prio_[i][j]: i beats j
};

// Drives a word-mask arbiter and its reference with the same random request
// sequence (densities from single requesters to saturation, an occasional
// empty request, resets in between) and requires identical grants.
template <class Fast, class Ref>
void expect_same_grants(int width, std::uint64_t seed) {
  Fast fast(width);
  Ref ref(width);
  std::mt19937_64 rng(seed);
  RequestMask mask(width);
  std::vector<bool> vec(static_cast<std::size_t>(width));
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 60; ++step) {
      // Density in 1/8ths: 0 (empty) .. 8 (every requester).
      const std::uint64_t density = rng() % 9;
      mask.clear();
      for (int i = 0; i < width; ++i) {
        const bool on = rng() % 8 < density;
        vec[static_cast<std::size_t>(i)] = on;
        if (on) mask.set(i);
      }
      ASSERT_EQ(fast.grant(mask), ref.grant(vec))
          << "width " << width << " round " << round << " step " << step;
    }
    fast.reset();
    ref.reset();
  }
}

TEST(ArbiterDifferential, RoundRobinMatchesReferenceAtWidths1To130) {
  for (int width = 1; width <= 130; ++width) {
    expect_same_grants<RoundRobinArbiter, RefRoundRobin>(
        width, 1000 + static_cast<std::uint64_t>(width));
  }
}

TEST(ArbiterDifferential, MatrixMatchesReferenceAtWidths1To130) {
  for (int width = 1; width <= 130; ++width) {
    expect_same_grants<MatrixArbiter, RefMatrix>(
        width, 2000 + static_cast<std::uint64_t>(width));
  }
}

}  // namespace
}  // namespace sctm::enoc
