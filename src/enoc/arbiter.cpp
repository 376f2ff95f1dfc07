#include "enoc/arbiter.hpp"

#include <algorithm>
#include <cassert>

namespace sctm::enoc {

void RequestMask::resize(int width) {
  width_ = width;
  words_.assign((static_cast<std::size_t>(width) + 63) / 64, 0);
}

int RoundRobinArbiter::grant(const RequestMask& requests) {
  assert(requests.width() == width_);
  int idx = requests.next_set(next_);
  if (idx < 0) idx = requests.next_set(0);  // wrap: every request is < next_
  if (idx >= 0) next_ = idx + 1 == width_ ? 0 : idx + 1;
  return idx;
}

MatrixArbiter::MatrixArbiter(int width)
    : width_(width), words_((static_cast<std::size_t>(width) + 63) / 64) {
  reset();
}

void MatrixArbiter::reset() {
  // Initial total order: lower index beats higher, so row i holds [0, i).
  beaten_by_.assign(static_cast<std::size_t>(width_) * words_, 0);
  for (int i = 0; i < width_; ++i) {
    std::uint64_t* row = &beaten_by_[static_cast<std::size_t>(i) * words_];
    std::fill(row, row + (i >> 6), ~std::uint64_t{0});
    if ((i & 63) != 0) row[i >> 6] = (std::uint64_t{1} << (i & 63)) - 1;
  }
}

int MatrixArbiter::grant(const RequestMask& requests) {
  assert(requests.width() == width_);
  const std::uint64_t* req = requests.words();
  int winner = -1;
  for (int i = requests.next_set(0); i >= 0; i = requests.next_set(i + 1)) {
    const std::uint64_t* row = &beaten_by_[static_cast<std::size_t>(i) * words_];
    bool beaten = false;
    for (std::size_t w = 0; w < words_ && !beaten; ++w) {
      beaten = (row[w] & req[w]) != 0;
    }
    if (!beaten) {
      winner = i;
      break;
    }
  }
  if (winner >= 0) {
    // Winner becomes lowest priority: everyone beats it, it beats no one.
    const std::size_t ww = static_cast<std::size_t>(winner) >> 6;
    const std::uint64_t wbit = std::uint64_t{1} << (winner & 63);
    for (int j = 0; j < width_; ++j) {
      beaten_by_[static_cast<std::size_t>(j) * words_ + ww] &= ~wbit;
    }
    std::uint64_t* row =
        &beaten_by_[static_cast<std::size_t>(winner) * words_];
    std::fill(row, row + words_, ~std::uint64_t{0});
    if ((width_ & 63) != 0) {
      row[words_ - 1] = (std::uint64_t{1} << (width_ & 63)) - 1;
    }
    row[ww] &= ~wbit;
  }
  return winner;
}

}  // namespace sctm::enoc
