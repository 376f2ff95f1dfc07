// Arbiters used by the router's allocators.
//
// Requests arrive as a RequestMask: one bit per requester, packed into 64-bit
// words, any width (file topologies can exceed 64 (port, VC) pairs).
//
// RoundRobinArbiter: classic rotating-priority arbiter — fair over time,
// deterministic given request history; a grant is a masked count-trailing-
// zeros from the rotating pointer. MatrixArbiter: least-recently-granted
// matrix arbiter, which some designs prefer for switch allocation; each
// requester keeps a "beaten-by" mask, and the winner is the lowest requester
// none of whose beaters is requesting.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sctm::enoc {

/// Fixed-width bit set of requesters. Sized once (resize), then set/cleared
/// in place without touching the heap.
class RequestMask {
 public:
  RequestMask() = default;
  explicit RequestMask(int width) { resize(width); }

  /// Sets the width and clears every bit.
  void resize(int width);
  int width() const { return width_; }

  void set(int i) { words_[word(i)] |= bit(i); }
  void clear() {
    for (std::uint64_t& w : words_) w = 0;
  }

  /// Lowest set index >= `from`, or -1 when there is none.
  int next_set(int from) const {
    if (from >= width_) return -1;
    std::size_t w = word(from);
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == words_.size()) return -1;
      bits = words_[w];
    }
    return static_cast<int>(w << 6) + std::countr_zero(bits);
  }

  const std::uint64_t* words() const { return words_.data(); }

 private:
  static std::size_t word(int i) { return static_cast<std::size_t>(i) >> 6; }
  static std::uint64_t bit(int i) { return std::uint64_t{1} << (i & 63); }

  int width_ = 0;
  std::vector<std::uint64_t> words_;
};

class Arbiter {
 public:
  virtual ~Arbiter() = default;
  /// Picks one set bit of `requests` (index) or -1 when none. Updates
  /// internal priority state only when a grant is issued. `requests` must
  /// have the arbiter's width.
  virtual int grant(const RequestMask& requests) = 0;
  virtual void reset() = 0;
};

class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(int width) : width_(width) {}

  int grant(const RequestMask& requests) override;
  void reset() override { next_ = 0; }

 private:
  int width_;
  int next_ = 0;  // highest-priority index for the next grant
};

class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(int width);

  int grant(const RequestMask& requests) override;
  void reset() override;

 private:
  int width_;
  std::size_t words_;  // words per row
  // Row i (words_ words): bit j set iff j beats i.
  std::vector<std::uint64_t> beaten_by_;
};

}  // namespace sctm::enoc
