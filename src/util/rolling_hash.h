// Cyclic-polynomial (buzhash) rolling hash — the pattern function P used by
// the POS-Tree chunker (Section 4.3.2 of the paper).
//
//   P(b1..bk) = s^{k-1}(h(b1)) XOR s^{k-2}(h(b2)) XOR ... XOR s^0(h(bk))
//
// where h maps a byte to a pseudo-random word and s is a 1-bit rotation.
// The recursion
//
//   P(b1..bk) = s(P(b0..b_{k-1})) XOR s^k(h(b0)) XOR h(bk)
//
// lets each new byte be absorbed in O(1): rotate the state, remove the
// oldest byte's (pre-rotated) contribution, add the newest.
//
// A *pattern* occurs when the q least-significant bits of P are all zero,
// which happens with probability 2^-q per boundary candidate and therefore
// yields expected chunk sizes of 2^q bytes.

#ifndef FORKBASE_UTIL_ROLLING_HASH_H_
#define FORKBASE_UTIL_ROLLING_HASH_H_

#include <array>
#include <cstdint>
#include <cstddef>

namespace fb {

class RollingHash {
 public:
  static constexpr size_t kDefaultWindow = 32;

  explicit RollingHash(size_t window = kDefaultWindow);

  // Absorbs one byte and returns the hash over the last `window` bytes.
  uint64_t Feed(uint8_t byte) {
    const uint8_t evicted = ring_[pos_];
    ring_[pos_] = byte;
    if (++pos_ == window_) pos_ = 0;
    state_ = Rotl1(state_) ^ kOutTable(evicted) ^ kInTable(byte);
    ++fed_;
    return state_;
  }

  // Bulk variant of Feed + HitsPattern for the chunker's inner loop:
  // absorbs bytes from `data` until the q-bit pattern fires or `n` bytes
  // are consumed, and returns the number of bytes consumed (including the
  // hit byte). On a hit (*hit = true) the remaining bytes are NOT fed —
  // callers cut a chunk boundary there and Reset(), so the skipped bytes
  // could never influence any future state.
  size_t FeedUntilPattern(const uint8_t* data, size_t n, int q, bool* hit);

  // Absorbs `n` bytes without testing for the pattern, leaving the same
  // state (and fed count) as `n` calls to Feed. The state depends only on
  // the last `window` bytes, so at most that many are hashed: the
  // chunker skips runs it knows hold no boundary for the price of one
  // window.
  void Absorb(const uint8_t* data, size_t n);

  uint64_t state() const { return state_; }

  // True iff the q low bits of the current state are zero AND at least a
  // full window has been absorbed (avoids spurious boundaries at the very
  // start of a sequence where the window is mostly zeros).
  bool HitsPattern(int q) const {
    const uint64_t mask = (q >= 64) ? ~uint64_t{0} : ((uint64_t{1} << q) - 1);
    return fed_ >= window_ && (state_ & mask) == 0;
  }

  // Clears the state and the window.
  void Reset();

  size_t window() const { return window_; }

 private:
  static uint64_t Rotl1(uint64_t x) { return (x << 1) | (x >> 63); }
  static uint64_t RotlN(uint64_t x, unsigned n) {
    n &= 63;
    if (n == 0) return x;
    return (x << n) | (x >> (64 - n));
  }

  uint64_t kInTable(uint8_t b) const { return (*byte_table_)[b]; }
  // h(b) rotated `window` times: the contribution of a byte once it falls
  // out of the window.
  uint64_t kOutTable(uint8_t b) const { return out_table_[b]; }

  size_t window_;
  uint64_t initial_state_ = 0;
  uint64_t state_ = 0;
  size_t fed_ = 0;
  size_t pos_ = 0;
  std::array<uint8_t, 256> ring_{};  // sized >= window_, asserted in ctor
  // h(b): one table per process, shared by every instance.
  const std::array<uint64_t, 256>* byte_table_;
  std::array<uint64_t, 256> out_table_;
};

}  // namespace fb

#endif  // FORKBASE_UTIL_ROLLING_HASH_H_
