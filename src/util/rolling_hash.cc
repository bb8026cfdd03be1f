#include "util/rolling_hash.h"

#include <cassert>

namespace fb {

namespace {

// Deterministic pseudo-random byte table (splitmix64). The table must be
// identical across every process that ever chunks data, otherwise the same
// content would produce different chunk boundaries and deduplication would
// break — so it is seeded with a fixed constant, not std::random_device.
// Built once per process (every Blob and tree mutation makes a hasher).
const std::array<uint64_t, 256>& ByteTable() {
  static const std::array<uint64_t, 256> table = [] {
    std::array<uint64_t, 256> t{};
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 256; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      t[i] = z ^ (z >> 31);
    }
    return t;
  }();
  return table;
}

}  // namespace

RollingHash::RollingHash(size_t window)
    : window_(window), byte_table_(&ByteTable()) {
  assert(window_ > 0 && window_ <= ring_.size());
  for (int i = 0; i < 256; ++i) {
    out_table_[i] = RotlN(kInTable(static_cast<uint8_t>(i)),
                          static_cast<unsigned>(window_));
  }
  // Seed the state as if `window` zero bytes had been fed. The ring starts
  // full of zeros, so their contributions must be present in the state for
  // the evictions during the first `window` real feeds to cancel exactly —
  // otherwise the hash would not be a pure function of the last k bytes.
  initial_state_ = 0;
  for (size_t j = 0; j < window_; ++j) {
    initial_state_ ^= RotlN(kInTable(0), static_cast<unsigned>(j));
  }
  Reset();
}

size_t RollingHash::FeedUntilPattern(const uint8_t* data, size_t n, int q,
                                     bool* hit) {
  const uint64_t mask = (q >= 64) ? ~uint64_t{0} : ((uint64_t{1} << q) - 1);
  // Locals, so the ring's byte stores cannot force the table pointers to
  // be reloaded on every byte.
  const uint64_t* in = byte_table_->data();
  const uint64_t* out = out_table_.data();
  uint8_t* ring = ring_.data();
  uint64_t state = state_;
  size_t pos = pos_;
  const size_t window = window_;
  size_t i = 0;
  // Warm-up: a pattern never fires until a full window has been absorbed
  // (fed_ >= window after the byte), so those bytes skip the mask test.
  const size_t warm =
      fed_ + 1 >= window ? 0 : (n < window - 1 - fed_ ? n : window - 1 - fed_);
  for (; i < warm; ++i) {
    const uint8_t b = data[i];
    const uint8_t evicted = ring[pos];
    ring[pos] = b;
    if (++pos == window) pos = 0;
    state = Rotl1(state) ^ out[evicted] ^ in[b];
  }
  bool found = false;
  for (; i < n; ++i) {
    const uint8_t b = data[i];
    const uint8_t evicted = ring[pos];
    ring[pos] = b;
    if (++pos == window) pos = 0;
    state = Rotl1(state) ^ out[evicted] ^ in[b];
    if ((state & mask) == 0) {
      found = true;
      ++i;
      break;
    }
  }
  state_ = state;
  pos_ = pos;
  fed_ += i;
  *hit = found;
  return i;
}

void RollingHash::Absorb(const uint8_t* data, size_t n) {
  if (n < window_) {
    for (size_t i = 0; i < n; ++i) Feed(data[i]);
    return;
  }
  // Every byte before the last window is evicted again: restart from the
  // zero-filled window and hash only the bytes that stay in it.
  const size_t fed = fed_;
  Reset();
  for (size_t i = n - window_; i < n; ++i) Feed(data[i]);
  fed_ = fed + n;
}

void RollingHash::Reset() {
  state_ = initial_state_;
  fed_ = 0;
  pos_ = 0;
  ring_.fill(0);
}

}  // namespace fb
