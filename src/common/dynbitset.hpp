// A small dynamic bitset tuned for the message-delivery masks used by the
// network fabric: fixed size after construction, fast popcount/AND/OR, and
// cheap iteration over set bits. std::vector<bool> lacks popcount and word
// access; std::bitset needs a compile-time size.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace synran {

class DynBitset {
 public:
  DynBitset() = default;

  /// All-clear bitset of `n` bits.
  explicit DynBitset(std::size_t n, bool fill = false)
      : n_(n), words_((n + 63) / 64, fill ? ~0ULL : 0ULL) {
    trim();
  }

  std::size_t size() const { return n_; }

  bool test(std::size_t i) const {
    SYNRAN_CHECK(i < n_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool v = true) {
    SYNRAN_CHECK(i < n_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  void reset(std::size_t i) { set(i, false); }

  void set_all() {
    for (auto& w : words_) w = ~0ULL;
    trim();
  }

  void clear_all() {
    for (auto& w : words_) w = 0ULL;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Popcount of (*this & o) without materializing the intersection.
  std::size_t count_and(const DynBitset& o) const {
    SYNRAN_CHECK(n_ == o.n_);
    std::size_t c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i)
      c += static_cast<std::size_t>(std::popcount(words_[i] & o.words_[i]));
    return c;
  }

  DynBitset& operator&=(const DynBitset& o) {
    SYNRAN_CHECK(n_ == o.n_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  DynBitset& operator|=(const DynBitset& o) {
    SYNRAN_CHECK(n_ == o.n_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  DynBitset& operator^=(const DynBitset& o) {
    SYNRAN_CHECK(n_ == o.n_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
    trim();
    return *this;
  }

  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }
  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }
  friend DynBitset operator^(DynBitset a, const DynBitset& b) { return a ^= b; }

  friend bool operator==(const DynBitset& a, const DynBitset& b) {
    return a.n_ == b.n_ && a.words_ == b.words_;
  }

  /// Calls `f(index)` for each set bit, in increasing order.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        const int b = std::countr_zero(w);
        f(wi * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// Calls `f(index)` for each bit set in both *this and `o`, in increasing
  /// order, without materializing the intersection.
  template <typename F>
  void for_each_set_and(const DynBitset& o, F&& f) const {
    SYNRAN_CHECK(n_ == o.n_);
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi] & o.words_[wi];
      while (w) {
        const int b = std::countr_zero(w);
        f(wi * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// 64-bit mix of the contents; used by memoization tables.
  std::uint64_t hash() const {
    std::uint64_t h = 0x243f6a8885a308d3ULL ^ n_;
    for (auto w : words_) {
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }

 private:
  // Keeps bits past n_ clear so count()/==/hash() stay canonical.
  void trim() {
    if (n_ % 64 != 0 && !words_.empty())
      words_.back() &= (~0ULL >> (64 - (n_ % 64)));
  }

  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace synran
