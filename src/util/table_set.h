// TableSet: a set of base relations of a query, packed into a 64-bit mask.
// Queries in this library join at most 64 relations (JOB's max is 17).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace balsa {

/// Immutable-value set of relation indices (0..63) with cheap set algebra.
class TableSet {
 public:
  /// Most relations a set, and so a query, can hold.
  static constexpr int kCapacity = 64;

  constexpr TableSet() : bits_(0) {}
  constexpr explicit TableSet(uint64_t bits) : bits_(bits) {}

  static constexpr TableSet Single(int idx) {
    return TableSet(uint64_t{1} << idx);
  }
  /// The set {0, 1, ..., n-1}.
  static constexpr TableSet FirstN(int n) {
    return TableSet(n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1);
  }

  uint64_t bits() const { return bits_; }
  bool empty() const { return bits_ == 0; }
  int size() const { return __builtin_popcountll(bits_); }

  bool Contains(int idx) const { return (bits_ >> idx) & 1; }
  bool ContainsAll(TableSet other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  bool Intersects(TableSet other) const { return (bits_ & other.bits_) != 0; }

  TableSet Union(TableSet other) const { return TableSet(bits_ | other.bits_); }
  TableSet Intersect(TableSet other) const {
    return TableSet(bits_ & other.bits_);
  }
  TableSet Minus(TableSet other) const { return TableSet(bits_ & ~other.bits_); }
  TableSet With(int idx) const { return TableSet(bits_ | (uint64_t{1} << idx)); }
  TableSet Without(int idx) const {
    return TableSet(bits_ & ~(uint64_t{1} << idx));
  }

  /// Index of the lowest set bit. Undefined on the empty set.
  int First() const {
    assert(bits_ != 0);
    return __builtin_ctzll(bits_);
  }

  /// Expands to a sorted vector of member indices.
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(size());
    for (uint64_t b = bits_; b; b &= b - 1) out.push_back(__builtin_ctzll(b));
    return out;
  }

  std::string ToString() const {
    std::string s = "{";
    bool first = true;
    for (int idx : ToVector()) {
      if (!first) s += ",";
      s += std::to_string(idx);
      first = false;
    }
    return s + "}";
  }

  bool operator==(const TableSet& o) const { return bits_ == o.bits_; }
  bool operator!=(const TableSet& o) const { return bits_ != o.bits_; }
  bool operator<(const TableSet& o) const { return bits_ < o.bits_; }

  /// Iterates over set members: `for (int t : set) ...`.
  class Iterator {
   public:
    explicit Iterator(uint64_t bits) : bits_(bits) {}
    int operator*() const { return __builtin_ctzll(bits_); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return bits_ != o.bits_; }

   private:
    uint64_t bits_;
  };
  Iterator begin() const { return Iterator(bits_); }
  Iterator end() const { return Iterator(0); }

 private:
  uint64_t bits_;
};

/// Enumerates all proper, non-empty subsets of `set` (useful in DP over
/// connected subgraphs). Visits subsets in increasing bit order.
template <typename Fn>
void ForEachProperSubset(TableSet set, Fn&& fn) {
  uint64_t s = set.bits();
  for (uint64_t sub = (s - 1) & s; sub != 0; sub = (sub - 1) & s) {
    fn(TableSet(sub));
  }
}

struct TableSetHash {
  size_t operator()(const TableSet& s) const {
    uint64_t x = s.bits();
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
};

}  // namespace balsa
