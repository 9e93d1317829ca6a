// Chunked column storage: the physical layer under the MVCC column store.
// A column is an immutable, refcounted list of fixed-capacity chunks
// (kChunkRows values each; only the last chunk may be partial). Publication
// is O(batch), not O(table): a mutation shares every untouched chunk with
// the previous version by pointer and materializes only the chunks it
// writes — appends copy at most the partial tail, single-cell updates copy
// exactly one chunk, swap-remove deletes copy the chunks they touch plus
// the shrinking tail. Chunks hold raw values only: the executor scans
// every chunk (an equality filter takes the hash-index path instead).
//
// Modeled on the chunk-list / sequence-reader split of production chunked
// stores (YTsaurus chunk_server + chunk_sequence_reader): owners hold chunk
// lists; readers iterate chunk-at-a-time through raw per-chunk pointers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_set>
#include <vector>

namespace balsa {

/// NULL encoding. Exactly -1 is NULL; every other int64 — including other
/// negatives, which the mutation API may write — is a real value that
/// filters, joins, indexes, and ANALYZE must all see.
inline constexpr int64_t kNullValue = -1;

inline bool IsNull(int64_t value) { return value == kNullValue; }

/// Rows per chunk. A power of two so row -> (chunk, offset) is shift/mask.
inline constexpr int kChunkShift = 12;
inline constexpr int64_t kChunkRows = int64_t{1} << kChunkShift;  // 4096
inline constexpr int64_t kChunkMask = kChunkRows - 1;

/// One immutable run of 1..kChunkRows values.
class Chunk {
  /// Passkey: the public constructor requires it, only Seal can mint it —
  /// outside code must go through Seal while make_shared still works
  /// (single allocation for chunk + control block).
  struct SealTag {
    explicit SealTag() = default;
  };

 public:
  /// Seals `values` (1..kChunkRows of them) into an immutable chunk.
  static std::shared_ptr<const Chunk> Seal(std::vector<int64_t> values);

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  bool full() const { return size() == kChunkRows; }
  const int64_t* data() const { return values_.data(); }
  int64_t operator[](int64_t i) const {
    return values_[static_cast<size_t>(i)];
  }
  const std::vector<int64_t>& values() const { return values_; }

  size_t bytes() const { return values_.size() * sizeof(int64_t); }

  Chunk(SealTag, std::vector<int64_t> values);

 private:
  std::vector<int64_t> values_;
};

/// An immutable column as a refcounted chunk list. Invariant: every chunk
/// except the last is exactly full, so row ids address chunks by shift/mask.
/// Cheap to share whole (a TableVersion column slot is a
/// shared_ptr<const ChunkedColumn>) and cheap to rebuild around shared
/// chunks. The full chunks live in one shared prefix structure: an append
/// that stays within the tail shares the whole prefix with a single
/// refcount bump — publication pays nothing per untouched chunk, so append
/// cost is O(batch) amortized, independent of table size.
class ChunkedColumn {
 public:
  using ChunkPtr = std::shared_ptr<const Chunk>;

  /// The shared prefix of exactly-full chunks, with their data pointers
  /// cached side by side (data[i] == chunks[i]->data()) so random access
  /// needs no shared_ptr dereference.
  struct FullChunks {
    std::vector<ChunkPtr> chunks;
    std::vector<const int64_t*> data;
  };

  ChunkedColumn();
  /// Takes ownership of `chunks`; all but the last must be full. The last
  /// becomes the tail if partial, else joins the full prefix.
  explicit ChunkedColumn(std::vector<ChunkPtr> chunks);
  /// Wraps an existing (shared) full prefix and an optional partial tail —
  /// the O(1) publication path. `tail` must be partial or null.
  ChunkedColumn(std::shared_ptr<const FullChunks> full, ChunkPtr tail);

  /// Splits a flat vector into sealed chunks.
  static std::shared_ptr<const ChunkedColumn> FromValues(
      std::vector<int64_t> values);

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int num_chunks() const {
    return static_cast<int>(full_->chunks.size()) + (tail_ != nullptr);
  }
  const Chunk& chunk(int i) const { return *chunk_ptr(i); }
  const ChunkPtr& chunk_ptr(int i) const {
    size_t ci = static_cast<size_t>(i);
    return ci < full_->chunks.size() ? full_->chunks[ci] : tail_;
  }
  const std::shared_ptr<const FullChunks>& full_chunks() const {
    return full_;
  }
  const ChunkPtr& tail() const { return tail_; }
  /// Flat copy of every chunk pointer (editor paths; O(num_chunks)).
  std::vector<ChunkPtr> ChunkPtrs() const;

  /// Random access through the cached per-chunk data pointers.
  int64_t operator[](int64_t row) const {
    size_t ci = static_cast<size_t>(row >> kChunkShift);
    return ci < full_->data.size() ? full_->data[ci][row & kChunkMask]
                                   : tail_data_[row & kChunkMask];
  }

  /// Forward iteration for range-for consumers (ANALYZE's full pass, test
  /// and bench checkers). Walks each chunk through a raw pointer — one
  /// predictable end-of-chunk branch per element, no per-element indexing —
  /// so full passes run at near-contiguous speed. Hot scan loops should
  /// still read chunk(i).data() directly.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = int64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const int64_t*;
    using reference = int64_t;

    const_iterator(const ChunkedColumn* col, int64_t idx)
        : col_(col), idx_(idx) {
      if (idx_ < col_->size()) {
        const Chunk& c = col_->chunk(static_cast<int>(idx_ >> kChunkShift));
        pos_ = c.data() + (idx_ & kChunkMask);
        chunk_end_ = c.data() + c.size();
      }
    }
    int64_t operator*() const { return *pos_; }
    const_iterator& operator++() {
      ++idx_;
      if (++pos_ == chunk_end_ && idx_ < col_->size()) {
        const Chunk& c = col_->chunk(static_cast<int>(idx_ >> kChunkShift));
        pos_ = c.data();
        chunk_end_ = c.data() + c.size();
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    const ChunkedColumn* col_;
    int64_t idx_;
    const int64_t* pos_ = nullptr;
    const int64_t* chunk_end_ = nullptr;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// Flat copy of every value (setup-time tooling and tests; hot paths read
  /// chunks in place).
  std::vector<int64_t> Materialize() const;

  /// Folds this column's chunk bytes into `*total`, counting each distinct
  /// chunk once across everything already in `*seen` — the primitive behind
  /// shared-chunk-aware DataBytes accounting.
  void CollectChunkBytes(std::unordered_set<const Chunk*>* seen,
                         size_t* total) const;

 private:
  /// The canonical empty prefix, shared by every empty/tail-only column so
  /// accessors never need a null check.
  static const std::shared_ptr<const FullChunks>& EmptyFullChunks();

  std::shared_ptr<const FullChunks> full_;
  ChunkPtr tail_;  // null iff size_ is a multiple of kChunkRows
  const int64_t* tail_data_ = nullptr;
  int64_t size_ = 0;
};

/// Number of chunks a column of `rows` values occupies.
inline int ChunkCountForRows(int64_t rows) {
  return static_cast<int>((rows + kChunkRows - 1) >> kChunkShift);
}

}  // namespace balsa
