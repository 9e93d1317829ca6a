#include "src/storage/chunk.h"

#include <algorithm>
#include <utility>

namespace balsa {

Chunk::Chunk(SealTag, std::vector<int64_t> values)
    : values_(std::move(values)) {
  assert(!values_.empty() && size() <= kChunkRows);
}

std::shared_ptr<const Chunk> Chunk::Seal(std::vector<int64_t> values) {
  return std::make_shared<const Chunk>(SealTag{}, std::move(values));
}

const std::shared_ptr<const ChunkedColumn::FullChunks>&
ChunkedColumn::EmptyFullChunks() {
  static const std::shared_ptr<const FullChunks> empty =
      std::make_shared<const FullChunks>();
  return empty;
}

ChunkedColumn::ChunkedColumn() : full_(EmptyFullChunks()) {}

ChunkedColumn::ChunkedColumn(std::vector<ChunkPtr> chunks)
    : full_(EmptyFullChunks()) {
  if (!chunks.empty() && !chunks.back()->full()) {
    tail_ = std::move(chunks.back());
    chunks.pop_back();
    tail_data_ = tail_->data();
    size_ = tail_->size();
  }
  if (!chunks.empty()) {
    auto full = std::make_shared<FullChunks>();
    full->chunks = std::move(chunks);
    full->data.reserve(full->chunks.size());
    for (const ChunkPtr& chunk : full->chunks) {
      assert(chunk != nullptr && chunk->full());
      full->data.push_back(chunk->data());
    }
    size_ += static_cast<int64_t>(full->chunks.size()) * kChunkRows;
    full_ = std::move(full);
  }
}

ChunkedColumn::ChunkedColumn(std::shared_ptr<const FullChunks> full,
                             ChunkPtr tail)
    : full_(std::move(full)), tail_(std::move(tail)) {
  assert(full_ != nullptr);
  size_ = static_cast<int64_t>(full_->chunks.size()) * kChunkRows;
  if (tail_ != nullptr) {
    assert(!tail_->full());
    tail_data_ = tail_->data();
    size_ += tail_->size();
  }
}

std::vector<ChunkedColumn::ChunkPtr> ChunkedColumn::ChunkPtrs() const {
  std::vector<ChunkPtr> chunks = full_->chunks;
  if (tail_ != nullptr) chunks.push_back(tail_);
  return chunks;
}

std::shared_ptr<const ChunkedColumn> ChunkedColumn::FromValues(
    std::vector<int64_t> values) {
  std::vector<ChunkPtr> chunks;
  chunks.reserve(static_cast<size_t>(
      ChunkCountForRows(static_cast<int64_t>(values.size()))));
  size_t lo = 0;
  while (lo < values.size()) {
    size_t hi = std::min(values.size(), lo + static_cast<size_t>(kChunkRows));
    chunks.push_back(Chunk::Seal(std::vector<int64_t>(
        values.begin() + static_cast<std::ptrdiff_t>(lo),
        values.begin() + static_cast<std::ptrdiff_t>(hi))));
    lo = hi;
  }
  return std::make_shared<const ChunkedColumn>(std::move(chunks));
}

std::vector<int64_t> ChunkedColumn::Materialize() const {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(size_));
  for (int i = 0; i < num_chunks(); ++i) {
    const std::vector<int64_t>& values = chunk(i).values();
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

void ChunkedColumn::CollectChunkBytes(std::unordered_set<const Chunk*>* seen,
                                      size_t* total) const {
  for (int i = 0; i < num_chunks(); ++i) {
    const Chunk* c = chunk_ptr(i).get();
    if (seen->insert(c).second) *total += c->bytes();
  }
}

}  // namespace balsa
