#include "util/scratch_pool.hpp"

#include <algorithm>

namespace iprune::util {

ScratchPool& ScratchPool::local() {
  thread_local ScratchPool pool;
  return pool;
}

std::vector<std::byte> ScratchPool::take(std::size_t bytes) {
  ++outstanding_;
  // Best fit: the smallest free buffer that already covers the request,
  // so big buffers stay available for big checkouts.
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].size() >= bytes &&
        (best == free_.size() || free_[i].size() < free_[best].size())) {
      best = i;
    }
  }
  if (best == free_.size() && !free_.empty()) {
    // Nothing big enough: replace the largest free buffer instead of
    // leaving it stranded while a fresh allocation duplicates it.
    best = 0;
    for (std::size_t i = 1; i < free_.size(); ++i) {
      if (free_[i].size() > free_[best].size()) {
        best = i;
      }
    }
  }
  if (best < free_.size()) {
    std::vector<std::byte> storage = std::move(free_[best]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
    // Pooled storage keeps the size it was allocated with, so a reused
    // buffer is handed out as is. Sizing it down and up again would
    // value-initialize (zero) the regrown bytes on every such checkout.
    if (storage.size() >= bytes) {
      ++reuses_;
      return storage;
    }
  }
  ++allocations_;
  return std::vector<std::byte>(bytes);
}

void ScratchPool::give_back(std::vector<std::byte>&& storage) {
  if (outstanding_ > 0) {
    --outstanding_;
  }
  if (storage.empty()) {
    return;
  }
  if (free_.size() >= kMaxFreeBuffers) {
    // Evict the smallest retained buffer (keep the ones hardest to
    // re-allocate) unless the incoming one is smaller still.
    auto smallest = std::min_element(
        free_.begin(), free_.end(),
        [](const auto& x, const auto& y) { return x.size() < y.size(); });
    if (smallest->size() >= storage.size()) {
      return;
    }
    *smallest = std::move(storage);
    return;
  }
  free_.push_back(std::move(storage));
}

}  // namespace iprune::util
