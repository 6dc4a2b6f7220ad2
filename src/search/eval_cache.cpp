#include "search/eval_cache.hpp"

#include "search/vault.hpp"

namespace iprune::search {

EvalCache::EvalCache(CacheVault* vault) : vault_(vault) {
  if (vault_ != nullptr) {
    for (const VaultRecord& record : vault_->records()) {
      entries_.insert_or_assign(record.key, record.value);
    }
  }
}

std::optional<EvalValue> EvalCache::lookup(const EvalKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void EvalCache::insert(const EvalKey& key, const EvalValue& value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, value);
  if (!inserted) {
    // Racing duplicate: another lane evaluated the same key between this
    // caller's missed lookup and now. Keep the first result (they are
    // identical) and recount that miss as a hit, so the counters read as
    // in a serial run whatever the lane timing.
    if (stats_.misses > 0) {
      --stats_.misses;
      ++stats_.hits;
    }
    return;
  }
  ++stats_.inserts;
  if (vault_ != nullptr) {
    vault_->append(key, value);
  }
}

CacheStats EvalCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t EvalCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace iprune::search
