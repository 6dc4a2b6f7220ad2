#pragma once
// Content-addressed evaluation cache (docs/search_cache.md).
//
// Maps EvalKey -> EvalValue: the complete, deterministic outcome of one
// candidate evaluation (accuracy, loss, intermittent latency/energy, a
// logits checksum, and auxiliary counters). Because every evaluation in
// this codebase is a pure function of (graph, masks, config, dataset,
// per-candidate seed material folded into the key), a hit can substitute
// for re-running training + the intermittent engine — which is what makes
// crash-resume cheap: the restarted process replays the search loop but
// answers almost every evaluation from the vault.
//
// Thread safety: lookup/insert take a mutex; the cache is shared by the
// parallel_map lanes of the arch-search generation loop.

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "search/eval_key.hpp"

namespace iprune::search {

class CacheVault;

/// Fixed-layout cached result. `flags` bit 0 marks an infeasible
/// candidate (VM overflow etc.) whose numeric fields are zero; aux0/aux1
/// carry evaluation-specific counters (e.g. accelerator output count,
/// surviving parameter count).
struct EvalValue {
  double accuracy = 0.0;
  double loss = 0.0;
  double latency_us = 0.0;
  double energy_j = 0.0;
  std::uint64_t aux0 = 0;
  std::uint64_t aux1 = 0;
  std::uint64_t checksum = 0;
  std::uint64_t flags = 0;

  static constexpr std::uint64_t kInfeasible = 1ull << 0;

  [[nodiscard]] bool infeasible() const { return (flags & kInfeasible) != 0; }

  bool operator==(const EvalValue& other) const = default;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  /// Fraction of lookups served from memory; 0 when nothing was looked up.
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }
};

class EvalCache {
 public:
  /// In-memory only.
  EvalCache() = default;
  /// Write-through: inserts append to `vault` (not owned; must outlive the
  /// cache), and the vault's scrubbed records are preloaded.
  explicit EvalCache(CacheVault* vault);

  /// Counts a hit or a miss.
  [[nodiscard]] std::optional<EvalValue> lookup(const EvalKey& key);

  /// Insert (first writer wins on a racing duplicate) and write through to
  /// the vault if attached. A racing duplicate's preceding miss is
  /// recounted as a hit: every key counts one miss, however lanes race.
  void insert(const EvalKey& key, const EvalValue& value);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<EvalKey, EvalValue, EvalKeyHash> entries_;
  CacheStats stats_;
  CacheVault* vault_ = nullptr;
};

}  // namespace iprune::search
