#include "exact/certify.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/order.hpp"
#include "exact/certify_scale.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace rdp {

namespace {

// ------------------------------------------------------- canonical form --

// Canonical form of a processing-time vector: entries sorted
// non-increasing (ties toward the smaller original index, so the rank ->
// original-index map is deterministic) and divided by the largest entry.
// Permutations of one multiset canonicalize identically; uniform
// rescalings usually do too (exact when the divisions round alike).
struct Canonical {
  std::vector<Time> values;    // sorted non-increasing, values[0] == 1
  std::vector<TaskId> order;   // order[rank] = original index
  Time scale = 1.0;            // the divisor (largest original entry)
  bool trivial = false;        // empty / all-zero / invalid: solve directly
};

Canonical canonicalize(std::span<const Time> p) {
  Canonical c;
  c.order = order_by_time(p, SortDirection::kDescending);
  c.scale = p.empty() ? 0.0 : p[c.order.front()];
  if (!(c.scale > 0)) {
    // Empty, all-zero (degenerate) or negative (domain violation) inputs
    // bypass the cache and keep certified_cmax's own behaviour.
    c.trivial = true;
    return c;
  }
  c.values.resize(p.size());
  for (std::size_t r = 0; r < p.size(); ++r) c.values[r] = p[c.order[r]] / c.scale;
  return c;
}

// ------------------------------------------------------------ cache key --

// One word per step over the machine count, the size and the exact bit
// patterns (FxHash's rotate-xor-multiply), then a 64-bit finalizer so the
// low bits the bucket index reads depend on every input word.
std::size_t key_hash(MachineId m, std::span<const Time> values) noexcept {
  constexpr std::uint64_t kMul = 0x517cc1b727220a95ull;
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t word) { h = (std::rotl(h, 5) ^ word) * kMul; };
  mix(m);
  mix(values.size());
  for (const Time v : values) mix(std::bit_cast<std::uint64_t>(v));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

// A canonical instance with its hash, computed once when the key is made:
// the batch dedup, the lookup and the insert all reuse it. Equality is
// still the full (m, values) comparison; the hash only rules out
// mismatches early.
struct CacheKey {
  CacheKey(MachineId machines, std::vector<Time> canonical)
      : m(machines), values(std::move(canonical)), hash(key_hash(m, values)) {}

  MachineId m;
  std::vector<Time> values;
  std::size_t hash;

  bool operator==(const CacheKey& other) const {
    return hash == other.hash && m == other.m && values == other.values;
  }
};

// The maps below index keys that live elsewhere (a batch's slots, the LRU
// list's nodes) by address, so no key is ever copied.
struct KeyRefHash {
  std::size_t operator()(const CacheKey* key) const noexcept { return key->hash; }
};
struct KeyRefEqual {
  bool operator()(const CacheKey* a, const CacheKey* b) const { return *a == *b; }
};
template <typename V>
using KeyRefMap = std::unordered_map<const CacheKey*, V, KeyRefHash, KeyRefEqual>;

// Maps a canonical-space result back to the caller's index space and
// scale. The upper bound is re-derived from the assignment's loads under
// the original times, so `upper` always equals the recomputed makespan;
// the lower bound is clamped so `lower <= upper` survives rounding.
CertifiedCmax denormalize(const CertifiedCmax& canon, const Canonical& c,
                          std::span<const Time> p, MachineId m) {
  CertifiedCmax out;
  out.exact = canon.exact;
  out.backend = canon.backend;
  out.assignment = Assignment(p.size());
  for (std::size_t r = 0; r < p.size(); ++r) {
    out.assignment.machine_of[c.order[r]] = canon.assignment.machine_of[r];
  }
  std::vector<Time> loads(m, 0);
  for (std::size_t j = 0; j < p.size(); ++j) {
    loads[out.assignment.machine_of[j]] += p[j];
  }
  out.upper = *std::max_element(loads.begin(), loads.end());
  out.lower = canon.exact ? out.upper : std::min(canon.lower * c.scale, out.upper);
  return out;
}

bool assignment_complete_for(const CertifiedCmax& result, std::size_t n,
                             MachineId m) {
  if (result.assignment.machine_of.size() != n) return false;
  for (const MachineId i : result.assignment.machine_of) {
    if (i >= m) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------ the cache --

struct CertifyEngine::Impl {
  using LruList = std::list<std::pair<CacheKey, CertifiedCmax>>;

  mutable std::mutex mutex;
  std::size_t capacity;
  LruList lru;  // front = most recently used
  KeyRefMap<LruList::iterator> index;  // keys point into `lru`
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  explicit Impl(std::size_t cap) : capacity(cap) {}

  // Looks up `key`, refreshing recency. Does not touch the counters --
  // the batch layer attributes hits/misses per request.
  bool lookup(const CacheKey& key, CertifiedCmax* out) {
    std::lock_guard lock(mutex);
    const auto it = index.find(&key);
    if (it == index.end()) return false;
    lru.splice(lru.begin(), lru, it->second);
    *out = it->second->second;
    return true;
  }

  // Inserts a solved entry, taking `key`'s values only when it does;
  // first writer wins when two batches race.
  void insert(CacheKey& key, const CertifiedCmax& value) {
    if (capacity == 0) return;
    std::lock_guard lock(mutex);
    if (index.contains(&key)) return;
    lru.emplace_front(std::move(key), value);
    index.emplace(&lru.front().first, lru.begin());
    while (index.size() > capacity) {
      index.erase(&lru.back().first);
      lru.pop_back();
      ++evictions;
    }
  }

  void count(std::uint64_t batch_hits, std::uint64_t batch_misses) {
    std::lock_guard lock(mutex);
    hits += batch_hits;
    misses += batch_misses;
  }
};

CertifyEngine::CertifyEngine(std::size_t cache_capacity)
    : impl_(std::make_unique<Impl>(cache_capacity)) {}

CertifyEngine::~CertifyEngine() = default;

CertifiedCmax CertifyEngine::certify(std::span<const Time> p, MachineId m,
                                     const CertifyOptions& options) {
  const CertifyRequest request{p, m};
  return certify_batch({&request, 1}, options)[0];
}

std::vector<CertifiedCmax> CertifyEngine::certify_batch(
    std::span<const CertifyRequest> batch, const CertifyOptions& options) {
  const std::size_t count = batch.size();
  std::vector<CertifiedCmax> results(count);

  // Canonicalize every request; trivial ones bypass the cache entirely.
  std::vector<Canonical> canons(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (batch[i].m == 0) {
      throw std::invalid_argument("certify_batch: m must be >= 1");
    }
    for (std::size_t j = 0; j < batch[i].p.size(); ++j) {
      if (std::isfinite(batch[i].p[j])) continue;
      throw std::invalid_argument("certify_batch: request " + std::to_string(i) +
                                  " has a non-finite time at index " + std::to_string(j));
    }
    canons[i] = canonicalize(batch[i].p);
    if (canons[i].trivial) {
      results[i] = certified_cmax(batch[i].p, batch[i].m, options.node_budget);
    }
  }

  // Dedup the remainder: one slot per distinct (m, canonical values).
  struct Slot {
    CacheKey key;
    std::vector<std::size_t> requests;  // batch indices sharing this slot
    CertifiedCmax result;               // canonical-space result
    bool resolved = false;              // cache hit or already solved
  };
  // The canonical values move into the keys (denormalize reads only the
  // order and scale). Reserving every slot up front keeps the keys'
  // addresses, which `slot_of` holds, stable.
  std::vector<Slot> slots;
  slots.reserve(count);
  KeyRefMap<std::size_t> slot_of;
  for (std::size_t i = 0; i < count; ++i) {
    if (canons[i].trivial) continue;
    CacheKey key(batch[i].m, std::move(canons[i].values));
    if (const auto it = slot_of.find(&key); it != slot_of.end()) {
      slots[it->second].requests.push_back(i);
      continue;
    }
    slots.push_back(Slot{std::move(key), {i}, {}, false});
    slot_of.emplace(&slots.back().key, slots.size() - 1);
  }

  // Resolve from the cache (sequentially, so LRU recency stays
  // deterministic for a deterministic call sequence).
  std::uint64_t solves = 0;
  for (Slot& slot : slots) {
    slot.resolved = impl_->lookup(slot.key, &slot.result);
  }

  // Warm-start seeds: per (n, m) shape, the first slot of that shape in
  // first-occurrence order. A branch-and-bound seed that is a miss is
  // solved inline (cold) before the fan-out, so every remaining solve has
  // a deterministic seed regardless of thread count.
  std::map<std::pair<std::size_t, MachineId>, std::size_t> seed_slot;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    seed_slot.try_emplace({slots[s].key.values.size(), slots[s].key.m}, s);
  }
  // Size routing: instances past the PTAS threshold go to the
  // Hochbaum-Shmoys dual-approximation backend, which is a pure function
  // of (values, m, ptas_precision) -- no warm start needed, so even a
  // shape's first slot joins the fan-out, and batch results stay
  // bit-identical across thread counts by construction.
  const auto routes_to_ptas = [&](const Slot& slot) {
    return options.ptas_threshold > 0 &&
           slot.key.values.size() > options.ptas_threshold;
  };
  std::atomic<std::uint64_t> bnb_solves{0};
  std::atomic<std::uint64_t> ptas_solves{0};
  const auto solve_slot = [&](std::size_t s) {
    Slot& slot = slots[s];
    if (routes_to_ptas(slot)) {
      slot.result =
          hs_certified_cmax(slot.key.values, slot.key.m, options.ptas_precision);
      ptas_solves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    BnbWarmStart warm;
    if (options.warm_start) {
      const std::size_t seed =
          seed_slot.at({slot.key.values.size(), slot.key.m});
      if (seed != s && slots[seed].resolved) {
        warm.assignment = &slots[seed].result.assignment;
      }
    }
    slot.result =
        certified_cmax(slot.key.values, slot.key.m, options.node_budget, warm);
    bnb_solves.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::size_t> pending;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].resolved) continue;
    ++solves;
    const auto shape = std::make_pair(slots[s].key.values.size(), slots[s].key.m);
    if (seed_slot.at(shape) == s && !routes_to_ptas(slots[s])) {
      solve_slot(s);
      slots[s].resolved = true;
    } else {
      pending.push_back(s);
    }
  }
  if (options.pool != nullptr && pending.size() > 1) {
    parallel_for_each_index(*options.pool, pending.size(),
                            [&](std::size_t k) { solve_slot(pending[k]); });
  } else {
    for (const std::size_t s : pending) solve_slot(s);
  }
  for (const std::size_t s : pending) slots[s].resolved = true;

  // Publish the new solves (slot order keeps insertion deterministic).
  // A published key's values move into the cache; nothing below reads them.
  for (Slot& slot : slots) {
    impl_->insert(slot.key, slot.result);
  }

  // Map every request back through its own permutation and scale.
  std::uint64_t served = 0;
  for (const Slot& slot : slots) {
    for (const std::size_t i : slot.requests) {
      ++served;
      if (assignment_complete_for(slot.result, batch[i].p.size(), batch[i].m)) {
        results[i] = denormalize(slot.result, canons[i], batch[i].p, batch[i].m);
      } else {
        // Defensive: an unexpected partial assignment falls back to a
        // direct solve rather than producing an invalid result.
        results[i] = certified_cmax(batch[i].p, batch[i].m, options.node_budget);
      }
    }
  }

  const std::uint64_t batch_hits = served - solves;
  impl_->count(batch_hits, solves);
  if (obs::MetricsRegistry* const mx = obs::metrics()) {
    // Unconditional adds so both counters appear in --metrics-out
    // snapshots even when one side is zero for the whole run.
    mx->counter("exp.certify.cache_hits").add(batch_hits);
    mx->counter("exp.certify.cache_misses").add(solves);
    mx->counter("exp.certify.backend.bnb")
        .add(bnb_solves.load(std::memory_order_relaxed));
    mx->counter("exp.certify.backend.ptas")
        .add(ptas_solves.load(std::memory_order_relaxed));
    mx->gauge("exp.certify.cache_size")
        .set(static_cast<double>(cache_stats().size));
  }
  return results;
}

CertifyCacheStats CertifyEngine::cache_stats() const {
  std::lock_guard lock(impl_->mutex);
  CertifyCacheStats stats;
  stats.hits = impl_->hits;
  stats.misses = impl_->misses;
  stats.evictions = impl_->evictions;
  stats.size = impl_->index.size();
  stats.capacity = impl_->capacity;
  return stats;
}

void CertifyEngine::clear() {
  std::lock_guard lock(impl_->mutex);
  impl_->lru.clear();
  impl_->index.clear();
}

CertifyEngine& default_certify_engine() {
  static CertifyEngine engine;
  return engine;
}

std::vector<CertifiedCmax> certified_cmax_batch(
    std::span<const CertifyRequest> batch, const CertifyOptions& options) {
  return default_certify_engine().certify_batch(batch, options);
}

}  // namespace rdp
