// Multi-tier application subsystem tests (src/apptier + src/workload Zipf):
//
//   - ZipfWorkload: seeded determinism, Zipf(alpha) skew (alpha = 0
//     degenerates to uniform), hot-key-shift rank rotation, flash-crowd
//     rate multipliers,
//   - CacheTier mechanics against hand-driven pools: look-aside
//     miss -> backend -> fill -> hit, lazy TTL expiry, LRU eviction at
//     directory capacity, modulo-slot invalidation on pool resize, TTL-storm
//     flush, and the windowed hit-ratio EWMA that drives
//     lambda_miss = lambda * (1 - h),
//   - tiered end-to-end runs: the lambda_miss feedback reaches the backend
//     planner and the per-window series is recorded,
//   - snapshot/restore bit-identity of tiered worlds (including a snapshot
//     inside a TTL storm, with the pending chaos events re-armed),
//   - disk checkpoints: the v3 codec round-trips the apptier section and
//     rejects out-of-range versions,
//   - differential checks of the two fast paths against the plain
//     structures they replaced: the guide-table Zipf sampler against a full
//     std::lower_bound over the CDF at adversarial draws, and the flat LRU
//     directory against a std::list + std::unordered_map reference model
//     over seeded random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "apptier/cache_tier.h"
#include "core/provisioning_policy.h"
#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "lookahead/world_state.h"
#include "util/rng.h"
#include "workload/zipf_workload.h"

namespace cloudprov {
namespace {

// Every deterministic RunMetrics field, compared exactly — a restored tier
// that drifts in any counter (or in the RNG-driven response stats) fails.
void expect_identical_tiered(const RunMetrics& a, const RunMetrics& b) {
  const std::optional<std::string> difference = first_metric_difference(a, b);
  EXPECT_FALSE(difference) << *difference;
}

// Tiered Zipf smoke: the AB14 sizing section's literals at a 4 h horizon.
ScenarioConfig tiered_config(double scale = 0.02) {
  ScenarioConfig config = zipf_scenario(scale);
  config.horizon = 4.0 * 3600.0;
  config.zipf.horizon = config.horizon;
  config.apptier.enabled = true;
  return config;
}

/// Runs to `snapshot_time`, snapshots, restores into a fresh World, and
/// finishes the run there (the lookahead suite's clone-continue idiom).
RunOutput clone_continue(const ScenarioConfig& config, const PolicySpec& policy,
                         std::uint64_t seed, SimTime snapshot_time) {
  World world(config, policy, seed, std::nullopt);
  world.start();
  world.run_to(snapshot_time);
  const WorldState state = world.snapshot();
  World resumed(config, policy, seed, state);
  resumed.run_to(config.horizon);
  return resumed.finish();
}

// --- ZipfWorkload ----------------------------------------------------------

ZipfWorkloadConfig small_zipf() {
  ZipfWorkloadConfig config;
  config.num_keys = 500;
  config.base_rate = 50.0;
  config.horizon = 600.0;
  return config;
}

TEST(ZipfWorkload, SameSeedSameArrivals) {
  ZipfWorkload a(small_zipf());
  ZipfWorkload b(small_zipf());
  Rng rng_a(42);
  Rng rng_b(42);
  for (int i = 0; i < 200; ++i) {
    const auto arrival_a = a.next(rng_a);
    const auto arrival_b = b.next(rng_b);
    ASSERT_TRUE(arrival_a.has_value());
    ASSERT_TRUE(arrival_b.has_value());
    EXPECT_EQ(arrival_a->time, arrival_b->time);
    EXPECT_EQ(arrival_a->service_demand, arrival_b->service_demand);
    EXPECT_EQ(arrival_a->key, arrival_b->key);
    ASSERT_GE(arrival_a->key, 1u);
    ASSERT_LE(arrival_a->key, 500u);
  }
}

// Count key frequencies over one seeded pass: with alpha = 1.2 the rank-1
// key must dwarf the coldest rank; with alpha = 0 popularity is uniform.
TEST(ZipfWorkload, AlphaControlsSkew) {
  ZipfWorkloadConfig config;
  config.num_keys = 50;
  config.base_rate = 200.0;
  config.horizon = 200.0;
  config.alpha = 1.2;

  const auto histogram = [](ZipfWorkloadConfig cfg) {
    ZipfWorkload workload(cfg);
    Rng rng(7);
    std::vector<std::uint64_t> counts(cfg.num_keys + 1, 0);
    while (const auto arrival = workload.next(rng)) ++counts[arrival->key];
    return counts;
  };

  const std::vector<std::uint64_t> skewed = histogram(config);
  // key_for_rank is the identity with no hot shifts: rank 1 -> key 1.
  EXPECT_GT(skewed[1], 5 * std::max<std::uint64_t>(1, skewed[50]));
  EXPECT_GT(skewed[1], skewed[25]);

  config.alpha = 0.0;
  const std::vector<std::uint64_t> uniform = histogram(config);
  std::uint64_t min_count = uniform[1];
  std::uint64_t max_count = uniform[1];
  for (std::uint64_t key = 1; key <= 50; ++key) {
    min_count = std::min(min_count, uniform[key]);
    max_count = std::max(max_count, uniform[key]);
  }
  EXPECT_GT(min_count, 0u);
  EXPECT_LT(max_count, 2 * min_count);
}

TEST(ZipfWorkload, HotShiftRotatesRanking) {
  ZipfWorkloadConfig config = small_zipf();
  config.num_keys = 9;  // default stride = num_keys / 3 = 3
  config.hot_shift_at = {100.0, 200.0};
  ZipfWorkload workload(config);

  EXPECT_EQ(workload.key_for_rank(1, 50.0), 1u);
  EXPECT_EQ(workload.key_for_rank(1, 100.0), 4u);  // shift boundary inclusive
  EXPECT_EQ(workload.key_for_rank(1, 150.0), 4u);
  EXPECT_EQ(workload.key_for_rank(1, 250.0), 7u);
  EXPECT_EQ(workload.key_for_rank(9, 150.0), 3u);  // wraps around the space

  // An explicit stride overrides the default.
  config.hot_shift_stride = 5;
  ZipfWorkload strided(config);
  EXPECT_EQ(strided.key_for_rank(1, 150.0), 6u);
}

TEST(ZipfWorkload, FlashCrowdMultipliesExpectedRate) {
  ZipfWorkloadConfig config = small_zipf();
  config.base_rate = 100.0;
  config.scale = 0.5;
  config.flash.push_back({10.0, 20.0, 3.0});
  ZipfWorkload workload(config);

  EXPECT_DOUBLE_EQ(workload.expected_rate(5.0), 50.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(10.0), 150.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(19.999), 150.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(20.0), 50.0);  // end exclusive
  EXPECT_DOUBLE_EQ(workload.expected_rate(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(config.horizon), 0.0);
}

// The guide-table sampler must return exactly the full search's rank for
// every draw, including the draws where rounding could bite: each CDF value
// and its neighbours, every guide bucket edge j / 4096 and its neighbours,
// 0, and the values just below 1 (and 1 itself).
TEST(ZipfWorkload, GuidedRankMatchesFullLowerBound) {
  constexpr double kBuckets = 4096.0;
  for (const std::uint64_t num_keys :
       {1ull, 2ull, 7ull, 4096ull, 20000ull, 1000000ull}) {
    for (const double alpha : {0.0, 0.5, 0.9, 1.0, 1.2}) {
      ZipfWorkloadConfig config;
      config.num_keys = num_keys;
      config.alpha = alpha;
      const ZipfWorkload workload(config);
      const std::vector<double>& cdf = workload.cdf();
      ASSERT_EQ(cdf.size(), num_keys);
      ASSERT_EQ(cdf.back(), 1.0);

      std::vector<double> draws = {0.0, std::nextafter(1.0, 0.0),
                                   1.0 - 1e-12, 1.0 - 1e-9, 1.0};
      const auto around = [&draws](double u) {
        for (const double v :
             {std::nextafter(u, 0.0), u, std::nextafter(u, 2.0)}) {
          if (v >= 0.0 && v <= 1.0) draws.push_back(v);
        }
      };
      for (const double c : cdf) around(c);
      for (int j = 0; j <= 4096; ++j) around(j / kBuckets);

      std::size_t mismatches = 0;
      for (const double u : draws) {
        const auto expected = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin() + 1);
        const std::uint64_t rank = workload.rank_for(u);
        if (rank != expected && ++mismatches <= 5) {
          ADD_FAILURE() << "num_keys " << num_keys << " alpha " << alpha
                        << " u " << std::hexfloat << u << ": rank " << rank
                        << ", full search " << expected;
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << "num_keys " << num_keys << " alpha " << alpha;
    }
  }
}

// --- CacheTier mechanics ---------------------------------------------------

// Hand-driven tier: one backend pool (also the miss sink) and one cache
// pool, loose QoS so admission never interferes with directory mechanics.
struct TierFixture {
  Simulation sim;
  Datacenter backend_dc;
  ApplicationProvisioner backend;
  Datacenter cache_dc;
  ApplicationProvisioner cache_pool;
  ApptierConfig config;
  CacheTier tier;

  explicit TierFixture(ApptierConfig apptier = make_apptier(),
                       std::size_t cache_vms = 1)
      : backend_dc(sim, small_dc(), std::make_unique<LeastLoadedPlacement>()),
        backend(sim, backend_dc, loose_qos(), pool_config(0.1),
                std::make_unique<KBoundAdmission>()),
        cache_dc(sim, small_dc(), std::make_unique<LeastLoadedPlacement>()),
        cache_pool(sim, cache_dc, loose_qos(),
                   pool_config(apptier.initial_cache_service_estimate),
                   std::make_unique<KBoundAdmission>()),
        config(apptier),
        tier(sim, apptier, loose_qos(), cache_pool, backend, backend, Rng(99),
             nullptr) {
    backend.scale_to(1);
    cache_pool.scale_to(cache_vms);
  }

  static ApptierConfig make_apptier() {
    ApptierConfig config;
    config.enabled = true;
    return config;
  }
  static DatacenterConfig small_dc() {
    DatacenterConfig config;
    config.host_count = 4;
    return config;
  }
  static QosTargets loose_qos() { return QosTargets{10.0, 0.0, 0.5}; }
  static ProvisionerConfig pool_config(double service_estimate) {
    ProvisionerConfig config;
    config.initial_service_time_estimate = service_estimate;
    return config;
  }

  Request request(std::uint64_t id, std::uint64_t key, double demand = 0.1) {
    Request r;
    r.id = id;
    r.arrival_time = sim.now();
    r.service_demand = demand;
    r.key = key;
    return r;
  }
};

TEST(CacheTier, MissFillsOnBackendCompletionThenHits) {
  TierFixture f;
  f.tier.on_request(f.request(1, 7));
  EXPECT_EQ(f.tier.misses(), 1u);
  EXPECT_EQ(f.tier.hits(), 0u);
  // The fill happens when the backend COMPLETES the miss, not at dispatch.
  EXPECT_EQ(f.tier.directory_size(), 0u);
  f.sim.run();
  EXPECT_EQ(f.tier.fills(), 1u);
  EXPECT_EQ(f.tier.directory_size(), 1u);

  f.tier.on_request(f.request(2, 7));
  EXPECT_EQ(f.tier.hits(), 1u);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.tier.hit_ratio(), 0.5);

  // Keyless requests (key = 0) bypass the directory entirely.
  f.tier.on_request(f.request(3, 0));
  EXPECT_EQ(f.tier.misses(), 2u);
  f.sim.run();
  EXPECT_EQ(f.tier.fills(), 1u);

  // The tier owns end-to-end accounting: all three completions recorded.
  EXPECT_EQ(f.tier.response_time_stats().count(), 3u);
}

TEST(CacheTier, TtlExpiresLazilyAtLookup) {
  ApptierConfig apptier = TierFixture::make_apptier();
  apptier.ttl = 50.0;
  TierFixture f(apptier);

  f.tier.on_request(f.request(1, 7));
  f.sim.run();
  ASSERT_EQ(f.tier.fills(), 1u);

  // Well past the fill's expiry (~ t=0.1 + 50): the resident entry lapses
  // at lookup time, counts as an expiration, and the miss refills.
  f.sim.schedule_at(100.0, [&f] { f.tier.on_request(f.request(2, 7)); });
  f.sim.run();
  EXPECT_EQ(f.tier.expirations(), 1u);
  EXPECT_EQ(f.tier.misses(), 2u);
  EXPECT_EQ(f.tier.fills(), 2u);

  // Within the refreshed TTL: a hit.
  f.sim.schedule_at(120.0, [&f] { f.tier.on_request(f.request(3, 7)); });
  f.sim.run();
  EXPECT_EQ(f.tier.hits(), 1u);
  EXPECT_EQ(f.tier.expirations(), 1u);
}

TEST(CacheTier, LruEvictsColdestAtCapacity) {
  ApptierConfig apptier = TierFixture::make_apptier();
  apptier.cache_capacity_per_vm = 2;  // one cache VM -> capacity 2
  TierFixture f(apptier);
  EXPECT_EQ(f.tier.directory_capacity(), 2u);

  for (std::uint64_t key = 1; key <= 3; ++key) {
    f.tier.on_request(f.request(key, key));
    f.sim.run();
  }
  EXPECT_EQ(f.tier.fills(), 3u);
  EXPECT_EQ(f.tier.evictions(), 1u);
  EXPECT_EQ(f.tier.directory_size(), 2u);

  // Key 1 was the LRU tail when key 3 filled; keys 2 and 3 survive.
  f.tier.on_request(f.request(10, 2));
  f.tier.on_request(f.request(11, 3));
  EXPECT_EQ(f.tier.hits(), 2u);
  f.tier.on_request(f.request(12, 1));
  EXPECT_EQ(f.tier.misses(), 4u);
  f.sim.run();
}

TEST(CacheTier, PoolResizeInvalidatesRemappedSlots) {
  // Two cache VMs: key 3 fills with slot tag 3 % 2 = 1.
  TierFixture f(TierFixture::make_apptier(), 2);
  f.tier.on_request(f.request(1, 3));
  f.sim.run();
  ASSERT_EQ(f.tier.fills(), 1u);

  // Shrinking to one VM remaps every key to slot 0; the resident copy is
  // on the wrong cache VM now and the next lookup misses as an
  // invalidation (not an expiration).
  f.cache_pool.scale_to(1);
  f.sim.run();
  f.tier.on_request(f.request(2, 3));
  EXPECT_EQ(f.tier.invalidations(), 1u);
  EXPECT_EQ(f.tier.expirations(), 0u);
  EXPECT_EQ(f.tier.misses(), 2u);
  f.sim.run();
}

TEST(CacheTier, ScheduledFlushEmptiesDirectory) {
  ApptierConfig apptier = TierFixture::make_apptier();
  apptier.flush_at = {30.0};
  TierFixture f(apptier);
  f.tier.start();  // arms the TTL storm

  f.tier.on_request(f.request(1, 7));
  f.sim.run();  // drains past the flush at t = 30
  EXPECT_EQ(f.tier.flushes(), 1u);
  EXPECT_EQ(f.tier.directory_size(), 0u);

  f.sim.schedule_at(40.0, [&f] { f.tier.on_request(f.request(2, 7)); });
  f.sim.run();
  EXPECT_EQ(f.tier.hits(), 0u);
  EXPECT_EQ(f.tier.misses(), 2u);
}

TEST(CacheTier, WindowFoldDrivesPlanningEwma) {
  TierFixture f;
  // Before any closed window the planner uses the configured assumption.
  EXPECT_DOUBLE_EQ(f.tier.planning_hit_ratio(), f.config.assumed_hit_ratio);
  EXPECT_LT(f.tier.fold_window(), 0.0);  // no lookups yet: EWMA unseeded

  // Window 1: one miss, one hit -> ratio 0.5 seeds the EWMA.
  f.tier.on_request(f.request(1, 7));
  f.sim.run();
  f.tier.on_request(f.request(2, 7));
  f.sim.run();
  EXPECT_EQ(f.tier.take_window_arrivals(), 2u);
  EXPECT_DOUBLE_EQ(f.tier.fold_window(), 0.5);
  EXPECT_DOUBLE_EQ(f.tier.planning_hit_ratio(), 0.5);
  EXPECT_EQ(f.tier.take_window_arrivals(), 0u);

  // Window 2: two hits -> ratio 1.0 folds at alpha = 0.3.
  f.tier.on_request(f.request(3, 7));
  f.tier.on_request(f.request(4, 7));
  f.sim.run();
  const double expected =
      f.config.hit_ewma_alpha * 1.0 + (1.0 - f.config.hit_ewma_alpha) * 0.5;
  EXPECT_DOUBLE_EQ(f.tier.fold_window(), expected);
  EXPECT_DOUBLE_EQ(f.tier.last_window_hit_ratio(), 1.0);
}

// --- flat directory vs. the list + hash-map reference ----------------------

// The directory the flat LruDirectory replaced, kept here as the reference:
// an LRU std::list (front = MRU) indexed by a std::unordered_map, with the
// tier's rules — lazy TTL expiry and slot-tag invalidation at lookup,
// erase-then-push-front on a repeated fill, tail eviction while the size
// exceeds the capacity, and flush clears everything.
class ReferenceDirectory {
 public:
  enum Outcome : char {
    kHit = 'h',
    kMiss = 'm',
    kExpired = 'x',
    kInvalidated = 'i',
    kKeyless = 'k',  // key 0 or no active cache VM: no directory lookup
  };

  Outcome lookup(std::uint64_t key, SimTime now, std::size_t active) {
    if (key == 0 || active == 0) return kKeyless;
    const auto it = index_.find(key);
    if (it == index_.end()) return kMiss;
    const Entry& entry = *it->second;
    if (entry.expiry <= now) {
      erase(key);
      return kExpired;
    }
    if (entry.slot != key % active) {
      erase(key);
      return kInvalidated;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return kHit;
  }

  /// Returns the number of evictions.
  std::size_t fill(std::uint64_t key, SimTime expiry, std::size_t active,
                   std::size_t capacity) {
    if (key == 0 || capacity == 0) return 0;
    erase(key);
    lru_.push_front(Entry{key, expiry, static_cast<std::uint32_t>(key % active)});
    index_[key] = lru_.begin();
    std::size_t evicted = 0;
    while (lru_.size() > capacity) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  void flush() {
    lru_.clear();
    index_.clear();
  }

  std::size_t size() const { return lru_.size(); }

  std::vector<ApptierState::DirectoryEntry> capture() const {
    std::vector<ApptierState::DirectoryEntry> out;
    for (const Entry& e : lru_) out.push_back({e.key, e.expiry, e.slot});
    return out;
  }

 private:
  struct Entry {
    std::uint64_t key;
    SimTime expiry;
    std::uint32_t slot;
  };
  void erase(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    lru_.erase(it->second);
    index_.erase(it);
  }
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

/// Misses go nowhere: the differential test fills the directory itself by
/// invoking the backend pool's completion listener.
class DiscardSink final : public RequestSink {
 public:
  void on_request(const Request&) override {}
};

// A tier whose fills the test drives: misses are discarded, and fill()
// invokes the backend pool's completion listener (the tier's fill hook)
// directly at the current clock.
struct DirectedTier {
  Simulation sim;
  Datacenter backend_dc;
  ApplicationProvisioner backend;
  Datacenter cache_dc;
  ApplicationProvisioner cache_pool;
  DiscardSink misses;
  CacheTier tier;

  DirectedTier(const ApptierConfig& config, std::size_t cache_vms)
      : backend_dc(sim, TierFixture::small_dc(),
                   std::make_unique<LeastLoadedPlacement>()),
        backend(sim, backend_dc, TierFixture::loose_qos(),
                TierFixture::pool_config(0.1),
                std::make_unique<KBoundAdmission>()),
        cache_dc(sim, TierFixture::small_dc(),
                 std::make_unique<LeastLoadedPlacement>()),
        cache_pool(sim, cache_dc, TierFixture::loose_qos(),
                   TierFixture::pool_config(0.011),
                   std::make_unique<KBoundAdmission>()),
        tier(sim, config, TierFixture::loose_qos(), cache_pool, backend, misses,
             Rng(99), nullptr) {
    cache_pool.scale_to(cache_vms);
  }

  void advance_to(SimTime t) {
    sim.schedule_at(t, [] {});
    sim.run(t);
  }

  Request request(std::uint64_t id, std::uint64_t key) const {
    Request r;
    r.id = id;
    r.arrival_time = sim.now();
    r.service_demand = 0.1;
    r.key = key;
    return r;
  }

  void fill(std::uint64_t id, std::uint64_t key) {
    backend.completion_listener()(request(id, key), 0.05);
  }
};

std::string directory_text(
    const std::vector<ApptierState::DirectoryEntry>& directory) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& e : directory) {
    out << e.key << '@' << e.expiry << '/' << e.slot << ' ';
  }
  return out.str();
}

// Seeded random sequences of lookups, fills (repeated keys included), clock
// advances past TTLs and scheduled flushes, cache-pool resizes (slot remaps,
// capacity shrinks and growths that rehash the table) and mid-sequence
// capture/restore into a fresh tier: every lookup outcome, every eviction
// count and every captured directory order must match the reference.
TEST(CacheTierDirectory, MatchesListAndHashMapReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    // A small key pool (so keys repeat and collide in the table) with key 0
    // and a few full-width 64-bit keys.
    std::vector<std::uint64_t> keys = {0};
    for (std::uint64_t k = 1; k <= 40; ++k) keys.push_back(k);
    for (int i = 0; i < 8; ++i) keys.push_back(gen() | (1ull << 63));

    ApptierConfig config = TierFixture::make_apptier();
    config.cache_capacity_per_vm = 6;
    config.ttl = 4.0;
    config.flush_at = {150.0 + 100.0 * unit(gen), 600.0 + 100.0 * unit(gen)};

    auto world = std::make_unique<DirectedTier>(config, 2);
    world->tier.start();
    ReferenceDirectory reference;
    std::string tier_outcomes;
    std::string reference_outcomes;
    std::uint64_t evictions = 0;
    std::size_t flushes_seen = 0;
    std::size_t restores = 0;
    std::uint64_t id = 0;

    for (int op = 0; op < 20000; ++op) {
      const double pick = unit(gen);
      const std::uint64_t key = keys[gen() % keys.size()];
      const std::size_t active = world->cache_pool.active_instances();
      const SimTime now = world->sim.now();
      if (pick < 0.45) {
        const CacheTier& t = world->tier;
        const std::uint64_t hits = t.hits();
        const std::uint64_t expired = t.expirations();
        const std::uint64_t invalidated = t.invalidations();
        world->tier.on_request(world->request(++id, key));
        const ReferenceDirectory::Outcome expected =
            reference.lookup(key, now, active);
        reference_outcomes += static_cast<char>(
            expected == ReferenceDirectory::kKeyless
                ? ReferenceDirectory::kMiss
                : expected);
        tier_outcomes += t.hits() > hits               ? 'h'
                         : t.expirations() > expired     ? 'x'
                         : t.invalidations() > invalidated ? 'i'
                                                           : 'm';
      } else if (pick < 0.80) {
        world->fill(++id, key);
        evictions += reference.fill(key, now + config.ttl, active,
                                    config.cache_capacity_per_vm * active);
      } else if (pick < 0.93) {
        const SimTime next = now + 2.5 * unit(gen);
        world->advance_to(next);
        for (const SimTime at : config.flush_at) {
          if (at > now && at <= next) {
            reference.flush();
            ++flushes_seen;
          }
        }
      } else if (pick < 0.98) {
        // 0..3 cache VMs, 0 rarely: capacity shrinks, grows and vanishes.
        const std::size_t vms = gen() % 16 == 0 ? 0 : 1 + gen() % 3;
        world->cache_pool.scale_to(vms);
      } else {
        ApptierState state;
        world->tier.capture(state);
        ASSERT_EQ(directory_text(state.directory),
                  directory_text(reference.capture()))
            << "seed " << seed << " op " << op;
        auto resumed = std::make_unique<DirectedTier>(config, active);
        resumed->advance_to(now);
        resumed->tier.restore(state);
        world = std::move(resumed);
        ++restores;
      }
      ASSERT_EQ(tier_outcomes, reference_outcomes)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(world->tier.evictions(), evictions)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(world->tier.directory_size(), reference.size())
          << "seed " << seed << " op " << op;
    }
    ApptierState state;
    world->tier.capture(state);
    EXPECT_EQ(directory_text(state.directory),
              directory_text(reference.capture()));
    EXPECT_EQ(world->tier.flushes(), flushes_seen);

    // The sequence really exercised every path.
    EXPECT_EQ(flushes_seen, 2u);
    EXPECT_GT(restores, 100u);
    EXPECT_GT(evictions, 100u);
    for (const char outcome : {'h', 'm', 'x', 'i'}) {
      EXPECT_GT(std::count(tier_outcomes.begin(), tier_outcomes.end(), outcome),
                50)
          << "outcome " << outcome << " seed " << seed;
    }
  }
}

// A restored directory must name each key once: a corrupt state with a
// repeated key is rejected instead of leaving a second, unreachable entry.
TEST(CacheTierDirectory, RestoreRejectsDuplicateKeys) {
  ApptierState state;
  state.directory = {{7, 10.0, 0}, {8, 10.0, 0}, {7, 12.0, 0}};
  DirectedTier world(TierFixture::make_apptier(), 1);
  EXPECT_THROW(world.tier.restore(state), std::invalid_argument);
}

// --- tiered end-to-end runs ------------------------------------------------

// The lambda_miss = lambda * (1 - h) feedback: a tiered run absorbs the
// Zipf hot head in the cache, plans the backend for the miss flow only, and
// records the per-window series.
TEST(TieredRun, LambdaMissFeedbackReachesBackendPlanner) {
  const ScenarioConfig config = tiered_config();
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42);
  const RunMetrics& m = out.metrics;

  // Every generated request passed through the look-aside directory.
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.generated);
  EXPECT_GT(m.cache_hit_ratio, 0.3);
  EXPECT_LT(m.cache_hit_ratio, 1.0);
  EXPECT_GT(m.cache_fills, 0u);
  EXPECT_GT(m.cache_vm_hours, 0.0);

  // The backend planner saw a strictly sub-lambda offered load.
  const double total_rate = config.zipf.base_rate * config.scale;
  EXPECT_GT(m.lambda_miss_mean, 0.0);
  EXPECT_LT(m.lambda_miss_mean, total_rate * (1.0 - 0.3));

  // Per-window warmup series: one sample per planning window, each with a
  // sane hit ratio (predictions are 0 only in zero-rate windows, e.g. the
  // one planned exactly at the horizon).
  ASSERT_FALSE(out.apptier_series.empty());
  std::size_t positive_predictions = 0;
  for (const auto& sample : out.apptier_series) {
    EXPECT_GE(sample.hit_ratio, 0.0);
    EXPECT_LE(sample.hit_ratio, 1.0);
    EXPECT_GE(sample.lambda_miss, 0.0);
    EXPECT_GE(sample.predicted_response, 0.0);
    if (sample.predicted_response > 0.0) ++positive_predictions;
  }
  EXPECT_GT(positive_predictions, out.apptier_series.size() / 2);
  EXPECT_FALSE(out.decisions.empty());

  // Per-tier measured latency: cache hits are an order of magnitude
  // cheaper than backend misses.
  EXPECT_GT(m.cache_avg_response_time, 0.0);
  EXPECT_GT(m.backend_avg_response_time, m.cache_avg_response_time);
}

// --- snapshot/restore bit-identity -----------------------------------------

// Snapshot a tiered run with pending chaos (a cache-VM crash and a TTL
// storm) both BEFORE the chaos fires and mid-storm AFTER the flush; the
// restored world must re-arm the pending events and finish bit-identically.
TEST(TieredClone, SnapshotRestoreIsBitIdenticalIncludingMidTtlStorm) {
  ScenarioConfig config = tiered_config();
  config.apptier.cache_crash_at = {5400.0};
  config.apptier.flush_at = {7200.0};

  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);
  ASSERT_EQ(full.metrics.cache_flushes, 1u);
  ASSERT_GT(full.metrics.cache_invalidations, 0u);

  for (const SimTime snapshot_time : {3601.7, 7300.9}) {
    const RunOutput resumed =
        clone_continue(config, PolicySpec::adaptive(), 42, snapshot_time);
    expect_identical_tiered(resumed.metrics, full.metrics);
    ASSERT_EQ(resumed.apptier_series.size(), full.apptier_series.size())
        << "snapshot at " << snapshot_time;
    for (std::size_t i = 0; i < full.apptier_series.size(); ++i) {
      EXPECT_EQ(resumed.apptier_series[i].t, full.apptier_series[i].t);
      EXPECT_EQ(resumed.apptier_series[i].hit_ratio,
                full.apptier_series[i].hit_ratio);
      EXPECT_EQ(resumed.apptier_series[i].lambda_miss,
                full.apptier_series[i].lambda_miss);
      EXPECT_EQ(resumed.apptier_series[i].predicted_response,
                full.apptier_series[i].predicted_response);
    }
    EXPECT_EQ(resumed.decisions.size(), full.decisions.size());
  }
}

// --- disk checkpoints ------------------------------------------------------

// The v3 codec serializes the optional apptier section; a checkpoint of a
// tiered world (with a pending TTL storm) loads and continues bit-identically.
TEST(TieredCheckpoint, DiskRoundtripContinuesBitIdentical) {
  ScenarioConfig config = tiered_config();
  config.apptier.flush_at = {7200.0};
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);

  World world(config, PolicySpec::adaptive(), 42, std::nullopt);
  world.start();
  world.run_to(5000.5);
  const WorldState state = world.snapshot();
  ASSERT_TRUE(state.apptier.has_value());
  ASSERT_EQ(state.apptier->flush_events.size(), 1u);
  EXPECT_TRUE(state.apptier->flush_events[0].has_value());  // storm pending

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const WorldState loaded = read_checkpoint(buffer);
  ASSERT_TRUE(loaded.apptier.has_value());
  EXPECT_EQ(loaded.apptier->directory.size(), state.apptier->directory.size());
  EXPECT_EQ(loaded.apptier->hits, state.apptier->hits);
  EXPECT_EQ(loaded.apptier->series.size(), state.apptier->series.size());
  ASSERT_EQ(loaded.apptier->flush_events.size(), 1u);
  EXPECT_TRUE(loaded.apptier->flush_events[0].has_value());

  World resumed(config, PolicySpec::adaptive(), 42, loaded);
  resumed.run_to(config.horizon);
  expect_identical_tiered(resumed.finish().metrics, full.metrics);
}

// Single-tier worlds never carry the section, and the codec rejects
// versions outside [kMinVersion, kVersion] instead of misdecoding.
TEST(TieredCheckpoint, UntieredOmitsApptierAndBadVersionsAreRejected) {
  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 600.0;
  config.web.horizon = config.horizon;
  World world(config, PolicySpec::adaptive(), 3, std::nullopt);
  world.start();
  world.run_to(300.0);
  const WorldState state = world.snapshot();
  EXPECT_FALSE(state.apptier.has_value());

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const std::string bytes = buffer.str();

  // Sanity: the unpatched buffer loads.
  {
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << bytes;
    EXPECT_FALSE(read_checkpoint(in).apptier.has_value());
  }

  // The version word sits right after the 4-byte magic.
  for (const std::uint32_t bad_version : {0u, 99u}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + 4, &bad_version, sizeof(bad_version));
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << patched;
    EXPECT_THROW(read_checkpoint(in), std::runtime_error)
        << "version " << bad_version;
  }
}

}  // namespace
}  // namespace cloudprov
