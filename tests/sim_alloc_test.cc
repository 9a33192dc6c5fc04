// Steady-state allocation audit for the serve hot path.
//
// This binary replaces the global allocator with a counting one and drives
// the same configuration as BM_ServedPoissonRequests/16 (broker -> admission
// -> round-robin -> VM service -> stats, telemetry off). After a warmup that
// brings every arena to its steady capacity — the event slab, the 4-ary
// heap, and each VM's waiting ring — a measured window of ~13k served
// requests must perform ZERO heap allocations: the kernel's typed inline
// delegates, the slab free list, and the ring buffers make the per-request
// cycle allocation-free.
//
// The tiered serve path gets the same audit: Zipf arrivals -> broker ->
// CacheTier directory lookup -> cache pool (hit) or backend pool (miss) ->
// fill on backend completion, with the directory held at capacity so every
// fill also evicts. The flat directory reuses its node and table storage,
// so a steady window allocates nothing there either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "apptier/cache_tier.h"
#include "cloud/broker.h"
#include "core/application_provisioner.h"
#include "workload/poisson_source.h"
#include "workload/zipf_workload.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cloudprov {
namespace {

TEST(ServePathAllocation, SteadyStateServesWithZeroHeapAllocations) {
  constexpr std::size_t kInstances = 16;
  Simulation sim;
  DatacenterConfig dc_config;
  dc_config.host_count = kInstances / 8 + 1;
  Datacenter datacenter(sim, dc_config,
                        std::make_unique<LeastLoadedPlacement>());
  QosTargets qos;
  qos.max_response_time = 0.250;
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = 0.105;
  ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
  provisioner.scale_to(kInstances);
  const double lambda = 8.0 * static_cast<double>(kInstances);  // rho = 0.84
  PoissonSource source(lambda,
                       std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                       0.0, 200.0);
  Broker broker(sim, source, provisioner, Rng(7));
  broker.start();

  // Warmup: boots complete, arenas (slab, heap, waiting rings) reach their
  // steady capacity, and the adaptive queue bound settles on monitored data.
  sim.run(100.0);
  const std::uint64_t generated_before = broker.generated();
  const std::uint64_t completed_before = provisioner.completed();
  ASSERT_GT(generated_before, 10000u);  // the warmup actually served traffic

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  sim.run(200.0);
  const std::uint64_t allocations_during =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  // The window really exercised the full cycle...
  EXPECT_GT(broker.generated() - generated_before, 10000u);
  EXPECT_GT(provisioner.completed() - completed_before, 10000u);
  // ...and did so without a single heap allocation,
  EXPECT_EQ(allocations_during, 0u);
  // through the typed inline-delegate path only (no boxed closures at all:
  // arrivals, completions, and boots are method binds).
  EXPECT_EQ(sim.queue().boxed_pushed_count(), 0u);
}

TEST(ServePathAllocation, TieredZipfSteadyStateServesWithZeroHeapAllocations) {
  Simulation sim;
  QosTargets qos;
  qos.max_response_time = 0.250;
  DatacenterConfig dc_config;
  dc_config.host_count = 4;

  ProvisionerConfig backend_config;
  backend_config.initial_service_time_estimate = 0.105;
  Datacenter backend_dc(sim, dc_config,
                        std::make_unique<LeastLoadedPlacement>());
  ApplicationProvisioner backend(sim, backend_dc, qos, backend_config);
  backend.scale_to(24);

  ApptierConfig apptier;
  apptier.enabled = true;
  apptier.cache_capacity_per_vm = 1024;  // 3 VMs: 3072 of 20000 keys
  ProvisionerConfig cache_config;
  cache_config.initial_service_time_estimate =
      apptier.initial_cache_service_estimate;
  Datacenter cache_dc(sim, dc_config, std::make_unique<LeastLoadedPlacement>());
  ApplicationProvisioner cache_pool(sim, cache_dc, qos, cache_config);
  cache_pool.scale_to(3);

  CacheTier tier(sim, apptier, qos, cache_pool, backend, backend, Rng(11),
                 nullptr);
  tier.start();
  ZipfWorkloadConfig zipf;
  zipf.scale = 0.3;  // 300 requests/s
  zipf.horizon = 400.0;
  ZipfWorkload workload(zipf);
  Broker broker(sim, workload, tier, Rng(7));
  broker.start();

  // Warmup: the directory fills to capacity (every later fill evicts) and
  // the event slab, heap and VM waiting rings reach their steady sizes.
  sim.run(200.0);
  ASSERT_EQ(tier.directory_size(), tier.directory_capacity());
  ASSERT_GT(tier.evictions(), 0u);
  const std::uint64_t generated_before = broker.generated();
  const std::uint64_t hits_before = tier.hits();
  const std::uint64_t fills_before = tier.fills();
  const std::uint64_t evictions_before = tier.evictions();

  // One analysis window (60 s) of steady serving.
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  sim.run(260.0);
  const std::uint64_t allocations_during =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  // The window served hits and misses, filled and evicted...
  EXPECT_GT(broker.generated() - generated_before, 10000u);
  EXPECT_GT(tier.hits() - hits_before, 3000u);
  EXPECT_GT(tier.fills() - fills_before, 3000u);
  EXPECT_GT(tier.evictions() - evictions_before, 1000u);
  EXPECT_EQ(tier.directory_size(), tier.directory_capacity());
  // ...without a single heap allocation.
  EXPECT_EQ(allocations_during, 0u);
}

}  // namespace
}  // namespace cloudprov
