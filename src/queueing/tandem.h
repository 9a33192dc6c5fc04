// Composite (multi-tier) service models — the paper's future work:
// "we intend to improve the queueing model to allow modeling composite
// services" (Section VII).
//
// solve_tandem() models a request that traverses a chain of tiers (web ->
// app -> db ...), each tier an instance pool of parallel M/M/1/k queues like
// Figure 2. It uses the standard decomposition approximation: tier i+1's
// input is treated as Poisson at tier i's accepted throughput. Exact for
// unbounded exponential tiers (Burke's theorem); an approximation once
// blocking truncates the flow. The closed forms are pinned by hand-computed
// tests; the only comparison against simulation is AB14
// (bench_ablation_multitier), which prints the tiered provisioner's
// prediction next to the simulated end-to-end response.
#pragma once

#include <cstddef>
#include <vector>

#include "queueing/instance_pool_model.h"

namespace cloudprov::queueing {

struct TandemTier {
  std::size_t instances = 1;
  double service_rate = 1.0;      ///< per-instance mu
  std::size_t queue_capacity = 1; ///< per-instance k
};

struct TandemTierMetrics {
  double input_rate = 0.0;  ///< offered lambda at this tier
  InstancePoolMetrics pool;
};

struct TandemMetrics {
  /// Mean end-to-end response time of requests accepted at every tier.
  double end_to_end_response = 0.0;
  /// Probability a request survives every tier's admission control.
  double end_to_end_acceptance = 1.0;
  /// Requests/second completing the full chain.
  double throughput = 0.0;
  /// Index of the tier with the highest per-instance offered load.
  std::size_t bottleneck_tier = 0;
  std::vector<TandemTierMetrics> tiers;
};

TandemMetrics solve_tandem(double arrival_rate,
                           const std::vector<TandemTier>& tiers);

}  // namespace cloudprov::queueing
