// Per-run output metrics and cross-replication aggregation.
//
// These are exactly the paper's output metrics (Section V-A): average
// response time of accepted requests and its standard deviation, min/max
// concurrent instances, VM hours, QoS violations, rejection percentage, and
// resource utilization — plus simulator-side diagnostics (events, wall time).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/confidence.h"

namespace cloudprov {

/// Monotone progress counters of a running world (World::counters()) and
/// their per-window fleet deltas (FleetWindowSample). `+=` and `-=` work
/// field by field; unsigned wrap-around keeps `later - earlier` exact.
struct RunCounters {
  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t qos_violations = 0;
  std::uint64_t cache_hits = 0;    ///< tiered (Zipf) worlds only
  std::uint64_t cache_misses = 0;  ///< tiered (Zipf) worlds only

  RunCounters& operator+=(const RunCounters& other) {
    return combine(other, std::plus<>{});
  }
  RunCounters& operator-=(const RunCounters& other) {
    return combine(other, std::minus<>{});
  }
  friend RunCounters operator-(RunCounters a, const RunCounters& b) {
    return a -= b;
  }

 private:
  template <typename Op>
  RunCounters& combine(const RunCounters& other, Op op) {
    generated = op(generated, other.generated);
    accepted = op(accepted, other.accepted);
    rejected = op(rejected, other.rejected);
    completed = op(completed, other.completed);
    qos_violations = op(qos_violations, other.qos_violations);
    cache_hits = op(cache_hits, other.cache_hits);
    cache_misses = op(cache_misses, other.cache_misses);
    return *this;
  }
};

struct RunMetrics {
  std::string policy;
  std::uint64_t seed = 0;

  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t qos_violations = 0;

  double avg_response_time = 0.0;
  double std_response_time = 0.0;
  double p95_response_time = 0.0;
  double p99_response_time = 0.0;

  double min_instances = 0.0;
  double max_instances = 0.0;
  double avg_instances = 0.0;

  double vm_hours = 0.0;
  double busy_vm_hours = 0.0;
  double utilization = 0.0;
  double rejection_rate = 0.0;

  // --- fault injection & self-healing (src/fault; all zero in fault-free
  // runs, so existing outputs are unchanged) ------------------------------
  std::uint64_t instance_failures = 0;  ///< all causes
  std::uint64_t vm_crashes = 0;
  std::uint64_t host_crashes = 0;  ///< hosts crash-failed
  std::uint64_t boot_failures = 0;
  std::uint64_t boot_timeouts = 0;
  std::uint64_t lost_requests = 0;  ///< accepted, then lost to a failure
  std::uint64_t lost_to_vm_crashes = 0;
  std::uint64_t lost_to_host_crashes = 0;
  /// Fraction of the run the active pool met the commanded target
  /// (1 - deficit seconds / horizon); 1.0 when no faults are configured.
  double availability = 1.0;
  /// Closed deficit episodes (pool dropped below target, then recovered).
  std::uint64_t recoveries = 0;
  double mttr_mean = 0.0;  ///< mean repair time over closed episodes, s
  double mttr_max = 0.0;
  std::uint64_t reconciler_heals = 0;
  std::uint64_t reconciler_retries = 0;
  std::uint64_t reconciler_aborts = 0;
  /// Active instances at the horizon (shows permanent loss for unhealed
  /// static pools).
  std::uint64_t final_instances = 0;

  // --- observability (src/telemetry monitors; all zero when the span
  // tracer, drift observatory, and SLO monitor are disabled) ---------------
  std::uint64_t slo_response_alerts = 0;  ///< burn-rate alerts raised (Ts)
  std::uint64_t slo_rejection_alerts = 0;
  double slo_worst_burn_rate = 0.0;  ///< peak short-window burn, any rule
  std::uint64_t drift_windows = 0;   ///< closed predicted-vs-observed windows
  double drift_response_mape = 0.0;  ///< response-time MAPE, percent
  double drift_response_bias = 0.0;  ///< mean signed error (pred - obs), s
  std::uint64_t spans_traced = 0;    ///< requests sampled by the span tracer

  // --- IaaS market (src/market; all zero when the market is disabled, so
  // existing outputs are unchanged) ----------------------------------------
  double billed_cost = 0.0;  ///< total, currency units
  double on_demand_cost = 0.0;
  double spot_cost = 0.0;
  double reserved_cost = 0.0;
  std::uint64_t on_demand_purchases = 0;
  std::uint64_t spot_purchases = 0;
  std::uint64_t reserved_purchases = 0;
  std::uint64_t spot_revocations = 0;   ///< notices served
  std::uint64_t revocation_kills = 0;   ///< notices that expired into kills
  std::uint64_t lost_to_revocations = 0;
  double spot_price_mean = 0.0;  ///< time-weighted over the horizon
  double spot_price_max = 0.0;

  // --- request-path resilience (src/resilience; all zero when the layer is
  // disabled, so existing outputs are unchanged) ---------------------------
  std::uint64_t client_requests = 0;   ///< fresh logical requests
  std::uint64_t client_succeeded = 0;  ///< served within the client's patience
  std::uint64_t client_failed = 0;     ///< client gave up (attempts/deadline/budget)
  std::uint64_t client_attempts = 0;   ///< dispatches incl. retries + fast-fails
  std::uint64_t client_retries = 0;
  std::uint64_t retry_budget_denied = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t wasted_completions = 0;  ///< served after the client gave up
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t shed_deadline = 0;  ///< admission sheds: unmeetable deadline
  std::uint64_t shed_brownout = 0;  ///< admission sheds: brownout

  // --- multi-tenant capacity arbitration (src/experiment/multi_tenant;
  // all zero in single-tenant runs, so existing outputs are unchanged) -----
  std::uint64_t capacity_clips = 0;   ///< scale_to calls clamped by the grant
  std::uint64_t capacity_denied = 0;  ///< instances desired but not granted

  // --- multi-tier application (src/apptier; all zero when the cache tier
  // is disabled, so existing outputs are unchanged) ------------------------
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_ratio = 0.0;  ///< lifetime hits / lookups
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_expirations = 0;    ///< TTL lapses seen at lookup
  std::uint64_t cache_invalidations = 0;  ///< slot remaps (crash/resize)
  std::uint64_t cache_flushes = 0;        ///< TTL-storm events fired
  double cache_vm_hours = 0.0;
  double cache_utilization = 0.0;
  double cache_avg_instances = 0.0;
  std::uint64_t cache_final_instances = 0;
  /// Mean backend offered load lambda * (1 - h) across analysis windows.
  double lambda_miss_mean = 0.0;
  /// Per-tier measured latency (the tiered latency-vs-throughput curve):
  /// mean response time of requests served by each pool alone. In tiered
  /// runs avg_response_time above is the END-TO-END mix of both.
  double cache_avg_response_time = 0.0;
  double backend_avg_response_time = 0.0;

  // Simulator diagnostics (not paper metrics).
  std::uint64_t simulated_events = 0;
  double wall_seconds = 0.0;
};

/// Calls `visit(name, field...)` once per RunMetrics field, in declaration
/// order, passing that field of every `metrics` argument (std::visit-style:
/// one struct to export it, two to compare them). This is the one RunMetrics
/// field list: a field added to the struct above must be added here too,
/// and the manifest writer and first_metric_difference then cover it.
template <typename Visitor, typename... Metrics>
void for_each_field(Visitor&& visit, Metrics&... metrics) {
#define CLOUDPROV_METRIC(name) visit(#name, metrics.name...)
  CLOUDPROV_METRIC(policy);
  CLOUDPROV_METRIC(seed);
  CLOUDPROV_METRIC(generated);
  CLOUDPROV_METRIC(accepted);
  CLOUDPROV_METRIC(rejected);
  CLOUDPROV_METRIC(completed);
  CLOUDPROV_METRIC(qos_violations);
  CLOUDPROV_METRIC(avg_response_time);
  CLOUDPROV_METRIC(std_response_time);
  CLOUDPROV_METRIC(p95_response_time);
  CLOUDPROV_METRIC(p99_response_time);
  CLOUDPROV_METRIC(min_instances);
  CLOUDPROV_METRIC(max_instances);
  CLOUDPROV_METRIC(avg_instances);
  CLOUDPROV_METRIC(vm_hours);
  CLOUDPROV_METRIC(busy_vm_hours);
  CLOUDPROV_METRIC(utilization);
  CLOUDPROV_METRIC(rejection_rate);
  CLOUDPROV_METRIC(instance_failures);
  CLOUDPROV_METRIC(vm_crashes);
  CLOUDPROV_METRIC(host_crashes);
  CLOUDPROV_METRIC(boot_failures);
  CLOUDPROV_METRIC(boot_timeouts);
  CLOUDPROV_METRIC(lost_requests);
  CLOUDPROV_METRIC(lost_to_vm_crashes);
  CLOUDPROV_METRIC(lost_to_host_crashes);
  CLOUDPROV_METRIC(availability);
  CLOUDPROV_METRIC(recoveries);
  CLOUDPROV_METRIC(mttr_mean);
  CLOUDPROV_METRIC(mttr_max);
  CLOUDPROV_METRIC(reconciler_heals);
  CLOUDPROV_METRIC(reconciler_retries);
  CLOUDPROV_METRIC(reconciler_aborts);
  CLOUDPROV_METRIC(final_instances);
  CLOUDPROV_METRIC(slo_response_alerts);
  CLOUDPROV_METRIC(slo_rejection_alerts);
  CLOUDPROV_METRIC(slo_worst_burn_rate);
  CLOUDPROV_METRIC(drift_windows);
  CLOUDPROV_METRIC(drift_response_mape);
  CLOUDPROV_METRIC(drift_response_bias);
  CLOUDPROV_METRIC(spans_traced);
  CLOUDPROV_METRIC(billed_cost);
  CLOUDPROV_METRIC(on_demand_cost);
  CLOUDPROV_METRIC(spot_cost);
  CLOUDPROV_METRIC(reserved_cost);
  CLOUDPROV_METRIC(on_demand_purchases);
  CLOUDPROV_METRIC(spot_purchases);
  CLOUDPROV_METRIC(reserved_purchases);
  CLOUDPROV_METRIC(spot_revocations);
  CLOUDPROV_METRIC(revocation_kills);
  CLOUDPROV_METRIC(lost_to_revocations);
  CLOUDPROV_METRIC(spot_price_mean);
  CLOUDPROV_METRIC(spot_price_max);
  CLOUDPROV_METRIC(client_requests);
  CLOUDPROV_METRIC(client_succeeded);
  CLOUDPROV_METRIC(client_failed);
  CLOUDPROV_METRIC(client_attempts);
  CLOUDPROV_METRIC(client_retries);
  CLOUDPROV_METRIC(retry_budget_denied);
  CLOUDPROV_METRIC(client_timeouts);
  CLOUDPROV_METRIC(wasted_completions);
  CLOUDPROV_METRIC(breaker_opens);
  CLOUDPROV_METRIC(breaker_half_opens);
  CLOUDPROV_METRIC(breaker_closes);
  CLOUDPROV_METRIC(breaker_fast_fails);
  CLOUDPROV_METRIC(shed_deadline);
  CLOUDPROV_METRIC(shed_brownout);
  CLOUDPROV_METRIC(capacity_clips);
  CLOUDPROV_METRIC(capacity_denied);
  CLOUDPROV_METRIC(cache_hits);
  CLOUDPROV_METRIC(cache_misses);
  CLOUDPROV_METRIC(cache_hit_ratio);
  CLOUDPROV_METRIC(cache_fills);
  CLOUDPROV_METRIC(cache_evictions);
  CLOUDPROV_METRIC(cache_expirations);
  CLOUDPROV_METRIC(cache_invalidations);
  CLOUDPROV_METRIC(cache_flushes);
  CLOUDPROV_METRIC(cache_vm_hours);
  CLOUDPROV_METRIC(cache_utilization);
  CLOUDPROV_METRIC(cache_avg_instances);
  CLOUDPROV_METRIC(cache_final_instances);
  CLOUDPROV_METRIC(lambda_miss_mean);
  CLOUDPROV_METRIC(cache_avg_response_time);
  CLOUDPROV_METRIC(backend_avg_response_time);
  CLOUDPROV_METRIC(simulated_events);
  CLOUDPROV_METRIC(wall_seconds);
#undef CLOUDPROV_METRIC
}

/// The first field, in declaration order, where `a` and `b` differ, as
/// "name: a_value vs b_value"; nullopt when every compared field matches.
/// Doubles compare as bit patterns. `wall_seconds` (host time, not
/// simulation) and `policy` (the label; callers compare it when labels
/// should match) are skipped, as is every field named in `ignore`.
std::optional<std::string> first_metric_difference(
    const RunMetrics& a, const RunMetrics& b,
    std::initializer_list<std::string_view> ignore = {});

/// Mean and 95% CI of each headline metric across replications.
struct AggregateMetrics {
  std::string policy;
  std::size_t replications = 0;

  ConfidenceInterval avg_response_time;
  ConfidenceInterval std_response_time;
  ConfidenceInterval min_instances;
  ConfidenceInterval max_instances;
  ConfidenceInterval vm_hours;
  ConfidenceInterval utilization;
  ConfidenceInterval rejection_rate;
  ConfidenceInterval qos_violations;
  ConfidenceInterval availability;
  ConfidenceInterval billed_cost;
  double generated_mean = 0.0;
};

AggregateMetrics aggregate(const std::vector<RunMetrics>& runs,
                           double confidence = 0.95);

}  // namespace cloudprov
