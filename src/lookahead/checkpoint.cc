#include "lookahead/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace cloudprov {
namespace {

constexpr std::uint32_t kMagic = 0x43505753u;  // "CPWS"
// Version 2 appended the optional resilience state (RetryGateway +
// SheddingAdmission); version-1 files (pre-resilience) still load, with the
// layer absent. Version 3 added the request `key` field (Arrival/Request are
// now encoded field-wise) and appended the optional apptier state; v1/v2
// files still load with key = 0 and no cache tier.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;

// --- archives ---------------------------------------------------------------
//
// Each state type has one `io(ar, value)` naming its fields in encoding
// order; Writer and Reader both walk it, so the two directions cannot drift
// apart. Both archives live in this unnamed namespace, so the io() calls
// inside templates find every overload by argument-dependent lookup at
// instantiation, whatever the definition order below.

/// Encodes at kVersion. Padding inside raw leaves is written as zeros, so
/// the bytes are a function of the state alone; compilers without
/// __builtin_clear_padding (Clang) write it as it lies in memory.
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::ostream& out) : out_(out) {
    raw(kMagic);
    raw(kVersion);
  }
  std::uint32_t version() const { return kVersion; }

  template <typename T>
  void raw(const T& value) {
    T copy = value;
#if __has_builtin(__builtin_clear_padding)
    __builtin_clear_padding(&copy);
#endif
    out_.write(reinterpret_cast<const char*>(&copy), sizeof(T));
  }

 private:
  std::ostream& out_;
};

/// Decodes from the stream at the version its header names.
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::istream& in) : in_(in) {
    std::uint32_t magic = 0;
    raw(magic);
    if (magic != kMagic) {
      throw std::runtime_error("checkpoint: bad magic (not a checkpoint file)");
    }
    raw(version_);
    if (version_ < kMinVersion || version_ > kVersion) {
      throw std::runtime_error("checkpoint: unsupported version");
    }
  }
  std::uint32_t version() const { return version_; }

  template <typename T>
  void raw(T& value) {
    in_.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in_) throw std::runtime_error("checkpoint: truncated stream");
  }

  /// How many of `count` elements to reserve: never more than the bytes the
  /// stream reports left, as every element takes at least one.
  std::size_t reservable(std::uint64_t count) const {
    const std::streamsize left = in_.rdbuf()->in_avail();
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(count, left > 0 ? static_cast<std::uint64_t>(left) : 0));
  }

  void expect_end() const {
    if (in_.peek() != std::istream::traits_type::eof()) {
      throw std::runtime_error("checkpoint: trailing bytes after state");
    }
  }

 private:
  std::istream& in_;
  std::uint32_t version_ = 0;
};

// --- generic encodings --------------------------------------------------------

/// Trivially-copyable leaves are their raw bytes.
template <typename Ar, typename T>
  requires std::is_trivially_copyable_v<T>
void io(Ar& ar, T& value) {
  ar.raw(value);
}

/// Vector elements go through io(), except optionals: the v3 writer stored
/// those as their in-memory image (payload, engaged flag, padding), which
/// is kept, with zeros for the padding and for a disengaged payload.
template <typename Ar, typename T>
void element(Ar& ar, T& value) {
  io(ar, value);
}

template <typename Ar, typename T>
void element(Ar& ar, std::optional<T>& value) {
  static_assert(sizeof(std::optional<T>) == sizeof(T) + alignof(T),
                "optional layout is not payload, flag, padding");
  T payload = value.value_or(T{});
  std::uint8_t engaged = value.has_value() ? 1 : 0;
  std::array<std::uint8_t, alignof(T) - 1> padding{};
  ar.raw(payload);
  ar.raw(engaged);
  ar.raw(padding);
  if constexpr (Ar::kReading) {
    if (engaged != 0) {
      value = payload;
    } else {
      value.reset();
    }
  }
}

/// Vectors carry a u64 length prefix. The reader trusts it no further than
/// the bytes left: a corrupt length runs into the end of the stream, with
/// memory bounded by the input size.
template <typename Ar, typename T>
void io(Ar& ar, std::vector<T>& values) {
  std::uint64_t size = values.size();
  ar.raw(size);
  if constexpr (Ar::kReading) {
    values.clear();
    values.reserve(ar.reservable(size));
    for (std::uint64_t i = 0; i < size; ++i) element(ar, values.emplace_back());
  } else {
    for (T& value : values) element(ar, value);
  }
}

/// Optionals carry a u8 engaged flag.
template <typename Ar, typename T>
void io(Ar& ar, std::optional<T>& value) {
  std::uint8_t engaged = value.has_value() ? 1 : 0;
  ar.raw(engaged);
  if constexpr (Ar::kReading) {
    if (engaged != 0) {
      value.emplace();
    } else {
      value.reset();
    }
  }
  if (value.has_value()) io(ar, *value);
}

template <typename Ar, typename... Fields>
void fields(Ar& ar, Fields&... values) {
  (io(ar, values), ...);
}

// --- state types, one field list each (declaration order) ---------------------

// Pre-v3 files raw-copied Arrival/Request (no key field, padding included);
// these mirror the old in-memory layouts so v1/v2 checkpoints still decode.
struct LegacyArrival {
  SimTime time = 0.0;
  double service_demand = 0.0;
  int priority = 0;
  SimTime deadline = 0.0;
};
static_assert(sizeof(LegacyArrival) == 32, "legacy Arrival layout changed");

struct LegacyRequest {
  std::uint64_t id = 0;
  SimTime arrival_time = 0.0;
  double service_demand = 0.0;
  int priority = 0;
  SimTime deadline = 0.0;
};
static_assert(sizeof(LegacyRequest) == 40, "legacy Request layout changed");

template <typename Ar>
void io(Ar& ar, Arrival& a) {
  if (ar.version() < 3) {
    LegacyArrival legacy;
    ar.raw(legacy);
    a = Arrival{legacy.time, legacy.service_demand, legacy.priority,
                legacy.deadline, 0};
    return;
  }
  fields(ar, a.time, a.service_demand, a.priority, a.deadline, a.key);
}

template <typename Ar>
void io(Ar& ar, Request& r) {
  if (ar.version() < 3) {
    LegacyRequest legacy;
    ar.raw(legacy);
    r = Request{legacy.id, legacy.arrival_time, legacy.service_demand,
                legacy.priority, legacy.deadline, 0};
    return;
  }
  fields(ar, r.id, r.arrival_time, r.service_demand, r.priority, r.deadline,
         r.key);
}

template <typename Ar>
void io(Ar& ar, Vm::Snapshot& s) {
  fields(ar, s.id, s.spec, s.state, s.boot_fail, s.revoked, s.priority_queueing,
         s.waiting, s.in_service, s.service_started, s.creation_time,
         s.destruction_time, s.busy_seconds, s.completed, s.boot_event,
         s.completion_event);
}

template <typename Ar>
void io(Ar& ar, Datacenter::Snapshot& s) {
  fields(ar, s.hosts, s.vms, s.vm_host, s.live_vms, s.failed_hosts,
         s.next_vm_id, s.allocation_suspended);
}

template <typename Ar>
void io(Ar& ar, ApplicationProvisioner::Snapshot& s) {
  fields(ar, s.instances, s.draining, s.rr_cursor, s.watchdogs, s.accepted,
         s.rejected, s.qos_violations, s.lost_to_failures, s.instance_failures,
         s.window_arrivals, s.commanded_target, s.failures_by_cause,
         s.lost_by_cause, s.recovery_stats, s.in_deficit, s.deficit_since,
         s.deficit_seconds, s.response_stats, s.service_stats, s.p95, s.p99,
         s.instance_count, s.instance_history_started);
}

template <typename Ar>
void io(Ar& ar, Broker::Snapshot& s) {
  fields(ar, s.rng, s.generated, s.next_request_id, s.pending_arrival,
         s.pending_event);
}

template <typename Ar>
void io(Ar& ar, AdaptivePolicy::State& s) {
  fields(ar, s.analyzer, s.predictor, s.decisions);
}

template <typename Ar>
void io(Ar& ar, SpotPriceProcess::State& s) {
  fields(ar, s.rng, s.path, s.spike, s.spike_until);
}

template <typename Ar>
void io(Ar& ar, MarketBroker::Snapshot& s) {
  fields(ar, s.price, s.entries, s.kills, s.running, s.pending_tick,
         s.last_accrual, s.accrued_burn, s.purchases, s.revocations,
         s.revocation_kills);
}

template <typename Ar>
void io(Ar& ar, FaultInjector::Snapshot& s) {
  fields(ar, s.vm_rng, s.host_rng, s.boot_rng, s.degrade_rng, s.running,
         s.pending_vm, s.pending_host, s.pending_degrade, s.timed,
         s.active_outages, s.vm_crashes, s.host_crashes, s.boot_failures,
         s.stragglers, s.degradations);
}

template <typename Ar>
void io(Ar& ar, Reconciler::Snapshot& s) {
  fields(ar, s.running, s.pending, s.last_target, s.attempt, s.next_backoff,
         s.aborted, s.heals, s.retries, s.aborts);
}

template <typename Ar>
void io(Ar& ar, RetryGateway::InFlightEntry& e) {
  fields(ar, e.attempt_id, e.request, e.attempt, e.prev_delay, e.probe,
         e.timeout_event);
}

template <typename Ar>
void io(Ar& ar, RetryGateway::PendingRetry& e) {
  fields(ar, e.request, e.attempt, e.prev_delay, e.event);
}

template <typename Ar>
void io(Ar& ar, RetryGateway::Snapshot& s) {
  fields(ar, s.rng, s.budget_tokens, s.breaker_state, s.breaker_opened_at,
         s.breaker_ring, s.breaker_ring_idx, s.breaker_in_window,
         s.breaker_failures, s.probes_issued, s.probe_successes,
         s.next_retry_seq, s.client_requests, s.client_succeeded,
         s.client_failed, s.client_attempts, s.client_retries,
         s.retry_budget_denied, s.client_timeouts, s.wasted_completions,
         s.breaker_opens, s.breaker_half_opens, s.breaker_closes,
         s.breaker_fast_fails, s.in_flight, s.retries);
}

template <typename Ar>
void io(Ar& ar, WorldState::ResilienceState& s) {
  SheddingAdmission::Snapshot& shed = s.shedding;
  fields(ar, s.gateway, shed.shed_deadline, shed.shed_brownout,
         shed.has_pending, shed.pending_id, shed.pending_kind,
         shed.pending_time);
}

template <typename Ar>
void io(Ar& ar, ApptierState& s) {
  fields(ar, s.cache_datacenter, s.cache_provisioner, s.directory, s.rng,
         s.hits, s.misses, s.fills, s.evictions, s.expirations,
         s.invalidations, s.flushes, s.window_arrivals, s.window_hits,
         s.window_lookups, s.hit_ewma, s.last_window_hit_ratio,
         s.lambda_miss_sum, s.windows, s.response_stats, s.p95, s.p99,
         s.qos_violations, s.series, s.flush_events, s.crash_events,
         s.cache_decisions);
}

/// Telemetry is not part of the disk format (checkpoint.h).
template <typename Ar>
void io(Ar& ar, WorldState& s) {
  fields(ar, s.now, s.executed_events, s.push_counter, s.datacenter,
         s.provisioner, s.broker, s.source, s.policy_present);
  if (s.policy_present) io(ar, s.policy);
  fields(ar, s.lookahead_rng, s.market, s.faults, s.reconciler);
  if (ar.version() >= 2) io(ar, s.resilience);
  if (ar.version() >= 3) io(ar, s.apptier);
}

}  // namespace

void write_checkpoint(std::ostream& out, const WorldState& state) {
  Writer ar(out);
  // One field list serves both directions, so io() takes the state
  // non-const; the writer only reads through it.
  io(ar, const_cast<WorldState&>(state));
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

WorldState read_checkpoint(std::istream& in) {
  Reader ar(in);
  WorldState state;
  io(ar, state);
  ar.expect_end();
  return state;
}

void write_checkpoint_file(const std::string& path, const WorldState& state) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("checkpoint: cannot open for writing: " + path);
  }
  write_checkpoint(out, state);
}

WorldState read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open for reading: " + path);
  }
  return read_checkpoint(in);
}

}  // namespace cloudprov
