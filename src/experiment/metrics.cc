#include "experiment/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <type_traits>

#include "util/check.h"

namespace cloudprov {
namespace {

template <typename Getter>
ConfidenceInterval field_ci(const std::vector<RunMetrics>& runs, double confidence,
                            Getter getter) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunMetrics& run : runs) values.push_back(getter(run));
  return mean_confidence_interval(values, confidence);
}

}  // namespace

std::optional<std::string> first_metric_difference(
    const RunMetrics& a, const RunMetrics& b,
    std::initializer_list<std::string_view> ignore) {
  std::optional<std::string> difference;
  for_each_field(
      [&](std::string_view name, const auto& x, const auto& y) {
        if (difference || name == "policy" || name == "wall_seconds" ||
            std::find(ignore.begin(), ignore.end(), name) != ignore.end()) {
          return;
        }
        if constexpr (std::is_same_v<std::decay_t<decltype(x)>, double>) {
          if (std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y)) {
            return;
          }
        } else if (x == y) {
          return;
        }
        std::ostringstream text;
        text.precision(17);
        text << name << ": " << x << " vs " << y;
        difference = text.str();
      },
      a, b);
  return difference;
}

AggregateMetrics aggregate(const std::vector<RunMetrics>& runs, double confidence) {
  ensure_arg(!runs.empty(), "aggregate: no runs");
  AggregateMetrics agg;
  agg.policy = runs.front().policy;
  agg.replications = runs.size();
  agg.avg_response_time =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.avg_response_time; });
  agg.std_response_time =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.std_response_time; });
  agg.min_instances =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.min_instances; });
  agg.max_instances =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.max_instances; });
  agg.vm_hours =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.vm_hours; });
  agg.utilization =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.utilization; });
  agg.rejection_rate =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.rejection_rate; });
  agg.qos_violations = field_ci(runs, confidence, [](const RunMetrics& r) {
    return static_cast<double>(r.qos_violations);
  });
  agg.availability =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.availability; });
  agg.billed_cost =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.billed_cost; });
  double generated = 0.0;
  for (const RunMetrics& run : runs) generated += static_cast<double>(run.generated);
  agg.generated_mean = generated / static_cast<double>(runs.size());
  return agg;
}

}  // namespace cloudprov
