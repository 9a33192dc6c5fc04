// Disk checkpoint codec tests (src/lookahead/checkpoint.cc):
//
//   - format fixtures: checkpoints written by the v1, v2 and v3 codecs decode
//     and resume to a run whose RunMetrics equal a fresh run of the same
//     config and seed, field by field,
//   - determinism: two identical worlds write byte-identical checkpoints, and
//     re-encoding a decoded checkpoint reproduces it byte for byte,
//   - corruption: huge length words and truncation at every byte offset are
//     rejected with std::runtime_error, never an abort.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "lookahead/world_state.h"

namespace cloudprov {
namespace {

std::string encode(const WorldState& state) {
  std::ostringstream out(std::ios::binary);
  write_checkpoint(out, state);
  return out.str();
}

WorldState decode(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return read_checkpoint(in);
}

// --- format fixtures --------------------------------------------------------

// Each fixture in tests/data/ was written by run_scenario built at the commit
// that introduced its codec version: 7187c74 (v1, first codec), f62c75c (v2,
// resilience section) and 04f3204 (v3, request keys and apptier section).
//   web_v<N>.ckpt:       --workload web --scale 0.01 --days 1
//                        --checkpoint web_v<N>.ckpt --checkpoint-at 3600
//   zipf_tiered_v3.ckpt: --workload zipf --tiers --scale 0.01 --keys 2000
//                        --days 1 --flush-at 1800,7200 --cache-crash-at 5400
//                        --checkpoint zipf_tiered_v3.ckpt --checkpoint-at 3600
// They pin the legacy Arrival/Request layouts, the version-gated sections and
// the v3 apptier section against later codec changes.
ScenarioConfig web_fixture_config() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  return config;
}

ScenarioConfig tiered_fixture_config() {
  ScenarioConfig config = zipf_scenario(0.01);
  config.horizon = 86400.0;
  config.zipf.horizon = config.horizon;
  config.zipf.num_keys = 2000;
  config.apptier.enabled = true;
  config.apptier.flush_at = {1800.0, 7200.0};
  config.apptier.cache_crash_at = {5400.0};
  return config;
}

struct Fixture {
  const char* name;
  ScenarioConfig (*config)();
};

// Print the fixture by name, not as raw bytes holding ASLR-dependent
// pointers, so the discovered test name is the same on every build.
void PrintTo(const Fixture& f, std::ostream* os) { *os << f.name; }

class CheckpointFixture : public ::testing::TestWithParam<Fixture> {};

TEST_P(CheckpointFixture, DecodesAndResumesToTheFreshRun) {
  const ScenarioConfig config = GetParam().config();
  const WorldState state = read_checkpoint_file(
      std::string(CLOUDPROV_TEST_DATA_DIR) + "/" + GetParam().name + ".ckpt");
  EXPECT_EQ(state.now, 3600.0);
  EXPECT_TRUE(state.policy_present);
  EXPECT_FALSE(state.resilience.has_value());
  ASSERT_EQ(state.apptier.has_value(), config.apptier.enabled);
  if (state.apptier.has_value()) {
    // The 1800 s storm has fired, the 7200 s one is still pending.
    ASSERT_EQ(state.apptier->flush_events.size(), 2u);
    EXPECT_FALSE(state.apptier->flush_events[0].has_value());
    EXPECT_TRUE(state.apptier->flush_events[1].has_value());
  }

  const std::uint64_t seed = replication_seeds(1, 42).front();  // --seed 42
  const RunMetrics fresh =
      run_scenario(config, PolicySpec::adaptive(), seed).metrics;
  World resumed(config, PolicySpec::adaptive(), seed, state);
  resumed.run_to(config.horizon);
  const RunMetrics metrics = resumed.finish().metrics;

  EXPECT_EQ(metrics.policy, fresh.policy);
  const std::optional<std::string> difference =
      first_metric_difference(metrics, fresh);
  EXPECT_FALSE(difference) << *difference;
  EXPECT_GT(metrics.generated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, CheckpointFixture,
    ::testing::Values(Fixture{"web_v1", web_fixture_config},
                      Fixture{"web_v2", web_fixture_config},
                      Fixture{"web_v3", web_fixture_config},
                      Fixture{"zipf_tiered_v3", tiered_fixture_config}),
    [](const ::testing::TestParamInfo<Fixture>& param) {
      return std::string(param.param.name);
    });

// --- determinism ------------------------------------------------------------

// Every optional section present: tiered Zipf traffic with faults, the
// reconciler, a spot market and the resilience layer, snapshotted mid-run.
ScenarioConfig all_layers_config() {
  ScenarioConfig config = zipf_scenario(0.01);
  config.horizon = 3600.0;
  config.zipf.horizon = config.horizon;
  config.zipf.num_keys = 2000;
  config.apptier.enabled = true;
  config.apptier.cache_capacity_per_vm = 100;
  config.fault.vm_mtbf = 3600.0;
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.7;
  config.resilience.enabled = true;
  config.resilience.attempt_timeout = 0.5;
  config.resilience.retry.max_attempts = 3;
  return config;
}

std::string all_layers_checkpoint() {
  World world(all_layers_config(), PolicySpec::adaptive(), 11, std::nullopt);
  world.start();
  world.run_to(1800.0);
  const WorldState state = world.snapshot();
  EXPECT_TRUE(state.policy_present);
  EXPECT_TRUE(state.market.has_value());
  EXPECT_TRUE(state.faults.has_value());
  EXPECT_TRUE(state.reconciler.has_value());
  EXPECT_TRUE(state.resilience.has_value());
  EXPECT_TRUE(state.apptier.has_value());
  return encode(state);
}

TEST(CheckpointBytes, IdenticalWorldsWriteIdenticalBytes) {
#if !__has_builtin(__builtin_clear_padding)
  GTEST_SKIP() << "the codec zeroes padding with __builtin_clear_padding, "
                  "which this compiler lacks";
#endif
  const std::string first = all_layers_checkpoint();
  const std::string second = all_layers_checkpoint();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second) << "checkpoint bytes depend on more than the state";
}

TEST(CheckpointBytes, ReencodingADecodedCheckpointIsAFixedPoint) {
  const std::string bytes = all_layers_checkpoint();
  EXPECT_TRUE(encode(decode(bytes)) == bytes);

  const std::string fixture = encode(
      read_checkpoint_file(std::string(CLOUDPROV_TEST_DATA_DIR) + "/web_v3.ckpt"));
  EXPECT_TRUE(encode(decode(fixture)) == fixture);
}

// --- corruption ---------------------------------------------------------------

/// Offset of the length word that `grow` bumps by one element: the count is
/// the first byte that changes (little-endian, low byte first).
std::size_t length_word_offset(const WorldState& state,
                               const std::function<void(WorldState&)>& grow) {
  const std::string before = encode(state);
  WorldState grown = decode(before);
  grow(grown);
  const std::string after = encode(grown);
  std::size_t offset = 0;
  while (before[offset] == after[offset]) ++offset;
  return offset;
}

TEST(CheckpointCorruption, HugeLengthWordsAreRejected) {
  const std::string bytes = all_layers_checkpoint();
  const WorldState state = decode(bytes);
  ASSERT_FALSE(state.datacenter.vms.empty());

  const std::size_t hosts = length_word_offset(
      state, [](WorldState& s) { s.datacenter.hosts.emplace_back(); });
  EXPECT_EQ(hosts, 32u);  // after magic, version, now and two counters
  const std::size_t waiting = length_word_offset(state, [](WorldState& s) {
    s.datacenter.vms.front().waiting.emplace_back();
  });
  const std::size_t series = length_word_offset(
      state, [](WorldState& s) { s.apptier->series.emplace_back(); });
  ASSERT_GT(waiting, hosts);
  ASSERT_GT(series, waiting);

  for (const std::size_t offset : {hosts, waiting, series}) {
    for (const std::uint64_t huge :
         {std::uint64_t{1} << 40, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      std::string patched = bytes;
      std::memcpy(patched.data() + offset, &huge, sizeof(huge));
      EXPECT_THROW(decode(patched), std::runtime_error)
          << "length " << huge << " at byte " << offset;
    }
  }
}

TEST(CheckpointCorruption, TruncationAtEveryOffsetIsRejected) {
  const std::string bytes = all_layers_checkpoint();
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    EXPECT_THROW(decode(bytes.substr(0, size)), std::runtime_error)
        << "truncated to " << size << " of " << bytes.size() << " bytes";
  }
  EXPECT_THROW(decode(bytes + '\0'), std::runtime_error);
}

}  // namespace
}  // namespace cloudprov
