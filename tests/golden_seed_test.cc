// Golden seed sweep: runs the paper's Fig. 8 scenario for seeds 1-5
// under a fixed Data Triage configuration and pins the MD5 of each
// results CSV, pins every synopsis family's exact estimates under
// overload, and pins a MATCH scenario. Any change to the generator, the shedding pipeline, the
// shadow plan, or CSV formatting that perturbs output bytes shows up
// here as a digest mismatch — an intentional tripwire. When a change is
// *meant* to alter results, re-pin by running the test and copying the
// actual digests from the failure output.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/digest.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/engine/engine.h"
#include "src/io/csv.h"
#include "src/synopsis/factory.h"
#include "src/triage/shedding_strategy.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

struct GoldenSeed {
  uint64_t seed;
  const char* results_md5;
};

/// Runs the paper's Fig. 8 scenario under Data Triage with the given
/// synopsis family.
Result<std::vector<engine::WindowResult>> RunFig8Windows(
    uint64_t seed, const synopsis::SynopsisConfig& synopsis,
    double rate_per_stream = 100.0) {
  workload::ScenarioConfig config;
  config.tuples_per_stream = 400;
  config.rate_per_stream = rate_per_stream;
  config.tuples_per_window = 50.0;
  config.seed = seed;
  auto scenario = workload::BuildPaperScenario(config);
  if (!scenario.ok()) return scenario.status();

  engine::EngineConfig engine_config;
  engine_config.strategy = triage::SheddingStrategy::kDataTriage;
  engine_config.queue_capacity = 60;
  engine_config.synopsis = synopsis;
  auto engine = engine::ContinuousQueryEngine::Make(
      scenario->catalog, scenario->query_sql, engine_config);
  if (!engine.ok()) return engine.status();

  for (const engine::StreamEvent& event : scenario->events) {
    Status status = (*engine)->Push(event);
    if (!status.ok()) return status;
  }
  Status status = (*engine)->Finish();
  if (!status.ok()) return status;
  return (*engine)->TakeResults();
}

Result<std::string> RunFig8Scenario(uint64_t seed) {
  synopsis::SynopsisConfig grid;
  grid.type = synopsis::SynopsisType::kGridHistogram;
  grid.grid.cell_width = 4.0;
  DT_ASSIGN_OR_RETURN(std::vector<engine::WindowResult> results,
                      RunFig8Windows(seed, grid));
  return io::FormatResultsCsv(results, {"b", "value"});
}

TEST(GoldenSeedTest, Fig8ScenarioDigestsArePinned) {
  const GoldenSeed kGolden[] = {
      {1, "6a35f5547ce905c74a633038a6accabf"},
      {2, "bbe759d795237fa4320bdc2fa7cf441c"},
      {3, "232381f590e5b60bc1e9bb45a618bd48"},
      {4, "8f3d51e832c72e1ac687fda97a282858"},
      {5, "3df48c041325e1c8562b3836265c17d7"},
  };
  for (const GoldenSeed& golden : kGolden) {
    auto csv = RunFig8Scenario(golden.seed);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    EXPECT_EQ(Md5Hex(*csv), golden.results_md5)
        << "seed " << golden.seed
        << ": results CSV drifted from the pinned golden output";
  }
}

/// The results CSV prints doubles as %.12g, which cannot see a one-ulp
/// change in an estimate. This appends every window's shadow estimate and
/// merged rows as exact hex doubles (%a).
std::string ExactResultsText(
    const std::vector<engine::WindowResult>& results) {
  std::string out = io::FormatResultsCsv(results, {"b", "value"});
  auto put = [&out](double v) { out += StringPrintf("%a,", v); };
  for (const engine::WindowResult& result : results) {
    out += StringPrintf("window %lld\n",
                        static_cast<long long>(result.window));
    for (const auto& [key, accumulators] : result.shadow_estimate) {
      for (const Value& v : key) put(v.AsDouble());
      for (const synopsis::AggAccumulator& acc : accumulators) {
        put(acc.count);
        put(acc.sum);
        put(acc.min);
        put(acc.max);
      }
      out += '\n';
    }
    for (const Tuple& row : result.merged_rows) {
      for (const Value& v : row.values()) put(v.AsDouble());
      out += '\n';
    }
  }
  return out;
}

struct FamilyDigest {
  const char* name;
  synopsis::SynopsisConfig config;
  const char* digest_md5;
};

/// The Fig. 8 pins above run the grid histogram only, at a rate (300
/// tuples/s in all) below the engine's capacity, so nothing is shed. These
/// run 1,200 tuples/s, where about two thirds of the tuples are shed, under
/// every synopsis family with parameters small enough to be lossy (the
/// grid at a width whose sums round), so a change to a synopsis operator
/// that moves any estimate by one ulp fails here.
TEST(GoldenSeedTest, SynopsisFamilyDigestsArePinned) {
  using synopsis::SynopsisType;
  auto family = [](SynopsisType type) {
    synopsis::SynopsisConfig config;
    config.type = type;
    config.mhist.max_buckets = 8;
    config.mhist.alignment_step = 3.0;
    config.reservoir.capacity = 16;
    config.avi.cell_width = 3.0;
    config.grid.cell_width = 3.0;
    return config;
  };
  const FamilyDigest kGolden[] = {
      {"mhist", family(SynopsisType::kMHist),
       "7028b63493f739bb00454156d30fa751"},
      {"aligned_mhist", family(SynopsisType::kAlignedMHist),
       "c0a05c89fb55a14d6866865049786510"},
      {"avi_histogram", family(SynopsisType::kAviHistogram),
       "e7b8e736c66151b3a27b68ef40802a17"},
      {"reservoir_sample", family(SynopsisType::kReservoirSample),
       "88e7b4fbb93f800f5e0b5b91d07c6310"},
      {"exact", family(SynopsisType::kExact),
       "f002c0a8ad0428affa38dfe7894b9010"},
      {"grid_histogram", family(SynopsisType::kGridHistogram),
       "b7f52fc60494078d2f6fc45f6fc78e08"},
  };
  for (const FamilyDigest& golden : kGolden) {
    auto results =
        RunFig8Windows(/*seed=*/1, golden.config, /*rate_per_stream=*/400.0);
    ASSERT_TRUE(results.ok()) << golden.name << ": "
                              << results.status().ToString();
    EXPECT_EQ(Md5Hex(ExactResultsText(*results)), golden.digest_md5)
        << golden.name
        << ": estimates drifted from the pinned golden output";
  }
}

/// Canonical MATCH scenario (DESIGN.md §17): a seeded 2-step pattern
/// query under the utility drop policy with real eviction pressure
/// (1000 events/s vs the default 400 tuples/s exact capacity, queue of
/// 8), so the pins cover the NFA executor, the utility scoring, and the
/// utility_shed accounting end to end.
Result<std::string> RunMatchScenario(uint64_t seed) {
  Catalog catalog;
  DT_RETURN_IF_ERROR(catalog.RegisterStream(
      {"e", Schema({{"key", FieldType::kInt64},
                    {"v", FieldType::kInt64},
                    {"w", FieldType::kInt64}})}));

  engine::EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDropOnly;
  config.drop_policy = triage::DropPolicyKind::kUtility;
  config.queue_capacity = 8;
  auto engine = engine::ContinuousQueryEngine::Make(
      catalog,
      "SELECT * FROM e MATCH (v = 1 THEN v = 2) PARTITION BY key WITHIN "
      "'0.5 seconds' WINDOW e['1 seconds']",
      config);
  if (!engine.ok()) return engine.status();

  Rng rng(seed);
  for (size_t i = 0; i < 800; ++i) {
    const Tuple row = testing::Row({rng.UniformInt(0, 3),
                                    rng.UniformInt(0, 4),
                                    rng.UniformInt(0, 4)},
                                   0.001 * static_cast<double>(i));
    DT_RETURN_IF_ERROR((*engine)->Push({"e", row}));
  }
  DT_RETURN_IF_ERROR((*engine)->Finish());
  return io::FormatResultsCsv((*engine)->TakeResults(),
                              {"key", "t1", "t2"});
}

TEST(GoldenSeedTest, MatchScenarioDigestsArePinned) {
  const GoldenSeed kGolden[] = {
      {1, "6bc451e8c01c6373c4e69e4888c7a483"},
      {2, "e2e4af39224a8ec83d8e7893feadbd74"},
      {3, "1cda120fedeffafb6f8bf36a035edb58"},
  };
  for (const GoldenSeed& golden : kGolden) {
    auto csv = RunMatchScenario(golden.seed);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    EXPECT_EQ(Md5Hex(*csv), golden.results_md5)
        << "seed " << golden.seed
        << ": MATCH results CSV drifted from the pinned golden output";
  }
}

// Sanity-check the digest primitive itself against the RFC 1321 test
// vectors, so a digest bug cannot masquerade as a results change.
TEST(GoldenSeedTest, Md5MatchesRfc1321Vectors) {
  EXPECT_EQ(Md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5Hex("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(
      Md5Hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
             "0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  // 64-byte boundary case exercises the two-block finalization path.
  EXPECT_EQ(Md5Hex(std::string(64, 'a')),
            "014842d480b571495a4a0363793f7367");
}

}  // namespace
}  // namespace datatriage
