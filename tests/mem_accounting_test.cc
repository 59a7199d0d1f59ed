// Tests for the memory-budgeted state plane (DESIGN.md §15): the
// deterministic byte model, the MemoryBytes() contract of every synopsis
// family, charge/release symmetry through the server-wide accountant
// (net zero once every session drains), memory-triggered triage under a
// tight budget, and the snapshot parser's defenses against frames whose
// declared lengths exceed the remaining input.

#include "src/common/mem_accounting.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/io/csv.h"
#include "src/server/snapshot.h"
#include "src/server/stream_server.h"
#include "src/synopsis/factory.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace datatriage::mem {
namespace {

using engine::EngineConfig;
using engine::StreamEvent;
using server::SessionId;
using server::SessionSnapshot;
using server::StreamServer;
using synopsis::SynopsisConfig;
using synopsis::SynopsisPtr;
using synopsis::SynopsisType;
using testing::Row;

// --- Byte model ---------------------------------------------------------

TEST(ByteModelTest, TupleBytesFollowsTheFrozenModel) {
  // Numeric-only tuple: overhead + one slot per value.
  const Tuple numeric = Row({1, 2, 3});
  EXPECT_EQ(TupleBytes(numeric),
            kTupleOverheadBytes + 3 * kValueSlotBytes);

  // String values add the out-of-line overhead plus their payload.
  Tuple with_string({Value::Int64(7), Value::String("abcdef")}, 0.0);
  EXPECT_EQ(TupleBytes(with_string),
            kTupleOverheadBytes + 2 * kValueSlotBytes +
                kStringOverheadBytes + 6);
}

TEST(ByteModelTest, RelationBytesIsTheSumOfItsTuples) {
  std::vector<Tuple> relation = {Row({1}), Row({2, 3}), Row({4, 5, 6})};
  size_t expected = 0;
  for (const Tuple& t : relation) expected += TupleBytes(t);
  EXPECT_EQ(RelationBytes(relation), expected);
  EXPECT_EQ(RelationBytes(std::vector<Tuple>{}), 0u);
}

// --- MemoryBytes() across every synopsis family -------------------------

SynopsisConfig ConfigFor(SynopsisType type) {
  SynopsisConfig config;
  config.type = type;
  config.grid.cell_width = 4.0;
  config.mhist.max_buckets = 16;
  config.reservoir.capacity = 32;
  return config;
}

class SynopsisMemoryBytesTest
    : public ::testing::TestWithParam<SynopsisType> {};

TEST_P(SynopsisMemoryBytesTest, GrowsUnderInsertAndSurvivesRoundTrips) {
  const SynopsisConfig config = ConfigFor(GetParam());
  const Schema schema({{"a", FieldType::kInt64}, {"b", FieldType::kInt64}});

  auto made = synopsis::MakeSynopsis(config, schema);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  SynopsisPtr s = std::move(made).value();

  const size_t empty_bytes = s->MemoryBytes();
  EXPECT_GE(empty_bytes, kSynopsisBaseBytes);

  // Spread inserts so histogram families allocate distinct buckets.
  for (int64_t i = 0; i < 24; ++i) {
    s->Insert(Row({i * 5, i * 11}));
  }
  const size_t filled_bytes = s->MemoryBytes();
  EXPECT_GT(filled_bytes, empty_bytes)
      << "inserts must be visible to the byte model";

  // Const reads — including the lazy-build paths MHist hides behind
  // them — may not move the accounted size, or owners could never
  // bracket mutations with before/after deltas.
  s->TotalCount();
  s->EstimatePointCount(Row({5, 11}));
  s->DebugString();
  EXPECT_EQ(s->MemoryBytes(), filled_bytes);

  // Clones carry the same summarized state, so the same model bytes.
  EXPECT_EQ(s->Clone()->MemoryBytes(), filled_bytes);

  // SaveState/LoadState round-trips the byte model exactly — LoadState
  // is a charge site, so a drifting value would corrupt the account.
  serde::Writer writer;
  s->SaveState(&writer);
  auto fresh = synopsis::MakeSynopsis(config, schema);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  serde::Reader reader(writer.bytes());
  ASSERT_TRUE((*fresh)->LoadState(&reader).ok());
  EXPECT_EQ((*fresh)->MemoryBytes(), filled_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SynopsisMemoryBytesTest,
    ::testing::Values(SynopsisType::kGridHistogram, SynopsisType::kMHist,
                      SynopsisType::kAlignedMHist,
                      SynopsisType::kReservoirSample,
                      SynopsisType::kAviHistogram, SynopsisType::kExact),
    [](const ::testing::TestParamInfo<SynopsisType>& info) {
      return std::string(SynopsisTypeToString(info.param));
    });

// --- Charge/release symmetry through the server accountant --------------

workload::Scenario OverloadScenario(uint64_t seed) {
  workload::ScenarioConfig config;
  config.tuples_per_stream = 400;
  config.tuples_per_window = 60.0;
  config.rate_per_stream = 200.0;
  config.seed = seed;
  auto scenario = workload::BuildPaperScenario(config);
  DT_CHECK(scenario.ok()) << scenario.status().ToString();
  return *std::move(scenario);
}

class ChargeReleaseSymmetryTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChargeReleaseSymmetryTest, ServerAccountDrainsToZero) {
  const workload::Scenario scenario = OverloadScenario(GetParam());

  EngineConfig tight;
  tight.strategy = triage::SheddingStrategy::kDataTriage;
  tight.queue_capacity = 50;
  tight.synopsis.type = SynopsisType::kGridHistogram;
  tight.synopsis.grid.cell_width = 4.0;
  tight.memory_budget_bytes = 64 * 1024;
  tight.seed = GetParam();

  EngineConfig roomy = tight;
  roomy.memory_budget_bytes = 8 * 1024 * 1024;
  roomy.synopsis.type = SynopsisType::kReservoirSample;

  StreamServer server(scenario.catalog);
  std::vector<SessionId> ids;
  for (const EngineConfig& config : {tight, roomy}) {
    auto id = server.RegisterQuery(scenario.query_sql, config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  const std::span<const StreamEvent> events(scenario.events);
  ASSERT_TRUE(server.PushBatch(events.subspan(0, events.size() / 2)).ok());
  // Mid-run the sessions hold live state and every session charge is
  // mirrored server-wide.
  EXPECT_GT(server.memory_accountant().TotalBytes(), 0u);

  ASSERT_TRUE(server.PushBatch(events.subspan(events.size() / 2)).ok());
  for (const SessionId id : ids) {
    ASSERT_TRUE(server.UnregisterQuery(id).ok());
    // A drained session released everything it ever charged.
    EXPECT_EQ(server.session(id).memory_account().TotalBytes(), 0u);
  }

  // Net zero across every (charge, release) pair of the whole run —
  // the double-entry property the sim oracle checks per session.
  EXPECT_EQ(server.memory_accountant().TotalBytes(), 0u);
  EXPECT_GT(server.memory_accountant().PeakBytes(), 0u);
  ASSERT_TRUE(server.Finish().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChargeReleaseSymmetryTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// --- Memory-triggered triage -------------------------------------------

TEST(MemoryShedTest, TightBudgetFoldsWindowsAndStaysDeterministic) {
  // Long windows so a whole in-flight window holds well over the 64 KiB
  // minimum budget in kept-tuple state (~400 tuples/stream * 3 streams
  // at ~100 model bytes each).
  workload::ScenarioConfig scenario_config;
  scenario_config.tuples_per_stream = 1200;
  scenario_config.tuples_per_window = 400.0;
  scenario_config.seed = 1;
  auto built = workload::BuildPaperScenario(scenario_config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const workload::Scenario scenario = *std::move(built);

  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 50;
  config.synopsis.type = SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  config.memory_budget_bytes = 64 * 1024;
  // A free consumer: nothing sheds for load, so every drop in this run
  // is attributable to the memory budget alone.
  config.cost_model.exact_tuple_cost = 0.0;
  config.cost_model.synopsis_insert_cost = 0.0;
  config.cost_model.exact_work_unit_cost = 0.0;
  config.cost_model.synopsis_work_unit_cost = 0.0;

  std::string baseline_csv;
  std::map<std::string, int64_t> baseline_counters;
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    engine::StreamServerOptions options;
    options.scheduler.worker_threads = workers;
    StreamServer server(scenario.catalog, options);
    auto id = server.RegisterQuery(scenario.query_sql, config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(
        server.PushBatch(std::span<const StreamEvent>(scenario.events))
            .ok());
    ASSERT_TRUE(server.Finish().ok());

    auto& session = server.session(*id);
    const engine::EngineStatsSnapshot snapshot = session.StatsSnapshot();

    // The budget bit: evictions happened, are attributed to the
    // memory_shed cause, and the enforcement self-checks stayed silent.
    int64_t shed = 0;
    for (const auto& [name, value] : snapshot.counters) {
      if (name.find(".dropped.memory_shed") != std::string::npos) {
        shed += value;
      }
    }
    EXPECT_GT(shed, 0) << "a 64 KiB budget must actually trigger folds";
    EXPECT_EQ(snapshot.counters.at("mem.boundary_over_budget"), 0);
    EXPECT_EQ(snapshot.counters.at("mem.invariant_violations"), 0);

    const std::string csv =
        io::FormatResultsCsv(session.TakeResults(), {"a", "count"});
    if (workers == 0) {
      baseline_csv = csv;
      baseline_counters = snapshot.counters;
    } else {
      // Eviction is keyed by arrival clocks, never wall-clock, so the
      // worker count cannot change what gets folded.
      EXPECT_EQ(csv, baseline_csv);
      EXPECT_EQ(snapshot.counters, baseline_counters);
    }
  }
}

// --- Malformed snapshots ------------------------------------------------

TEST(SerdeGuardTest, ReadCountRejectsUnbackedLengths) {
  serde::Writer writer;
  writer.WriteU64(1000);  // declares 1000 elements...
  writer.WriteU64(0);     // ...backed by 8 bytes of input
  serde::Reader reader(writer.bytes());
  auto count = reader.ReadCount(/*min_bytes_per_element=*/16);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count.status().message().find("declared"), std::string::npos);

  // The same declaration with enough input behind it is accepted.
  serde::Writer ok_writer;
  ok_writer.WriteU64(2);
  ok_writer.WriteU64(0);
  ok_writer.WriteU64(0);
  serde::Reader ok_reader(ok_writer.bytes());
  auto ok_count = ok_reader.ReadCount(/*min_bytes_per_element=*/8);
  ASSERT_TRUE(ok_count.ok()) << ok_count.status().ToString();
  EXPECT_EQ(*ok_count, 2u);
}

TEST(SerdeGuardTest, ResealedMalformedPayloadsFailCleanlyOnRestore) {
  // Build a real snapshot mid-run, then attack the payload *under* a
  // valid seal: the frame (magic, version, length, MD5) passes, so the
  // rejection must come from the bounds-checked LoadState parse.
  const workload::Scenario scenario = OverloadScenario(1);
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 50;

  StreamServer donor(scenario.catalog);
  auto id = donor.RegisterQuery(scenario.query_sql, config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const std::span<const StreamEvent> events(scenario.events);
  ASSERT_TRUE(donor.PushBatch(events.subspan(0, events.size() / 2)).ok());
  auto snapshot = donor.SnapshotSession(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  auto payload = server::OpenSnapshot(snapshot->bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();

  StreamServer target(scenario.catalog);

  // (a) Inflate the first length prefix (the SQL string) far past the
  // input that backs it.
  {
    std::string doctored = *payload;
    for (size_t i = 0; i < 8; ++i) doctored[i] = static_cast<char>(0xff);
    SessionSnapshot resealed{server::SealSnapshot(std::move(doctored))};
    auto bad = target.RestoreSession(resealed);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    // Rejected by the parser's bounds checks, not the MD5 seal.
    EXPECT_EQ(bad.status().message().find("MD5"), std::string::npos);
  }

  // (b) Truncate the payload interior and reseal: every declared count
  // or length past the cut now exceeds the remaining input.
  {
    std::string doctored = payload->substr(0, payload->size() * 3 / 4);
    SessionSnapshot resealed{server::SealSnapshot(std::move(doctored))};
    auto bad = target.RestoreSession(resealed);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bad.status().message().find("MD5"), std::string::npos);
  }

  // The pristine snapshot still restores after both rejections.
  EXPECT_TRUE(target.RestoreSession(*snapshot).ok());
}

}  // namespace
}  // namespace datatriage::mem
