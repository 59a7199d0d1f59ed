// Tests for the public API around one query: EngineConfig::Validate,
// SetWindowSink streaming delivery, StatsSnapshot, Push timestamp
// hardening, and deterministic per-session metrics export.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/io/csv.h"
#include "src/obs/export.h"
#include "src/plan/binder.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace datatriage::engine {
namespace {

using triage::DropPolicyKind;
using triage::SheddingStrategy;
using testing::PaperCatalog;
using testing::Row;

EngineConfig TriageConfig() {
  EngineConfig config;
  config.strategy = SheddingStrategy::kDataTriage;
  config.queue_capacity = 50;
  config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  return config;
}

/// An overload scenario (600 tuples/s aggregate against a ~400 tuples/s
/// engine) so shedding, force-shed accounting, and synopsis work all
/// actually happen.
workload::Scenario OverloadScenario(uint64_t seed = 1) {
  workload::ScenarioConfig config;
  config.tuples_per_stream = 400;
  config.tuples_per_window = 60.0;
  config.rate_per_stream = 200.0;
  config.seed = seed;
  auto scenario = workload::BuildPaperScenario(config);
  DT_CHECK(scenario.ok()) << scenario.status().ToString();
  return *std::move(scenario);
}

// --- EngineConfig::Validate ---------------------------------------------

TEST(EngineConfigValidateTest, AcceptsDefaults) {
  EXPECT_TRUE(TriageConfig().Validate().ok());
}

TEST(EngineConfigValidateTest, RejectsZeroQueueCapacity) {
  EngineConfig config = TriageConfig();
  config.queue_capacity = 0;
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("queue_capacity"), std::string::npos);
  // RegisterQuery must refuse with the same diagnosis, not crash later.
  server::StreamServer server(PaperCatalog());
  auto id = server.RegisterQuery(testing::kPaperQuery, config);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status(), status);
}

TEST(EngineConfigValidateTest, RejectsSynergisticWithoutSynopsizing) {
  EngineConfig config = TriageConfig();
  config.strategy = SheddingStrategy::kDropOnly;
  config.drop_policy = DropPolicyKind::kSynergistic;
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("synergistic"), std::string::npos);
}

TEST(EngineConfigValidateTest, RejectsZeroSynergisticCandidates) {
  EngineConfig config = TriageConfig();
  config.drop_policy = DropPolicyKind::kSynergistic;
  config.synergistic_candidates = 0;
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("synergistic_candidates"),
            std::string::npos);
}

// --- SchedulerOptions / StreamServerOptions::Validate -------------------

TEST(SchedulerOptionsValidateTest, AcceptsDefaultsAndFullConfig) {
  EXPECT_TRUE(engine::SchedulerOptions{}.Validate().ok());
  engine::SchedulerOptions full;
  full.worker_threads = 8;
  full.intra_session_threads = 4;
  EXPECT_TRUE(full.Validate().ok());
}

TEST(SchedulerOptionsValidateTest, RejectsIntraSessionThreadsWithoutPool) {
  engine::SchedulerOptions options;
  options.intra_session_threads = 2;  // worker_threads stays 0
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("intra_session_threads"),
            std::string::npos);
  EXPECT_NE(status.message().find("worker_threads"), std::string::npos);
  // 0 and 1 both mean "off" and are legal without a pool.
  options.intra_session_threads = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SchedulerOptionsValidateTest, RejectsThreadCountCeilings) {
  engine::SchedulerOptions options;
  options.worker_threads = 257;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("worker_threads"), std::string::npos);
  options.worker_threads = 4;
  options.intra_session_threads = 65;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("intra_session_threads"),
            std::string::npos);
}

TEST(StreamServerOptionsValidateTest, SurfacesSchedulerInvariants) {
  // The nested scheduler's own invariants surface through the
  // server-level Validate, so a bad deployment fails before any thread
  // spawns.
  engine::StreamServerOptions options;
  options.scheduler.intra_session_threads = 2;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("intra_session_threads"),
            std::string::npos);
}

// --- Push timestamp hardening -------------------------------------------

TEST(EnginePushTest, RejectsNonFiniteTimestampsWithoutSideEffects) {
  server::StreamServer server(PaperCatalog());
  auto id = server.RegisterQuery(testing::kPaperQuery, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const double bad_timestamps[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (double ts : bad_timestamps) {
    Status status = server.Push({"r", Row({5}, ts)});
    ASSERT_FALSE(status.ok()) << "timestamp " << ts;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("finite"), std::string::npos);
  }

  // The rejected pushes left no trace: the server still accepts the full
  // in-order timeline and accounts only for it.
  for (int w = 0; w < 3; ++w) {
    const double base = static_cast<double>(w);
    ASSERT_TRUE(server.Push({"r", Row({5}, base + 0.1)}).ok());
    ASSERT_TRUE(server.Push({"s", Row({5, 7}, base + 0.2)}).ok());
    ASSERT_TRUE(server.Push({"t", Row({7}, base + 0.3)}).ok());
  }
  ASSERT_TRUE(server.Finish().ok());
  server::QuerySession& session = server.session(*id);
  const EngineStatsSnapshot snapshot = session.StatsSnapshot();
  EXPECT_EQ(snapshot.core.tuples_ingested, 9);
  EXPECT_EQ(snapshot.counters.at("engine.tuples_ingested"), 9);
  EXPECT_EQ(session.TakeResults().size(), 3u);
  EXPECT_EQ(
      server.server_metrics().CounterTotals().at("server.events_pushed"),
      9);
}

// --- SetWindowSink ------------------------------------------------------

std::vector<std::string> ResultColumns() { return {"a", "count"}; }

std::string RunBuffered(const workload::Scenario& scenario,
                        const EngineConfig& config) {
  return io::FormatResultsCsv(
      testing::RunSolo(scenario.catalog, scenario.query_sql, config,
                       scenario.events)
          .results,
      ResultColumns());
}

TEST(WindowSinkTest, DeliversExactlyTheBufferedWindows) {
  const workload::Scenario scenario = OverloadScenario();
  const EngineConfig config = TriageConfig();
  const std::string buffered = RunBuffered(scenario, config);

  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  server::QuerySession& session = server.session(*id);
  std::vector<WindowResult> streamed;
  session.SetWindowSink(
      [&](WindowResult&& result) { streamed.push_back(std::move(result)); });
  for (const StreamEvent& event : scenario.events) {
    ASSERT_TRUE(server.Push(event).ok());
  }
  ASSERT_TRUE(server.Finish().ok());

  // With a sink installed nothing is buffered...
  EXPECT_TRUE(session.TakeResults().empty());
  // ...and the streamed windows are byte-for-byte the buffered run's,
  // in the same order.
  EXPECT_GT(streamed.size(), 0u);
  EXPECT_EQ(io::FormatResultsCsv(streamed, ResultColumns()), buffered);
}

TEST(WindowSinkTest, LateInstallFlushesBufferedWindowsInOrder) {
  const workload::Scenario scenario = OverloadScenario();
  const EngineConfig config = TriageConfig();
  const std::string buffered = RunBuffered(scenario, config);

  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  server::QuerySession& session = server.session(*id);
  // Feed half the timeline buffered, then switch to streaming: the sink
  // must first receive everything already emitted.
  const size_t half = scenario.events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(server.Push(scenario.events[i]).ok());
  }
  std::vector<WindowResult> streamed;
  session.SetWindowSink(
      [&](WindowResult&& result) { streamed.push_back(std::move(result)); });
  for (size_t i = half; i < scenario.events.size(); ++i) {
    ASSERT_TRUE(server.Push(scenario.events[i]).ok());
  }
  ASSERT_TRUE(server.Finish().ok());

  EXPECT_TRUE(session.TakeResults().empty());
  EXPECT_EQ(io::FormatResultsCsv(streamed, ResultColumns()), buffered);
  for (size_t i = 1; i < streamed.size(); ++i) {
    EXPECT_LT(streamed[i - 1].window, streamed[i].window);
  }
}

// --- StatsSnapshot + metrics --------------------------------------------

TEST(StatsSnapshotTest, EmbedsRegistryConsistentWithCoreStats) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(server.PushBatch(scenario.events).ok());
  ASSERT_TRUE(server.Finish().ok());
  const server::QuerySession& session = server.session(*id);

  const EngineStatsSnapshot snapshot = session.StatsSnapshot();
  EXPECT_GT(snapshot.core.tuples_dropped, 0);
  EXPECT_EQ(snapshot.counters.at("engine.tuples_ingested"),
            snapshot.core.tuples_ingested);
  EXPECT_EQ(snapshot.counters.at("engine.tuples_kept"),
            snapshot.core.tuples_kept);
  EXPECT_EQ(snapshot.counters.at("engine.tuples_dropped"),
            snapshot.core.tuples_dropped);
  EXPECT_EQ(snapshot.counters.at("engine.windows_emitted"),
            snapshot.core.windows_emitted);

  // Every drop has exactly one recorded cause: policy eviction at the
  // queue, force shed at a deadline, or the summarize-only bypass.
  int64_t by_cause = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("stream.", 0) == 0 &&
        name.find(".dropped.") != std::string::npos) {
      by_cause += value;
    }
  }
  EXPECT_EQ(by_cause, snapshot.core.tuples_dropped);

  // Overload must have backed up the queues: some stream hit a nonzero
  // depth high-watermark (bounded by the configured capacity).
  double max_depth = 0.0;
  for (const auto& [name, value] : snapshot.gauge_maxima) {
    if (name.find(".queue_depth") != std::string::npos) {
      max_depth = std::max(max_depth, value);
    }
  }
  EXPECT_GT(max_depth, 0.0);
  EXPECT_LE(max_depth, 50.0);

  // The per-window trace covers every emitted window, in order.
  const auto& records = session.trace().records();
  ASSERT_EQ(records.size(),
            static_cast<size_t>(snapshot.core.windows_emitted));
  int64_t traced_kept = 0;
  for (const auto& record : records) traced_kept += record.kept_tuples;
  EXPECT_EQ(traced_kept, snapshot.core.tuples_kept);
}

TEST(StatsSnapshotTest, MetricsJsonIsDeterministicAcrossRuns) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    const workload::Scenario scenario = OverloadScenario(3);
    server::StreamServer server(scenario.catalog);
    auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(server.PushBatch(scenario.events).ok());
    ASSERT_TRUE(server.Finish().ok());
    const server::QuerySession& session = server.session(*id);
    *out = obs::MetricsJson(session.metrics(), &session.trace());
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"windows\": ["), std::string::npos);
}

// --- Session lifecycle error paths (DESIGN.md §14) ----------------------
//
// Every lifecycle misuse returns a specific, actionable Status in the
// EngineConfig::Validate() style: the message names what was wrong and
// what to do instead, never just "error".

TEST(SessionLifecycleErrorTest, UnregisterUnknownSessionIsNotFound) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  Status status = server.UnregisterQuery(41);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("no session with id 41"),
            std::string::npos);
  EXPECT_NE(status.message().find("[0, 1)"), std::string::npos);
}

TEST(SessionLifecycleErrorTest, DoubleUnregisterIsFailedPrecondition) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);
  auto keeper = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(keeper.ok()) << keeper.status().ToString();
  auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(server.Push(scenario.events.front()).ok());

  ASSERT_TRUE(server.UnregisterQuery(*id).ok());
  EXPECT_EQ(server.session(*id).lifecycle(),
            server::SessionLifecycle::kDetached);
  EXPECT_EQ(server.live_session_count(), 1u);

  Status again = server.UnregisterQuery(*id);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(again.message().find("already kDetached"), std::string::npos);
  // The detached session's results stay readable, as the message says.
  EXPECT_NE(again.message().find("results and metrics stay readable"),
            std::string::npos);
  (void)server.session(*id).StatsSnapshot();
}

TEST(SessionLifecycleErrorTest, PushWithNoSessionsIsFailedPrecondition) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);

  Status status = server.Push(scenario.events.front());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("zero live sessions"),
            std::string::npos);
  EXPECT_NE(status.message().find("RegisterQuery"), std::string::npos);
  // The rejected push did not seal the registration phase.
  EXPECT_EQ(server.state(), server::ServerState::kRegistering);
}

TEST(SessionLifecycleErrorTest,
     PushAfterLastSessionUnregistersIsFailedPrecondition) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(server.Push(scenario.events[0]).ok());
  ASSERT_TRUE(server.UnregisterQuery(*id).ok());

  Status status = server.Push(scenario.events[1]);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("zero live sessions"),
            std::string::npos);
  // The message distinguishes "no sessions ever" from "all detached" by
  // reporting the hosted count.
  EXPECT_NE(status.message().find("hosts 1 session(s)"),
            std::string::npos);
}

TEST(SessionLifecycleErrorTest, SnapshotErrorsNameTheirCause) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Unknown id: bounds-checked like every session lookup.
  auto missing = server.SnapshotSession(7);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A session registered from an already-bound query carries no SQL text
  // for restore to re-bind, and says so.
  auto statement = sql::ParseStatement(scenario.query_sql);
  ASSERT_TRUE(statement.ok());
  auto bound = plan::BindStatement(*statement, scenario.catalog);
  ASSERT_TRUE(bound.ok());
  auto bound_id = server.RegisterQuery(*std::move(bound), TriageConfig());
  ASSERT_TRUE(bound_id.ok()) << bound_id.status().ToString();
  auto unsnapshottable = server.SnapshotSession(*bound_id);
  ASSERT_FALSE(unsnapshottable.ok());
  EXPECT_EQ(unsnapshottable.status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(unsnapshottable.status().message().find("already-bound"),
            std::string::npos);
  EXPECT_NE(unsnapshottable.status().message().find("SQL overload"),
            std::string::npos);

  // A detached session has been drained; its pre-drain state is gone.
  ASSERT_TRUE(server.Push(scenario.events.front()).ok());
  ASSERT_TRUE(server.UnregisterQuery(*id).ok());
  auto detached = server.SnapshotSession(*id);
  ASSERT_FALSE(detached.ok());
  EXPECT_EQ(detached.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(detached.status().message().find("kDetached"),
            std::string::npos);
}

TEST(SessionLifecycleErrorTest, LifecycleOpsOnFinishedServerAreRejected) {
  const workload::Scenario scenario = OverloadScenario();
  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, TriageConfig());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(server.Push(scenario.events.front()).ok());
  auto snapshot = server.SnapshotSession(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(server.Finish().ok());

  Status unregistered = server.UnregisterQuery(*id);
  ASSERT_FALSE(unregistered.ok());
  EXPECT_EQ(unregistered.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unregistered.message().find("kFinished"), std::string::npos);

  auto restored = server.RestoreSession(*snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().message().find("kFinished"),
            std::string::npos);
}

}  // namespace
}  // namespace datatriage::engine
