// Tests for the multi-query StreamServer: N sessions co-hosted on one
// shared ingest plane must produce per-query results, stats, metrics,
// and traces byte-identical to N solo servers, one query each, over the
// same event subsequences (the determinism contract of DESIGN.md
// Sec. 10), plus the server-boundary behaviors: interned-id pushes,
// unrouted arrivals, and registration ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/io/csv.h"
#include "src/obs/export.h"
#include "src/server/stream_server.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace datatriage::server {
namespace {

using engine::EngineConfig;
using engine::EngineStatsSnapshot;
using engine::StreamEvent;
using engine::WindowResult;
using testing::Row;
using triage::DropPolicyKind;
using triage::SheddingStrategy;

/// One query to co-host: its SQL, config, and result columns.
struct QuerySpec {
  std::string sql;
  EngineConfig config;
  std::vector<std::string> columns;
};

/// An overload scenario (600 tuples/s aggregate against a ~400 tuples/s
/// engine) so every session actually sheds, force-sheds, and builds
/// synopses — equivalence over a no-drop run would prove little.
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

/// Three deliberately heterogeneous queries over the scenario's streams:
/// different FROM sets, windows, strategies, drop policies, and seeds,
/// so co-hosting cannot accidentally pass by symmetry.
std::vector<QuerySpec> HostedQueries(const workload::Scenario& scenario) {
  std::vector<QuerySpec> specs;

  QuerySpec paper;  // the scenario's own Fig. 7 three-way join
  paper.sql = scenario.query_sql;
  paper.config.strategy = SheddingStrategy::kDataTriage;
  paper.config.queue_capacity = 50;
  paper.config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  paper.config.synopsis.grid.cell_width = 4.0;
  paper.columns = {"a", "count"};
  specs.push_back(std::move(paper));

  QuerySpec drop_only;  // single-stream, exact-over-kept, tail drop
  drop_only.sql = StringPrintf(
      "SELECT b, COUNT(*) as count FROM S GROUP BY b; "
      "WINDOW S['%.9f seconds'];",
      scenario.window_seconds * 0.5);
  drop_only.config.strategy = SheddingStrategy::kDropOnly;
  drop_only.config.queue_capacity = 24;
  drop_only.config.drop_policy = DropPolicyKind::kDropNewest;
  // A slow consumer: at 5ms/tuple the 200 tuples/s feed on s is a 1x
  // overload on its own, so this session sheds even though its query is
  // cheap.
  drop_only.config.cost_model.exact_tuple_cost = 1.0 / 100.0;
  drop_only.config.seed = 7;
  drop_only.columns = {"b", "count"};
  specs.push_back(std::move(drop_only));

  QuerySpec synergistic;  // two-stream join with the Sec. 8.1 policy
  synergistic.sql = StringPrintf(
      "SELECT a, COUNT(*) as count FROM R,T WHERE R.a = T.d GROUP BY a; "
      "WINDOW R['%.9f seconds'], T['%.9f seconds'];",
      scenario.window_seconds, scenario.window_seconds);
  synergistic.config.strategy = SheddingStrategy::kDataTriage;
  synergistic.config.queue_capacity = 32;
  synergistic.config.drop_policy = DropPolicyKind::kSynergistic;
  synergistic.config.synergistic_candidates = 4;
  synergistic.config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  synergistic.config.synopsis.grid.cell_width = 8.0;
  synergistic.config.cost_model.exact_tuple_cost = 1.0 / 150.0;
  synergistic.config.seed = 11;
  synergistic.columns = {"a", "count"};
  specs.push_back(std::move(synergistic));

  return specs;
}

/// Output of one query run, normalized for byte comparison.
struct RunOutput {
  std::string results_csv;
  EngineStatsSnapshot snapshot;
  std::string metrics_json;
};

/// Moves out `session`'s results and normalizes its whole output.
RunOutput Collect(QuerySession& session,
                  const std::vector<std::string>& columns) {
  RunOutput out;
  out.results_csv = io::FormatResultsCsv(session.TakeResults(), columns);
  out.snapshot = session.StatsSnapshot();
  out.metrics_json = obs::MetricsJson(session.metrics(), &session.trace());
  return out;
}

/// Runs `spec` as the only query of a solo server over `events`. Events
/// on streams the query does not read are accepted and counted as
/// unrouted, so the session sees exactly the subsequence a co-hosted
/// session sees. `admit_from` time-filters the feed the way a
/// mid-stream-registered session's admission horizon does.
RunOutput RunStandaloneEvents(
    const Catalog& catalog, const QuerySpec& spec,
    std::span<const StreamEvent> events,
    VirtualTime admit_from = -std::numeric_limits<VirtualTime>::infinity()) {
  StreamServer server(catalog);
  auto id = server.RegisterQuery(spec.sql, spec.config);
  DT_CHECK(id.ok()) << id.status().ToString();
  for (const StreamEvent& event : events) {
    if (event.tuple.timestamp() < admit_from) continue;
    Status status = server.Push(event);
    DT_CHECK(status.ok()) << status.ToString();
  }
  DT_CHECK(server.Finish().ok());
  return Collect(server.session(*id), spec.columns);
}

RunOutput RunStandalone(const workload::Scenario& scenario,
                        const QuerySpec& spec) {
  return RunStandaloneEvents(scenario.catalog, spec, scenario.events);
}

void ExpectSnapshotsEqual(const EngineStatsSnapshot& a,
                          const EngineStatsSnapshot& b) {
  EXPECT_EQ(a.core.tuples_ingested, b.core.tuples_ingested);
  EXPECT_EQ(a.core.tuples_kept, b.core.tuples_kept);
  EXPECT_EQ(a.core.tuples_dropped, b.core.tuples_dropped);
  EXPECT_EQ(a.core.windows_emitted, b.core.windows_emitted);
  EXPECT_EQ(a.core.exact_work_seconds, b.core.exact_work_seconds);
  EXPECT_EQ(a.core.synopsis_work_seconds, b.core.synopsis_work_seconds);
  EXPECT_EQ(a.core.final_engine_time, b.core.final_engine_time);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_EQ(a.gauge_maxima, b.gauge_maxima);
}

// --- The equivalence contract -------------------------------------------

TEST(StreamServerTest, SessionsMatchStandaloneEnginesByteForByte) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  std::vector<SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = server.RegisterQuery(spec.sql, spec.config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (const StreamEvent& event : scenario.events) {
    ASSERT_TRUE(server.Push(event).ok());
  }
  ASSERT_TRUE(server.Finish().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const RunOutput standalone = RunStandalone(scenario, specs[i]);
    QuerySession& session = server.session(ids[i]);

    // Results: identical windows, identical rows, identical formatting.
    const std::string hosted_csv =
        io::FormatResultsCsv(session.TakeResults(), specs[i].columns);
    EXPECT_GT(hosted_csv.size(), 0u);
    EXPECT_EQ(hosted_csv, standalone.results_csv);

    // Stats: every core field, counter, gauge, and high-watermark.
    const EngineStatsSnapshot hosted = session.StatsSnapshot();
    EXPECT_GT(hosted.core.tuples_dropped, 0);
    ExpectSnapshotsEqual(hosted, standalone.snapshot);

    // Drop causes partition the dropped count in both runs: policy
    // eviction, force shed, and summarize bypass are exhaustive and
    // disjoint, co-hosted or not.
    int64_t by_cause = 0;
    for (const auto& [name, value] : hosted.counters) {
      if (name.rfind("stream.", 0) == 0 &&
          name.find(".dropped.") != std::string::npos) {
        by_cause += value;
      }
    }
    EXPECT_EQ(by_cause, hosted.core.tuples_dropped);

    // Metrics + trace export, byte-for-byte.
    EXPECT_EQ(obs::MetricsJson(session.metrics(), &session.trace()),
              standalone.metrics_json);
  }
}

/// A server on `workers` scheduler threads (0 = serial) hosting `specs`
/// as sessions 0..n-1, with `faults` installed first when non-null.
std::unique_ptr<StreamServer> HostingServer(
    const workload::Scenario& scenario, const std::vector<QuerySpec>& specs,
    size_t workers, const SimFaults* faults = nullptr) {
  engine::StreamServerOptions options;
  options.scheduler.worker_threads = workers;
  auto server = std::make_unique<StreamServer>(scenario.catalog, options);
  if (faults != nullptr) DT_CHECK(server->SetSimFaults(faults).ok());
  for (const QuerySpec& spec : specs) {
    auto id = server->RegisterQuery(spec.sql, spec.config);
    DT_CHECK(id.ok()) << id.status().ToString();
  }
  return server;
}

/// Each session's results CSV, then its metrics JSON, in session order.
std::vector<std::string> SessionOutputs(StreamServer& server,
                                        const std::vector<QuerySpec>& specs) {
  std::vector<std::string> out;
  for (size_t i = 0; i < specs.size(); ++i) {
    QuerySession& session = server.session(static_cast<SessionId>(i));
    out.push_back(
        io::FormatResultsCsv(session.TakeResults(), specs[i].columns));
    out.push_back(obs::MetricsJson(session.metrics(), &session.trace()));
  }
  return out;
}

/// A one-delivery in-flight bound: with workers on, every push waits out
/// the session's previous task, and any push of more than one event to
/// a session makes a task larger than the bound. Installed at every
/// worker count so the sessions' metrics (which gain fault-cause
/// counters) compare across them.
SimFaults OneSlotFaults() {
  SimFaults faults;
  faults.task_queue_capacity_override = 1;
  return faults;
}

TEST(StreamServerTest, InternedIdPushMatchesNamePush) {
  const workload::Scenario scenario = OverloadScenario(2);
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const SimFaults faults = OneSlotFaults();

  std::vector<std::string> serial;
  for (size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    std::vector<std::string> by_name, by_id;
    for (std::vector<std::string>* out : {&by_name, &by_id}) {
      std::unique_ptr<StreamServer> server =
          HostingServer(scenario, specs, workers, &faults);
      if (out == &by_id) {
        // Resolve names once at the boundary, then push ids only — the
        // hot-loop pattern the id overload exists for.
        std::map<std::string, StreamId> interned;
        for (const StreamEvent& event : scenario.events) {
          auto it = interned.find(event.stream);
          if (it == interned.end()) {
            auto id = server->InternStream(event.stream);
            ASSERT_TRUE(id.ok()) << id.status().ToString();
            it = interned.emplace(event.stream, *id).first;
          }
          ASSERT_TRUE(server->Push(it->second, event.tuple).ok());
        }
      } else {
        for (const StreamEvent& event : scenario.events) {
          ASSERT_TRUE(server->Push(event).ok());
        }
      }
      ASSERT_TRUE(server->Finish().ok());
      *out = SessionOutputs(*server, specs);
      // The server section carries wall-clock worker gauges once workers
      // run, so it is byte-comparable in serial mode only.
      if (workers == 0) out->push_back(server->MetricsJson());
    }
    EXPECT_EQ(by_name, by_id);
    if (workers == 0) {
      serial = by_name;
      serial.pop_back();
    } else {
      EXPECT_EQ(by_name, serial);
    }
  }
}

TEST(StreamServerTest, PushRejectsStaleStreamIdsAndStaysUsable) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    std::unique_ptr<StreamServer> server =
        HostingServer(scenario, specs, workers);
    // The three queries read r, s and t, so ids 0..2 are interned.
    const Status stale = server->Push(StreamId{3}, Row({5}, 0.1));
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.code(), StatusCode::kNotFound) << stale.ToString();
    EXPECT_NE(stale.message().find("[0, 3)"), std::string::npos)
        << stale.ToString();
    EXPECT_EQ(
        server->server_metrics().CounterTotals().at("server.events_pushed"),
        0);

    auto r = server->InternStream("r");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(server->Push(*r, Row({5}, 0.1)).ok());
    ASSERT_TRUE(server->Finish().ok());
    EXPECT_EQ(
        server->server_metrics().CounterTotals().at("server.events_pushed"),
        1);
    // Sessions 0 (R,S,T) and 2 (R,T) read r; session 1 reads s only.
    const int64_t ingested[] = {1, 0, 1};
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(server->session(static_cast<SessionId>(i))
                    .StatsSnapshot()
                    .core.tuples_ingested,
                ingested[i])
          << "session " << i;
    }
  }
}

// --- Server-boundary behavior -------------------------------------------

TEST(StreamServerTest, MidStreamRegistrationAdmitsFromNextWindowBoundary) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  EXPECT_EQ(server.state(), ServerState::kRegistering);
  ASSERT_TRUE(server.RegisterQuery(specs[0].sql, specs[0].config).ok());
  const size_t half = scenario.events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(server.Push(scenario.events[i]).ok());
  }
  EXPECT_EQ(server.state(), ServerState::kStreaming);

  // Registration is legal mid-stream now; the session is stamped with an
  // admission horizon at the next boundary of its own window slide.
  const VirtualTime now = scenario.events[half - 1].tuple.timestamp();
  auto late = server.RegisterQuery(specs[1].sql, specs[1].config);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(server.session_count(), 2u);
  const QuerySession& session = server.session(*late);
  const VirtualDuration slide = session.window_slide_seconds();
  const VirtualTime expected_horizon =
      (std::floor(now / slide) + 1.0) * slide;
  EXPECT_EQ(session.effective_from(), expected_horizon);
  EXPECT_GT(session.effective_from(), now);

  for (size_t i = half; i < scenario.events.size(); ++i) {
    ASSERT_TRUE(server.Push(scenario.events[i]).ok());
  }
  ASSERT_TRUE(server.Finish().ok());

  // The determinism contract extends to mid-stream joiners: the late
  // session is byte-identical to a solo server fed only the feed suffix
  // from its admission horizon on.
  const RunOutput solo = RunStandaloneEvents(
      scenario.catalog, specs[1], scenario.events, expected_horizon);

  const RunOutput hosted = Collect(server.session(*late), specs[1].columns);
  EXPECT_GT(hosted.snapshot.core.tuples_ingested, 0);
  EXPECT_EQ(hosted.results_csv, solo.results_csv);
  ExpectSnapshotsEqual(hosted.snapshot, solo.snapshot);
  EXPECT_EQ(hosted.metrics_json, solo.metrics_json);

  // Lifecycle counters land in the plane registry, scoped by session id,
  // so per-session registries stay solo-identical.
  const auto totals = server.server_metrics().CounterTotals();
  EXPECT_EQ(totals.at("session.0.lifecycle.registered"), 1);
  EXPECT_EQ(totals.count("session.0.lifecycle.registered_mid_stream"), 0u);
  EXPECT_EQ(totals.at("session.1.lifecycle.registered"), 1);
  EXPECT_EQ(totals.at("session.1.lifecycle.registered_mid_stream"), 1);
}

TEST(StreamServerTest, LifecycleStatesAndPushAfterFinish) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  ASSERT_TRUE(server.RegisterQuery(specs[0].sql, specs[0].config).ok());
  EXPECT_EQ(server.state(), ServerState::kRegistering);
  ASSERT_TRUE(server.Push(scenario.events.front()).ok());
  EXPECT_EQ(server.state(), ServerState::kStreaming);
  ASSERT_TRUE(server.Finish().ok());
  EXPECT_EQ(server.state(), ServerState::kFinished);

  Status late = server.Push(scenario.events.front());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(late.message().find("kFinished"), std::string::npos);

  // Registration after Finish names the kFinished state too.
  auto registered = server.RegisterQuery(specs[1].sql, specs[1].config);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(registered.status().message().find("kFinished"),
            std::string::npos);

  // Finish stays idempotent.
  EXPECT_TRUE(server.Finish().ok());
}

TEST(StreamServerTest, FindSessionBoundsChecksStaleIds) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(specs[0].sql, specs[0].config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto found = server.FindSession(*id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, &server.session(*id));

  auto stale = server.FindSession(41);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  EXPECT_NE(stale.status().message().find("no session with id 41"),
            std::string::npos);
  EXPECT_NE(stale.status().message().find("[0, 1)"), std::string::npos);

  const StreamServer& const_server = server;
  EXPECT_FALSE(const_server.FindSession(41).ok());
}

TEST(StreamServerTest, CountsUnroutedCatalogStreamsAndRejectsUnknown) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  // Only the drop_only query (reads s) is registered: arrivals on r and
  // t are valid catalog traffic with no consumer.
  auto id = server.RegisterQuery(specs[1].sql, specs[1].config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  ASSERT_TRUE(server.Push({"r", Row({5}, 0.1)}).ok());
  ASSERT_TRUE(server.Push({"s", Row({5, 7}, 0.2)}).ok());
  ASSERT_TRUE(server.Push({"t", Row({7}, 0.3)}).ok());

  Status unknown = server.Push({"nonesuch", Row({1}, 0.4)});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);

  ASSERT_TRUE(server.Finish().ok());
  const auto totals = server.server_metrics().CounterTotals();
  EXPECT_EQ(totals.at("server.events_pushed"), 3);
  EXPECT_EQ(totals.at("server.events_unrouted"), 2);
  const EngineStatsSnapshot snapshot =
      server.session(*id).StatsSnapshot();
  EXPECT_EQ(snapshot.core.tuples_ingested, 1);
}

TEST(StreamServerTest, SharedFeedEnforcesOneTimestampOrder) {
  // The arrival clock is plane-wide: after an event at t=1.0 on r, an
  // event at t=0.5 on s is out of order even though s never saw t=1.0.
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  ASSERT_TRUE(server.RegisterQuery(specs[0].sql, specs[0].config).ok());
  ASSERT_TRUE(server.Push({"r", Row({5}, 1.0)}).ok());
  Status status = server.Push({"s", Row({5, 7}, 0.5)});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("timestamp order"), std::string::npos);
}

TEST(StreamServerTest, CombinedMetricsJsonScopesSessionsByPrefix) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  for (const QuerySpec& spec : specs) {
    ASSERT_TRUE(server.RegisterQuery(spec.sql, spec.config).ok());
  }
  for (const StreamEvent& event : scenario.events) {
    ASSERT_TRUE(server.Push(event).ok());
  }
  ASSERT_TRUE(server.Finish().ok());

  const std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"server\": "), std::string::npos);
  EXPECT_NE(json.find("server.events_pushed"), std::string::npos);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_NE(json.find("\"prefix\": \"session." + std::to_string(i) +
                        ".\""),
              std::string::npos)
        << "session " << i;
  }
  // Deterministic across identical runs.
  StreamServer again(scenario.catalog);
  for (const QuerySpec& spec : specs) {
    ASSERT_TRUE(again.RegisterQuery(spec.sql, spec.config).ok());
  }
  for (const StreamEvent& event : scenario.events) {
    ASSERT_TRUE(again.Push(event).ok());
  }
  ASSERT_TRUE(again.Finish().ok());
  EXPECT_EQ(json, again.MetricsJson());
}

// --- Parallel execution (DESIGN.md Sec. 11) -----------------------------

/// Runs the heterogeneous overload scenario on a server with
/// `worker_threads` workers and returns every per-session output that
/// the determinism contract pins byte-for-byte.
std::vector<RunOutput> RunHosted(const workload::Scenario& scenario,
                                 const std::vector<QuerySpec>& specs,
                                 size_t worker_threads) {
  engine::StreamServerOptions options;
  options.scheduler.worker_threads = worker_threads;
  StreamServer server(scenario.catalog, options);
  std::vector<SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = server.RegisterQuery(spec.sql, spec.config);
    DT_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  Status pushed = server.PushBatch(scenario.events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  DT_CHECK(server.Finish().ok());

  std::vector<RunOutput> outputs;
  for (size_t i = 0; i < specs.size(); ++i) {
    outputs.push_back(Collect(server.session(ids[i]), specs[i].columns));
  }
  return outputs;
}

// --- Batch atomicity ----------------------------------------------------

// A batch containing one invalid event (non-finite timestamp) must
// bounce as a unit: InvalidArgument, and no event of the batch — not
// even the valid ones ahead of the bad entry — may reach any session.
// The rest of the feed must then produce output byte-identical to a run
// that never saw the poisoned batch.
TEST(StreamServerTest, PushBatchRejectsPoisonedBatchAtomically) {
  const workload::Scenario scenario = OverloadScenario(4);
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  const std::vector<RunOutput> clean = RunHosted(scenario, specs, 2);

  engine::StreamServerOptions options;
  options.scheduler.worker_threads = 2;
  StreamServer server(scenario.catalog, options);
  std::vector<SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = server.RegisterQuery(spec.sql, spec.config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  const size_t half = scenario.events.size() / 2;
  const std::span<const StreamEvent> head(scenario.events.data(), half);
  const std::span<const StreamEvent> tail(
      scenario.events.data() + half, scenario.events.size() - half);
  ASSERT_TRUE(server.PushBatch(head).ok());

  // Poisoned batch: a perfectly valid event followed by a NaN-timestamp
  // clone. Atomicity means the valid lead event must not leak in.
  std::vector<StreamEvent> poison;
  poison.push_back(scenario.events[half]);
  StreamEvent bad = scenario.events[half];
  bad.tuple.set_timestamp(std::numeric_limits<double>::quiet_NaN());
  poison.push_back(bad);
  const Status rejected = server.PushBatch(poison);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();

  ASSERT_TRUE(server.PushBatch(tail).ok());
  ASSERT_TRUE(server.Finish().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    QuerySession& session = server.session(ids[i]);
    EXPECT_EQ(
        io::FormatResultsCsv(session.TakeResults(), specs[i].columns),
        clean[i].results_csv)
        << "query " << i;
    ExpectSnapshotsEqual(session.StatsSnapshot(), clean[i].snapshot);
    EXPECT_EQ(obs::MetricsJson(session.metrics(), &session.trace()),
              clean[i].metrics_json)
        << "query " << i;
  }
}

TEST(ParallelEquivalence, WorkerCountsProduceByteIdenticalSessions) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  const std::vector<RunOutput> serial = RunHosted(scenario, specs, 0);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    const std::vector<RunOutput> parallel =
        RunHosted(scenario, specs, workers);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      EXPECT_GT(serial[i].snapshot.core.tuples_dropped, 0);
      EXPECT_EQ(parallel[i].results_csv, serial[i].results_csv);
      EXPECT_EQ(parallel[i].metrics_json, serial[i].metrics_json);
      ExpectSnapshotsEqual(parallel[i].snapshot, serial[i].snapshot);
      // Drop causes still partition the dropped count under the pool.
      int64_t by_cause = 0;
      for (const auto& [name, value] : parallel[i].snapshot.counters) {
        if (name.rfind("stream.", 0) == 0 &&
            name.find(".dropped.") != std::string::npos) {
          by_cause += value;
        }
      }
      EXPECT_EQ(by_cause, parallel[i].snapshot.core.tuples_dropped);
    }
  }
}

TEST(ParallelEquivalence, ParallelSessionsMatchStandaloneEngines) {
  // Transitivity check done directly: a 4-worker co-hosted session must
  // equal a solo server running its query alone, not just the serial
  // co-hosting server.
  const workload::Scenario scenario = OverloadScenario(3);
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  const std::vector<RunOutput> parallel = RunHosted(scenario, specs, 4);
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const RunOutput standalone = RunStandalone(scenario, specs[i]);
    EXPECT_EQ(parallel[i].results_csv, standalone.results_csv);
    EXPECT_EQ(parallel[i].metrics_json, standalone.metrics_json);
    ExpectSnapshotsEqual(parallel[i].snapshot, standalone.snapshot);
  }
}

TEST(ParallelEquivalence, FlushesWorkerInstrumentsAfterFinish) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  // Uneven pushes, so some carry no event for some session.
  std::vector<std::span<const StreamEvent>> pushes;
  std::span<const StreamEvent> rest(scenario.events);
  for (size_t i = 0; !rest.empty(); ++i) {
    const size_t take = std::min(i % 3 == 0 ? size_t{1} : 97, rest.size());
    pushes.push_back(rest.subspan(0, take));
    rest = rest.subspan(take);
  }

  // A task is one push's deliveries to one session: count, serially,
  // how many pushes reached each session.
  int64_t expected_tasks = static_cast<int64_t>(specs.size());  // finishes
  {
    std::unique_ptr<StreamServer> serial = HostingServer(scenario, specs, 0);
    std::vector<int64_t> ingested(specs.size(), 0);
    for (std::span<const StreamEvent> push : pushes) {
      ASSERT_TRUE(serial->PushBatch(push).ok());
      for (size_t i = 0; i < specs.size(); ++i) {
        const int64_t now = serial->session(static_cast<SessionId>(i))
                                .StatsSnapshot()
                                .core.tuples_ingested;
        if (now > ingested[i]) ++expected_tasks;
        ingested[i] = now;
      }
    }
  }

  std::unique_ptr<StreamServer> server = HostingServer(scenario, specs, 2);
  for (std::span<const StreamEvent> push : pushes) {
    ASSERT_TRUE(server->PushBatch(push).ok());
  }
  ASSERT_TRUE(server->Finish().ok());

  // Three sessions shard 2/1 across two workers; every dispatched task
  // is accounted for exactly once.
  const auto totals = server->server_metrics().CounterTotals();
  EXPECT_GT(totals.at("server.worker.0.tasks"), 0);
  EXPECT_GT(totals.at("server.worker.1.tasks"), 0);
  EXPECT_EQ(totals.at("server.worker.0.tasks") +
                totals.at("server.worker.1.tasks"),
            expected_tasks);
  const auto gauges = server->server_metrics().GaugeMaxima();
  EXPECT_GT(gauges.at("server.worker.0.queue_depth"), 0.0);
  EXPECT_GE(gauges.at("server.worker.0.busy_seconds"), 0.0);
  // Combined export carries the worker section under "server".
  EXPECT_NE(server->MetricsJson().find("server.worker.0.tasks"),
            std::string::npos);
}

// --- PushBatch ----------------------------------------------------------

TEST(StreamServerTest, PushBatchMatchesLoopOfPushByteForByte) {
  const workload::Scenario scenario = OverloadScenario(4);
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const SimFaults faults = OneSlotFaults();

  std::vector<std::string> serial;
  for (size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    std::vector<std::string> by_loop, by_batch;
    for (std::vector<std::string>* out : {&by_loop, &by_batch}) {
      std::unique_ptr<StreamServer> server =
          HostingServer(scenario, specs, workers, &faults);
      if (out == &by_batch) {
        // Split the feed into uneven chunks so batch boundaries land
        // both mid-window and mid-stream-run.
        std::span<const StreamEvent> rest(scenario.events);
        const size_t chunks[] = {1, 7, 64, 3};
        size_t next_chunk = 0;
        while (!rest.empty()) {
          const size_t take =
              std::min(chunks[next_chunk++ % 4], rest.size());
          ASSERT_TRUE(server->PushBatch(rest.subspan(0, take)).ok());
          rest = rest.subspan(take);
        }
      } else {
        for (const StreamEvent& event : scenario.events) {
          ASSERT_TRUE(server->Push(event).ok());
        }
      }
      ASSERT_TRUE(server->Finish().ok());
      *out = SessionOutputs(*server, specs);
      // Wall-clock worker gauges: see InternedIdPushMatchesNamePush.
      if (workers == 0) out->push_back(server->MetricsJson());
    }
    EXPECT_EQ(by_loop, by_batch);
    if (workers == 0) {
      serial = by_loop;
      serial.pop_back();
    } else {
      EXPECT_EQ(by_loop, serial);
    }
  }
}

TEST(StreamServerTest, PushBatchArityErrorKeepsThePrefixAtAnyWorkerCount) {
  const workload::Scenario scenario = OverloadScenario(3);
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const std::span<const StreamEvent> events(scenario.events);
  const size_t end = 200;  // the failing batch is events [0, end)
  const size_t k = 90;     // its wrong-arity event

  // Reference: the feed without event k, pushed serially.
  std::vector<std::string> reference;
  {
    std::unique_ptr<StreamServer> server = HostingServer(scenario, specs, 0);
    ASSERT_TRUE(server->PushBatch(events.subspan(0, k)).ok());
    ASSERT_TRUE(server->PushBatch(events.subspan(k + 1)).ok());
    ASSERT_TRUE(server->Finish().ok());
    reference = SessionOutputs(*server, specs);
  }

  std::vector<StreamEvent> batch(events.begin(), events.begin() + end);
  batch[k].tuple = Row({1, 2, 3, 4, 5}, batch[k].tuple.timestamp());
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    std::unique_ptr<StreamServer> server =
        HostingServer(scenario, specs, workers);
    const Status status = server->PushBatch(batch);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("arity"), std::string::npos)
        << status.ToString();
    // Loop semantics: the events before the offender stay ingested.
    EXPECT_EQ(
        server->server_metrics().CounterTotals().at("server.events_pushed"),
        static_cast<int64_t>(k));
    ASSERT_TRUE(server->PushBatch(events.subspan(k + 1)).ok());
    ASSERT_TRUE(server->Finish().ok());
    EXPECT_EQ(SessionOutputs(*server, specs), reference);
  }
}

TEST(StreamServerTest, PushBatchRejectsBadTimestampsAtomically) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(specs[0].sql, specs[0].config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Batch with an out-of-order timestamp in the middle: rejected whole,
  // nothing ingested — unlike a loop of Push, which would have ingested
  // the prefix before failing.
  std::vector<StreamEvent> batch = {{"r", Row({5}, 0.1)},
                                    {"s", Row({5, 7}, 0.2)},
                                    {"r", Row({6}, 0.15)}};
  Status status = server.PushBatch(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("batch event 2"), std::string::npos);
  EXPECT_NE(status.message().find("no event of the batch was ingested"),
            std::string::npos);
  EXPECT_EQ(
      server.server_metrics().CounterTotals().at("server.events_pushed"),
      0);

  // Same for a non-finite timestamp.
  std::vector<StreamEvent> nan_batch = {
      {"r", Row({5}, 0.1)},
      {"r", Row({6}, std::numeric_limits<double>::quiet_NaN())}};
  status = server.PushBatch(nan_batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("must be finite"), std::string::npos);
  EXPECT_EQ(
      server.server_metrics().CounterTotals().at("server.events_pushed"),
      0);

  // The failed batches still sealed registration (state moved to
  // kStreaming on the push attempt), and a valid batch still lands.
  EXPECT_EQ(server.state(), ServerState::kStreaming);
  ASSERT_TRUE(
      server.PushBatch(std::span<const StreamEvent>(batch).subspan(0, 2))
          .ok());
  ASSERT_TRUE(server.Finish().ok());
  EXPECT_EQ(
      server.server_metrics().CounterTotals().at("server.events_pushed"),
      2);
}

// --- Live lifecycle churn (DESIGN.md §14) -------------------------------

/// Outputs of one churned run plus the horizons the churn induced.
struct ChurnRun {
  std::vector<RunOutput> outputs;  // one per spec, in spec order
  VirtualTime joiner_horizon = 0.0;
  VirtualTime unregister_clock = 0.0;
};

/// Interleaved register/unregister under overload: specs[0] and specs[1]
/// register up front, specs[2] joins a third of the way into the feed,
/// specs[1] is unregistered at two thirds. Every session sheds (the
/// scenario is a 1.5x overload), so churn interacts with live triage
/// queues, synopses, and in-flight windows — not an idle server.
ChurnRun RunChurned(const workload::Scenario& scenario,
                    const std::vector<QuerySpec>& specs,
                    size_t worker_threads) {
  DT_CHECK(specs.size() == 3);
  engine::StreamServerOptions options;
  options.scheduler.worker_threads = worker_threads;
  StreamServer server(scenario.catalog, options);
  std::vector<SessionId> ids;
  for (size_t i = 0; i < 2; ++i) {
    auto id = server.RegisterQuery(specs[i].sql, specs[i].config);
    DT_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  const std::span<const StreamEvent> events(scenario.events);
  const size_t third = events.size() / 3;
  ChurnRun run;

  DT_CHECK(server.PushBatch(events.subspan(0, third)).ok());
  auto joined = server.RegisterQuery(specs[2].sql, specs[2].config);
  DT_CHECK(joined.ok()) << joined.status().ToString();
  ids.push_back(*joined);
  run.joiner_horizon = server.session(*joined).effective_from();

  DT_CHECK(server.PushBatch(events.subspan(third, third)).ok());
  run.unregister_clock = events[2 * third - 1].tuple.timestamp();
  Status unregistered = server.UnregisterQuery(ids[1]);
  DT_CHECK(unregistered.ok()) << unregistered.ToString();
  DT_CHECK(server.session(ids[1]).lifecycle() ==
           SessionLifecycle::kDetached);

  DT_CHECK(server.PushBatch(events.subspan(2 * third)).ok());
  DT_CHECK(server.Finish().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    run.outputs.push_back(Collect(server.session(ids[i]), specs[i].columns));
  }
  return run;
}

void ExpectRunOutputsEqual(const RunOutput& actual,
                           const RunOutput& expected) {
  EXPECT_EQ(actual.results_csv, expected.results_csv);
  ExpectSnapshotsEqual(actual.snapshot, expected.snapshot);
  EXPECT_EQ(actual.metrics_json, expected.metrics_json);
  // Drop causes partition the dropped count whatever the lifecycle did.
  int64_t by_cause = 0;
  for (const auto& [name, value] : actual.snapshot.counters) {
    if (name.rfind("stream.", 0) == 0 &&
        name.find(".dropped.") != std::string::npos) {
      by_cause += value;
    }
  }
  EXPECT_EQ(by_cause, actual.snapshot.core.tuples_dropped);
}

TEST(ChurnEquivalence, ChurnedSessionsMatchStandaloneSubsequences) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const ChurnRun churned = RunChurned(scenario, specs, 0);
  const std::span<const StreamEvent> events(scenario.events);
  const size_t third = events.size() / 3;

  // The always-resident session saw the whole feed: churn around it must
  // not perturb a single byte.
  ExpectRunOutputsEqual(churned.outputs[0],
                        RunStandalone(scenario, specs[0]));

  // The unregistered session equals a solo server fed the prefix
  // up to the unregister point and then finished — unregister drained
  // its queues and emitted its in-flight windows.
  EXPECT_GT(churned.outputs[1].snapshot.core.windows_emitted, 0);
  ExpectRunOutputsEqual(
      churned.outputs[1],
      RunStandaloneEvents(scenario.catalog, specs[1],
                          events.subspan(0, 2 * third)));

  // The mid-stream joiner equals a solo server fed the time-suffix
  // from its admission horizon on.
  EXPECT_GT(churned.outputs[2].snapshot.core.tuples_ingested, 0);
  ExpectRunOutputsEqual(
      churned.outputs[2],
      RunStandaloneEvents(scenario.catalog, specs[2], events,
                          churned.joiner_horizon));
}

TEST(ChurnEquivalence, WorkerCountsProduceByteIdenticalChurnedRuns) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const ChurnRun serial = RunChurned(scenario, specs, 0);
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    const ChurnRun parallel = RunChurned(scenario, specs, workers);
    EXPECT_EQ(parallel.joiner_horizon, serial.joiner_horizon);
    ASSERT_EQ(parallel.outputs.size(), serial.outputs.size());
    for (size_t i = 0; i < serial.outputs.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      ExpectRunOutputsEqual(parallel.outputs[i], serial.outputs[i]);
    }
  }
}

// --- Session snapshot / restore (DESIGN.md §14) -------------------------

TEST(SessionSnapshotTest, RestoreRoundTripsByteIdenticallyAcrossWorkers) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const std::span<const StreamEvent> events(scenario.events);
  const size_t half = events.size() / 2;
  // What the snapshotted session should produce had nothing happened.
  const RunOutput clean = RunStandalone(scenario, specs[0]);

  for (size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(workers));
    engine::StreamServerOptions options;
    options.scheduler.worker_threads = workers;

    // Donor: all three queries, snapshot session 0 mid-run, keep going.
    StreamServer donor(scenario.catalog, options);
    std::vector<SessionId> ids;
    for (const QuerySpec& spec : specs) {
      auto id = donor.RegisterQuery(spec.sql, spec.config);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    ASSERT_TRUE(donor.PushBatch(events.subspan(0, half)).ok());
    auto snapshot = donor.SnapshotSession(ids[0]);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_GT(snapshot->bytes.size(), 0u);
    ASSERT_TRUE(donor.PushBatch(events.subspan(half)).ok());
    ASSERT_TRUE(donor.Finish().ok());

    // Snapshotting was non-invasive: the donor session still matches the
    // never-snapshotted standalone run.
    QuerySession& donor_session = donor.session(ids[0]);
    EXPECT_EQ(
        io::FormatResultsCsv(donor_session.TakeResults(),
                             specs[0].columns),
        clean.results_csv);
    ExpectSnapshotsEqual(donor_session.StatsSnapshot(), clean.snapshot);

    // Restore into a fresh server and feed the rest of the feed: the
    // restored session finishes the run byte-identically.
    StreamServer restored(scenario.catalog, options);
    auto restored_id = restored.RestoreSession(*snapshot);
    ASSERT_TRUE(restored_id.ok()) << restored_id.status().ToString();
    ASSERT_TRUE(restored.PushBatch(events.subspan(half)).ok());
    ASSERT_TRUE(restored.Finish().ok());

    QuerySession& restored_session = restored.session(*restored_id);
    EXPECT_EQ(restored_session.sql(), specs[0].sql);
    EXPECT_EQ(io::FormatResultsCsv(restored_session.TakeResults(),
                                   specs[0].columns),
              clean.results_csv);
    ExpectSnapshotsEqual(restored_session.StatsSnapshot(),
                         clean.snapshot);
    EXPECT_EQ(obs::MetricsJson(restored_session.metrics(),
                               &restored_session.trace()),
              clean.metrics_json);
    // Lifecycle accounting for the restore.
    const auto totals = restored.server_metrics().CounterTotals();
    EXPECT_EQ(totals.at(StringPrintf("session.%u.lifecycle.restored",
                                     *restored_id)),
              1);
  }
}

TEST(SessionSnapshotTest, RestoredPlaneRefusesTheDonorsPast) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const std::span<const StreamEvent> events(scenario.events);
  const size_t half = events.size() / 2;

  StreamServer donor(scenario.catalog);
  auto id = donor.RegisterQuery(specs[0].sql, specs[0].config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(donor.PushBatch(events.subspan(0, half)).ok());
  auto snapshot = donor.SnapshotSession(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  StreamServer restored(scenario.catalog);
  ASSERT_TRUE(restored.RestoreSession(*snapshot).ok());
  // An arrival from before the donor's clock is out of order on the
  // restored server too — the snapshot carried the plane clock.
  Status stale = restored.Push(events[0]);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stale.message().find("timestamp order"), std::string::npos);
}

TEST(SessionSnapshotTest, RejectsCorruptTruncatedAndSkewedSnapshots) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);

  StreamServer donor(scenario.catalog);
  auto id = donor.RegisterQuery(specs[0].sql, specs[0].config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const std::span<const StreamEvent> events(scenario.events);
  ASSERT_TRUE(donor.PushBatch(events.subspan(0, events.size() / 2)).ok());
  auto snapshot = donor.SnapshotSession(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  StreamServer target(scenario.catalog);

  // A flipped payload byte fails the MD5 seal.
  SessionSnapshot corrupt = *snapshot;
  corrupt.bytes[corrupt.bytes.size() / 2] ^= 0x40;
  auto bad = target.RestoreSession(corrupt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("MD5"), std::string::npos);

  // Truncation is named as such (frame length mismatch).
  SessionSnapshot truncated = *snapshot;
  truncated.bytes.resize(truncated.bytes.size() / 2);
  bad = target.RestoreSession(truncated);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Wrong magic: not a snapshot at all.
  SessionSnapshot garbage;
  garbage.bytes = "definitely not a snapshot";
  bad = target.RestoreSession(garbage);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("magic"), std::string::npos);

  // Version skew is rejected by number before any payload parsing.
  SessionSnapshot skewed = *snapshot;
  skewed.bytes[4] = static_cast<char>(kSnapshotVersion + 1);
  bad = target.RestoreSession(skewed);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("version"), std::string::npos);

  // The pristine snapshot still restores after all those rejections.
  EXPECT_TRUE(target.RestoreSession(*snapshot).ok());
}

TEST(SessionSnapshotTest, SnapshotRestoresUnderAnySchedulerOptions) {
  // Snapshots carry no scheduler state: one taken under a threaded,
  // morsel-parallel donor restores onto a serial server and onto a
  // wider one, and both finish the feed byte-identically to the donor.
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = HostedQueries(scenario);
  const std::span<const StreamEvent> events(scenario.events);
  const size_t half = events.size() / 2;

  engine::StreamServerOptions donor_options;
  donor_options.scheduler = {.worker_threads = 2,
                             .intra_session_threads = 2};
  StreamServer donor(scenario.catalog, donor_options);
  std::vector<SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = donor.RegisterQuery(spec.sql, spec.config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(donor.PushBatch(events.subspan(0, half)).ok());
  auto snapshot = donor.SnapshotSession(ids[0]);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(donor.PushBatch(events.subspan(half)).ok());
  ASSERT_TRUE(donor.Finish().ok());
  QuerySession& donor_session = donor.session(ids[0]);
  const std::string donor_csv =
      io::FormatResultsCsv(donor_session.TakeResults(), specs[0].columns);
  const std::string donor_metrics =
      obs::MetricsJson(donor_session.metrics(), &donor_session.trace());

  for (const engine::SchedulerOptions& scheduler :
       {engine::SchedulerOptions{},
        engine::SchedulerOptions{.worker_threads = 4,
                                 .intra_session_threads = 2}}) {
    SCOPED_TRACE(StringPrintf("workers=%zu intra=%zu",
                              scheduler.worker_threads,
                              scheduler.intra_session_threads));
    engine::StreamServerOptions options;
    options.scheduler = scheduler;
    StreamServer restored(scenario.catalog, options);
    auto restored_id = restored.RestoreSession(*snapshot);
    ASSERT_TRUE(restored_id.ok()) << restored_id.status().ToString();
    ASSERT_TRUE(restored.PushBatch(events.subspan(half)).ok());
    ASSERT_TRUE(restored.Finish().ok());
    QuerySession& revived = restored.session(*restored_id);
    EXPECT_EQ(io::FormatResultsCsv(revived.TakeResults(), specs[0].columns),
              donor_csv);
    EXPECT_EQ(obs::MetricsJson(revived.metrics(), &revived.trace()),
              donor_metrics);
  }
}

// --- Skewed tenants under the scheduler sweep (DESIGN.md §16) -----------

/// One giant join session next to tiny single-stream tenants: the shape
/// where worker placement and intra-session parallelism actually move
/// work around. The giant runs the scenario's three-way join with a
/// deep queue (big builds, big probes); the tiny tenants are cheap
/// single-stream counts that finish almost instantly.
std::vector<QuerySpec> SkewedQueries(const workload::Scenario& scenario,
                                     size_t tiny_sessions) {
  std::vector<QuerySpec> specs;
  QuerySpec giant;
  giant.sql = scenario.query_sql;
  giant.config.strategy = SheddingStrategy::kDataTriage;
  giant.config.queue_capacity = 200;
  giant.config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  giant.config.synopsis.grid.cell_width = 4.0;
  giant.config.cost_model.exact_tuple_cost = 1.0 / 400.0;
  giant.columns = {"a", "count"};
  specs.push_back(std::move(giant));
  for (size_t i = 0; i < tiny_sessions; ++i) {
    QuerySpec tiny;
    tiny.sql = StringPrintf(
        "SELECT b, COUNT(*) as count FROM S GROUP BY b; "
        "WINDOW S['%.9f seconds'];",
        scenario.window_seconds);
    tiny.config.strategy = SheddingStrategy::kDropOnly;
    tiny.config.queue_capacity = 16 + 4 * i;  // distinct shed patterns
    tiny.config.drop_policy = DropPolicyKind::kDropNewest;
    tiny.config.seed = 100 + i;
    tiny.columns = {"b", "count"};
    specs.push_back(std::move(tiny));
  }
  return specs;
}

/// RunHosted with a full SchedulerOptions instead of a bare thread
/// count.
std::vector<RunOutput> RunScheduled(const workload::Scenario& scenario,
                                    const std::vector<QuerySpec>& specs,
                                    engine::SchedulerOptions scheduler) {
  engine::StreamServerOptions options;
  options.scheduler = scheduler;
  StreamServer server(scenario.catalog, options);
  std::vector<SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = server.RegisterQuery(spec.sql, spec.config);
    DT_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  Status pushed = server.PushBatch(scenario.events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  DT_CHECK(server.Finish().ok());
  std::vector<RunOutput> outputs;
  for (size_t i = 0; i < specs.size(); ++i) {
    outputs.push_back(Collect(server.session(ids[i]), specs[i].columns));
  }
  return outputs;
}

TEST(SkewedTenantEquivalence, SchedulerSweepProducesByteIdenticalRuns) {
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = SkewedQueries(scenario, 3);
  const std::vector<RunOutput> serial =
      RunScheduled(scenario, specs, engine::SchedulerOptions{});
  // The giant must actually shed — equivalence over an idle run proves
  // little.
  EXPECT_GT(serial[0].snapshot.core.tuples_dropped, 0);

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t intra : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(StringPrintf("workers=%zu intra=%zu", workers, intra));
      engine::SchedulerOptions scheduler;
      scheduler.worker_threads = workers;
      scheduler.intra_session_threads = intra;
      const std::vector<RunOutput> run =
          RunScheduled(scenario, specs, scheduler);
      ASSERT_EQ(run.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("session " + std::to_string(i));
        EXPECT_EQ(run[i].results_csv, serial[i].results_csv);
        EXPECT_EQ(run[i].metrics_json, serial[i].metrics_json);
        ExpectSnapshotsEqual(run[i].snapshot, serial[i].snapshot);
        // Drop causes partition the dropped count at every setting.
        int64_t by_cause = 0;
        for (const auto& [name, value] : run[i].snapshot.counters) {
          if (name.rfind("stream.", 0) == 0 &&
              name.find(".dropped.") != std::string::npos) {
            by_cause += value;
          }
        }
        EXPECT_EQ(by_cause, run[i].snapshot.core.tuples_dropped);
      }
    }
  }
}

TEST(SkewedTenantEquivalence, QuiesceUnderStealingKeepsLifecycleExact) {
  // Unregister and snapshot must quiesce cleanly while workers and
  // morsel helpers are live: the drained tenant matches a standalone
  // engine fed its prefix, the snapshot round-trips into a
  // same-scheduler server byte-identically, and the resident giant is
  // untouched by either operation.
  const workload::Scenario scenario = OverloadScenario();
  const std::vector<QuerySpec> specs = SkewedQueries(scenario, 2);
  const std::span<const StreamEvent> events(scenario.events);
  const size_t half = events.size() / 2;

  engine::StreamServerOptions options;
  options.scheduler.worker_threads = 4;
  options.scheduler.intra_session_threads = 2;
  StreamServer server(scenario.catalog, options);
  std::vector<SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = server.RegisterQuery(spec.sql, spec.config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(server.PushBatch(events.subspan(0, half)).ok());

  // Mid-run, with workers live: snapshot the giant, retire a tenant.
  auto snapshot = server.SnapshotSession(ids[0]);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(server.UnregisterQuery(ids[1]).ok());

  ASSERT_TRUE(server.PushBatch(events.subspan(half)).ok());
  ASSERT_TRUE(server.Finish().ok());

  // The resident giant saw the whole feed, snapshot and churn included.
  QuerySession& giant = server.session(ids[0]);
  const RunOutput clean_giant = RunStandalone(scenario, specs[0]);
  EXPECT_EQ(io::FormatResultsCsv(giant.TakeResults(), specs[0].columns),
            clean_giant.results_csv);
  ExpectSnapshotsEqual(giant.StatsSnapshot(), clean_giant.snapshot);

  // The retired tenant equals a solo server fed the prefix.
  QuerySession& retired = server.session(ids[1]);
  const RunOutput clean_retired = RunStandaloneEvents(
      scenario.catalog, specs[1], events.subspan(0, half));
  EXPECT_EQ(
      io::FormatResultsCsv(retired.TakeResults(), specs[1].columns),
      clean_retired.results_csv);
  ExpectSnapshotsEqual(retired.StatsSnapshot(), clean_retired.snapshot);

  // The snapshot restores onto a same-scheduler server and finishes the
  // feed byte-identically to the giant's full run.
  StreamServer restored(scenario.catalog, options);
  auto restored_id = restored.RestoreSession(*snapshot);
  ASSERT_TRUE(restored_id.ok()) << restored_id.status().ToString();
  ASSERT_TRUE(restored.PushBatch(events.subspan(half)).ok());
  ASSERT_TRUE(restored.Finish().ok());
  QuerySession& revived = restored.session(*restored_id);
  EXPECT_EQ(
      io::FormatResultsCsv(revived.TakeResults(), specs[0].columns),
      clean_giant.results_csv);
  ExpectSnapshotsEqual(revived.StatsSnapshot(), clean_giant.snapshot);
}

// --- Columnar exact side (DESIGN.md §13.4) -------------------------------

TEST(ColumnarExactEquivalence, ResidualSelectionMatchesAcrossModesAndWorkers) {
  // A narrow value domain makes the three-way join big: windows carry
  // thousands of joined rows, past the 2048-row floor at which the join
  // gathers its output on the intra-session pool.
  workload::ScenarioConfig scenario_config;
  scenario_config.tuples_per_stream = 600;
  scenario_config.tuples_per_window = 120.0;
  scenario_config.rate_per_stream = 240.0;
  scenario_config.normal_spec = {10.0, 3.0, 1.0, 20.0, true};
  auto scenario = workload::BuildPaperScenario(scenario_config);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const double w = scenario->window_seconds;
  // T.d > R.a spans two streams, so the binder places it in a Filter
  // above the joins: the SPJ output that reaches the accumulators is a
  // view carrying a selection vector.
  const std::string sql = StringPrintf(
      "SELECT a, COUNT(*) as count, SUM(d) as total FROM R,S,T "
      "WHERE R.a = S.b AND S.c = T.d AND T.d > R.a GROUP BY a; "
      "WINDOW R['%.9f seconds'], S['%.9f seconds'], T['%.9f seconds'];",
      w, w, w);
  ASSERT_EQ(testing::MustBind(sql, scenario->catalog).spj_core->kind(),
            plan::LogicalPlan::Kind::kFilter);

  struct Run {
    std::string label;
    std::string results_csv;
    std::string metrics_json;
    int64_t dropped = 0;
    int64_t max_window_rows = 0;
  };
  std::vector<Run> runs;
  for (bool vectorized : {true, false}) {
    for (size_t threads : {size_t{0}, size_t{2}}) {
      EngineConfig config;
      config.strategy = SheddingStrategy::kDataTriage;
      config.queue_capacity = 100;
      config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
      config.synopsis.grid.cell_width = 4.0;
      config.cost_model.exact_tuple_cost = 1.0 / 500.0;
      config.vectorized_exec = vectorized;
      engine::StreamServerOptions options;
      options.scheduler.worker_threads = threads;
      options.scheduler.intra_session_threads = threads;
      StreamServer server(scenario->catalog, options);
      auto id = server.RegisterQuery(sql, config);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(server.PushBatch(scenario->events).ok());
      ASSERT_TRUE(server.Finish().ok());
      QuerySession& session = server.session(*id);
      const std::vector<WindowResult> results = session.TakeResults();
      Run run;
      run.label = StringPrintf("vectorized=%d workers=intra=%zu", vectorized,
                               threads);
      for (const WindowResult& result : results) {
        // A window's exact COUNT(*)s sum to the joined rows that passed
        // the residual: the rows the accumulators saw.
        int64_t rows = 0;
        for (const Tuple& row : result.exact_rows) {
          rows += row.value(1).int64();
        }
        run.max_window_rows = std::max(run.max_window_rows, rows);
      }
      run.results_csv = io::FormatResultsCsv(results, {"a", "count", "total"});
      run.metrics_json =
          obs::MetricsJson(session.metrics(), &session.trace());
      run.dropped = session.StatsSnapshot().core.tuples_dropped;
      runs.push_back(std::move(run));
    }
  }

  const Run& reference = runs.front();
  EXPECT_GT(reference.dropped, 0) << "the run must be overloaded";
  EXPECT_GE(reference.max_window_rows, 2048);
  for (size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].label + " vs " + reference.label);
    EXPECT_EQ(runs[i].results_csv, reference.results_csv);
    EXPECT_EQ(runs[i].metrics_json, reference.metrics_json);
  }
}

}  // namespace
}  // namespace datatriage::server
