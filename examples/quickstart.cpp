// Quickstart: the complete Data Triage pipeline in one file.
//
//  1. Register streams in a catalog (the paper's R(a), S(b,c), T(d)).
//  2. Submit the continuous query of paper Fig. 7.
//  3. Install a streaming window sink: each per-window composite result
//     (exact answer over kept tuples + the shadow plan's estimate of
//     what shedding removed) is delivered at emission time, while the
//     run is still in flight. (Call TakeResults() after Finish() instead
//     if you prefer buffered delivery.)
//  4. Feed timestamped tuples through the server; the triage queues shed
//     load when arrivals outrun the (virtual-time) processing capacity.
//  5. Read the run accounting — StatsSnapshot() embeds the obs metrics
//     registry: per-stream queue high-watermarks and drop causes.
//
// One query is a StreamServer hosting one session: register it, push,
// Finish, and read server.session(id). More queries are more
// RegisterQuery calls on the same server.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/server/stream_server.h"
#include "src/workload/scenario.h"

using datatriage::engine::EngineConfig;
using datatriage::engine::WindowResult;

int main() {
  // --- 1. Streams + query. BuildPaperScenario assembles the paper's
  // catalog, its Fig. 7 query, and a synthetic Gaussian workload. Here we
  // ask for 3x200 tuples/s against an engine that can process ~400/s, so
  // roughly a third of the input must be shed.
  datatriage::workload::ScenarioConfig workload;
  workload.tuples_per_stream = 2000;
  workload.rate_per_stream = 200.0;
  workload.tuples_per_window = 100.0;
  workload.seed = 42;
  auto scenario = datatriage::workload::BuildPaperScenario(workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n\n", scenario->query_sql.c_str());

  // --- 2. Engine configuration: Data Triage with the paper's sparse
  // cubic-bucket grid histogram as the synopsis.
  EngineConfig config;
  config.strategy = datatriage::triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 100;
  config.synopsis.type =
      datatriage::synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  if (datatriage::Status s = config.Validate(); !s.ok()) {
    std::fprintf(stderr, "config: %s\n", s.ToString().c_str());
    return 1;
  }

  datatriage::server::StreamServer server(scenario->catalog);
  auto id = server.RegisterQuery(scenario->query_sql, config);
  if (!id.ok()) {
    std::fprintf(stderr, "register: %s\n", id.status().ToString().c_str());
    return 1;
  }
  datatriage::server::QuerySession& session = server.session(*id);

  // --- 3. Streaming results: print each window as it emits.
  std::printf("%6s %6s %8s %22s %22s\n", "window", "kept", "dropped",
              "exact groups (count)", "merged groups (count)");
  session.SetWindowSink([](WindowResult&& result) {
    double exact_total = 0, merged_total = 0;
    for (const datatriage::Tuple& row : result.exact_rows) {
      exact_total += row.value(1).AsDouble();
    }
    for (const datatriage::Tuple& row : result.merged_rows) {
      merged_total += row.value(1).AsDouble();
    }
    std::printf("%6lld %6lld %8lld %10zu (%9.0f) %10zu (%9.0f)\n",
                static_cast<long long>(result.window),
                static_cast<long long>(result.kept_tuples),
                static_cast<long long>(result.dropped_tuples),
                result.exact_rows.size(), exact_total,
                result.merged_rows.size(), merged_total);
  });

  // --- 4. Feed the timeline.
  for (const datatriage::engine::StreamEvent& event : scenario->events) {
    datatriage::Status s = server.Push(event);
    if (!s.ok()) {
      std::fprintf(stderr, "push: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (datatriage::Status s = server.Finish(); !s.ok()) {
    std::fprintf(stderr, "finish: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- 5. Run accounting, including the obs registry totals.
  const datatriage::engine::EngineStatsSnapshot stats =
      session.StatsSnapshot();
  std::printf(
      "\ningested %lld tuples: kept %lld, shed %lld "
      "(synopsized and reflected in the merged column)\n",
      static_cast<long long>(stats.core.tuples_ingested),
      static_cast<long long>(stats.core.tuples_kept),
      static_cast<long long>(stats.core.tuples_dropped));
  for (const auto& [name, hwm] : stats.gauge_maxima) {
    if (name.find(".queue_depth") != std::string::npos) {
      std::printf("%s high-watermark: %.0f\n", name.c_str(), hwm);
    }
  }
  return 0;
}
