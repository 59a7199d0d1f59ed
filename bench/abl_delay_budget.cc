// Ablation A5: the latency/accuracy tradeoff of the emission deadline.
// Window w's composite result must leave the engine by
// window_end + delay_factor x window_length; any window tuples the engine
// has not reached by then are force-shed (and, under Data Triage,
// recovered through the synopsis estimate). A small budget bounds result
// latency tightly but sheds more under transient backlog; a generous one
// trades staleness for exactness. The paper motivates the constraint
// ("low result latency", Sec. 1) without quantifying it — this ablation
// does.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/latency.h"
#include "src/server/stream_server.h"

namespace datatriage::bench {
namespace {

constexpr int kSeeds = 5;

void RunSeries(bool bursty) {
  PrintHeader(bursty ? "Ablation A5: delay budget (Data Triage, bursty "
                       "peak 6000/s)"
                     : "Ablation A5: delay budget (Data Triage, constant "
                       "800/s)",
              "delay_x");
  for (double delay_factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    workload::ScenarioConfig scenario;
    scenario.tuples_per_stream = 1500;
    scenario.tuples_per_window = 60.0;
    if (bursty) {
      scenario.bursty = true;
      scenario.burst.base_rate = 20.0;
    } else {
      scenario.rate_per_stream = 800.0 / 3.0;
    }

    engine::EngineConfig config;
    config.strategy = triage::SheddingStrategy::kDataTriage;
    config.queue_capacity = 100;
    config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
    config.synopsis.grid.cell_width = 4.0;
    config.cost_model.delay_factor = delay_factor;

    metrics::MeanStd stats =
        metrics::ComputeMeanStd(RunSeeds(scenario, config, kSeeds));
    PrintRow("delay", delay_factor, stats);
  }
}

void Run() {
  RunSeries(/*bursty=*/false);
  RunSeries(/*bursty=*/true);

  // Show the latency side of the tradeoff for one representative run.
  std::printf(
      "\n-- result latency vs delay budget (bursty, single seed) --\n");
  std::printf("%10s %16s %16s\n", "delay_x", "latency_mean(s)",
              "deadline_gap(s)");
  for (double delay_factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    workload::ScenarioConfig scenario_config;
    scenario_config.tuples_per_stream = 1500;
    scenario_config.tuples_per_window = 60.0;
    scenario_config.bursty = true;
    scenario_config.burst.base_rate = 20.0;
    scenario_config.seed = 1;
    auto scenario = workload::BuildPaperScenario(scenario_config);
    DT_CHECK(scenario.ok());

    engine::EngineConfig config;
    config.strategy = triage::SheddingStrategy::kDataTriage;
    config.queue_capacity = 100;
    config.cost_model.delay_factor = delay_factor;

    server::StreamServer server(scenario->catalog);
    auto id = server.RegisterQuery(scenario->query_sql, config);
    DT_CHECK(id.ok()) << id.status().ToString();
    DT_CHECK(server.PushBatch(scenario->events).ok());
    DT_CHECK(server.Finish().ok());
    std::vector<engine::WindowResult> results =
        server.session(*id).TakeResults();
    metrics::MeanStd latency =
        metrics::EmissionLatency(results, scenario->window_seconds);
    std::printf("%10.2f %16.4f %16.4f\n", delay_factor, latency.mean,
                delay_factor * scenario->window_seconds);
  }
}

}  // namespace
}  // namespace datatriage::bench

int main() {
  datatriage::bench::Run();
  return 0;
}
