#ifndef DATATRIAGE_WORKLOAD_SCENARIO_H_
#define DATATRIAGE_WORKLOAD_SCENARIO_H_

#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/engine/config.h"
#include "src/workload/arrival.h"
#include "src/workload/generator.h"

namespace datatriage::workload {

/// Parameters of the paper's experimental setup (Sec. 6.2): the Fig. 7
/// query over streams R(a), S(b,c), T(d); Gaussian integer data in
/// [1, 100]; constant or two-state-Markov bursty arrivals; window length
/// scaled inversely with data rate so tuples-per-window stays constant.
struct ScenarioConfig {
  /// Number of tuples generated per stream.
  size_t tuples_per_stream = 3000;

  /// Expected tuples per stream per window; the window length is derived
  /// as tuples_per_window / mean_rate ("we scaled the size of our time
  /// windows with data arrival rate", Sec. 6.2.2).
  double tuples_per_window = 100.0;

  /// When false: constant arrivals at `rate_per_stream` tuples/sec per
  /// stream. When true: Markov bursts with `burst` (whose base_rate is
  /// the knob the bursty sweep varies).
  bool bursty = false;
  double rate_per_stream = 100.0;
  MarkovBurstConfig burst;

  /// Column distributions: all fields share these (paper Sec. 6.2.1).
  GaussianColumnSpec normal_spec{50.0, 15.0, 1.0, 100.0, true};
  /// Burst tuples come from a shifted Gaussian (Sec. 6.2.2).
  GaussianColumnSpec burst_spec{25.0, 10.0, 1.0, 100.0, true};

  /// Master seed; stream generators and arrival processes fork from it.
  uint64_t seed = 1;
};

/// A fully materialized experiment input.
struct Scenario {
  Catalog catalog;
  /// The paper's Fig. 7 query with windows sized per the config.
  std::string query_sql;
  /// Merged, time-ordered arrivals across the three streams.
  std::vector<engine::StreamEvent> events;
  VirtualDuration window_seconds = 1.0;
  /// Mean aggregate input rate across all streams (tuples/sec), the
  /// x-axis quantity of Figs. 8-9.
  double aggregate_rate = 0.0;
};

/// Builds the paper's three-stream scenario.
Result<Scenario> BuildPaperScenario(const ScenarioConfig& config);

}  // namespace datatriage::workload

#endif  // DATATRIAGE_WORKLOAD_SCENARIO_H_
