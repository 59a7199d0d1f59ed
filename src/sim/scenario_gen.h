#ifndef DATATRIAGE_SIM_SCENARIO_GEN_H_
#define DATATRIAGE_SIM_SCENARIO_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/virtual_time.h"
#include "src/engine/config.h"
#include "src/server/sim_faults.h"

namespace datatriage::sim {

/// One generated query: random-but-valid SQL from the supported subset
/// (windowed equijoins, filters, grouped aggregates, HAVING / ORDER BY /
/// LIMIT) plus a random EngineConfig, ready to register on a
/// StreamServer, co-hosted or alone.
struct SimQuery {
  std::string sql;
  engine::EngineConfig config;
  /// Result column labels, for io::FormatResultsCsv.
  std::vector<std::string> columns;
  /// Catalog streams the query reads (FROM-clause streams).
  std::vector<std::string> streams;
  size_t num_group_columns = 0;
  bool has_aggregate = false;
  /// MATCH pattern query (DESIGN.md §17). Pattern queries run drop-only
  /// (the synopsis algebra cannot represent match subsequences) and are
  /// covered by the pattern-monotonicity oracle instead of the RMS
  /// accuracy oracle.
  bool is_pattern = false;
  // --- Churn plan (DESIGN.md Sec. 14) ---------------------------------
  /// Event index at which the query registers: 0 registers up front,
  /// i > 0 registers mid-stream immediately before event i is pushed
  /// (the session then observes only whole windows from its admission
  /// horizon on). Query 0 is always 0 — the server never runs with zero
  /// live sessions.
  size_t register_at_event = 0;
  /// Event index immediately before which the session is unregistered
  /// (drained + detached); SIZE_MAX = stays resident to the end. Always
  /// > register_at_event when set.
  size_t unregister_at_event = SIZE_MAX;
  /// HAVING / ORDER BY / LIMIT present. Presentation clauses reshape
  /// per-window rows, so the accuracy oracles (which compare against the
  /// clause-free ideal evaluation) skip these queries; the differential
  /// byte-equivalence oracles still cover them.
  bool has_presentation = false;

  /// Eligible for the ideal / RMS accuracy oracles.
  bool AccuracyEligible() const {
    return has_aggregate && !has_presentation;
  }
};

/// One seeded scenario: everything a simulation run needs, derived
/// deterministically from the seed alone. Two processes generating the
/// same seed get byte-identical scenarios — that is what makes
/// `sim_main --replay-seed S` a complete reproduction.
struct SimScenario {
  uint64_t seed = 0;
  Catalog catalog;
  /// The interleaved event feed, time-sorted, non-decreasing timestamps.
  std::vector<engine::StreamEvent> events;
  std::vector<SimQuery> queries;
  /// Shared window geometry (every query of the scenario uses it).
  VirtualDuration window_seconds = 1.0;
  VirtualDuration window_slide = 1.0;  // == window_seconds when tumbling
  engine::StreamServerOptions options;

  // --- Fault plan -------------------------------------------------------
  /// Whether this scenario wires scenario.faults into the server (the
  /// runner's --no-faults flag overrides this to off).
  bool use_faults = false;
  server::SimFaults faults;
  /// Number of leading events actually pushed; < events.size() simulates
  /// a mid-stream Finish (the rest of the feed is never delivered).
  size_t events_to_push = 0;
  /// Push one deliberately invalid batch (non-finite timestamp) midway:
  /// it must bounce with InvalidArgument and, batch-atomically, leave
  /// every session byte-identical to a run that never saw it.
  bool inject_poison_batch = false;
  /// 0 pushes event by event; N > 0 pushes PushBatch chunks of N.
  size_t push_batch_size = 0;
  /// Event index immediately before which session 0 is snapshotted
  /// (SnapshotSession is non-invasive, so the run's outputs are
  /// unchanged); SIZE_MAX = no snapshot. The runner's snapshot oracle
  /// restores the bytes into a fresh server, replays the remaining feed,
  /// and demands byte-identical outputs; the bytes themselves must also
  /// be identical across worker counts.
  size_t snapshot_at_event = SIZE_MAX;
};

/// Derives a full scenario from `seed`. Pure function of the seed.
SimScenario GenerateScenario(uint64_t seed);

/// Rewrites query `query_index` of a generated scenario into a MATCH
/// pattern query — random 2–3 step pattern over the query's stream,
/// PARTITION BY its column 0, WITHIN a fraction of the window, shed by
/// the utility or random drop policy. Deterministic in
/// (scenario.seed, query_index) with no rng-stream draws, so the
/// runner's --force-pattern-queries override is a pure function of the
/// replay command; GenerateScenario uses it for the organic pattern
/// cohort (~1/4 of seeds).
void ConvertToPatternQuery(SimScenario* scenario, size_t query_index);

/// Human-readable summary (streams, queries, faults) for failure reports.
std::string Describe(const SimScenario& scenario);

}  // namespace datatriage::sim

#endif  // DATATRIAGE_SIM_SCENARIO_GEN_H_
