// The benchmark's workloads: seeded, fully materialized inputs for one
// StreamServer deployment each. Every event is generated before any
// timing starts; the library only ever sees the generated events.
#ifndef DATATRIAGE_E2EBENCH_WORKLOADS_H_
#define DATATRIAGE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/result.h"
#include "src/engine/config.h"

namespace e2ebench {

namespace dt = datatriage;

/// One registered continuous query of a workload.
struct QuerySpec {
  std::string sql;
  dt::engine::EngineConfig config;
};

/// Events per PushBatch call in saturating and traced replays.
inline constexpr size_t kPushChunk = 256;

struct Workload {
  std::string name;
  dt::Catalog catalog;
  std::vector<QuerySpec> queries;
  /// Time-ordered arrivals across all streams.
  std::vector<dt::engine::StreamEvent> events;
  /// The measured deployment (worker pool, server budget). The serial
  /// reference run uses the same options with no workers.
  dt::engine::StreamServerOptions options;
  /// Offered wall-clock rate of the paced (open-loop) replay, in events
  /// per second: about half the saturating throughput at the seed.
  double paced_events_per_s = 0.0;
};

/// Builds workload `name` from `seed`. `smoke` selects tiny sizes for the
/// benchmark's own self-test. The same (name, seed, smoke) always yields
/// the same catalog, queries, and events.
dt::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                  bool smoke);

}  // namespace e2ebench

#endif  // DATATRIAGE_E2EBENCH_WORKLOADS_H_
