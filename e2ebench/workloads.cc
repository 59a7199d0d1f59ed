#include "workloads.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/string_util.h"
#include "src/workload/scenario.h"

namespace e2ebench {
namespace {

using dt::engine::EngineConfig;
using dt::triage::DropPolicyKind;
using dt::triage::SheddingStrategy;

constexpr size_t kTenants = 8;
/// giant_join's tiny tenants emit this many windows per giant window, so
/// one replay yields enough windows for a p99 emission lag.
constexpr double kTinyWindowsPerGiant = 40.0;

/// Scheduler workers: four, but together with the pushing thread never
/// more than the host has cores (an oversubscribed pool makes the
/// spinning workers' CPU use, and with it every figure, unsteady).
size_t Workers() {
  const size_t cores = std::max(2u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, cores - 1);
}

/// Per-tenant drop-policy seed, distinct across tenants and workload
/// seeds so co-hosted sessions never pass the output check by being
/// copies of one another.
uint64_t TenantSeed(uint64_t seed, size_t tenant) {
  return seed * 1000003 + 1 + 7919 * static_cast<uint64_t>(tenant);
}

dt::Result<dt::workload::Scenario> PaperFeed(size_t tuples_per_stream,
                                             double tuples_per_window,
                                             double rate_per_stream,
                                             uint64_t seed) {
  dt::workload::ScenarioConfig config;
  config.tuples_per_stream = tuples_per_stream;
  config.tuples_per_window = tuples_per_window;
  config.rate_per_stream = rate_per_stream;
  config.seed = seed;
  return dt::workload::BuildPaperScenario(config);
}

/// The Fig. 7 tenant of the fleet: Data Triage with a grid histogram.
EngineConfig FleetTenant(uint64_t seed, size_t tenant) {
  EngineConfig config;
  config.strategy = SheddingStrategy::kDataTriage;
  config.queue_capacity = 100;
  config.synopsis.type = dt::synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  config.seed = TenantSeed(seed, tenant);
  return config;
}

/// fleet8: 8 Fig. 7 queries over the Fig. 8 constant-rate feed at ~1.5x
/// the engine's virtual capacity (3 x 200 tuples/s against 400/s), 60
/// tuples per stream per window.
dt::Result<Workload> Fleet8(uint64_t seed, bool smoke) {
  DT_ASSIGN_OR_RETURN(dt::workload::Scenario feed,
                      PaperFeed(smoke ? 300 : 8400, 60.0, 200.0, seed));
  Workload w;
  w.catalog = std::move(feed.catalog);
  w.events = std::move(feed.events);
  for (size_t q = 0; q < kTenants; ++q) {
    w.queries.push_back({feed.query_sql, FleetTenant(seed, q)});
  }
  w.options.scheduler.worker_threads = Workers();
  w.paced_events_per_s = 22000.0;
  return w;
}

/// giant_join: one Fig. 7 three-way join over deep windows (drop-only,
/// a queue deeper than a window, and a zero virtual cost so nothing
/// sheds) next to seven tiny single-stream counts, with morsel helpers.
dt::Result<Workload> GiantJoin(uint64_t seed, bool smoke) {
  const double depth = smoke ? 400.0 : 1500.0;
  const size_t windows = smoke ? 2 : 4;
  DT_ASSIGN_OR_RETURN(
      dt::workload::Scenario feed,
      PaperFeed(static_cast<size_t>(depth) * windows, depth, 100.0, seed));
  Workload w;
  w.catalog = std::move(feed.catalog);
  w.events = std::move(feed.events);

  EngineConfig giant;
  giant.strategy = SheddingStrategy::kDropOnly;
  giant.queue_capacity = 8192;
  giant.drop_policy = DropPolicyKind::kDropNewest;
  giant.cost_model.exact_tuple_cost = 0.0;
  giant.cost_model.exact_work_unit_cost = 0.0;
  giant.seed = TenantSeed(seed, 0);
  w.queries.push_back({feed.query_sql, giant});
  for (size_t i = 1; i < kTenants; ++i) {
    EngineConfig tiny;
    tiny.strategy = SheddingStrategy::kDropOnly;
    tiny.queue_capacity = 16 + 4 * i;  // distinct shed patterns
    tiny.drop_policy = DropPolicyKind::kDropNewest;
    tiny.seed = TenantSeed(seed, i);
    w.queries.push_back(
        {dt::StringPrintf("SELECT b, COUNT(*) as count FROM S GROUP BY b; "
                          "WINDOW S['%.9f seconds'];",
                          feed.window_seconds / kTinyWindowsPerGiant),
         tiny});
  }
  w.options.scheduler.worker_threads = Workers();
  w.options.scheduler.intra_session_threads = Workers();
  w.paced_events_per_s = 6000.0;
  return w;
}

/// mem_budget: the fleet with deeper windows under a server-wide state
/// budget, so memory-triggered triage folds buffered windows into their
/// synopses alongside ordinary queue shedding.
dt::Result<Workload> MemBudget(uint64_t seed, bool smoke) {
  DT_ASSIGN_OR_RETURN(dt::workload::Scenario feed,
                      PaperFeed(smoke ? 900 : 40000, 300.0, 200.0, seed));
  Workload w;
  w.catalog = std::move(feed.catalog);
  w.events = std::move(feed.events);
  for (size_t q = 0; q < kTenants; ++q) {
    w.queries.push_back({feed.query_sql, FleetTenant(seed, q)});
  }
  w.options.scheduler.worker_threads = Workers();
  // A 124 KiB share sits just under a session's peak state, so folds are
  // about a quarter of all drops at the seed (96 KiB makes them ~2/3, and
  // 128 KiB all but removes them).
  w.options.memory_budget_bytes = kTenants * 124 * 1024;
  w.paced_events_per_s = 80000.0;
  return w;
}

}  // namespace

dt::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                  bool smoke) {
  dt::Result<Workload> made = dt::Status::InvalidArgument(
      "unknown workload '" + std::string(name) + "'");
  if (name == "fleet8") made = Fleet8(seed, smoke);
  if (name == "giant_join") made = GiantJoin(seed, smoke);
  if (name == "mem_budget") made = MemBudget(seed, smoke);
  if (made.ok()) made->name = std::string(name);
  return made;
}

}  // namespace e2ebench
