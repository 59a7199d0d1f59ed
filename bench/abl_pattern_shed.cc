// Ablation A7 (DESIGN.md §17): utility-aware vs random shedding for
// MATCH pattern queries, in the style of the paper's Fig. 8
// accuracy-vs-load sweep. For each offered rate past the engine's
// standard-case capacity (400 tuples/s), both policies shed from the
// same tiny queue over the same seeded streams; the score is
// detected-match recall against a zero-shed ideal run of the same feed.
// The utility policy (eSPICE-style event scores plus a pSPICE-style
// live-partial bonus) should retain clearly more matches than random
// victims at every overloaded rate — that margin is the whole point of
// utility-aware CEP load shedding.
//
// Results go to stdout and to BENCH_pattern.json, which
// ci/perf_smoke_gate.py checks: utility recall must beat random recall
// at two or more shed rates.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/server/stream_server.h"
#include "src/tuple/tuple.h"
#include "src/triage/drop_policy.h"

namespace datatriage::bench {
namespace {

constexpr int kSeeds = 5;
constexpr double kWindowSeconds = 1.0;
constexpr double kFeedSeconds = 2.0;

constexpr const char* kMatchSql =
    "SELECT * FROM e MATCH (v = 1 THEN v = 2) PARTITION BY key WITHIN "
    "'0.5 seconds' WINDOW e['1 seconds']";

Catalog PatternCatalog() {
  Catalog catalog;
  DT_CHECK(catalog
               .RegisterStream({"e", Schema({{"key", FieldType::kInt64},
                                             {"v", FieldType::kInt64},
                                             {"w", FieldType::kInt64}})})
               .ok());
  return catalog;
}

/// Seeded event stream at `rate` tuples/s: 4 partition keys, v uniform
/// over 0..4 (so 40% of tuples touch a pattern step and 60% are noise).
std::vector<engine::StreamEvent> MakeFeed(uint64_t seed, double rate) {
  Rng rng(seed);
  const size_t n = static_cast<size_t>(rate * kFeedSeconds);
  std::vector<engine::StreamEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values = {Value::Int64(rng.UniformInt(0, 3)),
                                 Value::Int64(rng.UniformInt(0, 4)),
                                 Value::Int64(rng.UniformInt(0, 4))};
    events.push_back(
        {"e", Tuple(std::move(values), static_cast<double>(i) / rate)});
  }
  return events;
}

struct MatchRun {
  /// Per window, multiset of match rows keyed by rendered values.
  std::map<WindowId, std::map<std::string, int>> rows;
  int64_t total_matches = 0;
  double shed_fraction = 0.0;
};

MatchRun RunMatch(const Catalog& catalog,
                  const std::vector<engine::StreamEvent>& events,
                  triage::DropPolicyKind policy, bool ideal) {
  engine::EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDropOnly;
  config.drop_policy = policy;
  if (ideal) {
    config.queue_capacity = events.size() + 16;
    config.cost_model.exact_tuple_cost = 0.0;
    config.cost_model.synopsis_insert_cost = 0.0;
    config.cost_model.exact_work_unit_cost = 0.0;
    config.cost_model.synopsis_work_unit_cost = 0.0;
    config.cost_model.emission_overhead = 0.0;
  } else {
    config.queue_capacity = 8;
  }
  server::StreamServer server(catalog);
  auto id = server.RegisterQuery(kMatchSql, config);
  DT_CHECK(id.ok()) << id.status().ToString();
  const Status pushed = server.PushBatch(events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  const Status finished = server.Finish();
  DT_CHECK(finished.ok()) << finished.ToString();
  server::QuerySession& session = server.session(*id);

  MatchRun run;
  for (const engine::WindowResult& result : session.TakeResults()) {
    std::map<std::string, int>& window = run.rows[result.window];
    for (const Tuple& tuple : result.exact_rows) {
      std::string key;
      for (size_t i = 0; i < tuple.size(); ++i) {
        key += tuple.value(i).ToString();
        key += '|';
      }
      ++window[key];
      ++run.total_matches;
    }
  }
  const engine::EngineStatsSnapshot snapshot = session.StatsSnapshot();
  if (snapshot.core.tuples_ingested > 0) {
    run.shed_fraction =
        static_cast<double>(snapshot.core.tuples_dropped) /
        static_cast<double>(snapshot.core.tuples_ingested);
  }
  if (ideal) {
    DT_CHECK_EQ(snapshot.core.tuples_dropped, 0)
        << "ideal run shed tuples";
  }
  return run;
}

/// Fraction of the ideal run's matches the shedding run retained
/// (per-window multiset intersection over ideal total).
double Recall(const MatchRun& ideal, const MatchRun& actual) {
  if (ideal.total_matches == 0) return 1.0;
  int64_t retained = 0;
  for (const auto& [window, rows] : actual.rows) {
    const auto ideal_it = ideal.rows.find(window);
    if (ideal_it == ideal.rows.end()) continue;
    for (const auto& [row, count] : rows) {
      const auto row_it = ideal_it->second.find(row);
      if (row_it == ideal_it->second.end()) continue;
      retained += std::min(count, row_it->second);
    }
  }
  return static_cast<double>(retained) /
         static_cast<double>(ideal.total_matches);
}

struct PatternPoint {
  double rate = 0.0;
  std::string policy;
  double recall = 0.0;
  double shed_fraction = 0.0;
};

void Run() {
  const Catalog catalog = PatternCatalog();
  // 1.5x to 6x the 400 tuples/s standard-case capacity.
  const double kRates[] = {600.0, 1000.0, 1600.0, 2400.0};
  const triage::DropPolicyKind kPolicies[] = {
      triage::DropPolicyKind::kRandom, triage::DropPolicyKind::kUtility};

  std::printf("Ablation A7: MATCH recall vs offered load, utility vs "
              "random shedding (%d seeds)\n", kSeeds);
  std::printf("%-10s %-10s %10s %10s\n", "rate t/s", "policy", "recall",
              "shed");

  std::vector<PatternPoint> points;
  for (const double rate : kRates) {
    for (const triage::DropPolicyKind policy : kPolicies) {
      double recall_sum = 0.0;
      double shed_sum = 0.0;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const std::vector<engine::StreamEvent> events =
            MakeFeed(static_cast<uint64_t>(seed), rate);
        const MatchRun ideal = RunMatch(catalog, events,
                                        triage::DropPolicyKind::kRandom,
                                        /*ideal=*/true);
        const MatchRun actual =
            RunMatch(catalog, events, policy, /*ideal=*/false);
        recall_sum += Recall(ideal, actual);
        shed_sum += actual.shed_fraction;
      }
      PatternPoint point;
      point.rate = rate;
      point.policy =
          std::string(triage::DropPolicyKindToString(policy));
      point.recall = recall_sum / kSeeds;
      point.shed_fraction = shed_sum / kSeeds;
      std::printf("%-10.0f %-10s %10.4f %10.4f\n", point.rate,
                  point.policy.c_str(), point.recall,
                  point.shed_fraction);
      points.push_back(std::move(point));
    }
  }

  FILE* f = std::fopen("BENCH_pattern.json", "w");
  DT_CHECK(f != nullptr) << "cannot write BENCH_pattern.json";
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const PatternPoint& p = points[i];
    std::fprintf(f,
                 "  {\"name\": \"pattern_shed/rate%.0f/%s\", "
                 "\"recall\": %.6f, \"shed_fraction\": %.6f, "
                 "\"runs\": %d}%s\n",
                 p.rate, p.policy.c_str(), p.recall, p.shed_fraction,
                 kSeeds, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote BENCH_pattern.json (%zu records)\n", points.size());
}

}  // namespace
}  // namespace datatriage::bench

int main() {
  datatriage::bench::Run();
  return 0;
}
