#include "src/sim/scenario_gen.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/io/csv.h"
#include "src/workload/arrival.h"

namespace datatriage::sim {
namespace {

using engine::StreamEvent;
using triage::DropPolicyKind;
using triage::SheddingStrategy;

/// Per-stream generation state kept alongside the catalog entry.
struct StreamPlan {
  std::string name;
  size_t num_columns = 0;
  /// Value domain per column: values are uniform in [0, domain).
  std::vector<int64_t> domains;
};

std::string ColumnName(size_t stream, size_t column) {
  // Globally unique across streams, so unqualified references in
  // generated WHERE / GROUP BY clauses are never ambiguous.
  return StringPrintf("f%zu_%zu", stream, column);
}

std::vector<StreamPlan> GenerateStreams(Rng& rng, Catalog* catalog) {
  const size_t num_streams = static_cast<size_t>(rng.UniformInt(1, 3));
  std::vector<StreamPlan> plans;
  for (size_t i = 0; i < num_streams; ++i) {
    StreamPlan plan;
    plan.name = StringPrintf("s%zu", i);
    plan.num_columns = static_cast<size_t>(rng.UniformInt(2, 4));
    StreamDef def;
    def.name = plan.name;
    for (size_t j = 0; j < plan.num_columns; ++j) {
      // Column 0 shares one small domain across streams so generated
      // equijoins actually match; the rest draw their own widths.
      const int64_t domain = j == 0 ? 16 : rng.UniformInt(4, 48);
      plan.domains.push_back(domain);
      Status added = def.schema.AddField(
          Field{ColumnName(i, j), FieldType::kInt64});
      DT_CHECK(added.ok()) << added.ToString();
    }
    Status registered = catalog->RegisterStream(std::move(def));
    DT_CHECK(registered.ok()) << registered.ToString();
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<StreamEvent> GenerateEvents(
    Rng& rng, const std::vector<StreamPlan>& streams) {
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < streams.size(); ++i) {
    const StreamPlan& plan = streams[i];
    const size_t count = static_cast<size_t>(rng.UniformInt(150, 400));
    const double phase = 0.013 * static_cast<double>(i);
    std::unique_ptr<workload::ArrivalProcess> process;
    if (rng.Bernoulli(0.35)) {
      workload::MarkovBurstConfig burst;
      burst.base_rate = rng.UniformDouble(40.0, 120.0);
      burst.burst_speedup = rng.UniformDouble(3.0, 12.0);
      burst.expected_burst_length =
          static_cast<double>(rng.UniformInt(20, 60));
      auto made =
          workload::MarkovBurstArrivals::Make(burst, rng.Fork(), phase);
      DT_CHECK(made.ok()) << made.status().ToString();
      process = std::move(*made);
    } else {
      auto made = workload::ConstantRateArrivals::Make(
          rng.UniformDouble(60.0, 300.0), phase);
      DT_CHECK(made.ok()) << made.status().ToString();
      process = std::move(*made);
    }
    Rng values(rng.Fork());
    for (const workload::ArrivalSlot& slot :
         workload::TakeArrivals(process.get(), count)) {
      std::vector<Value> row;
      row.reserve(plan.num_columns);
      for (int64_t domain : plan.domains) {
        row.push_back(Value::Int64(values.UniformInt(0, domain - 1)));
      }
      events.push_back(
          StreamEvent{plan.name, Tuple(std::move(row), slot.time)});
    }
  }
  io::SortEventsByTime(&events);
  return events;
}

engine::EngineConfig GenerateConfig(Rng& rng) {
  engine::EngineConfig config;
  const int64_t strategy = rng.UniformInt(0, 9);
  if (strategy < 3) {
    config.strategy = SheddingStrategy::kDropOnly;
  } else if (strategy < 5) {
    config.strategy = SheddingStrategy::kSummarizeOnly;
  } else {
    config.strategy = SheddingStrategy::kDataTriage;
  }
  config.queue_capacity = static_cast<size_t>(rng.UniformInt(8, 160));
  const bool synergistic_ok =
      config.strategy == SheddingStrategy::kDataTriage;
  const int64_t policy = rng.UniformInt(0, synergistic_ok ? 3 : 2);
  config.drop_policy = static_cast<DropPolicyKind>(policy);
  config.synergistic_candidates = static_cast<size_t>(rng.UniformInt(2, 6));
  config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  const int64_t widths[] = {2, 4, 8};
  config.synopsis.grid.cell_width =
      static_cast<double>(widths[rng.UniformInt(0, 2)]);
  config.cost_model.exact_tuple_cost =
      1.0 / static_cast<double>(rng.UniformInt(100, 700));
  config.cost_model.delay_factor = rng.UniformDouble(0.5, 2.0);
  config.seed = rng.Fork();
  // Executor mode fuzzing, derived from the already-drawn seed rather
  // than fresh rng draws so the scenario generation streams of existing
  // seeds stay byte-identical. Roughly half the scenarios run
  // vectorized, and a quarter of those exercise the min-rows threshold
  // (mixed vectorized/scalar windows within one run).
  config.vectorized_exec = (config.seed & 1) != 0;
  static constexpr size_t kMinRowsChoices[] = {0, 0, 16, 64};
  config.vectorized_min_rows =
      config.vectorized_exec ? kMinRowsChoices[(config.seed >> 1) & 3] : 0;
  // Memory-budget fuzzing, same seed-bit idiom: ~1/8 of scenarios run
  // budgeted, spread across tight (memory-triggered triage fires
  // constantly) through roomy (it fires rarely), so the accounting
  // oracle sees both regimes.
  if (((config.seed >> 3) & 7) == 0) {
    static constexpr size_t kBudgetChoices[] = {
        64 * 1024, 96 * 1024, 160 * 1024, 512 * 1024};
    config.memory_budget_bytes = kBudgetChoices[(config.seed >> 6) & 3];
  }
  Status valid = config.Validate();
  DT_CHECK(valid.ok()) << valid.ToString();
  return config;
}

/// Appends the shared WINDOW clause for `streams` to `sql`.
void AppendWindowClause(const SimScenario& scenario,
                        const std::vector<std::string>& streams,
                        std::string* sql) {
  *sql += " WINDOW ";
  for (size_t i = 0; i < streams.size(); ++i) {
    if (i > 0) *sql += ", ";
    if (scenario.window_slide < scenario.window_seconds) {
      *sql += StringPrintf("%s['%.9f seconds', '%.9f seconds']",
                           streams[i].c_str(), scenario.window_seconds,
                           scenario.window_slide);
    } else {
      *sql += StringPrintf("%s['%.9f seconds']", streams[i].c_str(),
                           scenario.window_seconds);
    }
  }
}

/// "agg(col)" selection: COUNT(*) or SUM/AVG/MIN/MAX over a column.
std::string AggregateExpr(Rng& rng, size_t stream, size_t num_columns) {
  const int64_t kind = rng.UniformInt(0, 4);
  if (kind == 0) return "COUNT(*)";
  const char* names[] = {"", "SUM", "AVG", "MIN", "MAX"};
  const size_t col =
      static_cast<size_t>(rng.UniformInt(0, num_columns - 1));
  return StringPrintf("%s(%s)", names[kind],
                      ColumnName(stream, col).c_str());
}

/// Adds ORDER BY over every output column (a total order up to full-row
/// equality, so ties cannot make the comparison flaky) plus an optional
/// LIMIT. Returns true when anything was appended.
bool MaybeAppendPresentation(Rng& rng,
                             const std::vector<std::string>& columns,
                             std::string* sql) {
  bool appended = false;
  if (rng.Bernoulli(0.35)) {
    *sql += " ORDER BY ";
    const bool descending = rng.Bernoulli(0.5);
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) *sql += ", ";
      *sql += columns[i];
      if (i == 0 && descending) *sql += " DESC";
    }
    appended = true;
  }
  if (rng.Bernoulli(0.3)) {
    *sql += StringPrintf(" LIMIT %lld",
                         static_cast<long long>(rng.UniformInt(1, 12)));
    appended = true;
  }
  return appended;
}

SimQuery GenerateQuery(Rng& rng, const SimScenario& scenario,
                       const std::vector<StreamPlan>& streams) {
  SimQuery query;
  query.config = GenerateConfig(rng);

  enum Shape { kSingleAgg, kJoinAgg, kProjection };
  Shape shape;
  if (streams.size() >= 2) {
    const int64_t pick = rng.UniformInt(0, 9);
    shape = pick < 4 ? kSingleAgg : (pick < 7 ? kJoinAgg : kProjection);
  } else {
    shape = rng.Bernoulli(0.6) ? kSingleAgg : kProjection;
  }

  const size_t a = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(streams.size()) - 1));

  if (shape == kProjection) {
    const StreamPlan& s = streams[a];
    const size_t c1 =
        static_cast<size_t>(rng.UniformInt(0, s.num_columns - 1));
    size_t c2 = static_cast<size_t>(rng.UniformInt(0, s.num_columns - 1));
    if (c2 == c1) c2 = (c1 + 1) % s.num_columns;
    query.columns = {ColumnName(a, c1), ColumnName(a, c2)};
    query.streams = {s.name};
    query.sql = StringPrintf("SELECT %s, %s FROM %s",
                             query.columns[0].c_str(),
                             query.columns[1].c_str(), s.name.c_str());
    if (rng.Bernoulli(0.4)) {
      const size_t f =
          static_cast<size_t>(rng.UniformInt(0, s.num_columns - 1));
      query.sql += StringPrintf(
          " WHERE %s >= %lld", ColumnName(a, f).c_str(),
          static_cast<long long>(rng.UniformInt(0, s.domains[f] / 2)));
    }
    query.has_presentation =
        MaybeAppendPresentation(rng, query.columns, &query.sql);
    AppendWindowClause(scenario, query.streams, &query.sql);
    return query;
  }

  // Grouped aggregate, over one stream or a two-stream equijoin.
  query.has_aggregate = true;
  const StreamPlan& lhs = streams[a];
  std::string from = lhs.name;
  std::vector<std::string> predicates;
  size_t agg_stream = a;
  if (shape == kJoinAgg) {
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(streams.size()) - 1));
    if (b == a) b = (a + 1) % streams.size();
    const StreamPlan& rhs = streams[b];
    from += ", " + rhs.name;
    predicates.push_back(StringPrintf(
        "%s.%s = %s.%s", lhs.name.c_str(), ColumnName(a, 0).c_str(),
        rhs.name.c_str(), ColumnName(b, 0).c_str()));
    query.streams = {lhs.name, rhs.name};
    if (rng.Bernoulli(0.5)) agg_stream = b;
  } else {
    query.streams = {lhs.name};
  }

  const StreamPlan& agg_source = streams[agg_stream];
  const size_t group_col =
      static_cast<size_t>(rng.UniformInt(0, agg_source.num_columns - 1));
  std::string group_by = ColumnName(agg_stream, group_col);
  query.columns = {group_by};
  query.num_group_columns = 1;
  if (agg_source.num_columns >= 3 && rng.Bernoulli(0.3)) {
    size_t second =
        static_cast<size_t>(rng.UniformInt(0, agg_source.num_columns - 1));
    if (second == group_col) second = (group_col + 1) % agg_source.num_columns;
    group_by += ", " + ColumnName(agg_stream, second);
    query.columns.push_back(ColumnName(agg_stream, second));
    query.num_group_columns = 2;
  }
  const std::string agg =
      AggregateExpr(rng, agg_stream, agg_source.num_columns);
  query.columns.push_back("agg0");

  if (rng.Bernoulli(0.4)) {
    const size_t f =
        static_cast<size_t>(rng.UniformInt(0, lhs.num_columns - 1));
    predicates.push_back(StringPrintf(
        "%s >= %lld", ColumnName(a, f).c_str(),
        static_cast<long long>(rng.UniformInt(0, lhs.domains[f] / 2))));
  }

  query.sql = StringPrintf("SELECT %s, %s AS agg0 FROM %s",
                           group_by.c_str(), agg.c_str(), from.c_str());
  for (size_t i = 0; i < predicates.size(); ++i) {
    query.sql += (i == 0 ? " WHERE " : " AND ") + predicates[i];
  }
  query.sql += " GROUP BY " + group_by;
  if (rng.Bernoulli(0.25)) {
    query.sql += StringPrintf(" HAVING agg0 >= %lld",
                              static_cast<long long>(rng.UniformInt(1, 3)));
    query.has_presentation = true;
  }
  if (MaybeAppendPresentation(rng, query.columns, &query.sql)) {
    query.has_presentation = true;
  }
  AppendWindowClause(scenario, query.streams, &query.sql);
  return query;
}

void GenerateFaults(Rng& rng, VirtualTime t_end, SimScenario* scenario) {
  scenario->use_faults = rng.Bernoulli(0.6);
  // Draw every knob unconditionally so the downstream draw sequence does
  // not depend on use_faults — keeps the generator easy to reason about.
  server::SimFaults& faults = scenario->faults;
  if (rng.Bernoulli(0.5)) {
    faults.force_overflow = true;
    faults.overflow_from = rng.UniformDouble(0.1, 0.6) * t_end;
    faults.overflow_to =
        faults.overflow_from + rng.UniformDouble(0.05, 0.3) * t_end;
  }
  if (rng.Bernoulli(0.4)) {
    faults.stall_seconds = rng.UniformDouble(0.002, 0.02);
    faults.stall_from = rng.UniformDouble(0.0, 0.5) * t_end;
    faults.stall_to =
        faults.stall_from + rng.UniformDouble(0.1, 0.4) * t_end;
  }
  faults.sharding =
      static_cast<server::SimFaults::Sharding>(rng.UniformInt(0, 2));
  if (rng.Bernoulli(0.3)) {
    const size_t rings[] = {2, 4, 8, 16};
    faults.task_queue_capacity_override = rings[rng.UniformInt(0, 3)];
  }
  if (rng.Bernoulli(0.3)) {
    faults.dispatch_yield_every =
        static_cast<uint64_t>(rng.UniformInt(1, 8));
  }
}

}  // namespace

SimScenario GenerateScenario(uint64_t seed) {
  SimScenario scenario;
  scenario.seed = seed;
  Rng rng(seed);

  const std::vector<StreamPlan> streams =
      GenerateStreams(rng, &scenario.catalog);
  scenario.events = GenerateEvents(rng, streams);
  DT_CHECK(!scenario.events.empty());
  const VirtualTime t_end = scenario.events.back().tuple.timestamp();

  // Window geometry: aim for a few dozen tuples per window so each run
  // emits several windows without drowning the scenario in emissions.
  const double target_per_window =
      static_cast<double>(rng.UniformInt(25, 90));
  const double total = static_cast<double>(scenario.events.size());
  scenario.window_seconds =
      std::clamp(t_end * target_per_window / total, 0.05, 10.0);
  scenario.window_slide = scenario.window_seconds;
  if (rng.Bernoulli(0.3)) {
    scenario.window_slide =
        scenario.window_seconds / static_cast<double>(rng.UniformInt(2, 3));
  }
  // Snap the geometry to the precision the SQL WINDOW clause renders at
  // (%.9f). The engine runs on the *parsed* durations, the offline ideal
  // on these fields; if they differ in the 10th decimal, tuples near
  // window boundaries land in different windows and the zero-RMS oracle
  // reports phantom drift (fuzz seed 149 caught exactly that).
  const auto snap = [](double seconds) {
    return std::strtod(StringPrintf("%.9f", seconds).c_str(), nullptr);
  };
  scenario.window_seconds = snap(scenario.window_seconds);
  scenario.window_slide = snap(scenario.window_slide);

  const size_t num_queries = static_cast<size_t>(rng.UniformInt(1, 3));
  for (size_t i = 0; i < num_queries; ++i) {
    scenario.queries.push_back(GenerateQuery(rng, scenario, streams));
  }

  GenerateFaults(rng, t_end, &scenario);

  scenario.events_to_push = scenario.events.size();
  if (rng.Bernoulli(0.2)) {
    scenario.events_to_push = std::max<size_t>(
        1, static_cast<size_t>(rng.UniformDouble(0.3, 0.9) *
                               static_cast<double>(scenario.events.size())));
  }
  scenario.inject_poison_batch = rng.Bernoulli(0.25);
  const size_t batch_sizes[] = {0, 1, 32, 128};
  scenario.push_batch_size = batch_sizes[rng.UniformInt(0, 3)];

  // Churn plan (DESIGN.md Sec. 14), drawn after every pre-existing draw
  // so the scenario streams of existing seeds stay byte-identical. Query
  // 0 is pinned resident for the whole run: the feed is never pushed
  // into a zero-live-session server, and the snapshot oracle always has
  // a session that spans the full feed. Every knob is drawn
  // unconditionally (the GenerateFaults idiom) so the draw sequence does
  // not depend on which ops were selected.
  const size_t push_count = scenario.events_to_push;
  for (size_t i = 1; i < scenario.queries.size(); ++i) {
    SimQuery& query = scenario.queries[i];
    const bool join_late = rng.Bernoulli(0.35);
    const bool leave_early = rng.Bernoulli(0.3);
    const size_t join_at = static_cast<size_t>(
        rng.UniformDouble(0.15, 0.7) * static_cast<double>(push_count));
    const size_t leave_at = static_cast<size_t>(
        rng.UniformDouble(0.5, 0.95) * static_cast<double>(push_count));
    if (join_late && join_at > 0) query.register_at_event = join_at;
    if (leave_early && leave_at > query.register_at_event &&
        leave_at < push_count) {
      query.unregister_at_event = leave_at;
    }
  }
  // Snapshot session 0 mid-run on every 4th seed, plus a random extra
  // cohort — CI's round-trip smoke rides on these scenarios.
  const bool snapshot_drawn = rng.Bernoulli(0.2);
  const size_t snapshot_at = static_cast<size_t>(
      rng.UniformDouble(0.25, 0.75) * static_cast<double>(push_count));
  if ((seed % 4 == 0 || snapshot_drawn) && snapshot_at > 0 &&
      snapshot_at < push_count) {
    scenario.snapshot_at_event = snapshot_at;
  }
  // Scheduler fuzzing (DESIGN.md §16), seed-bit idiom so the rng draw
  // sequence of existing seeds stays byte-identical: ~1/4 of scenarios
  // turn on intra-session morsels. worker_threads stays 0 here — the
  // runner sweeps worker counts itself — but the morsel fan-out rides
  // in the scenario so every oracle sees it.
  if ((seed & 3) == 2) {
    scenario.options.scheduler.intra_session_threads = 1 + ((seed >> 4) & 3);
  }
  // MATCH pattern cohort (DESIGN.md §17), ~1/4 of seeds: one query is
  // rewritten into a pattern query. The conversion draws nothing from
  // the rng (pure function of seed bits), so every pre-existing seed's
  // draw sequence — and therefore every other query of the scenario —
  // stays byte-identical.
  if (((seed >> 7) & 3) == 1) {
    ConvertToPatternQuery(&scenario,
                          (seed >> 9) % scenario.queries.size());
  }
  return scenario;
}

void ConvertToPatternQuery(SimScenario* scenario, size_t query_index) {
  DT_CHECK_LT(query_index, scenario->queries.size());
  SimQuery& query = scenario->queries[query_index];
  // splitmix64-style bit mix of (seed, index): deterministic, distinct
  // per query, and independent of the generator's rng draw order.
  uint64_t bits =
      scenario->seed + 0x9e3779b97f4a7c15ull * (query_index + 1);
  bits ^= bits >> 30;
  bits *= 0xbf58476d1ce4e5b9ull;
  bits ^= bits >> 27;
  bits *= 0x94d049bb133111ebull;
  bits ^= bits >> 31;

  const size_t num_streams = scenario->catalog.num_streams();
  DT_CHECK_GT(num_streams, 0u);
  const size_t stream_index = bits % num_streams;
  const std::string stream = StringPrintf("s%zu", stream_index);
  auto def = scenario->catalog.GetStream(stream);
  DT_CHECK(def.ok()) << def.status().ToString();
  const size_t num_columns = def->schema.num_fields();
  DT_CHECK_GE(num_columns, 2u);
  const size_t k = 2 + ((bits >> 8) & 1);  // 2 or 3 steps

  // Step predicates over the non-key columns (column 0 partitions; its
  // shared 16-value domain makes key collisions routine). Thresholds
  // stay <= 3, valid for every generated domain (>= 4), with mixed
  // forms so steps span selective and permissive.
  std::string match = " MATCH (";
  for (size_t j = 0; j < k; ++j) {
    if (j > 0) match += " THEN ";
    const uint64_t step_bits = bits >> (10 + 6 * j);
    const size_t col = 1 + (step_bits % (num_columns - 1));
    const std::string name = ColumnName(stream_index, col);
    switch ((step_bits >> 2) % 3) {
      case 0:
        match += StringPrintf("%s >= %llu", name.c_str(),
                              static_cast<unsigned long long>(
                                  1 + ((step_bits >> 4) & 1)));
        break;
      case 1:
        match += StringPrintf("%s < %llu", name.c_str(),
                              static_cast<unsigned long long>(
                                  2 + ((step_bits >> 4) & 1)));
        break;
      default:
        match += StringPrintf("%s = %llu", name.c_str(),
                              static_cast<unsigned long long>(
                                  (step_bits >> 4) & 3));
        break;
    }
  }
  static constexpr double kWithinFractions[] = {0.3, 0.5, 0.8, 1.0};
  const double within =
      scenario->window_seconds * kWithinFractions[(bits >> 32) & 3];
  match += StringPrintf(") PARTITION BY %s WITHIN '%.9f seconds'",
                        ColumnName(stream_index, 0).c_str(), within);

  query.sql = "SELECT * FROM " + stream + match;
  query.streams = {stream};
  query.columns = {"key"};
  for (size_t j = 0; j < k; ++j) {
    query.columns.push_back(StringPrintf("t%zu", j + 1));
  }
  query.has_aggregate = false;
  query.has_presentation = false;
  query.num_group_columns = 0;
  query.is_pattern = true;
  // Pattern queries run exact-over-kept only: no synopsis side, shed by
  // the utility policy (half the cohort) or random.
  query.config.strategy = SheddingStrategy::kDropOnly;
  query.config.drop_policy = ((bits >> 34) & 1) != 0
                                 ? DropPolicyKind::kUtility
                                 : DropPolicyKind::kRandom;
  AppendWindowClause(*scenario, query.streams, &query.sql);
  Status valid = query.config.Validate();
  DT_CHECK(valid.ok()) << valid.ToString();
}

std::string Describe(const SimScenario& scenario) {
  std::string out = StringPrintf(
      "scenario seed=%llu: %zu events on %zu stream(s), window=%.6fs "
      "slide=%.6fs, push=%zu/%zu batch=%zu poison=%d\n",
      static_cast<unsigned long long>(scenario.seed),
      scenario.events.size(), scenario.catalog.num_streams(),
      scenario.window_seconds, scenario.window_slide,
      scenario.events_to_push, scenario.events.size(),
      scenario.push_batch_size, scenario.inject_poison_batch ? 1 : 0);
  if (scenario.snapshot_at_event != SIZE_MAX) {
    out += StringPrintf("  snapshot: session 0 before event %zu\n",
                        scenario.snapshot_at_event);
  }
  const size_t intra = scenario.options.scheduler.intra_session_threads;
  if (intra > 0) {
    out += StringPrintf("  scheduler: intra=%zu\n", intra);
  }
  for (size_t i = 0; i < scenario.queries.size(); ++i) {
    const SimQuery& q = scenario.queries[i];
    if (q.register_at_event > 0 || q.unregister_at_event != SIZE_MAX) {
      out += StringPrintf("  churn: query %zu registers at %zu", i,
                          q.register_at_event);
      if (q.unregister_at_event != SIZE_MAX) {
        out += StringPrintf(", unregisters before event %zu",
                            q.unregister_at_event);
      }
      out += "\n";
    }
    out += StringPrintf(
        "  query %zu [%s cap=%zu policy=%s]: %s\n", i,
        std::string(triage::SheddingStrategyToString(q.config.strategy))
            .c_str(),
        q.config.queue_capacity,
        std::string(triage::DropPolicyKindToString(q.config.drop_policy))
            .c_str(),
        q.sql.c_str());
  }
  if (scenario.use_faults) {
    const server::SimFaults& f = scenario.faults;
    out += StringPrintf(
        "  faults: overflow=%d[%.3f,%.3f) stall=%.4fs[%.3f,%.3f) "
        "sharding=%d ring_override=%zu yield_every=%llu\n",
        f.force_overflow ? 1 : 0, f.overflow_from, f.overflow_to,
        f.stall_seconds, f.stall_from, f.stall_to,
        static_cast<int>(f.sharding), f.task_queue_capacity_override,
        static_cast<unsigned long long>(f.dispatch_yield_every));
  } else {
    out += "  faults: none\n";
  }
  return out;
}

}  // namespace datatriage::sim
