// dtcli — run Data Triage continuous queries over a CSV event file.
//
//   dtcli [options] <script.sql> <events.csv>
//
// The SQL script contains CREATE STREAM statements followed by any
// number of continuous queries; more queries can be added with repeated
// --query flags. All queries (at least one, counting both sources) run
// together on one StreamServer over a single pass of the event feed.
// The events file has one arrival per line: `stream,timestamp,v1,v2,...`
// (see src/io/csv.h). Per-window results are written to stdout as CSV,
// with one `exact` row per exact result tuple and one `merged` row per
// composite (exact + estimated) tuple.
//
// With one query, output/--stats/--metrics-json keep the legacy
// single-engine format exactly. With several, stdout carries one
// `# query <i>` section per session, --stats lines are scoped
// with the `session.<i>.` metric prefix (DESIGN.md Sec. 10), and
// --metrics-json writes the combined StreamServer export.
//
// Options:
//   --query=SQL         add a continuous query (repeatable)
//   --strategy=data_triage|drop_only|summarize_only   (default data_triage)
//   --synopsis=grid|mhist|aligned_mhist|reservoir|exact (default grid)
//   --cell-width=W      grid cell width            (default 4)
//   --buckets=N         MHIST bucket budget        (default 64)
//   --reservoir=N       reservoir capacity         (default 64)
//   --queue-capacity=N  triage queue slots         (default 100)
//   --memory-budget=B   per-session memory budget in bytes (default 0 =
//                       unbounded). Over budget, the session folds its
//                       coldest buffered window into the synopsis and
//                       counts the evictions under the memory_shed drop
//                       cause (DESIGN.md §15). Minimum 65536
//   --workers=N         worker threads session execution is scheduled
//                       across; 0 = serial (default). Per-query output
//                       is byte-identical at any setting (DESIGN.md §11)
//   --intra-session-threads=N
//                       threads cooperating on one session's join /
//                       aggregation kernels, including the session's
//                       own worker (0 or 1 = off). Requires --workers
//                       >= 1; morsel partials merge deterministically,
//                       so results stay byte-identical (DESIGN.md §16.2)
//   --register-at=I:T   rolling deployment: hold query I back and
//                       register it mid-stream, just before the first
//                       event with timestamp >= T. It observes only
//                       whole windows from the next window boundary
//                       after the arrival clock (DESIGN.md §14)
//   --unregister-at=I:T retire query I just before the first event with
//                       timestamp >= T: its queued tuples drain, its
//                       in-flight windows emit, and its results/stats
//                       stay readable at the end of the run
//   --drop-policy=random|drop_newest|drop_oldest|synergistic|utility
//   --seed=N            drop-policy seed           (default 1)
//   --scalar-exec       run windows on the tuple-at-a-time reference
//                       executor instead of the vectorized columnar one
//                       (results are byte-identical; escape hatch for
//                       differential debugging and perf comparison)
//   --sort-events       time-sort the event file before feeding
//   --show-rewrite      print the rewritten SQL (paper Figs. 4-5) and exit
//   --stats             print run statistics to stderr, including each
//                       memory component's peak accounted bytes and
//                       (under a budget) the memory_shed drop counts
//   --metrics-json=PATH write the obs metrics registry + per-window
//                       trace as JSON (schema: DESIGN.md Sec. 9.3);
//                       `--metrics-json PATH` also works
//
// Example:
//   ./build/examples/dtcli --stats script.sql events.csv > results.csv

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/io/csv.h"
#include "src/obs/export.h"
#include "src/rewrite/sql_emitter.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"

namespace {

using datatriage::Catalog;
using datatriage::Schema;
using datatriage::Status;

int Fail(const std::string& message) {
  std::fprintf(stderr, "dtcli: %s\n", message.c_str());
  return 1;
}

bool ConsumeFlag(const std::string& arg, const std::string& name,
                 std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// One --register-at / --unregister-at op: applied just before the first
/// event with timestamp >= time.
struct LifecycleOp {
  double time = 0.0;
  size_t query = 0;
  bool is_register = false;
};

bool ParseLifecycleOp(const std::string& value, bool is_register,
                      std::vector<LifecycleOp>* ops) {
  const size_t colon = value.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= value.size()) {
    return false;
  }
  LifecycleOp op;
  op.query = static_cast<size_t>(std::atoll(value.substr(0, colon).c_str()));
  op.time = std::atof(value.substr(colon + 1).c_str());
  op.is_register = is_register;
  ops->push_back(op);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  datatriage::engine::EngineConfig config;
  datatriage::engine::StreamServerOptions server_options;
  config.queue_capacity = 100;
  std::string synopsis_kind = "grid";
  std::string metrics_json_path;
  bool show_rewrite = false, print_stats = false, sort_events = false;
  std::vector<std::string> positional;
  std::vector<std::string> query_flags;
  std::vector<LifecycleOp> lifecycle_ops;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ConsumeFlag(arg, "query", &value)) {
      query_flags.push_back(value);
    } else if (arg == "--query" && i + 1 < argc) {
      query_flags.push_back(argv[++i]);
    } else if (ConsumeFlag(arg, "strategy", &value)) {
      auto strategy = datatriage::triage::SheddingStrategyFromString(value);
      if (!strategy.ok()) return Fail(strategy.status().ToString());
      config.strategy = strategy.value();
    } else if (ConsumeFlag(arg, "synopsis", &value)) {
      synopsis_kind = value;
    } else if (ConsumeFlag(arg, "cell-width", &value)) {
      config.synopsis.grid.cell_width = std::atof(value.c_str());
    } else if (ConsumeFlag(arg, "buckets", &value)) {
      config.synopsis.mhist.max_buckets =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "reservoir", &value)) {
      config.synopsis.reservoir.capacity =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "queue-capacity", &value)) {
      config.queue_capacity =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "memory-budget", &value)) {
      config.memory_budget_bytes =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "workers", &value)) {
      server_options.scheduler.worker_threads =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "intra-session-threads", &value)) {
      server_options.scheduler.intra_session_threads =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "seed", &value)) {
      config.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ConsumeFlag(arg, "drop-policy", &value)) {
      if (value == "random") {
        config.drop_policy = datatriage::triage::DropPolicyKind::kRandom;
      } else if (value == "drop_newest") {
        config.drop_policy =
            datatriage::triage::DropPolicyKind::kDropNewest;
      } else if (value == "drop_oldest") {
        config.drop_policy =
            datatriage::triage::DropPolicyKind::kDropOldest;
      } else if (value == "synergistic") {
        config.drop_policy =
            datatriage::triage::DropPolicyKind::kSynergistic;
      } else if (value == "utility") {
        // Utility-aware CEP shedding (DESIGN.md §17); the query must be
        // a MATCH pattern query, which the engine checks at registration.
        config.drop_policy =
            datatriage::triage::DropPolicyKind::kUtility;
      } else {
        return Fail("unknown drop policy '" + value + "'");
      }
    } else if (ConsumeFlag(arg, "register-at", &value)) {
      if (!ParseLifecycleOp(value, /*is_register=*/true, &lifecycle_ops)) {
        return Fail("--register-at wants <query>:<time>, got '" + value +
                    "'");
      }
    } else if (ConsumeFlag(arg, "unregister-at", &value)) {
      if (!ParseLifecycleOp(value, /*is_register=*/false,
                            &lifecycle_ops)) {
        return Fail("--unregister-at wants <query>:<time>, got '" + value +
                    "'");
      }
    } else if (ConsumeFlag(arg, "metrics-json", &value)) {
      metrics_json_path = value;
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (arg == "--show-rewrite") {
      show_rewrite = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--sort-events") {
      sort_events = true;
    } else if (arg == "--scalar-exec") {
      config.vectorized_exec = false;
      config.vectorized_min_rows = 0;
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown option '" + arg + "' (see header comment)");
    } else {
      positional.push_back(arg);
    }
  }
  if (synopsis_kind == "grid") {
    config.synopsis.type =
        datatriage::synopsis::SynopsisType::kGridHistogram;
  } else if (synopsis_kind == "mhist") {
    config.synopsis.type = datatriage::synopsis::SynopsisType::kMHist;
  } else if (synopsis_kind == "aligned_mhist") {
    config.synopsis.type =
        datatriage::synopsis::SynopsisType::kAlignedMHist;
  } else if (synopsis_kind == "reservoir") {
    config.synopsis.type =
        datatriage::synopsis::SynopsisType::kReservoirSample;
  } else if (synopsis_kind == "exact") {
    config.synopsis.type = datatriage::synopsis::SynopsisType::kExact;
  } else {
    return Fail("unknown synopsis kind '" + synopsis_kind + "'");
  }
  if (positional.size() != 2) {
    return Fail("usage: dtcli [options] <script.sql> <events.csv>");
  }

  // --- Load and split the script: CREATE STREAMs + queries, then any
  // --query flags (session ids follow that order).
  auto script_text = datatriage::io::ReadFileToString(positional[0]);
  if (!script_text.ok()) return Fail(script_text.status().ToString());
  auto statements = datatriage::sql::ParseScript(*script_text);
  if (!statements.ok()) return Fail(statements.status().ToString());

  Catalog catalog;
  std::vector<const datatriage::sql::Statement*> query_statements;
  for (const datatriage::sql::Statement& statement : *statements) {
    if (statement.kind ==
        datatriage::sql::Statement::Kind::kCreateStream) {
      Schema schema;
      for (const auto& column : statement.create_stream->columns) {
        if (Status s = schema.AddField({column.name, column.type});
            !s.ok()) {
          return Fail(s.ToString());
        }
      }
      if (Status s = catalog.RegisterStream(
              {statement.create_stream->name, std::move(schema)});
          !s.ok()) {
        return Fail(s.ToString());
      }
    } else {
      query_statements.push_back(&statement);
    }
  }

  std::vector<datatriage::sql::Statement> flag_statements;
  flag_statements.reserve(query_flags.size());
  for (const std::string& sql : query_flags) {
    auto statement = datatriage::sql::ParseStatement(sql);
    if (!statement.ok()) return Fail(statement.status().ToString());
    flag_statements.push_back(std::move(statement).value());
  }
  for (const datatriage::sql::Statement& statement : flag_statements) {
    query_statements.push_back(&statement);
  }
  if (query_statements.empty()) {
    return Fail("no query: the script has none and no --query was given");
  }

  std::vector<datatriage::plan::BoundQuery> bound_queries;
  for (const datatriage::sql::Statement* statement : query_statements) {
    auto bound = datatriage::plan::BindStatement(*statement, catalog);
    if (!bound.ok()) return Fail(bound.status().ToString());
    bound_queries.push_back(std::move(bound).value());
  }
  const size_t num_queries = bound_queries.size();

  if (show_rewrite) {
    for (size_t i = 0; i < num_queries; ++i) {
      auto triaged = datatriage::rewrite::RewriteForDataTriage(
          std::move(bound_queries[i]));
      if (!triaged.ok()) return Fail(triaged.status().ToString());
      auto script = datatriage::rewrite::EmitRewrittenScript(catalog,
                                                             *triaged);
      if (!script.ok()) return Fail(script.status().ToString());
      if (num_queries > 1) {
        std::printf("%s-- query %zu\n", i == 0 ? "" : "\n", i);
      }
      std::printf("%s", script->c_str());
    }
    return 0;
  }

  // --- Events.
  auto events_text = datatriage::io::ReadFileToString(positional[1]);
  if (!events_text.ok()) return Fail(events_text.status().ToString());
  auto events = datatriage::io::ParseEventsCsv(*events_text, catalog);
  if (!events.ok()) return Fail(events.status().ToString());
  if (sort_events) datatriage::io::SortEventsByTime(&events.value());

  // --- Run: every query as one session on a shared StreamServer.
  std::vector<std::vector<std::string>> column_names(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    for (const datatriage::Field& f :
         bound_queries[i].plan->schema().fields()) {
      column_names[i].push_back(f.name);
    }
  }
  if (Status s = server_options.Validate(); !s.ok()) {
    return Fail(s.ToString());
  }
  for (const LifecycleOp& op : lifecycle_ops) {
    if (op.query >= num_queries) {
      return Fail("lifecycle op names query " + std::to_string(op.query) +
                  " but only " + std::to_string(num_queries) +
                  " queries are defined");
    }
  }
  std::stable_sort(lifecycle_ops.begin(), lifecycle_ops.end(),
                   [](const LifecycleOp& a, const LifecycleOp& b) {
                     return a.time < b.time;
                   });

  datatriage::server::StreamServer server(catalog, server_options);
  // Queries with a --register-at op are held back and join mid-stream;
  // the rest register up front. `ids` maps query order to session ids.
  std::vector<datatriage::server::SessionId> ids(num_queries, 0);
  std::vector<bool> registered(num_queries, false);
  for (size_t i = 0; i < num_queries; ++i) {
    bool held_back = false;
    for (const LifecycleOp& op : lifecycle_ops) {
      if (op.is_register && op.query == i) held_back = true;
    }
    if (held_back) continue;
    auto id = server.RegisterQuery(std::move(bound_queries[i]), config);
    if (!id.ok()) return Fail(id.status().ToString());
    ids[i] = *id;
    registered[i] = true;
  }

  const auto apply_op = [&](const LifecycleOp& op) -> Status {
    if (op.is_register) {
      auto id =
          server.RegisterQuery(std::move(bound_queries[op.query]), config);
      if (!id.ok()) return id.status();
      ids[op.query] = *id;
      registered[op.query] = true;
      return Status::OK();
    }
    if (!registered[op.query]) {
      return Status::InvalidArgument(
          "--unregister-at fires for query " + std::to_string(op.query) +
          " before it is registered");
    }
    return server.UnregisterQuery(ids[op.query]);
  };

  // Push in batches split at lifecycle-op boundaries: each op fires just
  // before the first event with timestamp >= its time. Within a segment,
  // PushBatch keeps the one-pass validation and routing memoization.
  const std::span<const datatriage::engine::StreamEvent> feed(*events);
  size_t e = 0, o = 0;
  while (e < feed.size()) {
    while (o < lifecycle_ops.size() &&
           feed[e].tuple.timestamp() >= lifecycle_ops[o].time) {
      if (Status s = apply_op(lifecycle_ops[o++]); !s.ok()) {
        return Fail(s.ToString());
      }
    }
    size_t n = feed.size() - e;
    if (o < lifecycle_ops.size()) {
      size_t j = e;
      while (j < feed.size() &&
             feed[j].tuple.timestamp() < lifecycle_ops[o].time) {
        ++j;
      }
      n = j - e;
    }
    if (Status s = server.PushBatch(feed.subspan(e, n)); !s.ok()) {
      return Fail(s.ToString());
    }
    e += n;
  }
  // Ops past the end of the feed still fire, in order, before Finish.
  while (o < lifecycle_ops.size()) {
    if (Status s = apply_op(lifecycle_ops[o++]); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  if (Status s = server.Finish(); !s.ok()) return Fail(s.ToString());

  for (size_t i = 0; i < num_queries; ++i) {
    if (num_queries > 1) std::printf("# query %zu\n", i);
    auto& session = server.session(ids[i]);
    std::fputs(datatriage::io::FormatResultsCsv(session.TakeResults(),
                                                column_names[i])
                   .c_str(),
               stdout);
  }

  if (!metrics_json_path.empty()) {
    // One query keeps the legacy single-registry schema (Sec. 9.3);
    // several write the combined server export (Sec. 10).
    if (num_queries == 1) {
      auto& session = server.session(ids[0]);
      if (Status s = datatriage::obs::WriteMetricsJson(
              session.metrics(), &session.trace(), metrics_json_path);
          !s.ok()) {
        return Fail(s.ToString());
      }
    } else {
      std::FILE* out = std::fopen(metrics_json_path.c_str(), "w");
      if (out == nullptr) {
        return Fail("cannot open '" + metrics_json_path +
                    "' for writing");
      }
      const std::string json = server.MetricsJson();
      const bool ok =
          std::fwrite(json.data(), 1, json.size(), out) == json.size();
      if (std::fclose(out) != 0 || !ok) {
        return Fail("cannot write '" + metrics_json_path + "'");
      }
    }
  }

  if (print_stats) {
    for (size_t i = 0; i < num_queries; ++i) {
      const auto& session = server.session(ids[i]);
      const datatriage::engine::EngineStatsSnapshot snapshot =
          session.StatsSnapshot();
      const datatriage::engine::EngineStats& stats = snapshot.core;
      // With several sessions each stderr line carries the session's
      // metric scope (the same "session.<id>." prefix the combined JSON
      // export uses — the id, not the query order, since mid-stream
      // registration can reorder them); with one the legacy unscoped
      // format is kept.
      const std::string scope =
          num_queries > 1 ? "session." + std::to_string(ids[i]) + "."
                          : "";
      std::fprintf(
          stderr,
          "%singested=%lld kept=%lld dropped=%lld windows=%lld "
          "exact_work=%.4fs synopsis_work=%.4fs\n",
          scope.c_str(), static_cast<long long>(stats.tuples_ingested),
          static_cast<long long>(stats.tuples_kept),
          static_cast<long long>(stats.tuples_dropped),
          static_cast<long long>(stats.windows_emitted),
          stats.exact_work_seconds, stats.synopsis_work_seconds);
      // Per-stream drop causes and queue high-watermarks from the obs
      // registry embedded in the snapshot.
      for (const auto& [name, value] : snapshot.counters) {
        if (name.rfind("stream.", 0) == 0 && value > 0 &&
            name.find(".dropped.") != std::string::npos) {
          std::fprintf(stderr, "%s%s=%lld\n", scope.c_str(),
                       name.c_str(), static_cast<long long>(value));
        }
      }
      for (const auto& [name, value] : snapshot.gauge_maxima) {
        if (name.rfind("stream.", 0) == 0 &&
            name.find(".queue_depth") != std::string::npos) {
          std::fprintf(stderr, "%s%s.hwm=%g\n", scope.c_str(),
                       name.c_str(), value);
        }
      }
      // Peak accounted bytes per memory component (DESIGN.md §15). The
      // mem.*.bytes gauges read 0 after Finish — the high-watermark is
      // the interesting number. Accounting is always on, so these print
      // whether or not a budget was set.
      for (const auto& [name, value] : snapshot.gauge_maxima) {
        if (name.rfind("mem.", 0) == 0 && value > 0) {
          std::fprintf(stderr, "%s%s.peak=%g\n", scope.c_str(),
                       name.c_str(), value);
        }
      }
    }
  }
  return 0;
}
