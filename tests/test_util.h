#ifndef DATATRIAGE_TESTS_TEST_UTIL_H_
#define DATATRIAGE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/random.h"
#include "src/engine/config.h"
#include "src/engine/window_result.h"
#include "src/exec/relation.h"
#include "src/plan/binder.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"
#include "src/tuple/tuple.h"

namespace datatriage::testing {

/// Integer row shorthand.
inline Tuple Row(std::initializer_list<int64_t> values, double ts = 0.0) {
  std::vector<Value> v;
  for (int64_t x : values) v.push_back(Value::Int64(x));
  return Tuple(std::move(v), ts);
}

/// The paper's experimental catalog: R(a), S(b, c), T(d), all INTEGER
/// (Sec. 4.3 / 6.2.1).
inline Catalog PaperCatalog() {
  Catalog catalog;
  DT_CHECK(
      catalog.RegisterStream({"R", Schema({{"a", FieldType::kInt64}})})
          .ok());
  DT_CHECK(catalog
               .RegisterStream({"S", Schema({{"b", FieldType::kInt64},
                                             {"c", FieldType::kInt64}})})
               .ok());
  DT_CHECK(
      catalog.RegisterStream({"T", Schema({{"d", FieldType::kInt64}})})
          .ok());
  return catalog;
}

/// The paper's Fig. 7 continuous query.
inline constexpr char kPaperQuery[] =
    "SELECT a, COUNT(*) as count FROM R,S,T WHERE R.a = S.b AND "
    "S.c = T.d GROUP BY a; WINDOW R['1 second'], S['1 second'], "
    "T['1 second'];";

/// Parses and binds a query against a catalog, CHECK-failing on error so
/// tests stay terse.
inline plan::BoundQuery MustBind(const std::string& text,
                                 const Catalog& catalog) {
  auto stmt = sql::ParseStatement(text);
  DT_CHECK(stmt.ok()) << stmt.status().ToString();
  auto bound = plan::BindStatement(*stmt, catalog);
  DT_CHECK(bound.ok()) << bound.status().ToString();
  return std::move(bound).value();
}

/// What a one-query run leaves behind: its windows, in window order, and
/// its run accounting.
struct SoloRun {
  std::vector<engine::WindowResult> results;
  engine::EngineStats stats;
};

/// Registers `sql` as the only query of a serial StreamServer, pushes
/// `events` as one batch, finishes, and collects the session's output.
/// CHECK-fails on any error so tests stay terse.
inline SoloRun RunSolo(const Catalog& catalog, const std::string& sql,
                       const engine::EngineConfig& config,
                       std::span<const engine::StreamEvent> events) {
  server::StreamServer server(catalog);
  auto id = server.RegisterQuery(sql, config);
  DT_CHECK(id.ok()) << id.status().ToString();
  const Status pushed = server.PushBatch(events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  const Status finished = server.Finish();
  DT_CHECK(finished.ok()) << finished.ToString();
  server::QuerySession& session = server.session(*id);
  return {session.TakeResults(), session.StatsSnapshot().core};
}

/// Random relation of integer tuples with values uniform in [lo, hi].
inline exec::Relation RandomRelation(Rng* rng, size_t rows, size_t cols,
                                     int64_t lo, int64_t hi) {
  exec::Relation relation;
  relation.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> values;
    values.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      values.push_back(Value::Int64(rng->UniformInt(lo, hi)));
    }
    relation.emplace_back(std::move(values));
  }
  return relation;
}

/// Randomly splits `input` into (kept, dropped) with the given drop
/// probability.
inline std::pair<exec::Relation, exec::Relation> RandomSplit(
    Rng* rng, const exec::Relation& input, double drop_probability) {
  exec::Relation kept, dropped;
  for (const Tuple& t : input) {
    (rng->Bernoulli(drop_probability) ? dropped : kept).push_back(t);
  }
  return {std::move(kept), std::move(dropped)};
}

/// Order-insensitive multiset equality for relations.
inline bool SameMultiset(exec::Relation a, exec::Relation b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// Human-readable multiset rendering for failure messages.
inline std::string RelationToString(exec::Relation r) {
  std::sort(r.begin(), r.end());
  std::string out = "{";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) out += ", ";
    out += r[i].ToString();
  }
  return out + "}";
}

}  // namespace datatriage::testing

#endif  // DATATRIAGE_TESTS_TEST_UTIL_H_
