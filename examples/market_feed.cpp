// Market-data monitoring — the paper's other motivating application
// ("market analysis", Sec. 1). A trade stream joins a quote stream on a
// symbol id; the query tracks per-symbol traded volume (SUM) and trade
// count per window. A news event triggers a burst of trades concentrated
// in a handful of symbols. The example contrasts the Data Triage
// composite SUM against the exact-only answer during the burst.
//
// Build & run:  ./build/examples/market_feed

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/server/stream_server.h"

namespace {

using datatriage::Catalog;
using datatriage::FieldType;
using datatriage::Rng;
using datatriage::Schema;
using datatriage::Status;
using datatriage::Tuple;
using datatriage::Value;
using datatriage::engine::EngineConfig;
using datatriage::engine::StreamEvent;
using datatriage::engine::WindowResult;

constexpr int64_t kNumSymbols = 40;
constexpr int64_t kHotSymbol = 7;
constexpr double kNewsAt = 3.0;
constexpr double kNewsEnd = 6.0;

std::vector<StreamEvent> BuildFeed(uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamEvent> events;
  // Quotes: steady feed, one quote per symbol roughly every 0.5s.
  for (double t = 0.01; t < 9.0; t += 0.5) {
    for (int64_t symbol = 1; symbol <= kNumSymbols; ++symbol) {
      events.push_back(
          {"quotes", Tuple({Value::Int64(symbol)}, t + 0.001 * symbol)});
    }
  }
  // Trades: ~150/s background across all symbols; 30x burst concentrated
  // on the hot symbol while the news is out.
  double t = 0.0;
  while (t < 9.0) {
    const bool news = t >= kNewsAt && t < kNewsEnd;
    t += rng.Exponential(news ? 4500.0 : 150.0);
    const int64_t symbol = (news && rng.Bernoulli(0.8))
                               ? kHotSymbol
                               : rng.UniformInt(1, kNumSymbols);
    const int64_t shares = rng.UniformInt(1, 50);
    events.push_back(
        {"trades",
         Tuple({Value::Int64(symbol), Value::Int64(shares)}, t)});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.tuple.timestamp() < b.tuple.timestamp();
                   });
  return events;
}

}  // namespace

int main() {
  Catalog catalog;
  if (!catalog
           .RegisterStream({"trades",
                            Schema({{"symbol", FieldType::kInt64},
                                    {"shares", FieldType::kInt64}})})
           .ok() ||
      !catalog
           .RegisterStream(
               {"quotes", Schema({{"symbol", FieldType::kInt64}})})
           .ok()) {
    std::fprintf(stderr, "catalog setup failed\n");
    return 1;
  }
  // Per-symbol activity: trades joined to the symbols currently quoted.
  const std::string query =
      "SELECT trades.symbol, COUNT(*) AS trades, SUM(shares) AS volume "
      "FROM trades, quotes WHERE trades.symbol = quotes.symbol "
      "GROUP BY trades.symbol "
      "WINDOW trades['1 second'], quotes['1 second']";

  EngineConfig config;
  config.strategy = datatriage::triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 150;
  config.synopsis.grid.cell_width = 1.0;

  datatriage::server::StreamServer server(catalog);
  auto id = server.RegisterQuery(query, config);
  if (!id.ok()) {
    std::fprintf(stderr, "register: %s\n", id.status().ToString().c_str());
    return 1;
  }
  if (Status s = server.PushBatch(BuildFeed(99)); !s.ok()) {
    std::fprintf(stderr, "push: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = server.Finish(); !s.ok()) {
    std::fprintf(stderr, "finish: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("Hot symbol %lld: per-window trade count and volume\n",
              static_cast<long long>(kHotSymbol));
  std::printf("(news burst from t=%.0fs to t=%.0fs)\n\n", kNewsAt,
              kNewsEnd);
  std::printf("%6s %8s | %12s %12s | %12s %12s\n", "window", "shed",
              "exact_trades", "exact_vol", "est_trades", "est_vol");
  for (const WindowResult& result : server.session(*id).TakeResults()) {
    double exact_trades = 0, exact_volume = 0;
    for (const Tuple& row : result.exact_rows) {
      if (row.value(0).int64() == kHotSymbol) {
        exact_trades = row.value(1).AsDouble();
        exact_volume = row.value(2).AsDouble();
      }
    }
    double merged_trades = 0, merged_volume = 0;
    for (const Tuple& row : result.merged_rows) {
      if (row.value(0).int64() == kHotSymbol) {
        merged_trades = row.value(1).AsDouble();
        merged_volume = row.value(2).AsDouble();
      }
    }
    std::printf("%6lld %8lld | %12.0f %12.0f | %12.0f %12.0f\n",
                static_cast<long long>(result.window),
                static_cast<long long>(result.dropped_tuples),
                exact_trades, exact_volume, merged_trades, merged_volume);
  }
  std::printf(
      "\nWhere shedding kicks in, the estimated columns restore the "
      "burst volume the exact columns miss.\n");
  return 0;
}
