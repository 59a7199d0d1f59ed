// Recreates the data behind the paper's Fig. 3 front-end: a query that
// returns two-dimensional tuples, visualized as exact result points plus
// rectangles for the system's estimate of lost results (the cells of the
// dropped-results synopsis, shaded by estimated tuple count).
//
// The example runs a non-aggregate projection query under overload and
// writes CSV to stdout:
//   point,<window>,<x>,<y>
//   rect,<window>,<x_lo>,<y_lo>,<x_hi>,<y_hi>,<estimated_count>
// Pipe it to a plotting tool to recreate the screenshot's blue points and
// red rectangles.
//
// Build & run:  ./build/examples/frontend_visualizer > viz.csv

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/synopsis/grid_histogram.h"

namespace {

using datatriage::Catalog;
using datatriage::FieldType;
using datatriage::Rng;
using datatriage::Schema;
using datatriage::Status;
using datatriage::Tuple;
using datatriage::Value;
using datatriage::engine::ContinuousQueryEngine;
using datatriage::engine::EngineConfig;
using datatriage::engine::StreamEvent;
using datatriage::engine::WindowResult;

std::vector<StreamEvent> BuildCloud(uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamEvent> events;
  double t = 0.0;
  // Two clusters drifting over time; rate far beyond capacity so most
  // tuples are shed and reported through the synopsis rectangles.
  while (t < 4.0) {
    t += rng.Exponential(1500.0);
    const bool second_cluster = rng.Bernoulli(0.4);
    const double cx = second_cluster ? 70.0 : 30.0 + 5.0 * t;
    const double cy = second_cluster ? 25.0 : 60.0;
    const int64_t x = std::clamp<int64_t>(
        static_cast<int64_t>(rng.Gaussian(cx, 6.0)), 1, 100);
    const int64_t y = std::clamp<int64_t>(
        static_cast<int64_t>(rng.Gaussian(cy, 6.0)), 1, 100);
    events.push_back(
        {"points", Tuple({Value::Int64(x), Value::Int64(y)}, t)});
  }
  return events;
}

}  // namespace

int main() {
  Catalog catalog;
  if (!catalog
           .RegisterStream({"points", Schema({{"x", FieldType::kInt64},
                                              {"y", FieldType::kInt64}})})
           .ok()) {
    std::fprintf(stderr, "catalog setup failed\n");
    return 1;
  }
  const std::string query =
      "SELECT x, y FROM points WINDOW points['1 second']";

  EngineConfig config;
  config.strategy = datatriage::triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 60;
  config.synopsis.type =
      datatriage::synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 8.0;

  auto engine = ContinuousQueryEngine::Make(catalog, query, config);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  for (const StreamEvent& e : BuildCloud(5)) {
    Status s = (*engine)->Push(e);
    if (!s.ok()) {
      std::fprintf(stderr, "push: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (Status s = (*engine)->Finish(); !s.ok()) {
    std::fprintf(stderr, "finish: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("kind,window,x0,y0,x1,y1,weight\n");
  for (const WindowResult& result : (*engine)->TakeResults()) {
    for (const Tuple& row : result.exact_rows) {
      std::printf("point,%lld,%lld,%lld,,,\n",
                  static_cast<long long>(result.window),
                  static_cast<long long>(row.value(0).int64()),
                  static_cast<long long>(row.value(1).int64()));
    }
    if (result.result_synopsis == nullptr) continue;
    // The projected loss synopsis is a grid histogram over (x, y); its
    // occupied cells are exactly Fig. 3's red rectangles.
    const auto* grid = dynamic_cast<const datatriage::synopsis::GridHistogram*>(
        result.result_synopsis.get());
    if (grid == nullptr) continue;
    const double w = grid->cell_width();
    grid->ForEachCell([&](std::span<const int64_t> coords, double count) {
      std::printf("rect,%lld,%.1f,%.1f,%.1f,%.1f,%.2f\n",
                  static_cast<long long>(result.window),
                  static_cast<double>(coords[0]) * w,
                  static_cast<double>(coords[1]) * w,
                  static_cast<double>(coords[0] + 1) * w,
                  static_cast<double>(coords[1] + 1) * w, count);
    });
  }
  return 0;
}
