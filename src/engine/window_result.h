#ifndef DATATRIAGE_ENGINE_WINDOW_RESULT_H_
#define DATATRIAGE_ENGINE_WINDOW_RESULT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/virtual_time.h"
#include "src/exec/relation.h"
#include "src/synopsis/synopsis.h"

namespace datatriage::engine {

/// One window's composite output (paper Fig. 2's "Merge" stage).
struct WindowResult {
  WindowId window = 0;
  /// Virtual time at which the result left the engine.
  VirtualTime emit_time = 0.0;

  /// Exact query output computed from kept tuples only (what drop-only
  /// load shedding would report).
  exec::Relation exact_rows;

  /// Composite output: exact + the shadow plan's estimate of lost
  /// results. For aggregate queries the aggregate columns are doubles
  /// (estimates are fractional); for non-aggregate queries these match
  /// exact_rows and the loss estimate lives in `result_synopsis`.
  exec::Relation merged_rows;

  /// The shadow plan's raw per-group estimate of dropped results (empty
  /// when nothing was shed or under drop-only).
  synopsis::GroupedEstimate shadow_estimate;

  /// Result synopsis of the dropped-results shadow query (null under
  /// drop-only or when the query has aggregates — aggregates consume it
  /// into shadow_estimate). Applications can render it (paper Fig. 3's
  /// red rectangles).
  synopsis::SynopsisPtr result_synopsis;

  // Volume accounting for this window.
  int64_t kept_tuples = 0;
  int64_t dropped_tuples = 0;
};

/// Whole-run accounting.
struct EngineStats {
  int64_t tuples_ingested = 0;
  int64_t tuples_kept = 0;
  int64_t tuples_dropped = 0;
  int64_t windows_emitted = 0;
  /// Total virtual time charged for exact processing / synopsis work.
  double exact_work_seconds = 0.0;
  double synopsis_work_seconds = 0.0;
  /// Engine clock at the end of the run.
  VirtualTime final_engine_time = 0.0;
};

/// Point-in-time copy of one session's accounting, safe to hold after
/// the server is gone. `core` carries the EngineStats fields; the maps
/// embed the session registry's totals (metric name -> value), e.g.
/// "stream.r.queue_depth" in `gauge_maxima` is stream r's queue-depth
/// high-watermark. Returned by server::QuerySession::StatsSnapshot().
struct EngineStatsSnapshot {
  EngineStats core;
  /// Every registry counter's total (DESIGN.md Sec. 9.2 names them).
  std::map<std::string, int64_t> counters;
  /// Every registry gauge's current value / high-watermark.
  std::map<std::string, double> gauges;
  std::map<std::string, double> gauge_maxima;
};

}  // namespace datatriage::engine

#endif  // DATATRIAGE_ENGINE_WINDOW_RESULT_H_
