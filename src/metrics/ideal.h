#ifndef DATATRIAGE_METRICS_IDEAL_H_
#define DATATRIAGE_METRICS_IDEAL_H_

#include <map>
#include <vector>

#include "src/common/result.h"
#include "src/engine/config.h"
#include "src/exec/relation.h"
#include "src/plan/binder.h"

namespace datatriage::metrics {

/// Computes the "ideal" per-window query results the paper compares
/// against (Sec. 6.3): the exact result over *all* input tuples, as if no
/// load shedding had occurred. Evaluated offline, window by window, with
/// the plain (base-channel) plan. `slide_seconds` <= 0 means tumbling
/// (slide == window_seconds); with a smaller slide, tuples contribute to
/// every covering window.
Result<std::map<WindowId, exec::Relation>> ComputeIdealResults(
    const plan::BoundQuery& query,
    const std::vector<engine::StreamEvent>& events,
    VirtualDuration window_seconds, VirtualDuration slide_seconds = 0.0);

}  // namespace datatriage::metrics

#endif  // DATATRIAGE_METRICS_IDEAL_H_
