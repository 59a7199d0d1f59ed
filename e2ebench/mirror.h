// The traced run: a benchmark-side mirror of the server's serial session
// loop. Each session step of the library happens in private QuerySession
// code, so the mirror re-drives, in the session's order, the same public
// calls the session makes (IngestPlane routing, TriageQueue,
// WindowSynopsizer, exec::EvaluatePlan, rewrite::EvaluateShadowPlan, the
// engine merge functions, SessionAccount) and records a span around each.
// It counts only if it is faithful: its per-window output must equal the
// untraced server's byte for byte.
#ifndef DATATRIAGE_E2EBENCH_MIRROR_H_
#define DATATRIAGE_E2EBENCH_MIRROR_H_

#include <array>
#include <cstdint>

#include "replay.h"
#include "util.h"
#include "workloads.h"

namespace e2ebench {

/// The layers a span can belong to, named after the library modules.
enum class Layer : uint8_t {
  kIngestRoute,      ///< IngestPlane::PushBatch (validation, routing)
  kSession,          ///< session bookkeeping around the calls below
  kTriagePush,       ///< TriageQueue::Push, including victim choice
  kTriagePop,        ///< TriageQueue::PopFront
  kTriageEvict,      ///< TriageQueue::EvictOlderThan at a deadline
  kSynopsize,        ///< WindowSynopsizer::Add{Kept,Dropped}ToWindow
  kTakeWindow,       ///< WindowSynopsizer::TakeWindow
  kExec,             ///< exec::EvaluatePlan
  kShadow,           ///< rewrite::EvaluateShadowPlan
  kMergeAccumulate,  ///< engine::AccumulateExact
  kMergeEstimate,    ///< EstimateGroups + MergeGroupedEstimates
  kMergeBuildRows,   ///< BuildAggregateRows + HAVING + ORDER BY/LIMIT
  kDeliver,          ///< the window sink
  kMemory,           ///< memory-triggered triage (folds via SessionAccount)
};
inline constexpr size_t kNumLayers = 14;
static_assert(static_cast<size_t>(Layer::kMemory) + 1 == kNumLayers);

/// Aggregate of every span of one layer. Self time is the spans' total
/// duration minus the part covered by their child spans.
struct LayerTotals {
  int64_t spans = 0;
  double total_s = 0.0;
  double child_s = 0.0;
  /// Heap allocations and minor page faults inside the spans (recorded
  /// for the exec and merge layers only).
  int64_t allocations = 0;
  int64_t minor_faults = 0;

  double self_s() const { return total_s - child_s; }
};

struct MirrorResult {
  datatriage::Status status;
  RunDigest digest;  // metrics_md5 is left empty: the mirror has no registry
  /// Wall seconds from the first push to the last session's Finish.
  double wall_s = 0.0;
  std::array<LayerTotals, kNumLayers> layers{};
  int64_t events = 0;
  int64_t deliveries = 0;  // lane deliveries (dispatcher invocations)
  int64_t windows = 0;
  int64_t exec_rows_out = 0;
  int64_t exec_work_units = 0;
  int64_t shadow_work_units = 0;
  int64_t folds = 0;  // windows folded by memory-triggered triage

  const LayerTotals& layer(Layer l) const {
    return layers[static_cast<size_t>(l)];
  }
};

/// Runs the workload's queries serially through the mirror with spans on.
MirrorResult RunMirror(const Workload& workload);

}  // namespace e2ebench

#endif  // DATATRIAGE_E2EBENCH_MIRROR_H_
