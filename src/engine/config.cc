#include "src/engine/config.h"

namespace datatriage::engine {

Status EngineConfig::Validate() const {
  if (queue_capacity == 0) {
    return Status::InvalidArgument(
        "EngineConfig: queue_capacity must be positive (a zero-slot "
        "triage queue could never buffer an arrival)");
  }
  if (drop_policy == triage::DropPolicyKind::kSynergistic) {
    if (strategy == triage::SheddingStrategy::kDropOnly) {
      return Status::InvalidArgument(
          "EngineConfig: the synergistic drop policy consults the "
          "dropped-tuple synopses and requires a synopsizing strategy "
          "(data_triage or summarize_only), not drop_only");
    }
    if (synergistic_candidates == 0) {
      return Status::InvalidArgument(
          "EngineConfig: synergistic_candidates must be positive (the "
          "synergistic policy samples that many victim candidates per "
          "eviction, paper Sec. 8.1)");
    }
  }
  if (vectorized_min_rows > 0 && !vectorized_exec) {
    return Status::InvalidArgument(
        "EngineConfig: vectorized_min_rows only thresholds the "
        "vectorized executor; set vectorized_exec or drop the "
        "threshold");
  }
  if (memory_budget_bytes != 0 &&
      memory_budget_bytes < kMinMemoryBudgetBytes) {
    return Status::InvalidArgument(
        "EngineConfig: memory_budget_bytes must be 0 (unbounded) or at "
        "least 64 KiB (a smaller budget would evict every window as it "
        "forms, degenerating to summarize-only)");
  }
  return Status::OK();
}

Status SchedulerOptions::Validate() const {
  if (worker_threads > 256) {
    return Status::InvalidArgument(
        "SchedulerOptions: worker_threads must be at most 256 (one "
        "thread per session plus morsel helpers is the useful maximum)");
  }
  if (intra_session_threads > 1 && worker_threads == 0) {
    return Status::InvalidArgument(
        "SchedulerOptions: intra_session_threads > 1 requires a worker "
        "pool; set worker_threads > 0 (the serial inline path has no "
        "task pool to split operator morsels across)");
  }
  if (intra_session_threads > 64) {
    return Status::InvalidArgument(
        "SchedulerOptions: intra_session_threads must be at most 64 "
        "(morsel fan-out beyond that only adds merge overhead)");
  }
  return Status::OK();
}

Status StreamServerOptions::Validate() const {
  DT_RETURN_IF_ERROR(scheduler.Validate());
  if (memory_budget_bytes != 0 &&
      memory_budget_bytes < EngineConfig::kMinMemoryBudgetBytes) {
    return Status::InvalidArgument(
        "StreamServerOptions: memory_budget_bytes must be 0 (unbounded) "
        "or at least 64 KiB (the split across sessions must leave each "
        "a workable share)");
  }
  return Status::OK();
}

}  // namespace datatriage::engine
