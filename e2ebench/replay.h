// Untraced replays of a workload through the public StreamServer API, and
// the digests that check every replay's output against the workload's
// serial reference.
#ifndef DATATRIAGE_E2EBENCH_REPLAY_H_
#define DATATRIAGE_E2EBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/engine/window_result.h"
#include "workloads.h"

namespace e2ebench {

/// What one session produced: an MD5 per emitted window (its results CSV
/// rows plus its kept/dropped counts and exact emission time), the MD5s
/// of the session's whole results CSV and metrics JSON, and its tuple
/// accounting.
struct SessionDigest {
  std::vector<std::string> window_md5;
  std::string results_md5;
  std::string metrics_md5;
  int64_t ingested = 0;
  int64_t kept = 0;
  int64_t dropped = 0;
  /// Sum of the session's stream.*.dropped.memory_shed counters.
  int64_t memory_shed = 0;
};

struct RunDigest {
  std::vector<SessionDigest> sessions;
  int64_t windows() const;
};

/// Digests one session's windows (in emission order) and whole-run
/// exports. `metrics_json` is the session's obs::MetricsJson export.
SessionDigest DigestSession(
    const std::vector<datatriage::engine::WindowResult>& results,
    const std::string& metrics_json, int64_t ingested, int64_t kept,
    int64_t dropped, int64_t memory_shed);

/// Windows of `run` whose output differs from `reference`: a window
/// counts as failed when its record differs or is missing, and every
/// window of a session counts as failed when the session's results CSV,
/// tuple accounting, or (with `compare_metrics`) metrics JSON differs,
/// or when its kept + dropped != ingested. Windows the reference emitted
/// but the run did not also count.
int64_t CountFailedWindows(const RunDigest& reference, const RunDigest& run,
                           bool compare_metrics = true);

enum class ReplayMode {
  kSerial,      ///< no scheduler workers: the reference deployment
  kSaturating,  ///< the workload's deployment, pushed as fast as accepted
  kPaced,       ///< the workload's deployment, open loop at a fixed rate
};

struct ReplayResult {
  datatriage::Status status;  // first non-OK status of the replay
  RunDigest digest;
  /// Wall seconds from the first push to the return of Finish.
  double wall_s = 0.0;
  /// Process CPU (user + sys, all threads) and its sys part over the
  /// same interval; the pushing thread's own CPU.
  double cpu_s = 0.0;
  double sys_s = 0.0;
  double push_thread_cpu_s = 0.0;
  /// Scheduler counters (server.worker.*) summed over workers.
  int64_t worker_tasks = 0;
  double worker_busy_s = 0.0;
  /// Server-wide accountant's peak, in model bytes.
  size_t peak_accounted_bytes = 0;
  /// Paced replays only: per-window emission lag against the window's
  /// wall-clock deadline (windows whose deadline falls inside the feed),
  /// and the generator's lateness per pushed batch, both in ms.
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
};

ReplayResult Replay(const Workload& workload, ReplayMode mode);

/// Seconds to construct a StreamServer and register every query of the
/// workload, without pushing anything.
double MeasureSetupSeconds(const Workload& workload);

}  // namespace e2ebench

#endif  // DATATRIAGE_E2EBENCH_REPLAY_H_
