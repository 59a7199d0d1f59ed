#include "replay.h"

#include <sys/prctl.h>

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "src/common/digest.h"
#include "src/common/string_util.h"
#include "src/io/csv.h"
#include "src/obs/export.h"
#include "src/server/stream_server.h"
#include "util.h"

namespace e2ebench {

using dt::engine::WindowResult;

int64_t RunDigest::windows() const {
  int64_t total = 0;
  for (const SessionDigest& s : sessions) {
    total += static_cast<int64_t>(s.window_md5.size());
  }
  return total;
}

namespace {

/// Bytes that identify one window's output: the window's results CSV rows
/// (io::FormatResultsCsv) followed by its kept/dropped counts and its
/// emission time at full precision.
std::string WindowRecord(const WindowResult& result) {
  // FormatResultsCsv renders a list of windows: copy this window's rows
  // into a one-element list to render it alone.
  std::vector<WindowResult> one(1);
  one[0].window = result.window;
  one[0].emit_time = result.emit_time;
  one[0].exact_rows = result.exact_rows;
  one[0].merged_rows = result.merged_rows;
  std::string record = dt::io::FormatResultsCsv(one, {});
  record += dt::StringPrintf("window=%lld kept=%lld dropped=%lld emit=%.17g\n",
                             static_cast<long long>(result.window),
                             static_cast<long long>(result.kept_tuples),
                             static_cast<long long>(result.dropped_tuples),
                             result.emit_time);
  return record;
}

}  // namespace

SessionDigest DigestSession(const std::vector<WindowResult>& results,
                            const std::string& metrics_json,
                            int64_t ingested, int64_t kept, int64_t dropped,
                            int64_t memory_shed) {
  SessionDigest digest;
  digest.window_md5.reserve(results.size());
  for (const WindowResult& result : results) {
    digest.window_md5.push_back(dt::Md5Hex(WindowRecord(result)));
  }
  digest.results_md5 = dt::Md5Hex(dt::io::FormatResultsCsv(results, {}));
  digest.metrics_md5 = dt::Md5Hex(metrics_json);
  digest.ingested = ingested;
  digest.kept = kept;
  digest.dropped = dropped;
  digest.memory_shed = memory_shed;
  return digest;
}

int64_t CountFailedWindows(const RunDigest& reference, const RunDigest& run,
                           bool compare_metrics) {
  int64_t failed = 0;
  const size_t sessions =
      std::max(reference.sessions.size(), run.sessions.size());
  for (size_t s = 0; s < sessions; ++s) {
    if (s >= reference.sessions.size() || s >= run.sessions.size()) {
      const SessionDigest& only = s < run.sessions.size()
                                      ? run.sessions[s]
                                      : reference.sessions[s];
      failed += std::max<int64_t>(1, only.window_md5.size());
      continue;
    }
    const SessionDigest& ref = reference.sessions[s];
    const SessionDigest& got = run.sessions[s];
    const int64_t windows = static_cast<int64_t>(
        std::max(ref.window_md5.size(), got.window_md5.size()));
    if (got.results_md5 != ref.results_md5 ||
        (compare_metrics && got.metrics_md5 != ref.metrics_md5) ||
        got.ingested != ref.ingested || got.kept != ref.kept ||
        got.dropped != ref.dropped || got.memory_shed != ref.memory_shed ||
        got.kept + got.dropped != got.ingested) {
      failed += std::max<int64_t>(1, windows);
      continue;
    }
    for (int64_t w = 0; w < windows; ++w) {
      const size_t i = static_cast<size_t>(w);
      if (i >= ref.window_md5.size() || i >= got.window_md5.size() ||
          ref.window_md5[i] != got.window_md5[i]) {
        ++failed;
      }
    }
  }
  return failed;
}

namespace {

/// Per-session window sink target. The sink runs on whichever worker
/// executes the session (one at a time), so each collector has a single
/// writer and is read only after Finish's barrier.
struct Collector {
  std::vector<WindowResult> results;
  std::vector<Clock::time_point> emitted_at;
};

dt::engine::StreamServerOptions OptionsFor(const Workload& workload,
                                           ReplayMode mode) {
  dt::engine::StreamServerOptions options = workload.options;
  if (mode == ReplayMode::kSerial) options.scheduler = {};
  return options;
}

/// Builds the server and registers every query; the first error aborts.
dt::Status SetUp(const Workload& workload, ReplayMode mode,
                 std::unique_ptr<dt::server::StreamServer>* server) {
  *server = std::make_unique<dt::server::StreamServer>(
      workload.catalog, OptionsFor(workload, mode));
  for (const QuerySpec& query : workload.queries) {
    dt::Result<dt::server::SessionId> id =
        (*server)->RegisterQuery(query.sql, query.config);
    if (!id.ok()) return id.status();
  }
  return dt::Status::OK();
}

dt::Status PushSaturating(const Workload& workload,
                          dt::server::StreamServer* server) {
  const std::span<const dt::engine::StreamEvent> feed(workload.events);
  for (size_t i = 0; i < feed.size(); i += kPushChunk) {
    DT_RETURN_IF_ERROR(server->PushBatch(
        feed.subspan(i, std::min(kPushChunk, feed.size() - i))));
  }
  return dt::Status::OK();
}

/// Open-loop replay: virtual timestamps map linearly onto a wall
/// schedule at the workload's offered rate. Each batch holds the events
/// already due; its lateness is how far the first of them is overdue.
dt::Status PushPaced(const Workload& workload, Clock::time_point start,
                     double wall_per_virtual_s,
                     dt::server::StreamServer* server,
                     std::vector<double>* late_ms) {
  const std::vector<dt::engine::StreamEvent>& events = workload.events;
  const double t0 = events.front().tuple.timestamp();
  // Wake the pusher on time: the default 50 us timer slack would make the
  // generator's own lateness part of every window's lag.
  const int slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           (events[i].tuple.timestamp() - t0) *
                           wall_per_virtual_s));
  };
  size_t i = 0;
  while (i < events.size()) {
    const Clock::time_point first_due = due(i);
    if (Clock::now() < first_due) std::this_thread::sleep_until(first_due);
    const Clock::time_point now = Clock::now();
    size_t end = i + 1;
    while (end < events.size() && due(end) <= now) ++end;
    late_ms->push_back(
        std::chrono::duration<double, std::milli>(now - first_due).count());
    DT_RETURN_IF_ERROR(server->PushBatch(
        std::span<const dt::engine::StreamEvent>(events).subspan(i,
                                                                 end - i)));
    i = end;
  }
  if (slack > 0) prctl(PR_SET_TIMERSLACK, slack, 0, 0, 0);
  return dt::Status::OK();
}

}  // namespace

double MeasureSetupSeconds(const Workload& workload) {
  std::unique_ptr<dt::server::StreamServer> server;
  const Clock::time_point start = Clock::now();
  const dt::Status status = SetUp(workload, ReplayMode::kSaturating, &server);
  const double seconds = SecondsSince(start);
  DT_CHECK(status.ok()) << status.ToString();
  return seconds;
}

ReplayResult Replay(const Workload& workload, ReplayMode mode) {
  ReplayResult out;
  std::unique_ptr<dt::server::StreamServer> server;
  out.status = SetUp(workload, mode, &server);
  if (!out.status.ok()) return out;

  std::vector<Collector> collectors(server->session_count());
  for (size_t s = 0; s < collectors.size(); ++s) {
    Collector* collector = &collectors[s];
    server->session(static_cast<dt::server::SessionId>(s))
        .SetWindowSink([collector](WindowResult&& result) {
          collector->emitted_at.push_back(Clock::now());
          collector->results.push_back(std::move(result));
        });
  }

  const std::vector<dt::engine::StreamEvent>& events = workload.events;
  const double t0 = events.front().tuple.timestamp();
  const double virtual_span = events.back().tuple.timestamp() - t0;
  const double wall_per_virtual_s =
      static_cast<double>(events.size()) /
      (workload.paced_events_per_s * std::max(virtual_span, 1e-9));

  const CpuSample process_before = CpuSample::Take(RUSAGE_SELF);
  const CpuSample thread_before = CpuSample::Take(RUSAGE_THREAD);
  const Clock::time_point start = Clock::now();
  dt::Status pushed =
      mode == ReplayMode::kPaced
          ? PushPaced(workload, start, wall_per_virtual_s, server.get(),
                      &out.late_ms)
          : PushSaturating(workload, server.get());
  dt::Status finished = server->Finish();
  out.wall_s = SecondsSince(start);
  const CpuSample thread_after = CpuSample::Take(RUSAGE_THREAD);
  const CpuSample process_after = CpuSample::Take(RUSAGE_SELF);
  out.cpu_s = process_after.total_s() - process_before.total_s();
  out.sys_s = process_after.sys_s - process_before.sys_s;
  out.push_thread_cpu_s = thread_after.total_s() - thread_before.total_s();
  out.status = !pushed.ok() ? pushed : finished;

  const std::map<std::string, int64_t> counters =
      server->server_metrics().CounterTotals();
  for (const auto& [name, value] : counters) {
    if (name.starts_with("server.worker.") && name.ends_with(".tasks")) {
      out.worker_tasks += value;
    }
  }
  server->server_metrics().ForEachGauge(
      [&out](const std::string& name, const dt::obs::Gauge& gauge) {
        if (name.starts_with("server.worker.") &&
            name.ends_with(".busy_seconds")) {
          out.worker_busy_s += gauge.value();
        }
      });
  out.peak_accounted_bytes = server->memory_accountant().PeakBytes();

  for (size_t s = 0; s < collectors.size(); ++s) {
    dt::server::QuerySession& session =
        server->session(static_cast<dt::server::SessionId>(s));
    const dt::engine::EngineStatsSnapshot stats = session.StatsSnapshot();
    int64_t memory_shed = 0;
    for (const auto& [name, value] : stats.counters) {
      if (name.ends_with(".dropped.memory_shed")) memory_shed += value;
    }
    out.digest.sessions.push_back(DigestSession(
        collectors[s].results,
        dt::obs::MetricsJson(session.metrics(), &session.trace()),
        stats.core.tuples_ingested, stats.core.tuples_kept,
        stats.core.tuples_dropped, memory_shed));
    if (mode != ReplayMode::kPaced) continue;
    // A window's lag: when its result reached the sink, minus when its
    // virtual emission deadline fell due on the wall schedule. Windows
    // whose deadline lies past the last event only emit at Finish and
    // carry no lag.
    const double last_event = events.back().tuple.timestamp();
    const dt::engine::CostModel& cost = session.config().cost_model;
    for (size_t w = 0; w < collectors[s].results.size(); ++w) {
      const double deadline = cost.EmissionDeadline(
          collectors[s].results[w].window, session.window_seconds(),
          session.window_slide_seconds());
      if (deadline > last_event) continue;
      const double emitted =
          std::chrono::duration<double>(collectors[s].emitted_at[w] - start)
              .count();
      out.lag_ms.push_back(
          (emitted - (deadline - t0) * wall_per_virtual_s) * 1e3);
    }
  }
  return out;
}

}  // namespace e2ebench
