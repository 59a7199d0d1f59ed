#ifndef DATATRIAGE_SERVER_PARALLEL_H_
#define DATATRIAGE_SERVER_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/engine/config.h"
#include "src/tuple/tuple.h"

namespace datatriage::server {

class QuerySession;
struct StreamLane;

/// The one shared, immutable copy of a push's events in parallel mode.
/// Every task the push enqueues holds a reference, so the copy lives
/// until the last session reading it has ingested its deliveries.
using EventBatch = std::vector<engine::StreamEvent>;

/// One validated arrival for one of a session's lanes; `tuple` points
/// into the EventBatch that the carrying task keeps alive.
struct Delivery {
  StreamLane* lane = nullptr;
  const Tuple* tuple = nullptr;
};

/// One unit of work handed from the ingest thread to a session's worker.
/// kIngest carries one push's deliveries to `session`, in feed order;
/// kFinish runs `session`'s end-of-stream drain on its owning worker so
/// Finish work parallelizes like ingest work does.
struct WorkerTask {
  enum class Kind : uint8_t { kIngest, kFinish };
  Kind kind = Kind::kIngest;
  QuerySession* session = nullptr;
  std::shared_ptr<const EventBatch> batch;  // kIngest only
  std::vector<Delivery> deliveries;         // kIngest only
};

/// Bounded single-producer/single-consumer ring of WorkerTasks. The
/// ingest thread is the only producer and the owning worker the only
/// consumer, so the ring needs exactly two atomics: `tail_` (producer
/// cursor, release-published after the slot is written) and `head_`
/// (consumer cursor, release-published after the slot is moved out).
/// Capacity is rounded up to a power of two so wrap-around is a mask.
class SpscTaskQueue {
 public:
  /// `min_capacity` must be positive; the ring allocates the next power
  /// of two at or above it.
  explicit SpscTaskQueue(size_t min_capacity);

  SpscTaskQueue(const SpscTaskQueue&) = delete;
  SpscTaskQueue& operator=(const SpscTaskQueue&) = delete;

  /// Producer side. False when the ring is full.
  bool TryPush(WorkerTask&& task);

  /// Consumer side. False when the ring is empty.
  bool TryPop(WorkerTask* out);

  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<WorkerTask> slots_;
  size_t mask_;
  /// Separate cache lines: the producer writes tail_ and reads head_,
  /// the consumer the opposite pair; sharing a line would ping-pong it
  /// on every task.
  alignas(64) std::atomic<uint64_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<uint64_t> tail_{0};  // next slot to fill
};

/// The placement rule: session `id` is homed on worker `id % workers`
/// for its whole life. This is a *placement* choice, not what keeps the
/// parallel run byte-identical to the serial one — the equivalence
/// contract is that each session's tasks live in one FIFO ring that its
/// home worker alone consumes, in feed order, so the session's
/// processing clock, RNGs, and window emission order never depend on
/// which worker runs it (DESIGN.md Sec. 11, Sec. 16.1).
inline size_t WorkerForSession(uint32_t session_id, size_t workers) {
  return workers == 0 ? 0 : static_cast<size_t>(session_id) % workers;
}

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_PARALLEL_H_
