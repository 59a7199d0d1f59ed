#ifndef DATATRIAGE_TRIAGE_SYNOPSIZER_H_
#define DATATRIAGE_TRIAGE_SYNOPSIZER_H_

#include <map>
#include <string>

#include "src/catalog/schema.h"
#include "src/common/mem_accounting.h"
#include "src/common/virtual_time.h"
#include "src/synopsis/factory.h"

namespace datatriage::obs {
class Counter;
}  // namespace datatriage::obs

namespace datatriage::triage {

/// Optional observability hooks (src/obs/): tuples folded into the
/// kept/dropped window synopses. Null members are skipped. The virtual
/// build-time cost lives with the engine, which charges it (see
/// CostModel::synopsis_insert_cost) and gauges it per stream.
struct SynopsizerInstruments {
  obs::Counter* kept_folded = nullptr;
  obs::Counter* dropped_folded = nullptr;
};

/// Per-stream builder of the auxiliary synopsis streams of paper Sec. 5.1:
/// one kept-tuple synopsis and one dropped-tuple synopsis per time window
/// (R_kept_syn / R_dropped_syn). The caller names the window each tuple
/// is folded into; at emission time the engine takes both synopses and
/// feeds them to the shadow plan.
class WindowSynopsizer {
 public:
  WindowSynopsizer(std::string stream, Schema schema,
                   synopsis::SynopsisConfig config);

  WindowSynopsizer(const WindowSynopsizer&) = delete;
  WindowSynopsizer& operator=(const WindowSynopsizer&) = delete;
  WindowSynopsizer(WindowSynopsizer&&) = default;
  WindowSynopsizer& operator=(WindowSynopsizer&&) = default;

  /// Folds a shed (dropped) or processed (kept) tuple into `window`'s
  /// synopsis. The caller chooses the window: under sliding windows one
  /// tuple feeds several, and kept/dropped status is decided per window.
  Status AddDroppedToWindow(const Tuple& tuple, WindowId window);
  Status AddKeptToWindow(const Tuple& tuple, WindowId window);

  struct WindowSynopses {
    synopsis::SynopsisPtr kept;     // may be null if nothing was kept
    synopsis::SynopsisPtr dropped;  // may be null if nothing was dropped
    int64_t kept_count = 0;
    int64_t dropped_count = 0;
  };

  /// Removes and returns the synopses for `window` (null members when no
  /// tuple of that class arrived).
  WindowSynopses TakeWindow(WindowId window);

  /// Read-only view of the dropped synopsis accumulating for `window`
  /// (null until a tuple of that window is shed). Used by the
  /// synergistic drop policy to test coverage (paper Sec. 8.1).
  const synopsis::Synopsis* PeekDropped(WindowId window) const;

  const std::string& stream() const { return stream_; }

  /// Attaches metrics hooks; the pointed-to instruments must outlive the
  /// synopsizer.
  void SetInstruments(SynopsizerInstruments instruments) {
    instruments_ = instruments;
  }

  /// Attaches the session's memory account; window-slot synopses are
  /// charged to Component::kSynopses as they grow and released when
  /// TakeWindow removes the slot. Pass nullptr to detach (outstanding
  /// charge is released first).
  void SetAccount(mem::SessionAccount* account);

  /// Model bytes of all window-slot synopses (mirrors the account).
  size_t MemoryBytes() const { return accounted_bytes_; }

  /// Session-snapshot hooks (DESIGN.md §14): the per-window kept/dropped
  /// synopses and fold counts. LoadState resets the window-slot cache.
  void SaveState(serde::Writer* writer) const;
  Status LoadState(serde::Reader* reader);

 private:
  struct PerWindow {
    synopsis::SynopsisPtr kept;
    synopsis::SynopsisPtr dropped;
    int64_t kept_count = 0;
    int64_t dropped_count = 0;
  };

  /// Map slot for `window`, cached across calls: consecutive inserts
  /// overwhelmingly target the same window, so the common case skips the
  /// O(log n) map walk. std::map nodes are stable, keeping the cached
  /// pointer valid until that window is erased.
  PerWindow* WindowSlot(WindowId window);

  /// Applies the MemoryBytes delta of one synopsis mutation to the
  /// running total and the attached account.
  void ApplyDelta(size_t before, size_t after);
  void ReleaseBytes(size_t bytes);

  std::string stream_;
  Schema schema_;
  SynopsizerInstruments instruments_;
  synopsis::SynopsisConfig config_;
  mem::SessionAccount* account_ = nullptr;
  size_t accounted_bytes_ = 0;
  std::map<WindowId, PerWindow> windows_;
  WindowId cached_window_ = 0;
  PerWindow* cached_slot_ = nullptr;
};

}  // namespace datatriage::triage

#endif  // DATATRIAGE_TRIAGE_SYNOPSIZER_H_
