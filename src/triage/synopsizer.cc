#include "src/triage/synopsizer.h"

#include "src/common/serde.h"
#include "src/obs/metrics.h"
#include "src/synopsis/serde.h"

namespace datatriage::triage {

WindowSynopsizer::WindowSynopsizer(std::string stream, Schema schema,
                                   synopsis::SynopsisConfig config)
    : stream_(std::move(stream)),
      schema_(std::move(schema)),
      config_(config) {}

WindowSynopsizer::PerWindow* WindowSynopsizer::WindowSlot(
    WindowId window_id) {
  if (cached_slot_ != nullptr && cached_window_ == window_id) {
    return cached_slot_;
  }
  cached_slot_ = &windows_[window_id];
  cached_window_ = window_id;
  return cached_slot_;
}

Status WindowSynopsizer::AddDroppedToWindow(const Tuple& tuple,
                                            WindowId window_id) {
  PerWindow& window = *WindowSlot(window_id);
  size_t before = 0;
  if (window.dropped == nullptr) {
    DT_ASSIGN_OR_RETURN(window.dropped,
                        synopsis::MakeSynopsis(config_, schema_));
  } else {
    before = window.dropped->MemoryBytes();
  }
  window.dropped->Insert(tuple);
  ApplyDelta(before, window.dropped->MemoryBytes());
  ++window.dropped_count;
  if (instruments_.dropped_folded != nullptr) {
    instruments_.dropped_folded->Add(1);
  }
  return Status::OK();
}

Status WindowSynopsizer::AddKeptToWindow(const Tuple& tuple,
                                         WindowId window_id) {
  PerWindow& window = *WindowSlot(window_id);
  size_t before = 0;
  if (window.kept == nullptr) {
    DT_ASSIGN_OR_RETURN(window.kept,
                        synopsis::MakeSynopsis(config_, schema_));
  } else {
    before = window.kept->MemoryBytes();
  }
  window.kept->Insert(tuple);
  ApplyDelta(before, window.kept->MemoryBytes());
  ++window.kept_count;
  if (instruments_.kept_folded != nullptr) {
    instruments_.kept_folded->Add(1);
  }
  return Status::OK();
}

void WindowSynopsizer::SetAccount(mem::SessionAccount* account) {
  if (account_ == account) return;
  if (account_ != nullptr && accounted_bytes_ > 0) {
    account_->Release(mem::Component::kSynopses, accounted_bytes_);
  }
  account_ = account;
  if (account_ != nullptr && accounted_bytes_ > 0) {
    account_->Charge(mem::Component::kSynopses, accounted_bytes_);
  }
}

void WindowSynopsizer::ApplyDelta(size_t before, size_t after) {
  if (after >= before) {
    const size_t delta = after - before;
    accounted_bytes_ += delta;
    if (account_ != nullptr && delta > 0) {
      account_->Charge(mem::Component::kSynopses, delta);
    }
  } else {
    ReleaseBytes(before - after);
  }
}

void WindowSynopsizer::ReleaseBytes(size_t bytes) {
  DT_CHECK_GE(accounted_bytes_, bytes);
  accounted_bytes_ -= bytes;
  if (account_ != nullptr && bytes > 0) {
    account_->Release(mem::Component::kSynopses, bytes);
  }
}

const synopsis::Synopsis* WindowSynopsizer::PeekDropped(
    WindowId window) const {
  auto it = windows_.find(window);
  if (it == windows_.end()) return nullptr;
  return it->second.dropped.get();
}

WindowSynopsizer::WindowSynopses WindowSynopsizer::TakeWindow(
    WindowId window) {
  WindowSynopses result;
  auto it = windows_.find(window);
  if (it == windows_.end()) return result;
  result.kept = std::move(it->second.kept);
  result.dropped = std::move(it->second.dropped);
  result.kept_count = it->second.kept_count;
  result.dropped_count = it->second.dropped_count;
  size_t released = 0;
  if (result.kept != nullptr) released += result.kept->MemoryBytes();
  if (result.dropped != nullptr) released += result.dropped->MemoryBytes();
  ReleaseBytes(released);
  if (cached_slot_ == &it->second) cached_slot_ = nullptr;
  windows_.erase(it);
  return result;
}

void WindowSynopsizer::SaveState(serde::Writer* writer) const {
  writer->WriteU64(windows_.size());
  for (const auto& [window, slot] : windows_) {
    writer->WriteI64(window);
    synopsis::SaveSynopsis(writer, slot.kept.get());
    synopsis::SaveSynopsis(writer, slot.dropped.get());
    writer->WriteI64(slot.kept_count);
    writer->WriteI64(slot.dropped_count);
  }
}

Status WindowSynopsizer::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(const uint64_t num_windows, reader->ReadCount(8));
  ReleaseBytes(accounted_bytes_);
  windows_.clear();
  cached_slot_ = nullptr;
  for (uint64_t i = 0; i < num_windows; ++i) {
    DT_ASSIGN_OR_RETURN(const WindowId window, reader->ReadI64());
    PerWindow slot;
    DT_ASSIGN_OR_RETURN(slot.kept, synopsis::LoadSynopsis(reader));
    DT_ASSIGN_OR_RETURN(slot.dropped, synopsis::LoadSynopsis(reader));
    DT_ASSIGN_OR_RETURN(slot.kept_count, reader->ReadI64());
    DT_ASSIGN_OR_RETURN(slot.dropped_count, reader->ReadI64());
    size_t loaded = 0;
    if (slot.kept != nullptr) loaded += slot.kept->MemoryBytes();
    if (slot.dropped != nullptr) loaded += slot.dropped->MemoryBytes();
    ApplyDelta(0, loaded);
    windows_.emplace(window, std::move(slot));
  }
  return Status::OK();
}

}  // namespace datatriage::triage
