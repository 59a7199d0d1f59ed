#ifndef DATATRIAGE_SERVER_SNAPSHOT_H_
#define DATATRIAGE_SERVER_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/engine/config.h"

namespace datatriage::serde {
class Writer;
class Reader;
}  // namespace datatriage::serde

namespace datatriage::server {

/// A sealed, self-describing session snapshot (DESIGN.md §14): everything
/// needed to rebuild one QuerySession on any StreamServer over the same
/// catalog — SQL text, engine config, plane-clock state, and the session's
/// full SaveState blob — framed with a magic/version header and an MD5 of
/// the payload so corruption and version skew fail loudly instead of
/// restoring garbage.
///
/// Determinism contract: restore(snapshot(s)) is byte-equivalent to never
/// snapshotting — the restored session's future results, metrics JSON, and
/// drop-cause partitions match the donor's exactly (tests/ and src/sim/
/// oracles enforce this at worker counts 0..4).
struct SessionSnapshot {
  std::string bytes;
};

/// Current snapshot wire version. Bump when the payload layout changes;
/// OpenSnapshot rejects snapshots from other versions by name.
/// v2: EngineConfig gained memory_budget_bytes, and the session payload
/// carries per-lane window-buffer touch clocks plus the per-component
/// memory-account bytes and peaks (DESIGN.md §15).
/// v3: a scheduler stamp (dispatch-mode tag + parallel_min_rows) follows
/// the engine config; RestoreSession cross-checks it against the target
/// server's effective SchedulerOptions (DESIGN.md §16.3). Worker and
/// intra-session thread counts are deployment properties and are not
/// stamped.
/// v4: the drop-policy tag admits kUtility, whose per-lane queue state
/// carries the policy's partial-match tracker (DESIGN.md §17). The
/// payload layout is otherwise unchanged, but a v3 reader cannot parse a
/// utility lane, so the version gates it.
/// v5: the v3 scheduler stamp is gone — with one placement rule and no
/// morsel floor, no scheduler option shapes a session's bytes, so a
/// snapshot restores under any SchedulerOptions (DESIGN.md §16.3).
inline constexpr uint32_t kSnapshotVersion = 5;

/// Frames `payload` as a complete snapshot byte string:
/// magic "DTSS" + u32 version + u64 payload size + payload + 32-char MD5
/// hex of the payload.
std::string SealSnapshot(std::string payload);

/// Validates the frame (magic, version, length, MD5) and returns the
/// payload. InvalidArgument with a specific message on any mismatch.
Result<std::string> OpenSnapshot(std::string_view bytes);

/// EngineConfig serialization for the snapshot payload. Every field that
/// affects behavior is round-tripped — the restored session must make the
/// same shedding, synopsis, and cost-model decisions as the donor.
void SaveEngineConfig(serde::Writer* writer,
                      const engine::EngineConfig& config);
Result<engine::EngineConfig> LoadEngineConfig(serde::Reader* reader);

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_SNAPSHOT_H_
