#ifndef DATATRIAGE_IO_CSV_H_
#define DATATRIAGE_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/result.h"
#include "src/engine/config.h"
#include "src/engine/window_result.h"

namespace datatriage::io {

/// Parses a stream-event CSV into engine events.
///
/// Format: one event per line, `stream,timestamp,v1,v2,...`; a header
/// line starting with "stream," is skipped; blank lines and lines
/// starting with '#' are ignored. Values are typed by the stream's
/// catalog schema. Fields must not contain commas (no quoting dialect).
/// Events are returned in file order; the engine requires non-decreasing
/// timestamps, so files are expected to be time-sorted (use
/// `SortEventsByTime` otherwise).
Result<std::vector<engine::StreamEvent>> ParseEventsCsv(
    std::string_view text, const Catalog& catalog);

/// Renders events back to the same CSV format (with header).
std::string FormatEventsCsv(
    const std::vector<engine::StreamEvent>& events);

/// Stable-sorts events by timestamp.
void SortEventsByTime(std::vector<engine::StreamEvent>* events);

/// Renders per-window results as CSV:
///   kind,window,emit_time,c1,c2,...
/// with one `exact` row per exact result tuple and one `merged` row per
/// composite result tuple. `column_names` labels the result columns in
/// the header.
std::string FormatResultsCsv(
    const std::vector<engine::WindowResult>& results,
    const std::vector<std::string>& column_names);

/// Reads a whole file into a string (convenience for the CLI tools).
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace datatriage::io

#endif  // DATATRIAGE_IO_CSV_H_
