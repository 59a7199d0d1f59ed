#include "src/io/csv.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/string_util.h"

namespace datatriage::io {

namespace {

Result<Value> ParseValueAs(std::string_view text, FieldType type,
                           int line_number) {
  const std::string stripped(StripWhitespace(text));
  auto bad = [&](const char* what) {
    return Status::ParseError(StringPrintf(
        "line %d: cannot parse '%s' as %s", line_number, stripped.c_str(),
        what));
  };
  switch (type) {
    case FieldType::kInt64: {
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(stripped.c_str(), &end, 10);
      if (end == stripped.c_str() || *end != '\0') return bad("INTEGER");
      if (errno == ERANGE) return bad("INTEGER: out of the 64-bit range");
      return Value::Int64(v);
    }
    case FieldType::kDouble:
    case FieldType::kTimestamp: {
      char* end = nullptr;
      const double v = std::strtod(stripped.c_str(), &end);
      if (end == stripped.c_str() || *end != '\0') return bad("DOUBLE");
      return type == FieldType::kTimestamp ? Value::Timestamp(v)
                                           : Value::Double(v);
    }
    case FieldType::kString:
      return Value::String(stripped);
  }
  return Status::Internal("unhandled field type");
}

std::string ValueToCsv(const Value& v) {
  if (v.is_string()) return v.str();
  if (v.is_int64()) return std::to_string(v.int64());
  return StringPrintf("%.12g", v.AsDouble());
}

}  // namespace

Result<std::vector<engine::StreamEvent>> ParseEventsCsv(
    std::string_view text, const Catalog& catalog) {
  std::vector<engine::StreamEvent> events;
  int line_number = 0;
  for (const std::string& line : SplitString(text, '\n')) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    if (line_number == 1 && stripped.rfind("stream,", 0) == 0) continue;

    const std::vector<std::string> fields = SplitString(stripped, ',');
    if (fields.size() < 2) {
      return Status::ParseError(StringPrintf(
          "line %d: expected 'stream,timestamp,...'", line_number));
    }
    const std::string stream(StripWhitespace(fields[0]));
    DT_ASSIGN_OR_RETURN(StreamDef def, catalog.GetStream(stream));
    if (fields.size() != def.schema.num_fields() + 2) {
      return Status::ParseError(StringPrintf(
          "line %d: stream '%s' needs %zu value columns, got %zu",
          line_number, stream.c_str(), def.schema.num_fields(),
          fields.size() - 2));
    }
    char* end = nullptr;
    const std::string ts_text(StripWhitespace(fields[1]));
    const double timestamp = std::strtod(ts_text.c_str(), &end);
    if (end == ts_text.c_str() || *end != '\0') {
      return Status::ParseError(
          StringPrintf("line %d: bad timestamp '%s'", line_number,
                       ts_text.c_str()));
    }
    std::vector<Value> values;
    values.reserve(def.schema.num_fields());
    for (size_t i = 0; i < def.schema.num_fields(); ++i) {
      DT_ASSIGN_OR_RETURN(
          Value v, ParseValueAs(fields[i + 2], def.schema.field(i).type,
                                line_number));
      values.push_back(std::move(v));
    }
    events.push_back(engine::StreamEvent{
        def.name, Tuple(std::move(values), timestamp)});
  }
  return events;
}

std::string FormatEventsCsv(
    const std::vector<engine::StreamEvent>& events) {
  std::string out = "stream,timestamp,values...\n";
  for (const engine::StreamEvent& event : events) {
    out += event.stream;
    out += StringPrintf(",%.9g", event.tuple.timestamp());
    for (const Value& v : event.tuple.values()) {
      out += ',';
      out += ValueToCsv(v);
    }
    out += '\n';
  }
  return out;
}

void SortEventsByTime(std::vector<engine::StreamEvent>* events) {
  std::stable_sort(events->begin(), events->end(),
                   [](const engine::StreamEvent& a,
                      const engine::StreamEvent& b) {
                     return a.tuple.timestamp() < b.tuple.timestamp();
                   });
}

std::string FormatResultsCsv(
    const std::vector<engine::WindowResult>& results,
    const std::vector<std::string>& column_names) {
  std::string out = "kind,window,emit_time";
  for (const std::string& name : column_names) {
    out += ',';
    out += name;
  }
  out += '\n';
  auto emit_rows = [&](const char* kind,
                       const engine::WindowResult& result,
                       const exec::Relation& rows) {
    for (const Tuple& row : rows) {
      out += kind;
      out += StringPrintf(",%lld,%.6g",
                          static_cast<long long>(result.window),
                          result.emit_time);
      for (const Value& v : row.values()) {
        out += ',';
        out += ValueToCsv(v);
      }
      out += '\n';
    }
  };
  for (const engine::WindowResult& result : results) {
    emit_rows("exact", result, result.exact_rows);
    emit_rows("merged", result, result.merged_rows);
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace datatriage::io
