#include "src/synopsis/grid_histogram.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <numeric>

#include "src/common/mem_accounting.h"
#include "src/common/serde.h"
#include "src/common/string_util.h"

namespace datatriage::synopsis {

namespace {

/// Cell keys of up to this many columns live on the stack.
constexpr size_t kStackArity = 16;

/// Room for one cell key of `arity` coordinates; heap-free for the
/// arities real stream schemas have.
class KeyBuffer {
 public:
  explicit KeyBuffer(size_t arity) {
    if (arity > kStackArity) heap_.resize(arity);
  }
  int64_t* data() { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  int64_t stack_[kStackArity] = {};
  std::vector<int64_t> heap_;
};

/// Lexicographic order of two `n`-coordinate cell keys (the order of
/// std::vector<int64_t>).
std::strong_ordering CompareCoords(const int64_t* a, const int64_t* b,
                                   size_t n) {
  for (size_t d = 0; d < n; ++d) {
    if (a[d] != b[d]) return a[d] <=> b[d];
  }
  return std::strong_ordering::equal;
}

bool CoordsLess(const int64_t* a, const int64_t* b, size_t n) {
  return CompareCoords(a, b, n) < 0;
}

/// Index of the first of `n` ascending `width`-coordinate rows at `rows`
/// that is not less than `key`.
size_t LowerBoundRow(const int64_t* rows, size_t n, size_t width,
                     const int64_t* key) {
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CoordsLess(rows + mid * width, key, width)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// CellCoord divides by the width and casts the quotient to int64, so
/// anything but a finite positive width is undefined behaviour there.
Status CheckCellWidth(double cell_width) {
  if (!std::isfinite(cell_width) || cell_width <= 0) {
    return Status::InvalidArgument(StringPrintf(
        "grid histogram cell_width must be finite and > 0, got %g",
        cell_width));
  }
  return Status::OK();
}

}  // namespace

Result<SynopsisPtr> GridHistogram::Make(Schema schema,
                                        const GridHistogramConfig& config) {
  DT_RETURN_IF_ERROR(CheckNumericSchema(schema));
  DT_RETURN_IF_ERROR(CheckCellWidth(config.cell_width));
  return SynopsisPtr(new GridHistogram(std::move(schema), config));
}

int64_t GridHistogram::CellCoord(double value) const {
  return static_cast<int64_t>(std::floor(value / config_.cell_width));
}

void GridHistogram::CellOf(const Tuple& tuple, int64_t* key) const {
  for (size_t i = 0; i < arity(); ++i) {
    key[i] = CellCoord(tuple.value(i).AsDouble());
  }
}

size_t GridHistogram::LowerBound(const int64_t* key) const {
  return LowerBoundRow(coords_.data(), counts_.size(), arity(), key);
}

void GridHistogram::AppendCell(const int64_t* coords, double count) {
  coords_.insert(coords_.end(), coords, coords + arity());
  counts_.push_back(count);
}

double GridHistogram::ValuesPerCell() const {
  return std::max(1.0, std::round(config_.cell_width));
}

double GridHistogram::CellMidpoint(int64_t coord) const {
  return (static_cast<double>(coord) + 0.5) * config_.cell_width;
}

size_t GridHistogram::MemoryBytes() const {
  // The accountant's frozen model (DESIGN.md §15.2, §18): one ordered-map
  // node per occupied cell holding a coordinate vector and a count. It is
  // not the flat arrays' footprint; memory-triggered folds depend on it.
  const size_t per_cell = mem::kMapNodeBytes + mem::kVectorHeaderBytes +
                          8 * arity() + 8;
  return mem::kSynopsisBaseBytes + counts_.size() * per_cell;
}

void GridHistogram::Insert(const Tuple& tuple) {
  DT_CHECK_EQ(tuple.size(), arity());
  KeyBuffer key(arity());
  CellOf(tuple, key.data());
  const size_t pos = LowerBound(key.data());
  if (pos < counts_.size() &&
      CompareCoords(CellAt(pos), key.data(), arity()) == 0) {
    counts_[pos] += 1.0;
  } else {
    coords_.insert(coords_.begin() + pos * arity(), key.data(),
                   key.data() + arity());
    counts_.insert(counts_.begin() + pos, 1.0);
  }
  total_count_ += 1.0;
}

SynopsisPtr GridHistogram::Clone() const {
  auto clone =
      std::unique_ptr<GridHistogram>(new GridHistogram(schema_, config_));
  clone->coords_ = coords_;
  clone->counts_ = counts_;
  clone->total_count_ = total_count_;
  return clone;
}

Status GridHistogram::CheckSameWidth(const GridHistogram& rhs) const {
  if (rhs.config_.cell_width == config_.cell_width) return Status::OK();
  return Status::InvalidArgument(
      StringPrintf("grid cell widths differ (%g vs %g)", config_.cell_width,
                   rhs.config_.cell_width));
}

Result<SynopsisPtr> GridHistogram::DoUnionAll(const Synopsis& other,
                                              OpStats* stats) const {
  const auto& rhs = static_cast<const GridHistogram&>(other);
  DT_RETURN_IF_ERROR(CheckSameWidth(rhs));
  // One merge of the two ascending cell lists.
  auto result =
      std::unique_ptr<GridHistogram>(new GridHistogram(schema_, config_));
  const size_t n = counts_.size();
  const size_t m = rhs.counts_.size();
  result->coords_.reserve(coords_.size() + rhs.coords_.size());
  result->counts_.reserve(n + m);
  size_t i = 0;
  size_t j = 0;
  while (i < n || j < m) {
    const std::strong_ordering order =
        i == n   ? std::strong_ordering::greater
        : j == m ? std::strong_ordering::less
                 : CompareCoords(CellAt(i), rhs.CellAt(j), arity());
    if (order < 0) {
      result->AppendCell(CellAt(i), counts_[i]);
      ++i;
    } else if (order > 0) {
      result->AppendCell(rhs.CellAt(j), 0.0 + rhs.counts_[j]);
      ++j;
    } else {
      result->AppendCell(CellAt(i), counts_[i] + rhs.counts_[j]);
      ++i;
      ++j;
    }
  }
  result->total_count_ = total_count_;
  for (const double count : rhs.counts_) result->total_count_ += count;
  if (stats != nullptr) stats->work += static_cast<int64_t>(n + m);
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> GridHistogram::DoEquiJoin(
    const Synopsis& other, const std::vector<std::pair<size_t, size_t>>& keys,
    Schema joined_schema, OpStats* stats) const {
  const auto& rhs = static_cast<const GridHistogram&>(other);
  DT_RETURN_IF_ERROR(CheckSameWidth(rhs));
  // Index the right side's cells by their join-key coordinates. The stable
  // sort keeps cells with equal keys in ascending coordinate order, so
  // each left cell's matches append in ascending output order.
  const size_t nk = keys.size();
  const size_t m = rhs.counts_.size();
  std::vector<int64_t> rkeys(m * nk);
  for (size_t j = 0; j < m; ++j) {
    const int64_t* rcoords = rhs.CellAt(j);
    for (size_t k = 0; k < nk; ++k) rkeys[j * nk + k] = rcoords[keys[k].second];
  }
  std::vector<size_t> by_key(m);
  std::iota(by_key.begin(), by_key.end(), size_t{0});
  std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
    return CoordsLess(rkeys.data() + a * nk, rkeys.data() + b * nk, nk);
  });
  std::vector<int64_t> sorted_keys(m * nk);
  for (size_t j = 0; j < m; ++j) {
    std::copy_n(rkeys.data() + by_key[j] * nk, nk,
                sorted_keys.data() + j * nk);
  }

  // Within a matching cell pair, assume uniformity: each of the w distinct
  // values per key dimension is equally likely, so the expected number of
  // matching pairs is c1*c2 / w^|keys| (exact join count when keys is
  // empty, i.e. a cross product of one-tuple-per-window synopsis streams
  // as in paper Fig. 5).
  const double selectivity =
      std::pow(1.0 / ValuesPerCell(), static_cast<double>(keys.size()));

  // Left cells ascend and each one's matches ascend, so appending the
  // concatenated coordinates keeps the output sorted; every output cell
  // gets exactly one contribution.
  auto result = std::unique_ptr<GridHistogram>(
      new GridHistogram(std::move(joined_schema), config_));
  std::vector<int64_t>& out = result->coords_;
  std::vector<int64_t> lkey(nk);
  int64_t work = static_cast<int64_t>(m);
  for (size_t i = 0; i < counts_.size(); ++i) {
    ++work;
    const int64_t* lcoords = CellAt(i);
    for (size_t k = 0; k < nk; ++k) lkey[k] = lcoords[keys[k].first];
    for (size_t j = LowerBoundRow(sorted_keys.data(), m, nk, lkey.data());
         j < m &&
         CompareCoords(sorted_keys.data() + j * nk, lkey.data(), nk) == 0;
         ++j) {
      ++work;
      const size_t r = by_key[j];
      const double count = counts_[i] * rhs.counts_[r] * selectivity;
      if (count <= 0) continue;
      const int64_t* rcoords = rhs.CellAt(r);
      out.insert(out.end(), lcoords, lcoords + arity());
      out.insert(out.end(), rcoords, rcoords + rhs.arity());
      result->counts_.push_back(0.0 + count);
      result->total_count_ += count;
    }
  }
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> GridHistogram::DoProject(
    const std::vector<size_t>& indices, Schema projected_schema,
    OpStats* stats) const {
  auto result = std::unique_ptr<GridHistogram>(
      new GridHistogram(std::move(projected_schema), config_));
  const size_t n = counts_.size();
  const size_t k = indices.size();
  std::vector<int64_t> projected(n * k);
  for (size_t i = 0; i < n; ++i) {
    const int64_t* coords = CellAt(i);
    for (size_t d = 0; d < k; ++d) projected[i * k + d] = coords[indices[d]];
  }
  // The stable sort keeps each run of equal projected keys in input
  // order, which is the order its counts are summed in.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CoordsLess(projected.data() + a * k, projected.data() + b * k, k);
  });
  for (size_t run = 0; run < n;) {
    const int64_t* key = projected.data() + order[run] * k;
    double sum = 0.0;
    size_t next = run;
    for (; next < n &&
           CompareCoords(projected.data() + order[next] * k, key, k) == 0;
         ++next) {
      sum += counts_[order[next]];
    }
    result->AppendCell(key, sum);
    run = next;
  }
  for (const double count : counts_) result->total_count_ += count;
  if (stats != nullptr) stats->work += static_cast<int64_t>(n);
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> GridHistogram::Filter(const plan::BoundExpr& predicate,
                                          OpStats* stats) const {
  // Coarse bucket-granularity selection: the predicate is evaluated at
  // each cell's midpoint and the whole cell is kept or discarded.
  auto result =
      std::unique_ptr<GridHistogram>(new GridHistogram(schema_, config_));
  Tuple midpoint(std::vector<Value>(arity(), Value::Double(0.0)));
  for (size_t i = 0; i < counts_.size(); ++i) {
    const int64_t* coords = CellAt(i);
    for (size_t d = 0; d < arity(); ++d) {
      midpoint.value(d) = Value::Double(CellMidpoint(coords[d]));
    }
    if (predicate.EvaluatesToTrue(midpoint)) {
      result->AppendCell(coords, 0.0 + counts_[i]);
      result->total_count_ += counts_[i];
    }
  }
  if (stats != nullptr) stats->work += static_cast<int64_t>(counts_.size());
  return SynopsisPtr(std::move(result));
}

Result<GroupedEstimate> GridHistogram::DoEstimateGroups(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  BucketGroupWalk walk(schema_, group_columns, agg_columns);
  std::vector<double> lo(arity()), hi(arity()), mid(arity());
  for (size_t i = 0; i < counts_.size(); ++i) {
    const int64_t* coords = CellAt(i);
    for (size_t d = 0; d < arity(); ++d) {
      lo[d] = static_cast<double>(coords[d]) * config_.cell_width;
      hi[d] = static_cast<double>(coords[d] + 1) * config_.cell_width;
      mid[d] = CellMidpoint(coords[d]);
    }
    walk.Spread(lo.data(), hi.data(), mid.data(), counts_[i]);
  }
  return walk.Take();
}

double GridHistogram::EstimatePointCount(const Tuple& point) const {
  DT_CHECK_EQ(point.size(), arity());
  KeyBuffer key(arity());
  CellOf(point, key.data());
  const size_t pos = LowerBound(key.data());
  if (pos == counts_.size() ||
      CompareCoords(CellAt(pos), key.data(), arity()) != 0) {
    return 0.0;
  }
  // Spread the cell mass uniformly over the integer points it covers.
  double points = 1.0;
  for (size_t i = 0; i < point.size(); ++i) {
    if (schema_.field(i).type == FieldType::kInt64) {
      points *= ValuesPerCell();
    }
  }
  return counts_[pos] / points;
}

void GridHistogram::SaveState(serde::Writer* writer) const {
  writer->WriteDouble(config_.cell_width);
  writer->WriteU64(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    writer->WriteU64(arity());
    const int64_t* coords = CellAt(i);
    for (size_t d = 0; d < arity(); ++d) writer->WriteI64(coords[d]);
    writer->WriteDouble(counts_[i]);
  }
  writer->WriteDouble(total_count_);
}

Status GridHistogram::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(const double cell_width, reader->ReadDouble());
  if (Status s = CheckCellWidth(cell_width); !s.ok()) {
    return Status::InvalidArgument("snapshot: " + s.message());
  }
  // A cell is its arity word, arity() coordinates and a count.
  DT_ASSIGN_OR_RETURN(const uint64_t num_cells,
                      reader->ReadCount(16 + 8 * arity()));
  std::vector<int64_t> coords;
  std::vector<double> counts;
  coords.reserve(num_cells * arity());
  counts.reserve(num_cells);
  for (uint64_t i = 0; i < num_cells; ++i) {
    DT_ASSIGN_OR_RETURN(const uint64_t dims, reader->ReadU64());
    if (dims != arity()) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot: grid cell %llu has %llu coordinate(s), schema has %zu",
          static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(dims), arity()));
    }
    for (size_t d = 0; d < arity(); ++d) {
      DT_ASSIGN_OR_RETURN(const int64_t c, reader->ReadI64());
      coords.push_back(c);
    }
    // Lookups and merges rely on strictly ascending, duplicate-free cells.
    if (i > 0 && !CoordsLess(coords.data() + (i - 1) * arity(),
                             coords.data() + i * arity(), arity())) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot: grid cell %llu is not above its predecessor",
          static_cast<unsigned long long>(i)));
    }
    DT_ASSIGN_OR_RETURN(const double count, reader->ReadDouble());
    counts.push_back(count);
  }
  DT_ASSIGN_OR_RETURN(const double total_count, reader->ReadDouble());
  config_.cell_width = cell_width;
  coords_ = std::move(coords);
  counts_ = std::move(counts);
  total_count_ = total_count;
  return Status::OK();
}

}  // namespace datatriage::synopsis
