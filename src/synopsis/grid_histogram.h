#ifndef DATATRIAGE_SYNOPSIS_GRID_HISTOGRAM_H_
#define DATATRIAGE_SYNOPSIS_GRID_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/synopsis/synopsis.h"

namespace datatriage::synopsis {

struct GridHistogramConfig {
  /// Edge length of the cubic cells, identical in every dimension (the
  /// paper's "sparse multidimensional histogram with cubic buckets",
  /// Sec. 5.2.2). For the integer-valued workloads of the paper, a width
  /// of w covers w distinct attribute values per cell.
  double cell_width = 4.0;
};

/// Sparse multidimensional histogram with cubic, grid-aligned buckets.
/// Only occupied cells are stored, so memory tracks the data's support
/// rather than the domain volume. Because all instances share one global
/// grid, equijoins reduce to cell-coordinate matching — the property that
/// makes this the paper's "fast" synopsis (Fig. 6).
///
/// Uniformity assumptions (documented in DESIGN.md): tuples are uniform
/// within a cell, and attribute domains are integer-valued, so a cell of
/// width w holds w distinct values of each attribute; equijoin selectivity
/// within a matching cell pair is 1/w per key.
///
/// Layout (DESIGN.md §18): the occupied cells live in two flat arrays in
/// strictly ascending lexicographic coordinate order. Every operator walks
/// its inputs in that order and sums counts in it, so each estimate's
/// floating-point summation order is fixed by the data alone.
class GridHistogram final : public Synopsis {
 public:
  /// Creates an empty histogram. Fails if the schema has non-numeric
  /// columns or cell_width is not a finite value > 0.
  static Result<SynopsisPtr> Make(Schema schema,
                                  const GridHistogramConfig& config);

  SynopsisType type() const override {
    return SynopsisType::kGridHistogram;
  }

  void Insert(const Tuple& tuple) override;
  double TotalCount() const override { return total_count_; }
  size_t SizeInCells() const override { return counts_.size(); }
  size_t MemoryBytes() const override;
  SynopsisPtr Clone() const override;

  Result<SynopsisPtr> Filter(const plan::BoundExpr& predicate,
                             OpStats* stats) const override;
  double EstimatePointCount(const Tuple& point) const override;

  void SaveState(serde::Writer* writer) const override;
  Status LoadState(serde::Reader* reader) override;

  double cell_width() const { return config_.cell_width; }

  /// Calls `fn(coords, count)` for every occupied cell in ascending
  /// coordinate order; `coords` holds one cell coordinate per column. For
  /// the visualization example, whose cells render as the red rectangles
  /// of paper Fig. 3.
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    for (size_t i = 0; i < counts_.size(); ++i) {
      fn(std::span<const int64_t>(CellAt(i), arity()), counts_[i]);
    }
  }

 private:
  Result<SynopsisPtr> DoUnionAll(const Synopsis& other,
                                 OpStats* stats) const override;
  Result<SynopsisPtr> DoEquiJoin(
      const Synopsis& other,
      const std::vector<std::pair<size_t, size_t>>& keys,
      Schema joined_schema, OpStats* stats) const override;
  Result<SynopsisPtr> DoProject(const std::vector<size_t>& indices,
                                Schema projected_schema,
                                OpStats* stats) const override;
  Result<GroupedEstimate> DoEstimateGroups(
      const std::vector<size_t>& group_columns,
      const std::vector<size_t>& agg_columns) const override;

  GridHistogram(Schema schema, const GridHistogramConfig& config)
      : Synopsis(std::move(schema)), config_(config) {}

  /// InvalidArgument unless `rhs` has this histogram's cell width.
  Status CheckSameWidth(const GridHistogram& rhs) const;
  size_t arity() const { return schema_.num_fields(); }
  int64_t CellCoord(double value) const;
  /// Writes the coordinates of the cell holding `tuple` to `key`.
  void CellOf(const Tuple& tuple, int64_t* key) const;
  /// Coordinates of cell `i` (arity() entries).
  const int64_t* CellAt(size_t i) const {
    return coords_.data() + i * arity();
  }
  /// Index of the first cell whose coordinates are not less than `key`.
  size_t LowerBound(const int64_t* key) const;
  /// Appends a cell that sorts after every cell held so far.
  void AppendCell(const int64_t* coords, double count);
  /// Number of distinct integer attribute values inside one cell edge.
  double ValuesPerCell() const;
  /// Midpoint of a cell along one dimension.
  double CellMidpoint(int64_t coord) const;

  GridHistogramConfig config_;
  /// Cell i has coordinates coords_[i*arity(), (i+1)*arity()) and
  /// estimated tuple count counts_[i]. Cells are distinct and in strictly
  /// ascending lexicographic coordinate order. A cell an operator creates
  /// starts at 0.0 and adds its contributions in input cell order.
  std::vector<int64_t> coords_;
  std::vector<double> counts_;
  double total_count_ = 0.0;
};

}  // namespace datatriage::synopsis

#endif  // DATATRIAGE_SYNOPSIS_GRID_HISTOGRAM_H_
