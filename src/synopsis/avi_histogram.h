#ifndef DATATRIAGE_SYNOPSIS_AVI_HISTOGRAM_H_
#define DATATRIAGE_SYNOPSIS_AVI_HISTOGRAM_H_

#include <map>
#include <vector>

#include "src/synopsis/synopsis.h"

namespace datatriage::synopsis {

struct AviHistogramConfig {
  /// Cell width of each per-column marginal histogram.
  double cell_width = 4.0;
};

/// One-dimensional marginal histograms per column combined under the
/// Attribute Value Independence (AVI) assumption: the joint distribution
/// is modelled as the product of its marginals.
///
/// This is the classic baseline that multidimensional histograms like
/// MHIST exist to beat (Poosala & Ioannidis, "Selectivity estimation
/// without the attribute value independence assumption", cited by the
/// paper). It is included as an ablation point: memory is O(width x
/// dims) instead of O(occupied joint cells), joins are fast, but any
/// correlation between columns — e.g. the join-key structure a shadow
/// query's intermediate results carry — is lost, which shows up as
/// estimation error in the A1 ablation.
class AviHistogram final : public Synopsis {
 public:
  static Result<SynopsisPtr> Make(Schema schema,
                                  const AviHistogramConfig& config);

  SynopsisType type() const override {
    return SynopsisType::kAviHistogram;
  }

  void Insert(const Tuple& tuple) override;
  double TotalCount() const override { return total_count_; }
  size_t SizeInCells() const override;
  size_t MemoryBytes() const override;
  SynopsisPtr Clone() const override;

  Result<SynopsisPtr> Filter(const plan::BoundExpr& predicate,
                             OpStats* stats) const override;
  double EstimatePointCount(const Tuple& point) const override;

  void SaveState(serde::Writer* writer) const override;
  Status LoadState(serde::Reader* reader) override;

  /// Marginal cell-coordinate -> mass for one dimension (testing hook).
  const std::map<int64_t, double>& marginal(size_t dim) const {
    return marginals_.at(dim);
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

  AviHistogram(Schema schema, const AviHistogramConfig& config)
      : Synopsis(std::move(schema)),
        config_(config),
        marginals_(schema_.num_fields()) {}

  int64_t CellCoord(double value) const;
  double ValuesPerCell() const;
  double CellMidpoint(int64_t coord) const;
  /// Mean of dimension `dim`'s marginal (0 when empty).
  double MarginalMean(size_t dim) const;

  AviHistogramConfig config_;
  std::vector<std::map<int64_t, double>> marginals_;
  double total_count_ = 0.0;
};

}  // namespace datatriage::synopsis

#endif  // DATATRIAGE_SYNOPSIS_AVI_HISTOGRAM_H_
