#ifndef DATATRIAGE_SYNOPSIS_SYNOPSIS_H_
#define DATATRIAGE_SYNOPSIS_SYNOPSIS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/common/result.h"
#include "src/plan/expression.h"
#include "src/tuple/tuple.h"

namespace datatriage::serde {
class Writer;
class Reader;
}  // namespace datatriage::serde

namespace datatriage::synopsis {

enum class SynopsisType {
  kGridHistogram,    // sparse multidimensional histogram, cubic buckets
                     // (the paper's fast synopsis)
  kMHist,            // MHIST with MAXDIFF splits (the paper's slow/accurate
                     // synopsis)
  kAlignedMHist,     // MHIST constrained to grid-aligned boundaries
                     // (paper Sec. 8.1 future-work variant)
  kReservoirSample,  // scaled uniform sample (extension)
  kAviHistogram,     // per-column marginals under attribute value
                     // independence (classic baseline; ablation A1)
  kExact,            // lossless multiset; testing/reference only
};

std::string_view SynopsisTypeToString(SynopsisType type);

/// Work accounting for synopsis-algebra operations (one unit ~ one bucket
/// or sample row touched). The engine's cost model converts these to
/// virtual seconds, which is how the MHIST bucket-blowup of paper
/// Sec. 5.2.2 manifests as real overload.
struct OpStats {
  int64_t work = 0;

  OpStats& operator+=(const OpStats& other) {
    work += other.work;
    return *this;
  }
};

/// Running estimate of {COUNT, SUM, MIN, MAX} of one column within one
/// group. Counts are fractional: histogram buckets spread mass over the
/// group values they cover.
struct AggAccumulator {
  double count = 0.0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double value, double weight);
  void MergeFrom(const AggAccumulator& other);
};

/// Sentinel column index for COUNT(*)-style accumulators that track only
/// cardinality.
inline constexpr size_t kCountOnlyColumn =
    std::numeric_limits<size_t>::max();

/// Estimated per-group accumulators: group key values -> one accumulator
/// per requested aggregate column. Ordered map for deterministic
/// iteration.
using GroupedEstimate =
    std::map<std::vector<Value>, std::vector<AggAccumulator>>;

/// One (tuple, weight) row of a sample-based synopsis. A weight of w means
/// the row stands in for w tuples of the summarized multiset.
struct WeightedRow {
  Tuple tuple;
  double weight = 1.0;
};

class Synopsis;
using SynopsisPtr = std::unique_ptr<Synopsis>;

/// Lossy summary of a multiset of tuples, closed under the relational
/// algebra the shadow plan needs (paper Sec. 5.1): projection, multiset
/// union, equijoin, and selection. All columns must be numeric.
///
/// Union, join, projection and grouped estimation are non-virtual front
/// doors: they check every argument once for all families — same type,
/// same arity for a union, every column index in range, as many names as
/// indices — build the result schema, and only then call the concrete
/// type's hook. Mismatches return InvalidArgument (type, arity, name
/// count) or OutOfRange (a column index) rather than silently degrading;
/// a hook checks only its own parameters, such as cell widths.
class Synopsis {
 public:
  virtual ~Synopsis() = default;

  Synopsis(const Synopsis&) = delete;
  Synopsis& operator=(const Synopsis&) = delete;

  virtual SynopsisType type() const = 0;
  const Schema& schema() const { return schema_; }

  /// Folds one tuple into the summary.
  virtual void Insert(const Tuple& tuple) = 0;

  /// Estimated number of summarized tuples.
  virtual double TotalCount() const = 0;

  /// Memory footprint proxy: buckets / samples currently held.
  virtual size_t SizeInCells() const = 0;

  /// Deterministic model bytes this synopsis holds (the byte model of
  /// src/common/mem_accounting.h, not allocator truth). Contract: the
  /// value is a pure function of the summarized state — it changes only
  /// under Insert / LoadState / construction by an algebra operation,
  /// never under const reads (lazy build caches are excluded), so
  /// owners can account charge deltas by bracketing those mutations.
  virtual size_t MemoryBytes() const = 0;

  virtual SynopsisPtr Clone() const = 0;

  // ------------------------------------------------------------------
  // Relational algebra over synopses (paper Sec. 5.1's user-defined
  // functions project/union_all/equijoin, plus selection).
  // Operations never mutate their inputs.
  // ------------------------------------------------------------------

  /// Approximate UNION ALL. `other` must match in type and arity, and in
  /// the type's own parameters.
  Result<SynopsisPtr> UnionAllWith(const Synopsis& other,
                                   OpStats* stats) const;

  /// Approximate equijoin; `keys` pairs (this column, other column). The
  /// result schema is this->schema() ++ other.schema(), with names
  /// prefixed "l." and "r." so the sides cannot collide (plans address
  /// columns by position).
  Result<SynopsisPtr> EquiJoinWith(
      const Synopsis& other,
      const std::vector<std::pair<size_t, size_t>>& keys,
      OpStats* stats) const;

  /// Projection onto `indices`, renamed to `names` (multiset semantics:
  /// counts are preserved, not deduplicated).
  Result<SynopsisPtr> ProjectColumns(const std::vector<size_t>& indices,
                                     const std::vector<std::string>& names,
                                     OpStats* stats) const;

  /// Approximate selection. Histogram implementations evaluate the
  /// predicate at bucket representatives and keep or discard whole
  /// buckets; sample-based implementations filter exactly.
  virtual Result<SynopsisPtr> Filter(const plan::BoundExpr& predicate,
                                     OpStats* stats) const = 0;

  /// Estimates per-group aggregate accumulators. `group_columns` are the
  /// grouping columns; `agg_columns` selects the column feeding each
  /// accumulator (kCountOnlyColumn for COUNT(*)). Integer-typed group
  /// columns are enumerated point-by-point within buckets; real-valued
  /// ones collapse to bucket representatives.
  Result<GroupedEstimate> EstimateGroups(
      const std::vector<size_t>& group_columns,
      const std::vector<size_t>& agg_columns) const;

  /// Estimated count of tuples equal to `point` on all columns
  /// (selectivity-style point estimate; used by tests and the
  /// visualization example).
  virtual double EstimatePointCount(const Tuple& point) const = 0;

  std::string DebugString() const;

  /// Session-snapshot hooks (DESIGN.md §14): serialize every member the
  /// estimates depend on — per-type parameters, bucket/sample contents,
  /// RNG positions, lazy-build flags — so a restored synopsis continues
  /// byte-identically. The dispatcher in src/synopsis/serde.h writes the
  /// type tag and schema; implementations write only their own state and
  /// LoadState overwrites the default-constructed parameters.
  virtual void SaveState(serde::Writer* writer) const = 0;
  virtual Status LoadState(serde::Reader* reader) = 0;

  /// Validates that all columns are numeric (the synopsis structures
  /// histogram/sample over numeric domains only).
  static Status CheckNumericSchema(const Schema& schema);

 protected:
  explicit Synopsis(Schema schema) : schema_(std::move(schema)) {}

  Schema schema_;

 private:
  // Per-type algebra hooks, called by the front doors above once every
  // argument is known to be legal: `other` has this synopsis's type, and
  // every column index is in range. The joined and projected schemas
  // arrive built.
  virtual Result<SynopsisPtr> DoUnionAll(const Synopsis& other,
                                         OpStats* stats) const = 0;
  virtual Result<SynopsisPtr> DoEquiJoin(
      const Synopsis& other,
      const std::vector<std::pair<size_t, size_t>>& keys,
      Schema joined_schema, OpStats* stats) const = 0;
  virtual Result<SynopsisPtr> DoProject(const std::vector<size_t>& indices,
                                        Schema projected_schema,
                                        OpStats* stats) const = 0;
  virtual Result<GroupedEstimate> DoEstimateGroups(
      const std::vector<size_t>& group_columns,
      const std::vector<size_t>& agg_columns) const = 0;
};

/// The group-point walk of the bucket histograms (grid and MHIST): each
/// bucket's count is spread uniformly over the group points it covers.
/// An integer-typed group column contributes one point per integer in
/// the bucket's extent [lo, hi) (its lower bound when none fits); a
/// real-valued one collapses to the bucket's representative value. An
/// aggregate column takes the point's coordinate when it is also a group
/// column, and the representative otherwise. Points are visited with the
/// first group column varying fastest, and the point buffers are reused
/// from one bucket to the next.
class BucketGroupWalk {
 public:
  /// `group_columns` and `agg_columns` must be in range for `schema` and
  /// outlive the walk.
  BucketGroupWalk(const Schema& schema,
                  const std::vector<size_t>& group_columns,
                  const std::vector<size_t>& agg_columns);

  /// Spreads `count` over one bucket whose extent along column c is
  /// [lo[c], hi[c]) with representative value mid[c]; each array has one
  /// entry per schema column.
  void Spread(const double* lo, const double* hi, const double* mid,
              double count);

  GroupedEstimate Take() { return std::move(groups_); }

 private:
  const std::vector<size_t>& group_columns_;
  const std::vector<size_t>& agg_columns_;
  /// Per group column: whether it is integer-typed.
  std::vector<bool> integral_;
  /// Per aggregate: the first group dimension over the same column, or
  /// group_columns_.size() when there is none.
  std::vector<size_t> agg_group_dim_;
  /// Per group column: the current bucket's points.
  std::vector<std::vector<double>> points_;
  std::vector<size_t> cursor_;
  std::vector<Value> key_;
  GroupedEstimate groups_;
};

}  // namespace datatriage::synopsis

#endif  // DATATRIAGE_SYNOPSIS_SYNOPSIS_H_
