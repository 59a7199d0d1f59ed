#include "src/synopsis/mhist.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/mem_accounting.h"
#include "src/common/serde.h"
#include "src/tuple/serde.h"

namespace datatriage::synopsis {

namespace {

/// Build-time bucket: bounds plus the tuples it currently holds.
struct BuildBucket {
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<const Tuple*> tuples;
};

struct SplitChoice {
  bool valid = false;
  size_t bucket = 0;
  size_t dim = 0;
  double split_point = 0.0;
  double score = -1.0;
};

/// Finds the MAXDIFF split for one bucket/dimension: the boundary between
/// the adjacent distinct values whose *areas* (frequency × spread to the
/// next value) differ the most — the MAXDIFF(V,A) variant of Poosala &
/// Ioannidis, which separates far-apart equal-frequency modes that a pure
/// frequency-difference metric would never split.
void ConsiderSplits(const BuildBucket& bucket, size_t bucket_index,
                    size_t dims, const MHistConfig& config,
                    SplitChoice* best) {
  for (size_t d = 0; d < dims; ++d) {
    // Marginal frequency of each distinct value along dimension d.
    std::map<double, int64_t> freq;
    for (const Tuple* t : bucket.tuples) {
      ++freq[t->value(d).AsDouble()];
    }
    if (freq.size() < 2) continue;
    std::vector<double> values, areas;
    values.reserve(freq.size());
    areas.reserve(freq.size());
    for (const auto& [value, count] : freq) values.push_back(value);
    size_t i = 0;
    for (const auto& [value, count] : freq) {
      const double spread =
          i + 1 < values.size() ? values[i + 1] - value : 1.0;
      areas.push_back(static_cast<double>(count) * spread);
      ++i;
    }
    for (size_t t = 0; t + 1 < values.size(); ++t) {
      const double score = std::abs(areas[t + 1] - areas[t]);
      double split = values[t + 1];
      if (config.aligned) {
        // Snap to the nearest allowed boundary; reject if it leaves the
        // bucket interior.
        split = std::round(split / config.alignment_step) *
                config.alignment_step;
        if (split <= bucket.lo[d] || split >= bucket.hi[d]) continue;
      }
      if (score > best->score) {
        best->valid = true;
        best->bucket = bucket_index;
        best->dim = d;
        best->split_point = split;
        best->score = score;
      }
    }
  }
}

}  // namespace

Result<SynopsisPtr> MHist::Make(Schema schema, const MHistConfig& config) {
  DT_RETURN_IF_ERROR(CheckNumericSchema(schema));
  if (config.max_buckets == 0) {
    return Status::InvalidArgument("MHIST bucket budget must be > 0");
  }
  if (config.aligned && config.alignment_step <= 0) {
    return Status::InvalidArgument("MHIST alignment step must be > 0");
  }
  return SynopsisPtr(new MHist(std::move(schema), config));
}

void MHist::Insert(const Tuple& tuple) {
  DT_CHECK(!built_) << "Insert after the MAXDIFF build ran";
  DT_CHECK_EQ(tuple.size(), schema_.num_fields());
  state_bytes_ += mem::TupleBytes(tuple);
  buffer_.push_back(tuple);
  total_count_ += 1.0;
}

size_t MHist::SizeInCells() const {
  EnsureBuilt();
  return buckets_.size();
}

size_t MHist::BucketModelBytes() const {
  return 2 * (mem::kVectorHeaderBytes + 8 * schema_.num_fields()) + 8;
}

size_t MHist::MemoryBytes() const {
  // The bucket budget is charged up front as a reservation: the lazy
  // MAXDIFF build may materialize up to max_buckets at any const read,
  // and accounting must not move on const reads.
  return mem::kSynopsisBaseBytes +
         config_.max_buckets * BucketModelBytes() + state_bytes_;
}

void MHist::RecomputeMemoryBytes() {
  state_bytes_ = mem::RelationBytes(buffer_);
  if (built_ && buffer_.empty()) {
    state_bytes_ += buckets_.size() * BucketModelBytes();
  }
}

const std::vector<MHist::Bucket>& MHist::buckets() const {
  EnsureBuilt();
  return buckets_;
}

int64_t MHist::EnsureBuilt() const {
  if (built_) return 0;
  built_ = true;
  if (buffer_.empty()) return 0;

  const size_t dims = schema_.num_fields();
  int64_t work = 0;

  // Seed with one bucket spanning the data (half-open: pad hi by 1 so the
  // maximum value is inside, matching integer-valued domains).
  BuildBucket root;
  root.lo.assign(dims, std::numeric_limits<double>::infinity());
  root.hi.assign(dims, -std::numeric_limits<double>::infinity());
  for (const Tuple& t : buffer_) {
    for (size_t d = 0; d < dims; ++d) {
      const double v = t.value(d).AsDouble();
      root.lo[d] = std::min(root.lo[d], v);
      root.hi[d] = std::max(root.hi[d], v);
    }
    root.tuples.push_back(&t);
  }
  for (size_t d = 0; d < dims; ++d) root.hi[d] += 1.0;

  std::vector<BuildBucket> building;
  building.push_back(std::move(root));

  // Each bucket's best split is computed once and cached; a split only
  // invalidates the two buckets it creates, keeping the build roughly
  // linear in tuples x splits instead of quadratic.
  std::vector<SplitChoice> best_for_bucket;
  auto compute_choice = [&](size_t index) {
    SplitChoice choice;
    work += static_cast<int64_t>(building[index].tuples.size()) *
            static_cast<int64_t>(dims);
    ConsiderSplits(building[index], index, dims, config_, &choice);
    return choice;
  };
  best_for_bucket.push_back(compute_choice(0));

  while (building.size() < config_.max_buckets) {
    SplitChoice best;
    for (const SplitChoice& choice : best_for_bucket) {
      if (choice.valid && choice.score > best.score) best = choice;
    }
    if (!best.valid) break;
    BuildBucket& victim = building[best.bucket];
    BuildBucket left, right;
    left.lo = victim.lo;
    left.hi = victim.hi;
    left.hi[best.dim] = best.split_point;
    right.lo = victim.lo;
    right.lo[best.dim] = best.split_point;
    right.hi = victim.hi;
    for (const Tuple* t : victim.tuples) {
      if (t->value(best.dim).AsDouble() < best.split_point) {
        left.tuples.push_back(t);
      } else {
        right.tuples.push_back(t);
      }
    }
    building[best.bucket] = std::move(left);
    building.push_back(std::move(right));
    best_for_bucket[best.bucket] = compute_choice(best.bucket);
    best_for_bucket.push_back(compute_choice(building.size() - 1));
  }

  buckets_.clear();
  buckets_.reserve(building.size());
  for (const BuildBucket& b : building) {
    if (b.tuples.empty()) continue;
    // Shrink the bucket to its data's extent so mass is not smeared over
    // empty ranges; the aligned variant snaps outward to the grid to keep
    // join boundaries aligned.
    Bucket bucket;
    bucket.lo.assign(dims, std::numeric_limits<double>::infinity());
    bucket.hi.assign(dims, -std::numeric_limits<double>::infinity());
    for (const Tuple* t : b.tuples) {
      for (size_t d = 0; d < dims; ++d) {
        const double v = t->value(d).AsDouble();
        bucket.lo[d] = std::min(bucket.lo[d], v);
        bucket.hi[d] = std::max(bucket.hi[d], v);
      }
    }
    for (size_t d = 0; d < dims; ++d) {
      bucket.hi[d] += 1.0;
      if (config_.aligned) {
        bucket.lo[d] = std::floor(bucket.lo[d] / config_.alignment_step) *
                       config_.alignment_step;
        bucket.hi[d] = std::ceil(bucket.hi[d] / config_.alignment_step) *
                       config_.alignment_step;
      }
    }
    bucket.count = static_cast<double>(b.tuples.size());
    buckets_.push_back(std::move(bucket));
  }
  return work;
}

double MHist::PointsAlong(const Bucket& bucket, size_t dim) const {
  if (schema_.field(dim).type != FieldType::kInt64) return 1.0;
  const double lo = std::ceil(bucket.lo[dim]);
  const double hi = std::ceil(bucket.hi[dim]) - 1.0;
  return std::max(1.0, hi - lo + 1.0);
}

SynopsisPtr MHist::Clone() const {
  auto clone = std::unique_ptr<MHist>(new MHist(schema_, config_));
  clone->buffer_ = buffer_;
  clone->built_ = built_;
  clone->buckets_ = buckets_;
  clone->total_count_ = total_count_;
  clone->state_bytes_ = state_bytes_;
  return clone;
}

Result<SynopsisPtr> MHist::DoUnionAll(const Synopsis& other,
                                      OpStats* stats) const {
  const auto& rhs = static_cast<const MHist&>(other);
  int64_t work = EnsureBuilt() + rhs.EnsureBuilt();
  auto result = std::unique_ptr<MHist>(new MHist(schema_, config_));
  result->built_ = true;
  result->buckets_ = buckets_;
  result->buckets_.insert(result->buckets_.end(), rhs.buckets_.begin(),
                          rhs.buckets_.end());
  result->total_count_ = total_count_ + rhs.total_count_;
  result->RecomputeMemoryBytes();
  work += static_cast<int64_t>(result->buckets_.size());
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> MHist::DoEquiJoin(
    const Synopsis& other, const std::vector<std::pair<size_t, size_t>>& keys,
    Schema joined_schema, OpStats* stats) const {
  const auto& rhs = static_cast<const MHist&>(other);
  int64_t work = EnsureBuilt() + rhs.EnsureBuilt();

  auto result = std::unique_ptr<MHist>(
      new MHist(std::move(joined_schema), config_));
  result->built_ = true;

  const size_t ldims = schema_.num_fields();
  const size_t rdims = rhs.schema_.num_fields();
  // Every overlapping bucket pair produces an output bucket: with
  // unaligned boundaries this is the quadratic blowup of Sec. 5.2.2.
  // Output buckets with identical bounds are coalesced — the mechanism by
  // which the alignment-constrained variant (Sec. 8.1) keeps cascaded
  // joins compact, since snapped boundaries coincide often while
  // unconstrained ones almost never do.
  std::map<std::pair<std::vector<double>, std::vector<double>>, double>
      coalesced;
  for (const Bucket& bl : buckets_) {
    for (const Bucket& br : rhs.buckets_) {
      ++work;
      double count = bl.count * br.count;
      std::vector<double> lo(ldims + rdims), hi(ldims + rdims);
      for (size_t d = 0; d < ldims; ++d) {
        lo[d] = bl.lo[d];
        hi[d] = bl.hi[d];
      }
      for (size_t d = 0; d < rdims; ++d) {
        lo[ldims + d] = br.lo[d];
        hi[ldims + d] = br.hi[d];
      }
      bool overlaps = true;
      for (const auto& [lk, rk] : keys) {
        const double olo = std::max(bl.lo[lk], br.lo[rk]);
        const double ohi = std::min(bl.hi[lk], br.hi[rk]);
        if (olo >= ohi) {
          overlaps = false;
          break;
        }
        // Uniformity: fraction of each side's tuples whose key falls in
        // the overlap, matching with probability 1/(distinct values in
        // the overlap).
        const bool integral =
            schema_.field(lk).type == FieldType::kInt64 &&
            rhs.schema_.field(rk).type == FieldType::kInt64;
        double frac_l, frac_r, overlap_points;
        if (integral) {
          const double pl = PointsAlong(bl, lk);
          const double pr = rhs.PointsAlong(br, rk);
          overlap_points = std::max(
              1.0, (std::ceil(ohi) - 1.0) - std::ceil(olo) + 1.0);
          frac_l = std::min(1.0, overlap_points / pl);
          frac_r = std::min(1.0, overlap_points / pr);
        } else {
          const double wl = std::max(bl.hi[lk] - bl.lo[lk], 1e-12);
          const double wr = std::max(br.hi[rk] - br.lo[rk], 1e-12);
          overlap_points = 1.0;
          frac_l = std::min(1.0, (ohi - olo) / wl);
          frac_r = std::min(1.0, (ohi - olo) / wr);
        }
        count *= frac_l * frac_r / overlap_points;
        lo[lk] = olo;
        hi[lk] = ohi;
        lo[ldims + rk] = olo;
        hi[ldims + rk] = ohi;
      }
      if (!overlaps || count <= 0) continue;
      coalesced[{std::move(lo), std::move(hi)}] += count;
      result->total_count_ += count;
      ++work;
    }
  }
  result->buckets_.reserve(coalesced.size());
  for (auto& [bounds, count] : coalesced) {
    result->buckets_.push_back(
        Bucket{bounds.first, bounds.second, count});
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> MHist::DoProject(const std::vector<size_t>& indices,
                                     Schema projected_schema,
                                     OpStats* stats) const {
  int64_t work = EnsureBuilt();
  auto result = std::unique_ptr<MHist>(
      new MHist(std::move(projected_schema), config_));
  result->built_ = true;
  for (const Bucket& b : buckets_) {
    ++work;
    Bucket projected;
    for (size_t i : indices) {
      projected.lo.push_back(b.lo[i]);
      projected.hi.push_back(b.hi[i]);
    }
    projected.count = b.count;
    result->buckets_.push_back(std::move(projected));
    result->total_count_ += b.count;
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> MHist::Filter(const plan::BoundExpr& predicate,
                                  OpStats* stats) const {
  int64_t work = EnsureBuilt();
  auto result = std::unique_ptr<MHist>(new MHist(schema_, config_));
  result->built_ = true;
  for (const Bucket& b : buckets_) {
    ++work;
    std::vector<Value> center;
    center.reserve(b.lo.size());
    for (size_t d = 0; d < b.lo.size(); ++d) {
      center.push_back(Value::Double((b.lo[d] + b.hi[d]) / 2.0));
    }
    if (predicate.EvaluatesToTrue(Tuple(std::move(center)))) {
      result->buckets_.push_back(b);
      result->total_count_ += b.count;
    }
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<GroupedEstimate> MHist::DoEstimateGroups(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  EnsureBuilt();
  BucketGroupWalk walk(schema_, group_columns, agg_columns);
  std::vector<double> mid(schema_.num_fields());
  for (const Bucket& b : buckets_) {
    for (size_t d = 0; d < mid.size(); ++d) mid[d] = (b.lo[d] + b.hi[d]) / 2.0;
    walk.Spread(b.lo.data(), b.hi.data(), mid.data(), b.count);
  }
  return walk.Take();
}

double MHist::EstimatePointCount(const Tuple& point) const {
  DT_CHECK_EQ(point.size(), schema_.num_fields());
  EnsureBuilt();
  double total = 0;
  for (const Bucket& b : buckets_) {
    bool inside = true;
    double points = 1.0;
    for (size_t d = 0; d < point.size(); ++d) {
      const double v = point.value(d).AsDouble();
      if (v < b.lo[d] || v >= b.hi[d]) {
        inside = false;
        break;
      }
      points *= PointsAlong(b, d);
    }
    if (inside) total += b.count / points;
  }
  return total;
}

void MHist::SaveState(serde::Writer* writer) const {
  writer->WriteU64(config_.max_buckets);
  writer->WriteBool(config_.aligned);
  writer->WriteDouble(config_.alignment_step);
  writer->WriteU64(buffer_.size());
  for (const Tuple& t : buffer_) SaveTuple(writer, t);
  // The lazy-build flag is part of the state: forcing a build here would
  // perturb a restore-vs-never-snapshot comparison.
  writer->WriteBool(built_);
  writer->WriteU64(buckets_.size());
  for (const Bucket& b : buckets_) {
    writer->WriteU64(b.lo.size());
    for (const double v : b.lo) writer->WriteDouble(v);
    for (const double v : b.hi) writer->WriteDouble(v);
    writer->WriteDouble(b.count);
  }
  writer->WriteDouble(total_count_);
}

Status MHist::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(const uint64_t max_buckets, reader->ReadU64());
  config_.max_buckets = max_buckets;
  DT_ASSIGN_OR_RETURN(config_.aligned, reader->ReadBool());
  DT_ASSIGN_OR_RETURN(config_.alignment_step, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(const uint64_t buffered, reader->ReadCount(16));
  buffer_.clear();
  for (uint64_t i = 0; i < buffered; ++i) {
    DT_ASSIGN_OR_RETURN(Tuple t, LoadTuple(reader));
    buffer_.push_back(std::move(t));
  }
  DT_ASSIGN_OR_RETURN(built_, reader->ReadBool());
  DT_ASSIGN_OR_RETURN(const uint64_t num_buckets, reader->ReadCount(8));
  buckets_.clear();
  for (uint64_t i = 0; i < num_buckets; ++i) {
    Bucket b;
    DT_ASSIGN_OR_RETURN(const uint64_t dims, reader->ReadCount(16));
    b.lo.resize(dims);
    b.hi.resize(dims);
    for (uint64_t d = 0; d < dims; ++d) {
      DT_ASSIGN_OR_RETURN(b.lo[d], reader->ReadDouble());
    }
    for (uint64_t d = 0; d < dims; ++d) {
      DT_ASSIGN_OR_RETURN(b.hi[d], reader->ReadDouble());
    }
    DT_ASSIGN_OR_RETURN(b.count, reader->ReadDouble());
    buckets_.push_back(std::move(b));
  }
  DT_ASSIGN_OR_RETURN(total_count_, reader->ReadDouble());
  RecomputeMemoryBytes();
  return Status::OK();
}

}  // namespace datatriage::synopsis
