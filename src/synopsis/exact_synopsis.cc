#include "src/synopsis/exact_synopsis.h"

#include <cstdint>
#include <functional>

#include "src/common/flat_table.h"
#include "src/common/serde.h"
#include "src/tuple/serde.h"

namespace datatriage::synopsis {

Result<SynopsisPtr> ExactSynopsis::Make(Schema schema,
                                        bool vectorized_exec) {
  DT_RETURN_IF_ERROR(CheckNumericSchema(schema));
  return SynopsisPtr(new ExactSynopsis(std::move(schema), vectorized_exec));
}

void ExactSynopsis::Insert(const Tuple& tuple) {
  DT_CHECK_EQ(tuple.size(), schema_.num_fields());
  row_bytes_ += mem::TupleBytes(tuple) + mem::kWeightedRowBytes;
  rows_.push_back(WeightedRow{tuple, 1.0});
}

void ExactSynopsis::AddRow(Tuple tuple, double weight) {
  DT_CHECK_EQ(tuple.size(), schema_.num_fields());
  if (weight <= 0) return;
  row_bytes_ += mem::TupleBytes(tuple) + mem::kWeightedRowBytes;
  rows_.push_back(WeightedRow{std::move(tuple), weight});
}

void ExactSynopsis::RecomputeMemoryBytes() {
  row_bytes_ = mem::kSynopsisBaseBytes;
  for (const WeightedRow& r : rows_) {
    row_bytes_ += mem::TupleBytes(r.tuple) + mem::kWeightedRowBytes;
  }
}

double ExactSynopsis::TotalCount() const {
  double total = 0;
  for (const WeightedRow& r : rows_) total += r.weight;
  return total;
}

SynopsisPtr ExactSynopsis::Clone() const {
  auto clone = std::unique_ptr<ExactSynopsis>(
      new ExactSynopsis(schema_, vectorized_));
  clone->rows_ = rows_;
  clone->row_bytes_ = row_bytes_;
  return clone;
}

Result<SynopsisPtr> ExactSynopsis::DoUnionAll(const Synopsis& other,
                                              OpStats* stats) const {
  const auto& rhs = static_cast<const ExactSynopsis&>(other);
  auto result = std::unique_ptr<ExactSynopsis>(
      new ExactSynopsis(schema_, vectorized_));
  result->rows_ = rows_;
  result->rows_.insert(result->rows_.end(), rhs.rows_.begin(),
                       rhs.rows_.end());
  result->RecomputeMemoryBytes();
  if (stats != nullptr) {
    stats->work += static_cast<int64_t>(rows_.size() + rhs.rows_.size());
  }
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> ExactSynopsis::DoEquiJoin(
    const Synopsis& other, const std::vector<std::pair<size_t, size_t>>& keys,
    Schema joined_schema, OpStats* stats) const {
  const auto& rhs = static_cast<const ExactSynopsis&>(other);
  auto result = std::unique_ptr<ExactSynopsis>(
      new ExactSynopsis(std::move(joined_schema), vectorized_));
  // The algebra's cost model charges the full cross-product regardless of
  // how the matching pairs are found.
  const int64_t work =
      static_cast<int64_t>(rows_.size()) *
      static_cast<int64_t>(rhs.rows_.size());
  if (vectorized_ && !keys.empty() && !rows_.empty() &&
      !rhs.rows_.empty()) {
    // Hash join over whole key columns. Building on the right side and
    // probing with left rows in order emits matches in exactly the
    // nested loop's (left-outer, right-inner) order, so the row
    // sequence — and with it every downstream floating-point
    // accumulation — is unchanged.
    constexpr uint32_t kNil = UINT32_MAX;
    const size_t nr = rhs.rows_.size();
    auto key_hash = [&keys](const Tuple& t, bool left_side) {
      uint64_t h = keys.size();
      for (const auto& [lk, rk] : keys) {
        h = HashCombine(h, t.value(left_side ? lk : rk).Hash());
      }
      return h;
    };
    auto keys_match = [&keys](const Tuple& l, const Tuple& r) {
      for (const auto& [lk, rk] : keys) {
        if (!(l.value(lk) == r.value(rk))) return false;
      }
      return true;
    };
    struct Bucket {
      uint32_t head = kNil;
      uint32_t tail = kNil;
    };
    std::vector<uint64_t> right_hashes(nr);
    for (size_t i = 0; i < nr; ++i) {
      right_hashes[i] = key_hash(rhs.rows_[i].tuple, /*left_side=*/false);
    }
    FlatTable<Bucket> table;
    std::vector<uint32_t> next(nr, kNil);
    table.BuildFrom(
        right_hashes.data(), nr,
        [&](const Bucket& b, size_t i) {
          const Tuple& repr = rhs.rows_[b.head].tuple;
          const Tuple& cur = rhs.rows_[i].tuple;
          for (const auto& [lk, rk] : keys) {
            if (!(repr.value(rk) == cur.value(rk))) return false;
          }
          return true;
        },
        [&](size_t i) {
          const uint32_t pos = static_cast<uint32_t>(i);
          return Bucket{pos, pos};
        },
        [&](Bucket* b, size_t i) {
          next[b->tail] = static_cast<uint32_t>(i);
          b->tail = static_cast<uint32_t>(i);
        });
    for (const WeightedRow& l : rows_) {
      const uint64_t hash = key_hash(l.tuple, /*left_side=*/true);
      Bucket* bucket = table.Find(hash, [&](const Bucket& b) {
        return keys_match(l.tuple, rhs.rows_[b.head].tuple);
      });
      if (bucket == nullptr) continue;
      for (uint32_t ri = bucket->head; ri != kNil; ri = next[ri]) {
        const WeightedRow& r = rhs.rows_[ri];
        result->rows_.push_back(
            WeightedRow{l.tuple.Concat(r.tuple), l.weight * r.weight});
      }
    }
    result->RecomputeMemoryBytes();
    if (stats != nullptr) stats->work += work;
    return SynopsisPtr(std::move(result));
  }
  for (const WeightedRow& l : rows_) {
    for (const WeightedRow& r : rhs.rows_) {
      bool match = true;
      for (const auto& [lk, rk] : keys) {
        if (!(l.tuple.value(lk) == r.tuple.value(rk))) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      result->rows_.push_back(
          WeightedRow{l.tuple.Concat(r.tuple), l.weight * r.weight});
    }
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> ExactSynopsis::DoProject(
    const std::vector<size_t>& indices, Schema projected_schema,
    OpStats* stats) const {
  auto result = std::unique_ptr<ExactSynopsis>(
      new ExactSynopsis(std::move(projected_schema), vectorized_));
  for (const WeightedRow& r : rows_) {
    result->rows_.push_back(WeightedRow{r.tuple.Project(indices), r.weight});
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += static_cast<int64_t>(rows_.size());
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> ExactSynopsis::Filter(const plan::BoundExpr& predicate,
                                          OpStats* stats) const {
  auto result = std::unique_ptr<ExactSynopsis>(
      new ExactSynopsis(schema_, vectorized_));
  for (const WeightedRow& r : rows_) {
    if (predicate.EvaluatesToTrue(r.tuple)) result->rows_.push_back(r);
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += static_cast<int64_t>(rows_.size());
  return SynopsisPtr(std::move(result));
}

Result<GroupedEstimate> ExactSynopsis::DoEstimateGroups(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  if (vectorized_ && !rows_.empty()) {
    return EstimateGroupsVectorized(group_columns, agg_columns);
  }
  // Same staging as the engine's exact accumulator: groups hash borrowed
  // rows in a flat table, and the ordered GroupedEstimate is built once
  // per distinct group rather than once per row.
  struct Staged {
    const Tuple* repr = nullptr;
    size_t offset = 0;
  };
  const size_t stride = agg_columns.size();
  FlatTable<Staged> staged;
  std::vector<AggAccumulator> arena;
  for (const WeightedRow& r : rows_) {
    const uint64_t hash = HashValuesAt(r.tuple, group_columns);
    auto [entry, inserted] = staged.FindOrEmplace(
        hash,
        [&](const Staged& s) {
          return ValuesEqualAt(*s.repr, group_columns, r.tuple,
                               group_columns);
        },
        [&] {
          const size_t offset = arena.size();
          arena.resize(offset + stride);
          return Staged{&r.tuple, offset};
        });
    for (size_t a = 0; a < stride; ++a) {
      if (agg_columns[a] == kCountOnlyColumn) {
        arena[entry->offset + a].count += r.weight;
      } else {
        arena[entry->offset + a].Add(
            r.tuple.value(agg_columns[a]).AsDouble(), r.weight);
      }
    }
  }
  GroupedEstimate groups;
  staged.ForEach([&](const Staged& s) {
    std::vector<Value> key;
    key.reserve(group_columns.size());
    for (size_t g : group_columns) key.push_back(s.repr->value(g));
    groups.emplace(std::move(key),
                   std::vector<AggAccumulator>(
                       arena.begin() + static_cast<ptrdiff_t>(s.offset),
                       arena.begin() +
                           static_cast<ptrdiff_t>(s.offset + stride)));
  });
  return groups;
}

GroupedEstimate ExactSynopsis::EstimateGroupsVectorized(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  const size_t n = rows_.size();
  const size_t stride = agg_columns.size();

  // Gather the group key columns as promoted doubles (the schema is
  // numeric-only, so Value::Hash and operator== both reduce to the
  // double representation) and hash whole columns, HashValuesAt-style.
  std::vector<std::vector<double>> group_vals(group_columns.size());
  for (size_t k = 0; k < group_columns.size(); ++k) {
    group_vals[k].resize(n);
    const size_t c = group_columns[k];
    for (size_t i = 0; i < n; ++i) {
      group_vals[k][i] = rows_[i].tuple.value(c).AsDouble();
    }
  }
  std::vector<uint64_t> hashes(n, group_columns.size());
  std::hash<double> hasher;
  for (const std::vector<double>& col : group_vals) {
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = HashCombine(hashes[i], hasher(col[i]));
    }
  }

  struct Staged {
    uint32_t repr_row = 0;
    uint32_t id = 0;
  };
  FlatTable<Staged> staged;
  std::vector<uint32_t> group_of(n);
  std::vector<uint32_t> repr_rows;
  for (size_t i = 0; i < n; ++i) {
    auto [entry, inserted] = staged.FindOrEmplace(
        hashes[i],
        [&](const Staged& s) {
          for (const std::vector<double>& col : group_vals) {
            if (!(col[s.repr_row] == col[i])) return false;
          }
          return true;
        },
        [&] {
          Staged s{static_cast<uint32_t>(i),
                   static_cast<uint32_t>(repr_rows.size())};
          repr_rows.push_back(static_cast<uint32_t>(i));
          return s;
        });
    group_of[i] = entry->id;
  }

  // One accumulation sweep per aggregate, in row order — the same
  // per-(group, aggregate) update sequence as the scalar loop.
  std::vector<AggAccumulator> arena(repr_rows.size() * stride);
  std::vector<double> agg_vals(n);
  for (size_t a = 0; a < stride; ++a) {
    if (agg_columns[a] == kCountOnlyColumn) {
      for (size_t i = 0; i < n; ++i) {
        arena[group_of[i] * stride + a].count += rows_[i].weight;
      }
      continue;
    }
    const size_t c = agg_columns[a];
    for (size_t i = 0; i < n; ++i) {
      agg_vals[i] = rows_[i].tuple.value(c).AsDouble();
    }
    for (size_t i = 0; i < n; ++i) {
      arena[group_of[i] * stride + a].Add(agg_vals[i], rows_[i].weight);
    }
  }

  GroupedEstimate groups;
  for (size_t g = 0; g < repr_rows.size(); ++g) {
    const Tuple& repr = rows_[repr_rows[g]].tuple;
    std::vector<Value> key;
    key.reserve(group_columns.size());
    for (size_t gc : group_columns) key.push_back(repr.value(gc));
    groups.emplace(std::move(key),
                   std::vector<AggAccumulator>(
                       arena.begin() + static_cast<ptrdiff_t>(g * stride),
                       arena.begin() +
                           static_cast<ptrdiff_t>((g + 1) * stride)));
  }
  return groups;
}

double ExactSynopsis::EstimatePointCount(const Tuple& point) const {
  double total = 0;
  for (const WeightedRow& r : rows_) {
    if (r.tuple == point) total += r.weight;
  }
  return total;
}

void ExactSynopsis::SaveState(serde::Writer* writer) const {
  writer->WriteBool(vectorized_);
  writer->WriteU64(rows_.size());
  for (const WeightedRow& r : rows_) {
    SaveTuple(writer, r.tuple);
    writer->WriteDouble(r.weight);
  }
}

Status ExactSynopsis::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(vectorized_, reader->ReadBool());
  DT_ASSIGN_OR_RETURN(const uint64_t num_rows, reader->ReadCount(16));
  rows_.clear();
  rows_.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    WeightedRow r;
    DT_ASSIGN_OR_RETURN(r.tuple, LoadTuple(reader));
    DT_ASSIGN_OR_RETURN(r.weight, reader->ReadDouble());
    rows_.push_back(std::move(r));
  }
  RecomputeMemoryBytes();
  return Status::OK();
}

}  // namespace datatriage::synopsis
