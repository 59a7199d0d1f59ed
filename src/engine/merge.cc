#include "src/engine/merge.h"

#include <cmath>
#include <cstdint>

#include "src/common/flat_table.h"
#include "src/exec/column_batch.h"

namespace datatriage::engine {

namespace {

/// Model bytes per group-table slot and per arena accumulator (fixed
/// constants so scalar and vectorized staging — whose Entry types differ
/// — charge identically).
constexpr size_t kMergeSlotBytes = 24;
constexpr size_t kMergeAccumulatorBytes = 32;

}  // namespace

Result<AggregationSpec> MakeAggregationSpec(const plan::BoundQuery& query) {
  if (!query.has_aggregate) {
    return Status::InvalidArgument(
        "MakeAggregationSpec requires an aggregate query");
  }
  AggregationSpec spec;
  for (const plan::GroupBySpec& g : query.group_by) {
    spec.group_columns.push_back(g.input_index);
  }
  for (const plan::AggregateSpec& a : query.aggregates) {
    spec.agg_columns.push_back(a.count_star ? synopsis::kCountOnlyColumn
                                            : a.input_index);
  }
  return spec;
}

synopsis::GroupedEstimate AccumulateExact(const exec::Relation& spj_rows,
                                          const AggregationSpec& spec,
                                          bool vectorized,
                                          mem::SessionAccount* account) {
  if (vectorized) {
    return AccumulateExact(
        exec::BatchView{exec::ColumnBatch::FromRelation(spj_rows), nullptr},
        spec, account);
  }
  // The scoped charge drains when the call returns: merge state is
  // transient, so only the gauge high-watermark records it.
  mem::ScopedCharge charge(account, mem::Component::kMergeState);
  // Stage groups in a flat table keyed by borrowed rows, then build the
  // ordered GroupedEstimate once per distinct group: the per-row cost is
  // a hash plus an in-place comparison, not a key-vector construction.
  struct Staged {
    const Tuple* repr = nullptr;
    size_t offset = 0;
  };
  const size_t stride = spec.agg_columns.size();
  FlatTable<Staged> staged;
  staged.SetCapacityObserver([&charge](size_t old_slots, size_t new_slots) {
    charge.Add((new_slots - old_slots) * kMergeSlotBytes);
  });
  std::vector<synopsis::AggAccumulator> arena;
  for (const Tuple& row : spj_rows) {
    const uint64_t hash = HashValuesAt(row, spec.group_columns);
    auto [entry, inserted] = staged.FindOrEmplace(
        hash,
        [&](const Staged& s) {
          return ValuesEqualAt(*s.repr, spec.group_columns, row,
                               spec.group_columns);
        },
        [&] {
          charge.Add(stride * kMergeAccumulatorBytes);
          const size_t offset = arena.size();
          arena.resize(offset + stride);
          return Staged{&row, offset};
        });
    for (size_t a = 0; a < stride; ++a) {
      if (spec.agg_columns[a] == synopsis::kCountOnlyColumn) {
        arena[entry->offset + a].count += 1.0;
      } else {
        arena[entry->offset + a].Add(
            row.value(spec.agg_columns[a]).AsDouble(), 1.0);
      }
    }
  }
  synopsis::GroupedEstimate groups;
  staged.ForEach([&](const Staged& s) {
    std::vector<Value> key;
    key.reserve(spec.group_columns.size());
    for (size_t g : spec.group_columns) key.push_back(s.repr->value(g));
    groups.emplace(std::move(key),
                   std::vector<synopsis::AggAccumulator>(
                       arena.begin() + static_cast<ptrdiff_t>(s.offset),
                       arena.begin() +
                           static_cast<ptrdiff_t>(s.offset + stride)));
  });
  return groups;
}

synopsis::GroupedEstimate AccumulateExact(const exec::BatchView& spj_view,
                                          const AggregationSpec& spec,
                                          mem::SessionAccount* account) {
  // Column-at-a-time: whole-column group hashing, then per-aggregate
  // accumulation sweeps. Domain position i (the i-th selected row) fixes
  // the hash, group-creation, and update order; cells are read at its
  // absolute row RowIndex(i). Hashes, group equality, and the per-(group,
  // aggregate) floating-point update order all replicate the
  // row-at-a-time loop over the view's rows exactly.
  mem::ScopedCharge charge(account, mem::Component::kMergeState);
  const size_t n = spj_view.size();
  if (n == 0) return {};  // an empty view may have no batch at all
  const exec::ColumnBatch& batch = *spj_view.batch;
  const uint32_t* rows =
      spj_view.sel == nullptr ? nullptr : spj_view.sel->data();
  const size_t stride = spec.agg_columns.size();

  std::vector<const exec::Column*> group_cols;
  group_cols.reserve(spec.group_columns.size());
  for (size_t g : spec.group_columns) group_cols.push_back(&batch.col(g));
  std::vector<uint64_t> hashes;
  exec::HashRows(group_cols, rows, n, &hashes);

  struct Staged {
    uint32_t repr_row = 0;
    uint32_t id = 0;
  };
  FlatTable<Staged> staged;
  staged.SetCapacityObserver([&charge](size_t old_slots, size_t new_slots) {
    charge.Add((new_slots - old_slots) * kMergeSlotBytes);
  });
  std::vector<uint32_t> group_of(n);
  std::vector<uint32_t> repr_rows;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = spj_view.RowIndex(i);
    auto [entry, inserted] = staged.FindOrEmplace(
        hashes[i],
        [&](const Staged& s) {
          for (const exec::Column* col : group_cols) {
            if (!exec::ColumnsEqualAt(*col, s.repr_row, *col, row)) {
              return false;
            }
          }
          return true;
        },
        [&] {
          charge.Add(stride * kMergeAccumulatorBytes);
          Staged s{row, static_cast<uint32_t>(repr_rows.size())};
          repr_rows.push_back(row);
          return s;
        });
    group_of[i] = entry->id;
  }

  std::vector<synopsis::AggAccumulator> arena(repr_rows.size() * stride);
  for (size_t a = 0; a < stride; ++a) {
    if (spec.agg_columns[a] == synopsis::kCountOnlyColumn) {
      for (size_t i = 0; i < n; ++i) {
        arena[group_of[i] * stride + a].count += 1.0;
      }
      continue;
    }
    const exec::Column& col = batch.col(spec.agg_columns[a]);
    if (!col.is_string() && !col.has_cross_class) {
      // Same-class exceptions keep their promotion in f64, which is
      // exactly Value::AsDouble().
      const double* f = col.f64.data();
      for (size_t i = 0; i < n; ++i) {
        arena[group_of[i] * stride + a].Add(f[spj_view.RowIndex(i)], 1.0);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        arena[group_of[i] * stride + a].Add(
            col.ValueAt(spj_view.RowIndex(i)).AsDouble(), 1.0);
      }
    }
  }

  synopsis::GroupedEstimate groups;
  for (size_t g = 0; g < repr_rows.size(); ++g) {
    std::vector<Value> key;
    key.reserve(spec.group_columns.size());
    for (size_t gc : spec.group_columns) {
      key.push_back(batch.col(gc).ValueAt(repr_rows[g]));
    }
    groups.emplace(std::move(key),
                   std::vector<synopsis::AggAccumulator>(
                       arena.begin() + static_cast<ptrdiff_t>(g * stride),
                       arena.begin() +
                           static_cast<ptrdiff_t>((g + 1) * stride)));
  }
  return groups;
}

void MergeGroupedEstimates(synopsis::GroupedEstimate* dst,
                           const synopsis::GroupedEstimate& src) {
  for (const auto& [key, accumulators] : src) {
    auto [it, inserted] = dst->try_emplace(key);
    if (inserted) it->second.resize(accumulators.size());
    DT_CHECK_EQ(it->second.size(), accumulators.size());
    for (size_t a = 0; a < accumulators.size(); ++a) {
      it->second[a].MergeFrom(accumulators[a]);
    }
  }
}

Result<exec::Relation> BuildAggregateRows(
    const synopsis::GroupedEstimate& groups, const plan::BoundQuery& query,
    const AggregationSpec& spec, bool exact_types) {
  constexpr double kEpsilon = 1e-9;
  exec::Relation rows;
  for (const auto& [key, accumulators] : groups) {
    DT_CHECK_EQ(accumulators.size(), query.aggregates.size());
    double total_weight = 0;
    for (const synopsis::AggAccumulator& acc : accumulators) {
      total_weight += acc.count;
    }
    if (total_weight <= kEpsilon) continue;

    std::vector<Value> row = key;
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const plan::AggregateSpec& agg = query.aggregates[a];
      const synopsis::AggAccumulator& acc = accumulators[a];
      double value = 0;
      switch (agg.func) {
        case sql::AggFunc::kCount:
          value = acc.count;
          break;
        case sql::AggFunc::kSum:
          value = acc.sum;
          break;
        case sql::AggFunc::kAvg:
          value = acc.count > kEpsilon ? acc.sum / acc.count : 0.0;
          break;
        case sql::AggFunc::kMin:
          value = acc.count > kEpsilon ? acc.min : 0.0;
          break;
        case sql::AggFunc::kMax:
          value = acc.count > kEpsilon ? acc.max : 0.0;
          break;
        case sql::AggFunc::kNone:
          return Status::Internal("AggFunc::kNone in aggregate spec");
      }
      if (exact_types) {
        FieldType input_type = FieldType::kInt64;
        if (spec.agg_columns[a] != synopsis::kCountOnlyColumn) {
          input_type = query.spj_core->schema()
                           .field(spec.agg_columns[a])
                           .type;
        }
        if (agg.ResultType(input_type) == FieldType::kInt64) {
          row.push_back(Value::Int64(std::llround(value)));
          continue;
        }
      }
      row.push_back(Value::Double(value));
    }
    rows.emplace_back(std::move(row));
  }
  return rows;
}

}  // namespace datatriage::engine
