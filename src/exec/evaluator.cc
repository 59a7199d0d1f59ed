#include "src/exec/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/string_util.h"
#include "src/exec/pattern_eval.h"
#include "src/exec/vector_eval.h"

namespace datatriage::exec {

namespace {

using plan::LogicalPlan;

constexpr uint32_t kNil = UINT32_MAX;

/// Running state for one aggregate within one group. min/max borrow the
/// extreme Value from the input (which outlives the group-by loop) so no
/// Value is copied until the output row is built.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool sum_is_integral = true;
  const Value* min = nullptr;
  const Value* max = nullptr;
};

}  // namespace

ExecStats& ExecStats::operator+=(const ExecStats& other) {
  tuples_scanned += other.tuples_scanned;
  tuples_output += other.tuples_output;
  join_probes += other.join_probes;
  join_build_inserts += other.join_build_inserts;
  comparisons += other.comparisons;
  return *this;
}

namespace scalar {

RelationView Filter(const LogicalPlan& plan, const RelationView& input,
                    ExecStats* stats) {
  std::vector<const Tuple*> refs;
  refs.reserve(input.size());
  input.ForEach([&](const Tuple& t) {
    ++stats->comparisons;
    if (plan.predicate()->EvaluatesToTrue(t)) refs.push_back(&t);
  });
  stats->tuples_output += static_cast<int64_t>(refs.size());
  return RelationView::Subset(input, std::move(refs));
}

RelationView Project(const LogicalPlan& plan, const RelationView& input,
                     ExecStats* stats) {
  Relation output;
  output.reserve(input.size());
  input.ForEach(
      [&](const Tuple& t) { output.push_back(t.Project(plan.projection())); });
  stats->tuples_output += static_cast<int64_t>(output.size());
  return RelationView::Own(std::move(output));
}

RelationView Compute(const LogicalPlan& plan, const RelationView& input,
                     ExecStats* stats) {
  Relation output;
  output.reserve(input.size());
  input.ForEach([&](const Tuple& t) {
    std::vector<Value> row;
    row.reserve(plan.compute_exprs().size());
    for (const plan::BoundExprPtr& expr : plan.compute_exprs()) {
      row.push_back(expr->Evaluate(t));
    }
    output.emplace_back(std::move(row));
    output.back().set_timestamp(t.timestamp());
  });
  stats->tuples_output += static_cast<int64_t>(output.size());
  return RelationView::Own(std::move(output));
}

RelationView Join(const LogicalPlan& plan, const RelationView& left,
                  const RelationView& right, ExecStats* stats) {
  Relation output;

  if (plan.join_keys().empty()) {
    // Cross product (plus optional residual predicate).
    for (size_t li = 0; li < left.size(); ++li) {
      const Tuple& l = left[li];
      for (size_t ri = 0; ri < right.size(); ++ri) {
        ++stats->join_probes;
        Tuple joined = l.Concat(right[ri]);
        if (plan.predicate() != nullptr) {
          ++stats->comparisons;
          if (!plan.predicate()->EvaluatesToTrue(joined)) continue;
        }
        output.push_back(std::move(joined));
      }
    }
    stats->tuples_output += static_cast<int64_t>(output.size());
    return RelationView::Own(std::move(output));
  }

  std::vector<size_t> left_keys, right_keys;
  for (const auto& [l, r] : plan.join_keys()) {
    left_keys.push_back(l);
    right_keys.push_back(r);
  }

  // Build on the smaller side, probe with the larger.
  const bool build_left = left.size() <= right.size();
  const RelationView& build = build_left ? left : right;
  const RelationView& probe = build_left ? right : left;
  const std::vector<size_t>& build_keys = build_left ? left_keys : right_keys;
  const std::vector<size_t>& probe_keys = build_left ? right_keys : left_keys;

  // One flat-table bucket per distinct key; rows of a bucket form a chain
  // through `next` (indices into the build side), so duplicate keys cost
  // no per-bucket vector.
  struct BuildBucket {
    const Tuple* repr = nullptr;  // borrowed key representative
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  FlatTable<BuildBucket> table(build.size());
  std::vector<uint32_t> next(build.size(), kNil);
  for (size_t i = 0; i < build.size(); ++i) {
    const Tuple& t = build[i];
    ++stats->join_build_inserts;
    const uint64_t hash = HashValuesAt(t, build_keys);
    auto [bucket, inserted] = table.FindOrEmplace(
        hash,
        [&](const BuildBucket& b) {
          return ValuesEqualAt(*b.repr, build_keys, t, build_keys);
        },
        [&] {
          const uint32_t index = static_cast<uint32_t>(i);
          return BuildBucket{&t, index, index};
        });
    if (!inserted) {
      next[bucket->tail] = static_cast<uint32_t>(i);
      bucket->tail = static_cast<uint32_t>(i);
    }
  }
  for (size_t pi = 0; pi < probe.size(); ++pi) {
    const Tuple& t = probe[pi];
    ++stats->join_probes;
    const uint64_t hash = HashValuesAt(t, probe_keys);
    BuildBucket* bucket = table.Find(hash, [&](const BuildBucket& b) {
      return ValuesEqualAt(*b.repr, build_keys, t, probe_keys);
    });
    if (bucket == nullptr) continue;
    for (uint32_t bi = bucket->head; bi != kNil; bi = next[bi]) {
      const Tuple& match = build[bi];
      // Output column order is (left, right) regardless of build side.
      Tuple joined = build_left ? match.Concat(t) : t.Concat(match);
      if (plan.predicate() != nullptr) {
        ++stats->comparisons;
        if (!plan.predicate()->EvaluatesToTrue(joined)) continue;
      }
      output.push_back(std::move(joined));
    }
  }
  stats->tuples_output += static_cast<int64_t>(output.size());
  return RelationView::Own(std::move(output));
}

RelationView UnionAll(RelationView left, RelationView right,
                      ExecStats* stats) {
  stats->tuples_output += static_cast<int64_t>(left.size() + right.size());
  return RelationView::Concat(std::move(left), std::move(right));
}

RelationView SetDifference(const RelationView& left,
                           const RelationView& right, ExecStats* stats) {
  // Multiset monus: each right-side tuple cancels at most one left-side
  // occurrence.
  struct Monus {
    const Tuple* repr = nullptr;
    int64_t count = 0;
  };
  FlatTable<Monus> to_remove(right.size());
  right.ForEach([&](const Tuple& t) {
    ++stats->comparisons;
    auto [entry, inserted] = to_remove.FindOrEmplace(
        t.Hash(), [&](const Monus& m) { return *m.repr == t; },
        [&] { return Monus{&t, 0}; });
    ++entry->count;
  });
  std::vector<const Tuple*> refs;
  refs.reserve(left.size());
  left.ForEach([&](const Tuple& t) {
    ++stats->comparisons;
    Monus* entry = to_remove.Find(
        t.Hash(), [&](const Monus& m) { return *m.repr == t; });
    if (entry != nullptr && entry->count > 0) {
      --entry->count;
      return;
    }
    refs.push_back(&t);
  });
  stats->tuples_output += static_cast<int64_t>(refs.size());
  return RelationView::Subset(left, std::move(refs));
}

Result<RelationView> Aggregate(const LogicalPlan& plan,
                               const RelationView& input, ExecStats* stats) {
  std::vector<size_t> group_indices;
  for (const plan::GroupBySpec& g : plan.group_by()) {
    group_indices.push_back(g.input_index);
  }
  const size_t num_aggs = plan.aggregates().size();
  for (const plan::AggregateSpec& spec : plan.aggregates()) {
    if (spec.func == sql::AggFunc::kNone) {
      return Status::Internal("AggFunc::kNone in aggregate spec");
    }
  }

  // Group states live in one arena at a fixed stride; the table entry
  // holds a borrowed representative tuple and the group's arena offset.
  struct GroupEntry {
    const Tuple* repr = nullptr;
    size_t agg_offset = 0;
  };
  FlatTable<GroupEntry> groups;
  std::vector<AggState> agg_arena;
  for (size_t i = 0; i < input.size(); ++i) {
    const Tuple& t = input[i];
    ++stats->comparisons;
    const uint64_t hash = HashValuesAt(t, group_indices);
    auto [entry, inserted] = groups.FindOrEmplace(
        hash,
        [&](const GroupEntry& g) {
          return ValuesEqualAt(*g.repr, group_indices, t, group_indices);
        },
        [&] {
          const size_t offset = agg_arena.size();
          agg_arena.resize(offset + num_aggs);
          return GroupEntry{&t, offset};
        });
    for (size_t a = 0; a < num_aggs; ++a) {
      const plan::AggregateSpec& spec = plan.aggregates()[a];
      AggState& agg = agg_arena[entry->agg_offset + a];
      ++agg.count;
      if (spec.count_star) continue;
      const Value& v = t.value(spec.input_index);
      if (v.is_numeric()) {
        agg.sum += v.AsDouble();
        if (!v.is_int64()) agg.sum_is_integral = false;
      }
      if (agg.min == nullptr) {
        agg.min = &v;
        agg.max = &v;
      } else {
        if (v < *agg.min) agg.min = &v;
        if (*agg.max < v) agg.max = &v;
      }
    }
  }

  Relation output;
  output.reserve(groups.size());
  groups.ForEach([&](const GroupEntry& group) {
    std::vector<Value> row;
    row.reserve(group_indices.size() + num_aggs);
    for (size_t i : group_indices) {
      row.push_back(group.repr->value(i));
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      const plan::AggregateSpec& spec = plan.aggregates()[a];
      const AggState& agg = agg_arena[group.agg_offset + a];
      switch (spec.func) {
        case sql::AggFunc::kCount:
          row.push_back(Value::Int64(agg.count));
          break;
        case sql::AggFunc::kSum:
          row.push_back(agg.sum_is_integral
                            ? Value::Int64(static_cast<int64_t>(agg.sum))
                            : Value::Double(agg.sum));
          break;
        case sql::AggFunc::kAvg:
          row.push_back(Value::Double(
              agg.count == 0 ? 0.0 : agg.sum / static_cast<double>(
                                                  agg.count)));
          break;
        case sql::AggFunc::kMin:
          row.push_back(agg.min == nullptr ? Value() : *agg.min);
          break;
        case sql::AggFunc::kMax:
          row.push_back(agg.max == nullptr ? Value() : *agg.max);
          break;
        case sql::AggFunc::kNone:
          break;  // rejected above
      }
    }
    output.emplace_back(std::move(row));
  });
  stats->tuples_output += static_cast<int64_t>(output.size());
  return RelationView::Own(std::move(output));
}

}  // namespace scalar

Result<Relation> Evaluator::Evaluate(const LogicalPlan& plan) {
  DT_ASSIGN_OR_RETURN(RelationView view, EvaluateView(plan));
  return std::move(view).Materialize();
}

Result<RelationView> Evaluator::EvaluateView(const LogicalPlan& plan) {
  switch (plan.kind()) {
    case LogicalPlan::Kind::kEmpty:
      return RelationView();
    case LogicalPlan::Kind::kStreamScan:
      return EvaluateScan(plan);
    case LogicalPlan::Kind::kFilter: {
      DT_ASSIGN_OR_RETURN(RelationView input, EvaluateView(*plan.child(0)));
      return scalar::Filter(plan, input, &stats_);
    }
    case LogicalPlan::Kind::kProject: {
      DT_ASSIGN_OR_RETURN(RelationView input, EvaluateView(*plan.child(0)));
      return scalar::Project(plan, input, &stats_);
    }
    case LogicalPlan::Kind::kCompute: {
      DT_ASSIGN_OR_RETURN(RelationView input, EvaluateView(*plan.child(0)));
      return scalar::Compute(plan, input, &stats_);
    }
    case LogicalPlan::Kind::kJoin: {
      DT_ASSIGN_OR_RETURN(RelationView left, EvaluateView(*plan.child(0)));
      DT_ASSIGN_OR_RETURN(RelationView right, EvaluateView(*plan.child(1)));
      return scalar::Join(plan, left, right, &stats_);
    }
    case LogicalPlan::Kind::kUnionAll: {
      DT_ASSIGN_OR_RETURN(RelationView left, EvaluateView(*plan.child(0)));
      DT_ASSIGN_OR_RETURN(RelationView right, EvaluateView(*plan.child(1)));
      return scalar::UnionAll(std::move(left), std::move(right), &stats_);
    }
    case LogicalPlan::Kind::kSetDifference: {
      DT_ASSIGN_OR_RETURN(RelationView left, EvaluateView(*plan.child(0)));
      DT_ASSIGN_OR_RETURN(RelationView right, EvaluateView(*plan.child(1)));
      return scalar::SetDifference(left, right, &stats_);
    }
    case LogicalPlan::Kind::kAggregate: {
      DT_ASSIGN_OR_RETURN(RelationView input, EvaluateView(*plan.child(0)));
      return scalar::Aggregate(plan, input, &stats_);
    }
    case LogicalPlan::Kind::kPattern: {
      DT_ASSIGN_OR_RETURN(RelationView input, EvaluateView(*plan.child(0)));
      return EvaluatePattern(plan, input, &stats_);
    }
  }
  return Status::Internal("unhandled plan kind in evaluator");
}

Result<RelationView> Evaluator::EvaluateScan(const LogicalPlan& plan) {
  auto it = inputs_->find(ChannelKey{plan.stream(), plan.channel()});
  if (it == inputs_->end()) return RelationView();
  stats_.tuples_scanned += static_cast<int64_t>(it->second.size());
  return RelationView::Borrow(it->second);
}

bool UsesVectorizedPath(const LogicalPlan& plan,
                        const RelationProvider& inputs,
                        const EvalOptions& options) {
  // Pattern plans have no vectorized kernel yet; force the scalar path so
  // the exec-mode-flip oracle holds trivially for MATCH queries.
  if (!options.vectorized || plan.ContainsPattern()) return false;
  size_t total_rows = 0;
  for (const auto& [key, rel] : inputs) total_rows += rel.size();
  return total_rows >= options.min_rows;
}

Result<Relation> EvaluatePlan(const LogicalPlan& plan,
                              const RelationProvider& inputs,
                              ExecStats* stats, const EvalOptions& options) {
  if (UsesVectorizedPath(plan, inputs, options)) {
    VectorEvaluator evaluator(&inputs, options.pool,
                              options.parallel_min_rows);
    DT_ASSIGN_OR_RETURN(Relation result, evaluator.Evaluate(plan));
    if (stats != nullptr) *stats += evaluator.stats();
    return result;
  }
  Evaluator evaluator(&inputs);
  DT_ASSIGN_OR_RETURN(Relation result, evaluator.Evaluate(plan));
  if (stats != nullptr) *stats += evaluator.stats();
  return result;
}

}  // namespace datatriage::exec
