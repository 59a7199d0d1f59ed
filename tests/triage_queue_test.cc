#include "src/triage/triage_queue.h"

#include <gtest/gtest.h>

#include "src/triage/shedding_strategy.h"
#include "src/triage/synopsizer.h"
#include "tests/test_util.h"

namespace datatriage::triage {
namespace {

using testing::Row;

TriageQueue MakeQueue(size_t capacity, DropPolicyKind kind,
                      uint64_t seed = 1) {
  return TriageQueue(capacity, DropPolicy::Make(kind, seed));
}

TEST(DropPolicyTest, KindNamesRoundTrip) {
  for (DropPolicyKind kind :
       {DropPolicyKind::kRandom, DropPolicyKind::kDropNewest,
        DropPolicyKind::kDropOldest}) {
    auto policy = DropPolicy::Make(kind, 7);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_FALSE(DropPolicyKindToString(kind).empty());
  }
}

TEST(TriageQueueTest, FifoUnderCapacity) {
  TriageQueue q = MakeQueue(4, DropPolicyKind::kRandom);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Push(Row({1}, 0.1)).has_value());
  EXPECT_FALSE(q.Push(Row({2}, 0.2)).has_value());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Front().value(0).int64(), 1);
  EXPECT_EQ(q.PopFront().value(0).int64(), 1);
  EXPECT_EQ(q.PopFront().value(0).int64(), 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_pushed(), 2);
  EXPECT_EQ(q.total_popped(), 2);
  EXPECT_EQ(q.total_dropped(), 0);
}

TEST(TriageQueueTest, OverflowEvictsExactlyOne) {
  TriageQueue q = MakeQueue(3, DropPolicyKind::kRandom, 42);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(q.Push(Row({i})).has_value());
  }
  auto victim = q.Push(Row({99}));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.total_dropped(), 1);
}

TEST(TriageQueueTest, DropNewestRejectsIncoming) {
  TriageQueue q = MakeQueue(2, DropPolicyKind::kDropNewest);
  q.Push(Row({1}));
  q.Push(Row({2}));
  auto victim = q.Push(Row({3}));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->value(0).int64(), 3);
  EXPECT_EQ(q.Front().value(0).int64(), 1);
}

TEST(TriageQueueTest, DropOldestEvictsHead) {
  TriageQueue q = MakeQueue(2, DropPolicyKind::kDropOldest);
  q.Push(Row({1}));
  q.Push(Row({2}));
  auto victim = q.Push(Row({3}));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->value(0).int64(), 1);
  EXPECT_EQ(q.Front().value(0).int64(), 2);
}

TEST(TriageQueueTest, RandomPolicyEventuallyEvictsFromEverywhere) {
  // Over many overflows, a random policy must evict both old and new
  // tuples (sanity check that it is not degenerate).
  TriageQueue q = MakeQueue(8, DropPolicyKind::kRandom, 7);
  bool evicted_incoming = false, evicted_buffered = false;
  for (int64_t i = 0; i < 500; ++i) {
    auto victim = q.Push(Row({i}));
    if (!victim.has_value()) continue;
    if (victim->value(0).int64() == i) {
      evicted_incoming = true;
    } else {
      evicted_buffered = true;
    }
  }
  EXPECT_TRUE(evicted_incoming);
  EXPECT_TRUE(evicted_buffered);
}

/// Probe marking tuples with first column < 5 as covered.
class SmallValuesCovered : public SynopsisCoverageProbe {
 public:
  bool IsCovered(const Tuple& tuple) const override {
    return tuple.value(0).int64() < 5;
  }
};

TEST(SynergisticPolicyTest, PrefersCoveredVictims) {
  SmallValuesCovered probe;
  TriageQueue q(6, DropPolicy::MakeSynergistic(3, &probe,
                                               /*candidates=*/6));
  // Fill with three covered (1, 2, 3) and three uncovered (10, 11, 12).
  for (int64_t v : {1, 10, 2, 11, 3, 12}) q.Push(Row({v}));
  int covered_evictions = 0;
  const int overflows = 50;
  for (int i = 0; i < overflows; ++i) {
    // Push an uncovered tuple; with 6 candidate probes per eviction the
    // policy should almost always find one of the covered entries while
    // they remain.
    auto victim = q.Push(Row({100 + i}));
    ASSERT_TRUE(victim.has_value());
    if (victim->value(0).int64() < 5) ++covered_evictions;
  }
  // Only 3 covered tuples existed; all should be evicted early.
  EXPECT_EQ(covered_evictions, 3);
}

TEST(SynergisticPolicyTest, FallsBackToRandomWhenNothingCovered) {
  class NothingCovered : public SynopsisCoverageProbe {
   public:
    bool IsCovered(const Tuple&) const override { return false; }
  };
  NothingCovered probe;
  TriageQueue q(4, DropPolicy::MakeSynergistic(9, &probe, 3));
  for (int64_t v = 0; v < 4; ++v) q.Push(Row({v}));
  auto victim = q.Push(Row({99}));
  ASSERT_TRUE(victim.has_value());  // still evicts exactly one
  EXPECT_EQ(q.size(), 4u);
}

TEST(SynergisticPolicyTest, ReportsItsKind) {
  SmallValuesCovered probe;
  auto policy = DropPolicy::MakeSynergistic(1, &probe);
  EXPECT_EQ(policy->kind(), DropPolicyKind::kSynergistic);
  EXPECT_EQ(DropPolicyKindToString(DropPolicyKind::kSynergistic),
            "synergistic");
}

TEST(TriageQueueTest, EvictOlderThanRemovesByTimestamp) {
  TriageQueue q = MakeQueue(10, DropPolicyKind::kRandom);
  q.Push(Row({1}, 0.5));
  q.Push(Row({2}, 1.5));
  q.Push(Row({3}, 0.9));
  std::vector<Tuple> evicted = q.EvictOlderThan(1.0);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Front().value(0).int64(), 2);
  EXPECT_EQ(q.total_dropped(), 2);
  EXPECT_TRUE(q.EvictOlderThan(1.0).empty());
}

TEST(SynopsizerTest, RoutesTuplesToWindows) {
  synopsis::SynopsisConfig config;
  config.type = synopsis::SynopsisType::kExact;
  WindowSynopsizer synopsizer("r", Schema({{"a", FieldType::kInt64}}),
                              config);
  ASSERT_TRUE(synopsizer.AddDroppedToWindow(Row({1}, 0.2), 0).ok());
  ASSERT_TRUE(synopsizer.AddDroppedToWindow(Row({2}, 0.8), 0).ok());
  ASSERT_TRUE(synopsizer.AddKeptToWindow(Row({3}, 0.5), 0).ok());
  ASSERT_TRUE(synopsizer.AddDroppedToWindow(Row({4}, 1.2), 1).ok());

  auto w0 = synopsizer.TakeWindow(0);
  ASSERT_NE(w0.dropped, nullptr);
  ASSERT_NE(w0.kept, nullptr);
  EXPECT_DOUBLE_EQ(w0.dropped->TotalCount(), 2.0);
  EXPECT_DOUBLE_EQ(w0.kept->TotalCount(), 1.0);
  EXPECT_EQ(w0.dropped_count, 2);
  EXPECT_EQ(w0.kept_count, 1);

  auto w1 = synopsizer.TakeWindow(1);
  ASSERT_NE(w1.dropped, nullptr);
  EXPECT_EQ(w1.kept, nullptr);
  EXPECT_DOUBLE_EQ(w1.dropped->TotalCount(), 1.0);

  // Windows are consumed on take.
  auto again = synopsizer.TakeWindow(0);
  EXPECT_EQ(again.kept, nullptr);
  EXPECT_EQ(again.dropped, nullptr);
}

TEST(SynopsizerTest, EmptyWindowYieldsNulls) {
  synopsis::SynopsisConfig config;
  WindowSynopsizer synopsizer("r", Schema({{"a", FieldType::kInt64}}),
                              config);
  auto w = synopsizer.TakeWindow(5);
  EXPECT_EQ(w.kept, nullptr);
  EXPECT_EQ(w.dropped, nullptr);
  EXPECT_EQ(w.kept_count, 0);
}

TEST(SheddingStrategyTest, NamesRoundTrip) {
  for (SheddingStrategy strategy :
       {SheddingStrategy::kDropOnly, SheddingStrategy::kSummarizeOnly,
        SheddingStrategy::kDataTriage}) {
    auto parsed =
        SheddingStrategyFromString(SheddingStrategyToString(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), strategy);
  }
  EXPECT_FALSE(SheddingStrategyFromString("bogus").ok());
  EXPECT_EQ(SheddingStrategyFromString("triage").value(),
            SheddingStrategy::kDataTriage);
}

}  // namespace
}  // namespace datatriage::triage
