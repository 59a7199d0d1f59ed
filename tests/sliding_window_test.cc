#include <gtest/gtest.h>

#include "src/metrics/ideal.h"
#include "src/metrics/rms.h"
#include "src/server/stream_server.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using engine::EngineConfig;
using engine::StreamEvent;
using engine::WindowResult;
using testing::PaperCatalog;
using testing::Row;
using testing::RunSolo;
using testing::SoloRun;

// ---------------------------------------------------------------------
// Window arithmetic.
// ---------------------------------------------------------------------

TEST(CoveringWindowsTest, TumblingReducesToSingleWindow) {
  for (double t : {0.0, 0.3, 0.999, 1.0, 7.5}) {
    WindowSpan span = CoveringWindows(t, 1.0, 1.0);
    EXPECT_EQ(span.first, span.last);
    EXPECT_EQ(span.first, WindowIdFor(t, 1.0)) << "t=" << t;
  }
}

TEST(CoveringWindowsTest, OverlappingWindows) {
  // range 2, slide 1: t=2.5 sits in windows [1,3) and [2,4).
  WindowSpan span = CoveringWindows(2.5, 2.0, 1.0);
  EXPECT_EQ(span.first, 2 - 1);
  EXPECT_EQ(span.last, 2);
  // Boundary: t=2.0 is in [1,3) and [2,4) but not [0,2).
  span = CoveringWindows(2.0, 2.0, 1.0);
  EXPECT_EQ(span.first, 1);
  EXPECT_EQ(span.last, 2);
}

TEST(CoveringWindowsTest, ClampsAtZero) {
  WindowSpan span = CoveringWindows(0.5, 4.0, 1.0);
  EXPECT_EQ(span.first, 0);
  EXPECT_EQ(span.last, 0);
  EXPECT_FALSE(span.empty());
}

TEST(CoveringWindowsTest, HoppingWithGaps) {
  // range 1, slide 2: windows [0,1), [2,3), ... t=1.5 is in a gap.
  WindowSpan gap = CoveringWindows(1.5, 1.0, 2.0);
  EXPECT_TRUE(gap.empty());
  WindowSpan hit = CoveringWindows(2.5, 1.0, 2.0);
  EXPECT_EQ(hit.first, 1);
  EXPECT_EQ(hit.last, 1);
}

TEST(CoveringWindowsTest, SpanBounds) {
  EXPECT_DOUBLE_EQ(WindowSpanStart(3, 2.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(WindowSpanEnd(3, 2.0, 1.0), 5.0);
  EXPECT_TRUE((WindowSpan{2, 1}).empty());
  EXPECT_TRUE((WindowSpan{1, 3}).Contains(2));
  EXPECT_FALSE((WindowSpan{1, 3}).Contains(4));
}

// ---------------------------------------------------------------------
// SQL surface.
// ---------------------------------------------------------------------

TEST(SlidingWindowSqlTest, ParserAcceptsRangeAndSlide) {
  auto stmt = sql::ParseStatement(
      "SELECT a FROM R WINDOW R['2 seconds', '500 milliseconds']");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->select->windows.size(), 1u);
  EXPECT_DOUBLE_EQ(stmt->select->windows[0].seconds, 2.0);
  EXPECT_DOUBLE_EQ(stmt->select->windows[0].slide_seconds, 0.5);
}

TEST(SlidingWindowSqlTest, BinderDefaultsSlideToRange) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery tumbling = testing::MustBind(
      "SELECT a FROM R WINDOW R['2 seconds']", catalog);
  EXPECT_DOUBLE_EQ(tumbling.window_slide_seconds.at("r"), 2.0);

  plan::BoundQuery sliding = testing::MustBind(
      "SELECT a FROM R WINDOW R['2 seconds', '1 second']", catalog);
  EXPECT_DOUBLE_EQ(sliding.window_seconds.at("r"), 2.0);
  EXPECT_DOUBLE_EQ(sliding.window_slide_seconds.at("r"), 1.0);
}

TEST(SlidingWindowSqlTest, BinderRejectsConflictingSlides) {
  Catalog catalog = PaperCatalog();
  auto stmt = sql::ParseStatement(
      "SELECT x.a FROM R x, R y WINDOW x['2 seconds', '1 second'], "
      "y['2 seconds', '2 seconds']");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(plan::BindStatement(*stmt, catalog).status().code(),
            StatusCode::kBindError);
}

TEST(SlidingWindowSqlTest, EngineRequiresUniformSlide) {
  Catalog catalog = PaperCatalog();
  EngineConfig config;
  server::StreamServer server(catalog);
  EXPECT_EQ(server
                .RegisterQuery(
                    "SELECT a FROM R, S WHERE R.a = S.b WINDOW "
                    "R['2 seconds', '1 second'], S['2 seconds', "
                    "'2 seconds']",
                    config)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

// ---------------------------------------------------------------------
// Engine semantics.
// ---------------------------------------------------------------------

constexpr char kSlidingCountQuery[] =
    "SELECT a, COUNT(*) AS count FROM R GROUP BY a "
    "WINDOW R['2 seconds', '1 second']";

TEST(SlidingWindowEngineTest, TuplesCountInEveryCoveringWindow) {
  Catalog catalog = PaperCatalog();
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  // One tuple at t=2.5 covers windows 1 ([1,3)) and 2 ([2,4)).
  std::vector<StreamEvent> events = {{"r", Row({7}, 2.5)}};
  SoloRun out = RunSolo(catalog, kSlidingCountQuery, config, events);
  std::map<WindowId, int64_t> counts;
  for (const WindowResult& r : out.results) {
    for (const Tuple& row : r.exact_rows) {
      counts[r.window] = row.value(1).int64();
    }
  }
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts.count(0), 0u);
  EXPECT_EQ(counts.count(3), 0u);
}

TEST(SlidingWindowEngineTest, UnderloadMatchesIdealExactly) {
  Catalog catalog = PaperCatalog();
  Rng rng(5);
  std::vector<StreamEvent> events;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.Exponential(40.0);  // well under capacity
    events.push_back({"r", Row({rng.UniformInt(1, 6)}, t)});
  }
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  SoloRun out = RunSolo(catalog, kSlidingCountQuery, config, events);
  EXPECT_EQ(out.stats.tuples_dropped, 0);

  plan::BoundQuery bound = testing::MustBind(kSlidingCountQuery, catalog);
  auto ideal = metrics::ComputeIdealResults(bound, events, 2.0, 1.0);
  ASSERT_TRUE(ideal.ok());
  auto rms = metrics::RmsError(*ideal, out.results, 1,
                               metrics::ResultChannel::kExact);
  ASSERT_TRUE(rms.ok()) << rms.status().ToString();
  EXPECT_DOUBLE_EQ(rms.value(), 0.0);
}

TEST(SlidingWindowEngineTest, ExactSynopsisKeepsMergedLossless) {
  // The per-window exactly-once accounting test: even under heavy
  // shedding, kept(w) + dropped(w) must partition each window's tuples,
  // so with a lossless synopsis the merged result equals the ideal.
  Catalog catalog = PaperCatalog();
  Rng rng(9);
  std::vector<StreamEvent> events;
  double t = 0.0;
  for (int i = 0; i < 2500; ++i) {
    t += rng.Exponential(1200.0);  // ~3x capacity
    events.push_back({"r", Row({rng.UniformInt(1, 6)}, t)});
  }
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 40;
  config.synopsis.type = synopsis::SynopsisType::kExact;
  SoloRun out = RunSolo(catalog, kSlidingCountQuery, config, events);
  EXPECT_GT(out.stats.tuples_dropped, 0);

  plan::BoundQuery bound = testing::MustBind(kSlidingCountQuery, catalog);
  auto ideal = metrics::ComputeIdealResults(bound, events, 2.0, 1.0);
  ASSERT_TRUE(ideal.ok());
  auto rms = metrics::RmsError(*ideal, out.results, 1,
                               metrics::ResultChannel::kMerged);
  ASSERT_TRUE(rms.ok());
  EXPECT_NEAR(rms.value(), 0.0, 1e-6);
}

TEST(SlidingWindowEngineTest, KeptPlusDroppedCoversEachWindow) {
  Catalog catalog = PaperCatalog();
  Rng rng(11);
  std::vector<StreamEvent> events;
  std::map<WindowId, int64_t> per_window_arrivals;
  double t = 0.0;
  for (int i = 0; i < 1500; ++i) {
    t += rng.Exponential(900.0);
    events.push_back({"r", Row({rng.UniformInt(1, 6)}, t)});
    WindowSpan span = CoveringWindows(t, 2.0, 1.0);
    for (WindowId w = std::max<WindowId>(0, span.first); w <= span.last;
         ++w) {
      per_window_arrivals[w] += 1;
    }
  }
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 30;
  SoloRun out = RunSolo(catalog, kSlidingCountQuery, config, events);
  for (const WindowResult& r : out.results) {
    EXPECT_EQ(r.kept_tuples + r.dropped_tuples,
              per_window_arrivals[r.window])
        << "window " << r.window;
  }
}

TEST(SlidingWindowEngineTest, HoppingWindowsSkipGapTuples) {
  Catalog catalog = PaperCatalog();
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  // range 1, slide 2: window k covers [2k, 2k+1). t=1.5 falls in a gap.
  const std::string query =
      "SELECT a, COUNT(*) AS count FROM R GROUP BY a "
      "WINDOW R['1 second', '2 seconds']";
  std::vector<StreamEvent> events = {
      {"r", Row({1}, 0.5)},   // window 0
      {"r", Row({2}, 1.5)},   // gap
      {"r", Row({3}, 2.5)},   // window 1
  };
  SoloRun out = RunSolo(catalog, query, config, events);
  int64_t total = 0;
  for (const WindowResult& r : out.results) {
    for (const Tuple& row : r.exact_rows) {
      total += row.value(1).int64();
      EXPECT_NE(row.value(0).int64(), 2) << "gap tuple leaked";
    }
  }
  EXPECT_EQ(total, 2);
}

TEST(SlidingWindowEngineTest, SlidingJoinUnderTriage) {
  // Smoke the full paper query with overlapping windows and shedding.
  Catalog catalog = PaperCatalog();
  const std::string query =
      "SELECT a, COUNT(*) as count FROM R,S,T WHERE R.a = S.b AND "
      "S.c = T.d GROUP BY a WINDOW R['2 seconds', '1 second'], "
      "S['2 seconds', '1 second'], T['2 seconds', '1 second']";
  Rng rng(13);
  std::vector<StreamEvent> events;
  double t = 0.0;
  for (int i = 0; i < 600; ++i) {
    t += rng.Exponential(600.0);
    events.push_back({"r", Row({rng.UniformInt(1, 10)}, t)});
    events.push_back({"s", Row({rng.UniformInt(1, 10),
                                rng.UniformInt(1, 10)}, t)});
    events.push_back({"t", Row({rng.UniformInt(1, 10)}, t)});
  }
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 40;
  config.synopsis.grid.cell_width = 1.0;
  SoloRun out = RunSolo(catalog, query, config, events);
  EXPECT_GT(out.stats.tuples_dropped, 0);
  EXPECT_GE(out.results.size(), 2u);
  bool any_merged = false;
  for (const WindowResult& r : out.results) {
    if (!r.merged_rows.empty()) any_merged = true;
  }
  EXPECT_TRUE(any_merged);
}

TEST(SlidingWindowIdealTest, IdealRespectsSlide) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = testing::MustBind(kSlidingCountQuery, catalog);
  std::vector<StreamEvent> events = {{"r", Row({4}, 2.5)}};
  auto ideal = metrics::ComputeIdealResults(bound, events, 2.0, 1.0);
  ASSERT_TRUE(ideal.ok());
  ASSERT_EQ(ideal->size(), 2u);  // windows 1 and 2
  EXPECT_EQ(ideal->count(1), 1u);
  EXPECT_EQ(ideal->count(2), 1u);
}

}  // namespace
}  // namespace datatriage
