// Tail-latency attribution suite: the sliding-window histogram driven by a
// manual clock (exact, deterministic aggregates), the striped exemplar
// slow-log, the Perfetto/collapsed trace exporters (golden bytes plus a
// mini JSON parser proving the output is well-formed trace_event JSON that
// round-trips the span count), and the per-level answer attribution whose
// counter family must sum exactly to queries_total regardless of shard
// count. Labeled `obs`, so every row of the matrix — TSan and the
// PATHSEP_OBS_DISABLED build included — runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "oracle/path_oracle.hpp"
#include "separator/finders.hpp"
#include "service/sharded_engine.hpp"
#include "util/rng.hpp"

namespace pathsep::obs {
namespace {

using graph::Vertex;
using graph::Weight;

// ------------------------------------------------------------ mini JSON

/// Strict recursive-descent JSON validator — no library, no allocation of a
/// DOM. Accepts exactly the RFC 8259 grammar (numbers checked loosely for a
/// digit, which is all the exporters emit).
class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string() {
    if (!peek('"')) return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ < text_.size()) ++pos_;
      } else if (c == '"') {
        return true;
      }
    }
    return false;  // ran off the end inside a string
  }

  bool number() {
    bool digit = false;
    if (peek('-')) ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digit = true;
      } else if (c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-') {
        break;
      }
      ++pos_;
    }
    return digit;
  }

  bool object() {
    ++pos_;  // consume '{'
    skip_ws();
    if (peek('}')) return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(',')) {
        ++pos_;
        continue;
      }
      if (peek('}')) return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // consume '['
    skip_ws();
    if (peek(']')) return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(',')) {
        ++pos_;
        continue;
      }
      if (peek(']')) return ++pos_, true;
      return false;
    }
  }

  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(std::string_view text, std::string_view needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string_view::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

// --------------------------------------------------------- WindowedHistogram

TEST(ObsWindow, ManualClockAggregatesOneWindowExactly) {
  WindowedHistogram window(1000, 4);  // 1µs windows, 4-slot ring
  window.record(100, 100);
  window.record(200, 600);
  window.record(300, 999);  // all three land in window [0, 1000)

  const auto full = window.view(999);
  EXPECT_EQ(full.interval_ns, 1000u);
  EXPECT_EQ(full.windows, 4u);  // lookback 0 = whole ring
  EXPECT_EQ(full.count, 3u);
  EXPECT_EQ(full.sum_nanos, 600u);
  EXPECT_DOUBLE_EQ(full.qps, 3.0 / (4.0 * 1000.0 / 1e9));
  EXPECT_EQ(window.dropped(), 0u);

  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : full.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 3u);
}

TEST(ObsWindow, LookbackSelectsOnlyRecentWindows) {
  WindowedHistogram window(1000, 4);
  window.record(100, 500);   // window 1
  window.record(400, 1500);  // window 2

  const auto both = window.view(1500);
  EXPECT_EQ(both.count, 2u);
  EXPECT_EQ(both.sum_nanos, 500u);

  const auto latest = window.view(1500, 1);
  EXPECT_EQ(latest.windows, 1u);
  EXPECT_EQ(latest.count, 1u);
  EXPECT_EQ(latest.sum_nanos, 400u);
  EXPECT_DOUBLE_EQ(latest.qps, 1.0 / (1000.0 / 1e9));
}

TEST(ObsWindow, ExpiredWindowsLeaveTheView) {
  WindowedHistogram window(1000, 4);
  window.record(100, 500);   // window 1
  window.record(400, 1500);  // window 2
  // 4 windows later, window 1 is exactly one ring-lap old: out of range.
  const auto late = window.view(4999);
  EXPECT_EQ(late.count, 1u);
  EXPECT_EQ(late.sum_nanos, 400u);
  // One more interval and window 2 ages out as well.
  EXPECT_EQ(window.view(5999).count, 0u);
}

TEST(ObsWindow, RecyclingASlotDiscardsTheStaleWindow) {
  WindowedHistogram window(1000, 4);
  window.record(400, 1500);  // window 2, slot 2
  window.record(500, 5500);  // window 6 maps to the same slot — recycled
  const auto now = window.view(5500);
  EXPECT_EQ(now.count, 1u);
  EXPECT_EQ(now.sum_nanos, 500u);
  EXPECT_EQ(window.dropped(), 0u);
}

TEST(ObsWindow, RejectsDegenerateGeometry) {
  EXPECT_THROW(WindowedHistogram(0, 8), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram(1000, 0), std::invalid_argument);
}

TEST(ObsWindow, ConcurrentRecordingWithinOneWindowIsExact) {
  WindowedHistogram window(1'000'000'000, 4);
  // Pre-touch the slot so the worker threads never race the initial claim;
  // steady-state recording must then be exact (drop-free).
  window.record(1, 10);
  constexpr int kThreads = 4, kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&window, t] {
      for (int i = 0; i < kPerThread; ++i)
        window.record(static_cast<std::uint64_t>(t + 1), 10);
    });
  for (std::thread& w : workers) w.join();

  const auto merged = window.view(10);
  EXPECT_EQ(merged.count, 1u + kThreads * kPerThread);
  // sum = 1 + sum_t (t+1) * kPerThread
  EXPECT_EQ(merged.sum_nanos, 1u + (1u + 2u + 3u + 4u) * kPerThread);
  EXPECT_EQ(window.dropped(), 0u);
}

TEST(ObsWindow, PercentilesMatchCumulativeHistogramOnSameStream) {
  WindowedHistogram window(1'000'000, 2);
  LatencyHistogram cumulative;
  util::Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t nanos = 50 + rng.next_below(200000);
    window.record(nanos, 42);  // single window
    cumulative.record(nanos);
  }
  const auto view = window.view(42, 1);
  EXPECT_EQ(view.count, 3000u);
  EXPECT_DOUBLE_EQ(view.p50_nanos, cumulative.percentile_nanos(0.50));
  EXPECT_DOUBLE_EQ(view.p95_nanos, cumulative.percentile_nanos(0.95));
  EXPECT_DOUBLE_EQ(view.p99_nanos, cumulative.percentile_nanos(0.99));
}

// ------------------------------------------------------------------- SlowLog

SlowQuery slow(std::uint64_t latency_ns, std::uint32_t u = 0,
               std::uint64_t when_ns = 0) {
  SlowQuery q;
  q.u = u;
  q.v = u + 1;
  q.latency_ns = latency_ns;
  q.when_ns = when_ns;
  return q;
}

TEST(ObsSlowLog, SingleStripeKeepsTheExactTopK) {
  SlowLog log(4, 1);
  for (const std::uint64_t lat : {50u, 10u, 90u, 30u, 70u, 20u, 100u, 40u})
    log.record(slow(lat));
  const std::vector<SlowQuery> top = log.snapshot();
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].latency_ns, 100u);
  EXPECT_EQ(top[1].latency_ns, 90u);
  EXPECT_EQ(top[2].latency_ns, 70u);
  EXPECT_EQ(top[3].latency_ns, 50u);
  // The floor is the smallest retained latency: nothing faster can enter.
  EXPECT_EQ(log.admission_floor(), 50u);
}

TEST(ObsSlowLog, AdmitsEverythingWhileWarmingUp) {
  SlowLog log(4, 1);
  EXPECT_EQ(log.admission_floor(), 0u);  // empty log takes any latency
  log.record(slow(500));
  log.record(slow(300));
  EXPECT_EQ(log.admission_floor(), 0u);  // still has room
  log.record(slow(100));
  log.record(slow(400));
  EXPECT_EQ(log.admission_floor(), 100u);  // full: floor = retained minimum
  EXPECT_EQ(log.admitted(), 4u);
}

TEST(ObsSlowLog, ZeroCapacityDisablesTheLog) {
  SlowLog off(0, 8);
  // An infinite floor means the serving layer's `elapsed >= floor` check
  // never offers an entry; record() is a no-op even if called anyway.
  EXPECT_EQ(off.admission_floor(), UINT64_MAX);
  off.record(slow(1'000'000));
  EXPECT_TRUE(off.snapshot().empty());
  EXPECT_EQ(off.admitted(), 0u);
}

TEST(ObsSlowLog, TiesDoNotDisplaceRetainedEntries) {
  SlowLog log(1, 1);
  log.record(slow(77, /*u=*/1));
  log.record(slow(77, /*u=*/2));  // equal latency loses to the incumbent
  const std::vector<SlowQuery> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].u, 1u);
}

TEST(ObsSlowLog, StripedSnapshotIsBoundedSortedAndKeepsTheSlowest) {
  SlowLog log(8, 4);
  util::Rng rng(23);
  std::uint64_t slowest = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t lat = 1 + rng.next_below(100000);
    slowest = std::max(slowest, lat);
    log.record(slow(lat, static_cast<std::uint32_t>(i),
                    static_cast<std::uint64_t>(i)));
  }
  const std::vector<SlowQuery> top = log.snapshot();
  ASSERT_LE(top.size(), 8u);
  ASSERT_FALSE(top.empty());
  // Striping makes the bottom of the log approximate, but the global
  // maximum can never be evicted, and the merge is sorted slowest-first.
  EXPECT_EQ(top[0].latency_ns, slowest);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].latency_ns, top[i].latency_ns);
}

TEST(ObsSlowLog, ConcurrentRecordingKeepsInvariants) {
  SlowLog log(16, 4);
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&log, t] {
      util::Rng rng(static_cast<std::uint64_t>(100 + t));
      for (int i = 0; i < kPerThread; ++i)
        log.record(slow(1 + rng.next_below(1'000'000),
                        static_cast<std::uint32_t>(t)));
    });
  for (std::thread& w : workers) w.join();

  const std::vector<SlowQuery> top = log.snapshot();
  ASSERT_LE(top.size(), 16u);
  ASSERT_FALSE(top.empty());
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].latency_ns, top[i].latency_ns);
  // Every retained entry beat the final floor (floors only rise once full).
  for (const SlowQuery& e : top)
    EXPECT_GE(e.latency_ns, log.admission_floor());
  EXPECT_LE(log.admitted(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------ trace export

TEST(ObsTailExport, PerfettoGoldenBytes) {
  std::vector<SpanRecord> records;
  records.push_back({"root", 1, 0, 1000, 5000, 0});
  records.push_back({"child", 2, 1, 1500, 2500, 3});
  const std::string golden =
      "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
      "  {\"name\": \"root\", \"cat\": \"pathsep\", \"ph\": \"X\", "
      "\"ts\": 1.000, \"dur\": 4.000, \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"id\": 1, \"parent\": 0}},\n"
      "  {\"name\": \"child\", \"cat\": \"pathsep\", \"ph\": \"X\", "
      "\"ts\": 1.500, \"dur\": 1.000, \"pid\": 1, \"tid\": 3, "
      "\"args\": {\"id\": 2, \"parent\": 1}}\n"
      "]}\n";
  EXPECT_EQ(trace_to_perfetto(records), golden);
}

TEST(ObsTailExport, PerfettoEmptyTraceIsStillValidJson) {
  const std::string empty = trace_to_perfetto({});
  EXPECT_EQ(empty, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": []}\n");
  EXPECT_TRUE(MiniJson(empty).valid());
}

TEST(ObsTailExport, PerfettoRoundTripsLiveSpanCount) {
  drain_spans();  // discard spans from earlier tests
  set_trace_enabled(true);
  {
    ScopedSpan outer("outer");
    for (int i = 0; i < 5; ++i) ScopedSpan inner("inner");
    commit_span("tail_exemplar", 10, 90);  // the slow-log's sampling path
  }
  set_trace_enabled(false);
  const std::vector<SpanRecord> spans = drain_spans();
  ASSERT_EQ(spans.size(), 7u);

  const std::string json = trace_to_perfetto(spans);
  EXPECT_TRUE(MiniJson(json).valid()) << json;
  // One complete-duration event per recorded span, nothing dropped or
  // duplicated: the trace round-trips the span count exactly.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), spans.size());
  EXPECT_EQ(count_occurrences(json, "\"cat\": \"pathsep\""), spans.size());
  EXPECT_EQ(count_occurrences(json, "\"name\": \"inner\""), 5u);
  EXPECT_EQ(count_occurrences(json, "\"name\": \"tail_exemplar\""), 1u);
}

TEST(ObsTailExport, CollapsedStacksGolden) {
  std::vector<SpanRecord> records;
  records.push_back({"root", 1, 0, 0, 100, 0});
  records.push_back({"child", 2, 1, 10, 40, 0});
  EXPECT_EQ(trace_to_collapsed(stitch_spans(std::move(records))),
            "root 70\nroot;child 30\n");
}

TEST(ObsTailExport, CollapsedSelfTimeClampsWhenChildrenOverlap) {
  // Parallel children stitched under one parent can sum past its duration;
  // self time must clamp to zero, not wrap around.
  std::vector<SpanRecord> records;
  records.push_back({"root", 1, 0, 0, 100, 0});
  records.push_back({"a", 2, 1, 0, 60, 1});
  records.push_back({"b", 3, 1, 20, 100, 2});
  EXPECT_EQ(trace_to_collapsed(stitch_spans(std::move(records))),
            "root 0\nroot;a 60\nroot;b 80\n");
}

TEST(ObsTailExport, WindowJsonIsValidAndCarriesTheAggregates) {
  WindowedHistogram window(1000, 4);
  window.record(100, 100);
  window.record(200, 600);
  window.record(300, 999);
  const std::string json = window_to_json(window.view(999));
  EXPECT_TRUE(MiniJson(json).valid()) << json;
  EXPECT_NE(json.find("\"interval_ns\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"windows\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sum_ns\": 600"), std::string::npos);
  EXPECT_NE(json.find("\"qps\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
}

TEST(ObsTailExport, SlowlogJsonIsValidAndNamesEveryOutcome) {
  std::vector<SlowQuery> entries;
  SlowQuery a = slow(4200, 7, 99);
  a.entries_scanned = 12;
  a.win_node = 3;
  a.win_level = 2;
  a.span_id = 41;
  entries.push_back(a);
  SlowQuery b = slow(100, 5, 1);
  b.outcome = SlowQuery::Outcome::kSelf;
  entries.push_back(b);
  SlowQuery c = slow(200, 6, 2);
  c.outcome = SlowQuery::Outcome::kCached;
  entries.push_back(c);
  SlowQuery d = slow(300, 8, 3);
  d.outcome = SlowQuery::Outcome::kUnreachable;
  entries.push_back(d);

  const std::string json = slowlog_to_json(entries);
  EXPECT_TRUE(MiniJson(json).valid()) << json;
  EXPECT_NE(json.find("\"u\": 7, \"v\": 8, \"latency_us\": 4.2"),
            std::string::npos);
  EXPECT_NE(json.find("\"entries_scanned\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"win_node\": 3, \"win_level\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"span_id\": 41"), std::string::npos);
  for (const char* outcome : {"oracle", "self", "cached", "unreachable"})
    EXPECT_NE(json.find("\"outcome\": \"" + std::string(outcome) + "\""),
              std::string::npos);

  const std::string empty = slowlog_to_json({});
  EXPECT_EQ(empty, "[]");
  EXPECT_TRUE(MiniJson(empty).valid());
}

}  // namespace
}  // namespace pathsep::obs

// ------------------------------------------------- per-level attribution

namespace pathsep::service {
namespace {

using graph::Vertex;
using graph::Weight;

oracle::PathOracle grid_oracle(std::size_t side = 12, double eps = 0.3) {
  graph::GridGraph gg = graph::grid(side, side);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(side, side));
  return oracle::PathOracle(tree, eps);
}

TEST(ObsAttribution, TreeOracleLevelsMatchDecompositionDepths) {
  graph::GridGraph gg = graph::grid(12, 12);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(12, 12));
  const oracle::PathOracle built(tree, 0.3);

  EXPECT_EQ(built.node_level(0), 0);  // node 0 is the root
  EXPECT_EQ(built.num_levels(), tree.height());
  EXPECT_EQ(built.node_level(-1), -1);
  EXPECT_EQ(built.node_level(1 << 28), -1);  // out of range, not a crash
  for (const oracle::DistanceLabel& label : built.labels())
    for (const oracle::LabelPart& part : label.parts) {
      const std::int32_t level = built.node_level(part.node);
      ASSERT_GE(level, 0);
      ASSERT_LT(static_cast<std::size_t>(level), built.num_levels());
    }
}

TEST(ObsAttribution, SnapshotLoadedOracleDerivesTheSameLevels) {
  const oracle::PathOracle built = grid_oracle();
  // The snapshot path has no DecompositionTree: levels are reconstructed
  // from label chain order alone and must agree with the tree's depths.
  std::vector<oracle::DistanceLabel> labels = built.labels();
  const oracle::PathOracle loaded(std::move(labels), built.epsilon());
  EXPECT_EQ(loaded.num_levels(), built.num_levels());
  for (const oracle::DistanceLabel& label : built.labels())
    for (const oracle::LabelPart& part : label.parts)
      EXPECT_EQ(loaded.node_level(part.node), built.node_level(part.node))
          << "node " << part.node;
}

TEST(ObsAttribution, QueryStatsMatchesQueryAndNamesTheWinner) {
  const oracle::PathOracle built = grid_oracle();
  const auto n = static_cast<Vertex>(built.num_vertices());
  for (Vertex u = 0; u < n; u += 7)
    for (Vertex v = 1; v < n; v += 11) {
      oracle::QueryStats stats;
      const Weight with_stats = built.query_stats(u, v, stats);
      EXPECT_EQ(with_stats, built.query(u, v));  // attribution is free
      if (u == v) continue;
      EXPECT_GT(stats.entries_scanned, 0u);
      ASSERT_GE(stats.win_node, 0);  // a grid is connected
      EXPECT_EQ(stats.win_level, built.node_level(stats.win_node));
    }
}

// ----------------------------------------- answers_total counter family

std::map<std::string, std::uint64_t> counter_family(
    const obs::MetricsRegistry& metrics, const std::string& name) {
  std::map<std::string, std::uint64_t> family;
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.kind != obs::MetricKind::kCounter || sample.name != name)
      continue;
    std::string key;
    for (const auto& [label, value] : sample.labels)
      key += label + "=" + value + ";";
    family[key] = sample.counter_value;
  }
  return family;
}

std::uint64_t family_sum(const std::map<std::string, std::uint64_t>& family) {
  std::uint64_t sum = 0;
  for (const auto& [key, value] : family) sum += value;
  return sum;
}

std::vector<Query> mixed_workload(Vertex n, std::size_t count) {
  util::Rng rng(29);
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    // Every 16th query is a self pair, exercising the "self" counter.
    const Vertex v =
        i % 16 == 0 ? u : static_cast<Vertex>(rng.next_below(n));
    batch.push_back({u, v});
  }
  return batch;
}

TEST(ObsAttribution, AnswerCountersAreExactAndThreadCountInvariant) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 2000);

  std::map<std::string, std::uint64_t> baseline;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.inline_cutoff = 1;   // the batch goes through the shard rings
    opts.cache_capacity = 0;  // attribution must not depend on cache state
    ShardedEngine engine(snapshot, opts);
    engine.query_batch(batch);

    const auto answers = counter_family(engine.metrics(), "answers_total");
    const auto queries = counter_family(engine.metrics(), "queries_total");
    ASSERT_FALSE(answers.empty());
    // Exactly one answers_total increment per query, so the family sums to
    // queries_total — the acceptance invariant — at every shard count.
    EXPECT_EQ(family_sum(answers), batch.size());
    EXPECT_EQ(family_sum(queries), batch.size());
    if (baseline.empty())
      baseline = answers;
    else
      EXPECT_EQ(answers, baseline) << shards << " shards diverged";
  }
}

TEST(ObsAttribution, CachedAnswersKeepTheSumInvariant) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 1000);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.cache_capacity = 1 << 16;
    ShardedEngine engine(snapshot, opts);
    engine.query_batch(batch);
    engine.query_batch(batch);  // second pass answers mostly from cache

    const auto answers = counter_family(engine.metrics(), "answers_total");
    EXPECT_EQ(family_sum(answers), 2 * batch.size()) << shards << " shards";
    std::uint64_t cached = 0;
    for (const auto& [key, value] : answers)
      if (key.find("level=cached;") != std::string::npos) cached = value;
    EXPECT_GT(cached, 0u) << shards << " shards";
  }
}

TEST(ObsAttribution, EngineWindowAndSlowLogSeeTheWorkload) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 500);
  // The tracing pass proves tail sampling fires through the engine: an
  // admitted slow query commits its exemplar span and keeps the span id.
  for (const bool tracing : {false, true}) {
    obs::drain_spans();
    obs::set_trace_enabled(tracing);
    for (const std::size_t shards : {1u, 2u, 8u}) {
      ShardedEngineOptions opts;
      opts.shards = shards;
      opts.cache_capacity = 0;
      opts.slowlog_capacity = 8;
      ShardedEngine engine(snapshot, opts);
      engine.query_batch(batch);

      // Real clock: the samples all land within the (1s) window lookback.
      // A sample that loses the claim race on a fresh window slot is
      // dropped and counted (obs/window.hpp). At most shards + 1 threads
      // record (the workers, plus the caller on a full ring), so one fresh
      // slot drops at most `shards` samples, and a batch that takes
      // milliseconds touches at most two windows.
      const auto view = engine.window().view(obs::window_now_ns());
      const std::uint64_t dropped = engine.window().dropped();
      EXPECT_GT(view.count, 0u) << shards << " shards";
      EXPECT_LE(dropped, 2 * shards) << shards << " shards";
      EXPECT_EQ(view.count + dropped, batch.size()) << shards << " shards";
      const std::vector<obs::SlowQuery> top = engine.slowlog().snapshot();
      ASSERT_FALSE(top.empty());
      ASSERT_LE(top.size(), 8u);
      std::size_t with_span = 0;
      for (const obs::SlowQuery& e : top) {
        EXPECT_LT(e.u, snapshot->num_vertices());
        EXPECT_GT(e.latency_ns, 0u);
        if (e.span_id != 0) ++with_span;
      }
#ifdef PATHSEP_OBS_DISABLED
      // The exemplar commit is an instrumentation call site: compiled out.
      EXPECT_EQ(with_span, 0u) << shards << " shards";
#else
      if (tracing)
        EXPECT_GT(with_span, 0u) << shards << " shards";
      else
        EXPECT_EQ(with_span, 0u) << shards << " shards";
#endif
    }
    obs::set_trace_enabled(false);
    obs::drain_spans();
  }
}

}  // namespace
}  // namespace pathsep::service
