// The per-query serving path of ShardedEngine, run by its shard workers and
// by callers answering inline: result cache, cumulative and windowed
// latency, the answers_total attribution family, and slow-log admission
// with tail-sampled exemplar spans. One AnswerPath instance is safe for any
// number of concurrent callers — counters are atomic, the windowed
// histogram is lock-free, the slow-log is lock-striped, and the cache is
// sharded.
//
// Two timing flavors:
//   answer()        — brackets the query with two clock reads (the
//                     standalone path a synchronous query() pays).
//   answer_chunk()  — answers back-to-back queries with *chained*
//                     timestamps: the end reading of query i is the start
//                     reading of query i+1, so a chunk of n queries costs
//                     n+1 clock reads instead of 2n. On sub-microsecond
//                     oracle queries the clock reads are a large share of
//                     the budget, so paying them twice per query would make
//                     batched serving slower than a plain serial loop.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "obs/window.hpp"
#include "oracle/path_oracle.hpp"
#include "service/result_cache.hpp"

namespace pathsep::service {

struct Query {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
};

class AnswerPath {
 public:
  /// Slow-log lock stripes.
  static constexpr std::size_t kSlowlogStripes = 8;
  /// Sliding-window latency view: window width and ring size (the rolling
  /// qps / tail percentiles cover up to kWindowSlots * kWindowIntervalNs).
  static constexpr std::uint64_t kWindowIntervalNs = 1'000'000'000;
  static constexpr std::size_t kWindowSlots = 8;

  /// Registers the counter family and latency instruments in `metrics` and
  /// resolves them once (registry references are stable, so the hot path
  /// never does a map lookup). `levels` sizes the per-level answers_total
  /// family; at least one level counter always exists so deeper snapshots
  /// clamp instead of indexing out of range. `slowlog_capacity` is the
  /// number of slowest-query exemplars kept (0 disables the slow-log and
  /// its admission check).
  AnswerPath(obs::MetricsRegistry& metrics, ResultCache& cache,
             std::size_t levels, std::size_t slowlog_capacity);

  AnswerPath(const AnswerPath&) = delete;
  AnswerPath& operator=(const AnswerPath&) = delete;

  /// One query through cache + metrics + tail attribution; two clock reads.
  graph::Weight answer(const oracle::PathOracle& oracle, graph::Vertex u,
                       graph::Vertex v);

  /// queries[i] -> results[i], back-to-back with chained timestamps.
  void answer_chunk(const oracle::PathOracle& oracle, const Query* queries,
                    graph::Weight* results, std::size_t count);

  const obs::WindowedHistogram& window() const { return window_; }
  const obs::SlowLog& slowlog() const { return slowlog_; }

 private:
  /// The shared body: answers with `t0` as the start reading and returns
  /// the end reading through `t1_out`.
  graph::Weight answer_timed(const oracle::PathOracle& oracle, graph::Vertex u,
                             graph::Vertex v, std::uint64_t t0,
                             std::uint64_t* t1_out);

  ResultCache& cache_;
  obs::Counter* queries_total_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::LatencyHistogram* latency_;
  /// "answers_total" family: one counter per decomposition level
  /// ({"level","N"}), plus the non-oracle outcomes
  /// ({"level","cached"|"self"|"unreachable"}).
  std::vector<obs::Counter*> answers_level_;
  obs::Counter* answers_cached_;
  obs::Counter* answers_self_;
  obs::Counter* answers_unreachable_;
  obs::WindowedHistogram window_;
  obs::SlowLog slowlog_;
};

}  // namespace pathsep::service
