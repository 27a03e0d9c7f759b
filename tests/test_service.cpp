// The query service layer: thread pool, sharded LRU cache, metrics,
// whole-oracle snapshots (including an atomic re-save that fails part-way),
// and the ShardedEngine's serving contract at 1, 2 and 8 shards — answers
// equal to serial PathOracle::query with and without the cache, under mixed
// concurrent workloads, and hits + misses == total queries.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "oracle/serialize.hpp"
#include "separator/finders.hpp"
#include "obs/metrics.hpp"
#include "service/result_cache.hpp"
#include "service/sharded_engine.hpp"
#include "service/snapshot.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace pathsep::service {
namespace {

using graph::Vertex;
using graph::Weight;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1000);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPool, ConcurrentSubmittersAllComplete) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t)
    submitters.emplace_back([&pool, &ran] {
      for (int i = 0; i < 250; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    });
  for (std::thread& s : submitters) s.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

// --------------------------------------------------------------- ResultCache

TEST(ResultCache, KeyIsCanonicalAcrossDirections) {
  EXPECT_EQ(ResultCache::key(3, 7), ResultCache::key(7, 3));
  EXPECT_NE(ResultCache::key(3, 7), ResultCache::key(3, 8));
  EXPECT_EQ(ResultCache::key(5, 5), ResultCache::key(5, 5));
}

TEST(ResultCache, GetAfterPutHitsAndCounts) {
  ResultCache cache(8, 1);
  const std::uint64_t k = ResultCache::key(1, 2);
  EXPECT_FALSE(cache.get(k).has_value());
  cache.put(k, 2.5);
  const auto hit = cache.get(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2, 1);  // one shard so the LRU order is deterministic
  cache.put(ResultCache::key(0, 1), 1.0);
  cache.put(ResultCache::key(0, 2), 2.0);
  EXPECT_TRUE(cache.get(ResultCache::key(0, 1)).has_value());  // refresh (0,1)
  cache.put(ResultCache::key(0, 3), 3.0);  // evicts (0,2)
  EXPECT_TRUE(cache.get(ResultCache::key(0, 1)).has_value());
  EXPECT_FALSE(cache.get(ResultCache::key(0, 2)).has_value());
  EXPECT_TRUE(cache.get(ResultCache::key(0, 3)).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ZeroCapacityNeverStores) {
  ResultCache cache(0);
  cache.put(ResultCache::key(1, 2), 1.0);
  EXPECT_FALSE(cache.get(ResultCache::key(1, 2)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, ShardCountRoundsToPowerOfTwo) {
  ResultCache cache(1024, 5);
  EXPECT_EQ(cache.num_shards(), 8u);
  ResultCache tiny(2, 16);  // shards shrink rather than exceed capacity
  EXPECT_LE(tiny.num_shards(), 2u);
}

TEST(ResultCache, ConcurrentMixedAccessStaysConsistent) {
  ResultCache cache(256, 4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&cache, t] {
      util::Rng rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 5000; ++i) {
        const auto u = static_cast<Vertex>(rng.next_below(64));
        const auto v = static_cast<Vertex>(rng.next_below(64));
        const std::uint64_t key = ResultCache::key(u, v);
        if (const auto hit = cache.get(key)) {
          // Values are a pure function of the key; a hit must match it.
          EXPECT_EQ(*hit, static_cast<Weight>(key % 97));
        } else {
          cache.put(key, static_cast<Weight>(key % 97));
        }
      }
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 5000u);
  EXPECT_LE(cache.size(), 256u);
}

// ------------------------------------------------------------------- Metrics

TEST(Metrics, CountersAccumulateAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("ops");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.inc();
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(), 40000u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&registry.counter("ops"), &counter);
}

TEST(Metrics, HistogramPercentilesAreBucketAccurate) {
  obs::LatencyHistogram hist;
  // 90 fast samples at ~1us, 10 slow at ~1ms.
  for (int i = 0; i < 90; ++i) hist.record(1000);
  for (int i = 0; i < 10; ++i) hist.record(1000000);
  EXPECT_EQ(hist.count(), 100u);
  // Buckets are power-of-two wide: the estimate is within 2x of the truth.
  EXPECT_GE(hist.percentile_nanos(0.50), 512.0);
  EXPECT_LE(hist.percentile_nanos(0.50), 2048.0);
  EXPECT_GE(hist.percentile_nanos(0.99), 524288.0);
  EXPECT_LE(hist.percentile_nanos(0.99), 2097152.0);
  EXPECT_DOUBLE_EQ(hist.percentile_nanos(0.0), hist.percentile_nanos(0.01));
}

TEST(Metrics, EmptyHistogramReportsZero) {
  obs::LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile_nanos(0.5), 0.0);
  EXPECT_EQ(hist.mean_nanos(), 0.0);
}

TEST(Metrics, EmptyHistogramQuantileEdgesAreZero) {
  obs::LatencyHistogram hist;
  EXPECT_EQ(hist.percentile_nanos(0.0), 0.0);
  EXPECT_EQ(hist.percentile_nanos(1.0), 0.0);
  EXPECT_EQ(hist.percentile_nanos(-3.0), 0.0);
  EXPECT_EQ(hist.percentile_nanos(42.0), 0.0);
}

TEST(Metrics, SingleSampleHistogramAgreesAtEveryQuantile) {
  obs::LatencyHistogram hist;
  hist.record(5000);  // bucket [4096, 8192)
  const double estimate = hist.percentile_nanos(0.5);
  EXPECT_GE(estimate, 4096.0);
  EXPECT_LE(estimate, 8192.0);
  // With one sample every quantile — including the edges — must agree.
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(hist.percentile_nanos(q), estimate) << "q=" << q;
}

TEST(Metrics, QuantileEdgesPickSmallestAndLargestBuckets) {
  obs::LatencyHistogram hist;
  hist.record(100);      // bucket [64, 128)
  hist.record(1000000);  // bucket [524288, 1048576)
  const double low = hist.percentile_nanos(0.0);
  const double high = hist.percentile_nanos(1.0);
  EXPECT_GE(low, 64.0);
  EXPECT_LE(low, 128.0);
  EXPECT_GE(high, 524288.0);
  EXPECT_LE(high, 1048576.0);
  // Out-of-range q clamps to the same edges rather than misbehaving.
  EXPECT_DOUBLE_EQ(hist.percentile_nanos(-1.0), low);
  EXPECT_DOUBLE_EQ(hist.percentile_nanos(2.0), high);
}

TEST(Metrics, ZeroNanosecondSampleLandsInBucketZero) {
  obs::LatencyHistogram hist;
  hist.record(0);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_GE(hist.percentile_nanos(0.5), 0.0);
  EXPECT_LE(hist.percentile_nanos(0.5), 2.0);
}

TEST(Metrics, ReportMentionsEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("alpha").inc(3);
  registry.histogram("lat").record(100);
  const std::string report = registry.report();
  EXPECT_NE(report.find("alpha 3"), std::string::npos);
  EXPECT_NE(report.find("lat{"), std::string::npos);
}

// ------------------------------------------------------------------ Snapshot

oracle::PathOracle small_oracle(std::size_t n = 80, double eps = 0.3) {
  util::Rng rng(7);
  const auto gg = graph::random_apollonian(n, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  return oracle::PathOracle(tree, eps);
}

TEST(Snapshot, RoundTripEqualsInMemoryOracle) {
  const oracle::PathOracle built = small_oracle();
  const auto bytes = serialize_oracle(built);
  const oracle::PathOracle back = deserialize_oracle(bytes);
  EXPECT_EQ(back.num_vertices(), built.num_vertices());
  EXPECT_EQ(back.epsilon(), built.epsilon());
  for (std::size_t v = 0; v < built.num_vertices(); ++v)
    EXPECT_EQ(oracle::serialize_label(back.label(static_cast<Vertex>(v))),
              oracle::serialize_label(built.label(static_cast<Vertex>(v))))
        << "label " << v;
  // Bit-identical query answers, not just approximately equal.
  for (Vertex u = 0; u < built.num_vertices(); u += 5)
    for (Vertex v = 1; v < built.num_vertices(); v += 7)
      EXPECT_EQ(back.query(u, v), built.query(u, v));
}

TEST(Snapshot, PeekReadsHeaderOnly) {
  const oracle::PathOracle built = small_oracle(60, 0.5);
  const auto bytes = serialize_oracle(built);
  const SnapshotInfo info = peek_snapshot(bytes);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.epsilon, 0.5);
  EXPECT_EQ(info.num_vertices, 60u);
}

TEST(Snapshot, SaveLoadFileRoundTrip) {
  const oracle::PathOracle built = small_oracle();
  const std::string path = ::testing::TempDir() + "pathsep_test.snapshot";
  save_snapshot(built, path);
  const oracle::PathOracle loaded = load_snapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.num_vertices(), built.num_vertices());
  for (Vertex u = 0; u < built.num_vertices(); u += 3)
    for (Vertex v = 2; v < built.num_vertices(); v += 11)
      EXPECT_EQ(loaded.query(u, v), built.query(u, v));
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Snapshot, FailedResaveLeavesTheOldFileIntact) {
  const oracle::PathOracle old_oracle = small_oracle(40);
  const oracle::PathOracle new_oracle = small_oracle(200);
  const std::string path = ::testing::TempDir() + "pathsep_resave.snapshot";
  save_snapshot(old_oracle, path);
  const std::vector<char> before = read_file(path);
  ASSERT_FALSE(before.empty());
  const std::size_t new_bytes = serialize_oracle(new_oracle).size();
  ASSERT_GT(new_bytes, 2 * before.size());

  // The re-save runs in a forked child under a file-size limit of half the
  // new snapshot, so its write fails part-way with EFBIG (SIGXFSZ ignored);
  // the limit stays out of this process. The child exits 0 iff the save
  // threw.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    limit.rlim_cur = limit.rlim_max = static_cast<rlim_t>(new_bytes / 2);
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    try {
      save_snapshot(new_oracle, path);
    } catch (const std::runtime_error&) {
      ::_exit(0);
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the limited re-save did not throw";

  // The old snapshot is bit-identical and loads; the temp file is gone.
  EXPECT_EQ(read_file(path), before);
  EXPECT_EQ(load_snapshot(path).num_vertices(), 40u);
  const std::string tmp = path + ".tmp-" + std::to_string(child);
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "temp file left behind";

  // An unlimited re-save replaces the file.
  save_snapshot(new_oracle, path);
  EXPECT_EQ(load_snapshot(path).num_vertices(), 200u);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptMagicVersionChecksumAndTruncationThrow) {
  const auto bytes = serialize_oracle(small_oracle(40));
  {
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
    EXPECT_THROW(peek_snapshot(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad[8] += 1;  // version varint
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad[bytes.size() / 2] ^= 0x10;  // body flip breaks the checksum
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad.resize(bad.size() - 9);
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
  }
  EXPECT_THROW(load_snapshot("/nonexistent/pathsep.snapshot"),
               std::runtime_error);
}

TEST(Snapshot, MisorderedLabelsRejected) {
  const oracle::PathOracle built = small_oracle(40);
  std::vector<oracle::DistanceLabel> labels = built.labels();
  std::swap(labels[0], labels[1]);
  EXPECT_THROW(oracle::PathOracle(std::move(labels), built.epsilon()),
               std::invalid_argument);
}

// ------------------------------------------------------------- ShardedEngine

constexpr std::size_t kShardCounts[] = {1, 2, 8};

TEST(ShardedEngine, MatchesOracleWithAndWithoutCache) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(small_oracle());
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions cached_opts;
    cached_opts.shards = shards;
    cached_opts.cache_capacity = 1 << 16;
    ShardedEngineOptions uncached_opts;
    uncached_opts.shards = shards;
    ShardedEngine cached(snapshot, cached_opts);
    ShardedEngine uncached(snapshot, uncached_opts);
    const auto n = static_cast<Vertex>(snapshot->num_vertices());
    for (Vertex u = 0; u < n; u += 3)
      for (Vertex v = 0; v < n; v += 5) {
        const Weight expected = snapshot->query(u, v);
        EXPECT_EQ(cached.query(u, v), expected);
        EXPECT_EQ(cached.query(v, u), expected);  // served from cache
        EXPECT_EQ(uncached.query(u, v), expected);
      }
    EXPECT_GT(cached.cache().hits(), 0u) << shards << " shards";
    EXPECT_EQ(uncached.cache().hits(), 0u) << shards << " shards";
  }
}

TEST(ShardedEngine, BatchMatchesSingleQueries) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(small_oracle());
  util::Rng rng(11);
  std::vector<Query> batch;
  for (int i = 0; i < 500; ++i)
    batch.push_back({static_cast<Vertex>(rng.next_below(80)),
                     static_cast<Vertex>(rng.next_below(80))});
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.drain_batch = 16;   // many drains per batch
    opts.inline_cutoff = 1;  // force the rings
    ShardedEngine engine(snapshot, opts);
    const std::vector<Weight> results = engine.query_batch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(results[i], snapshot->query(batch[i].u, batch[i].v))
          << shards << " shards, query " << i;
  }
}

TEST(ShardedEngine, EmptyBatchIsFine) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(small_oracle(40));
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    ShardedEngine engine(snapshot, opts);
    EXPECT_TRUE(engine.query_batch({}).empty());
    engine.query_batch_into({}, nullptr);
  }
}

TEST(ShardedEngine, ConcurrentMixedWorkloadIdenticalDistancesAndMetricsAddUp) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(small_oracle());
  constexpr int kClients = 4;
  constexpr int kPerClient = 400;
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.cache_capacity = 512;
    opts.drain_batch = 32;
    opts.inline_cutoff = 1;
    ShardedEngine engine(snapshot, opts);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t)
      clients.emplace_back([&engine, &snapshot, &mismatches, t] {
        util::Rng rng(static_cast<std::uint64_t>(100 + t));
        std::vector<Query> batch;
        for (int i = 0; i < kPerClient; ++i) {
          const auto u = static_cast<Vertex>(rng.next_below(80));
          const auto v = static_cast<Vertex>(rng.next_below(80));
          if (i % 3 == 0) {
            if (engine.query(u, v) != snapshot->query(u, v)) ++mismatches;
          } else {
            batch.push_back({u, v});
          }
        }
        const std::vector<Weight> results = engine.query_batch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i)
          if (results[i] != snapshot->query(batch[i].u, batch[i].v))
            ++mismatches;
      });
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(mismatches.load(), 0) << shards << " shards";

    const auto total = engine.metrics().counter("queries_total").value();
    const auto hits = engine.metrics().counter("cache_hits").value();
    const auto misses = engine.metrics().counter("cache_misses").value();
    EXPECT_EQ(total, static_cast<std::uint64_t>(kClients) * kPerClient);
    EXPECT_EQ(hits + misses, total);
    EXPECT_EQ(hits, engine.cache().hits());
    EXPECT_EQ(misses, engine.cache().misses());
    EXPECT_EQ(engine.metrics().histogram("query_latency_ns").count(), total);
  }
}

TEST(ShardedEngine, ReplaceSnapshotSwapsOracleAndClearsCache) {
  auto first = std::make_shared<const oracle::PathOracle>(small_oracle(60));
  auto second = std::make_shared<const oracle::PathOracle>(
      small_oracle(60, 0.8));
  auto other_size =
      std::make_shared<const oracle::PathOracle>(small_oracle(40));
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.cache_capacity = 1 << 10;
    ShardedEngine engine(first, opts);
    EXPECT_EQ(engine.num_vertices(), 60u);
    engine.query(1, 2);
    EXPECT_GT(engine.cache().size(), 0u);
    engine.replace_snapshot(second);
    EXPECT_EQ(engine.snapshot().get(), second.get());
    EXPECT_EQ(engine.cache().size(), 0u);
    EXPECT_EQ(engine.query(1, 2), second->query(1, 2));
    EXPECT_THROW(engine.replace_snapshot(nullptr), std::invalid_argument);
    // Vertex ids are validated against a fixed count, so it cannot change.
    EXPECT_THROW(engine.replace_snapshot(other_size), std::invalid_argument);
    EXPECT_EQ(engine.snapshot().get(), second.get());
  }
}

// ------------------------------------------------- util satellites (threads)

TEST(DefaultThreads, HonorsPathsepThreadsEnv) {
  ::setenv("PATHSEP_THREADS", "3", 1);
  EXPECT_EQ(util::default_threads(), 3u);
  ::setenv("PATHSEP_THREADS", "garbage", 1);
  const std::size_t fallback = util::default_threads();
  ::unsetenv("PATHSEP_THREADS");
  EXPECT_EQ(fallback, util::default_threads());
  EXPECT_GE(util::default_threads(), 1u);
}

TEST(DefaultThreads, ParallelForUsesEnvOverride) {
  ::setenv("PATHSEP_THREADS", "2", 1);
  std::atomic<int> ran{0};
  util::parallel_for(100, [&ran](std::size_t) { ran.fetch_add(1); });
  ::unsetenv("PATHSEP_THREADS");
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace pathsep::service
