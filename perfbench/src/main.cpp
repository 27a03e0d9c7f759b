// End-to-end benchmark of the (1+eps) path-separator distance oracle
// (Theorem 2): build a road network's oracle into a snapshot on disk, then
// serve it with the program's own query server over the binary wire
// protocol. Prints one JSON result line; see perfbench/README.md.
//
//   oracle_bench --workload=build_road|serve_bulk_uniform|serve_small_zipf
//                    --seed=N --seconds=S --trace=0|1
//                    --server=<query_server binary> --work-dir=<dir>
//                    [--side=192] [--corrupt=below|above|swap|drop|short]
//                    [--zipf-rate=<frames/s>]
//
// --side shrinks the graph for the checker tests; --corrupt feeds the
// checks one corrupted result, so the run must fail. --zipf-rate replaces
// the open-loop rate of serve_small_zipf, to measure the server's capacity
// for small frames (README).
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/metrics.hpp"
#include "oracle/labels.hpp"
#include "oracle/path_oracle.hpp"
#include "separator/finders.hpp"
#include "server.hpp"
#include "service/net.hpp"
#include "service/sharded_engine.hpp"
#include "service/snapshot.hpp"

namespace perfbench {
namespace {

using pathsep::graph::Graph;
using pathsep::oracle::PathOracle;

const std::int64_t kProcessStart = now_ns();

// ---- fixed workload parameters (see README) -------------------------------
constexpr double kEpsilon = 0.5;
constexpr std::uint64_t kGraphSeed = 1;
constexpr std::size_t kServerShards = 2;  // + loop thread + client = nproc 4
constexpr std::size_t kConnections = 4;
constexpr std::size_t kBulkFrame = 512;
constexpr std::size_t kBulkPool = 1 << 20;
// 200,000 distinct pairs, as in bench_service's zipf mix: three times the
// server's 65,536-entry result cache, so only pairs that recur often stay
// cached, and the skew sets the hit ratio.
constexpr std::size_t kZipfPool = 200000;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kZipfFrameMin = 8;
constexpr std::size_t kZipfFrameMax = 16;
// Half the server's measured capacity for these frames: at 48,000 frames/s
// (576k queries/s) the server used 0.92 cores, frames this small being
// answered inline on its one event-loop thread, and the one-thread client
// began to lag (README).
constexpr double kZipfRateFps = 24000;
constexpr double kWarmupS = 1.0;
// Serving figures are medians over sub-windows long enough to hold ~1000
// frames, so each sub-window's p99 has ten frames beyond it.
constexpr double kBulkSubWindowS = 2.0;
constexpr double kZipfSubWindowS = 1.0;
constexpr std::size_t kColdStarts = 5;
constexpr std::size_t kBuildRounds = 2;     // build_road's timed builds
constexpr double kBuildServeWindowS = 6.0;  // build_road's first-traffic phase
constexpr std::size_t kSampledPairs = 2048;   // build_road stretch sample
constexpr std::size_t kServedChecks = 4096;   // served answers vs Dijkstra
constexpr double kServerWatchdogS = 170;
constexpr double kPortTimeoutS = 60;
constexpr std::size_t kReplayQueries = 400000;  // traced in-process replay
constexpr double kRelTol = 1e-9;  // float slack of the stretch bounds

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::size_t side = 192;
  std::string corrupt;
  double zipf_rate_fps = kZipfRateFps;
};

std::string flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string eq = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(eq, 0) == 0) return a.substr(eq.size());
  }
  return fallback;
}

std::size_t worker_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// fn(i) for i in [0, n) on plain threads of the benchmark's own.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < worker_count(); ++t)
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  for (std::thread& t : threads) t.join();
}

// ---- reference distances ---------------------------------------------------

/// Exact d(s, t) by a binary-heap Dijkstra written here, independent of the
/// library's sssp module.
double reference_distance(const Graph& g, std::uint32_t s, std::uint32_t t) {
  if (s == t) return 0;
  std::vector<double> dist(g.num_vertices(),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[s] = 0;
  heap.push({0.0, s});
  while (!heap.empty()) {
    const auto [d, x] = heap.top();
    heap.pop();
    if (d > dist[x]) continue;
    if (x == t) return d;
    for (const pathsep::graph::Arc& a : g.neighbors(x)) {
      const double nd = d + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.push({nd, a.to});
      }
    }
  }
  return std::numeric_limits<double>::infinity();
}

/// d <= est <= (1+eps) d for every pair; returns the mean stretch est/d
/// over pairs with d > 0.
double check_stretch(const std::vector<double>& est,
                     const std::vector<double>& exact, Checker& checker) {
  double sum = 0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < est.size(); ++i) {
    const double d = exact[i];
    char detail[160];
    std::snprintf(detail, sizeof detail, "pair %zu: est %.17g, exact %.17g",
                  i, est[i], d);
    if (!(est[i] >= d * (1 - kRelTol))) checker.fail("stretch_lower", detail);
    if (!(est[i] <= (1 + kEpsilon) * d * (1 + kRelTol)))
      checker.fail("stretch_upper", detail);
    if (d > 0) {
      sum += est[i] / d;
      ++counted;
    }
  }
  return counted ? sum / static_cast<double>(counted) : 1.0;
}

/// Applies --corrupt=below|above to the first pair with a positive distance.
void corrupt_estimate(const Config& cfg, std::vector<double>& est,
                      const std::vector<double>& exact) {
  for (std::size_t i = 0; i < est.size(); ++i) {
    if (!(exact[i] > 0)) continue;
    if (cfg.corrupt == "below") est[i] = exact[i] * 0.99;
    if (cfg.corrupt == "above") est[i] = exact[i] * (1 + kEpsilon) * 1.01;
    return;
  }
}

// ---- build: graph -> tree -> labels -> oracle -> snapshot ------------------

struct Counters {
  std::uint64_t runs, settled, relaxed, whole;
  static Counters read() {
    auto& reg = pathsep::obs::default_registry();
    return {reg.counter("sssp_dijkstra_runs_total").value(),
            reg.counter("sssp_dijkstra_settled_total").value(),
            reg.counter("sssp_dijkstra_relaxed_total").value(),
            reg.counter("oracle_whole_residual_dijkstras_total").value()};
  }
};

struct Build {
  std::shared_ptr<const PathOracle> oracle;
  double build_s = 0;
  double build_cpu_s = 0;
  double snapshot_bytes = 0;
};

/// One build through the library's public path, with the program's default
/// thread count. Per-layer figures go to `layers` when tracing.
Build build_snapshot(const pathsep::graph::GeometricGraph& gg,
                     const std::string& path, bool trace, Metrics& layers) {
  const pathsep::separator::PlanarCycleSeparator finder(gg.positions);
  const Counters c0 = Counters::read();
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_seconds();

  std::int64_t t1 = 0, t2 = 0;
  double cpu1 = 0, cpu2 = 0;
  pathsep::oracle::BuildLabelsStats label_stats;
  Build b;
  {
    const pathsep::hierarchy::DecompositionTree tree(gg.graph, finder);
    t1 = now_ns();
    cpu1 = process_cpu_seconds();
    auto labels = pathsep::oracle::build_labels(tree, kEpsilon, 0, &label_stats);
    b.oracle = std::make_shared<const PathOracle>(std::move(labels), kEpsilon);
    t2 = now_ns();
    cpu2 = process_cpu_seconds();
    if (trace) {
      layers.set("hierarchy.nodes", static_cast<double>(tree.nodes().size()), "count");
      layers.set("hierarchy.height", tree.height(), "count");
      layers.set("separator.paths", static_cast<double>(tree.total_paths()), "count");
    }
  }
  pathsep::service::save_snapshot(*b.oracle, path);
  const std::int64_t t3 = now_ns();
  const double cpu3 = process_cpu_seconds();

  b.build_s = seconds_between(t0, t3);
  b.build_cpu_s = cpu3 - cpu0;
  struct stat st {};
  if (stat(path.c_str(), &st) != 0)
    throw std::runtime_error("snapshot not on disk: " + path);
  b.snapshot_bytes = static_cast<double>(st.st_size);

  if (trace) {
    const Counters c1 = Counters::read();
    layers.set("hierarchy.tree_s", seconds_between(t0, t1), "s");
    layers.set("hierarchy.tree_cpu_s", cpu1 - cpu0, "s");
    layers.set("oracle.labels_s", seconds_between(t1, t2), "s");
    layers.set("oracle.labels_cpu_s", cpu2 - cpu1, "s");
    layers.set("oracle.connections_s", label_stats.connections_seconds, "s");
    layers.set("oracle.assemble_s", label_stats.assemble_seconds, "s");
    layers.set("sssp.dijkstra_runs", static_cast<double>(c1.runs - c0.runs), "count");
    layers.set("sssp.settled", static_cast<double>(c1.settled - c0.settled), "count");
    layers.set("sssp.relaxed", static_cast<double>(c1.relaxed - c0.relaxed), "count");
    layers.set("oracle.whole_residual_runs", static_cast<double>(c1.whole - c0.whole), "count");
    layers.set("oracle.label_words_avg", b.oracle->average_label_words(), "words");
    layers.set("oracle.label_words_max", static_cast<double>(b.oracle->max_label_words()), "words");
    layers.set("snapshot.save_s", seconds_between(t2, t3), "s");
    layers.set("snapshot.save_cpu_s", cpu3 - cpu2, "s");
    layers.set("build.cores_used", b.build_cpu_s / b.build_s, "ratio");
    const std::int64_t ts = now_ns();
    const std::vector<std::uint8_t> bytes =
        pathsep::service::serialize_oracle(*b.oracle);
    layers.set("snapshot.serialize_s", seconds_between(ts, now_ns()), "s");
    if (bytes.size() != static_cast<std::size_t>(st.st_size))
      throw std::runtime_error("serialize_oracle size differs from the file");
  }
  return b;
}

// ---- serving ---------------------------------------------------------------

struct Served {
  double cold_start_s = 0;
  double server_peak_rss_mb = 0;
  TrafficResult traffic;
};

Served serve(const Config& cfg, const std::string& snapshot,
             const TrafficSpec& spec) {
  Served s;
  // Cold start = spawn to first answered ping; the median of a few starts,
  // the last of which serves the traffic.
  std::vector<double> cold;
  for (std::size_t i = 0;; ++i) {
    const std::int64_t spawned = now_ns();
    ServerProcess server(cfg.server, snapshot, kServerShards, kServerWatchdogS,
                         kPortTimeoutS);
    ping(server.port(), kPortTimeoutS);
    cold.push_back(seconds_between(spawned, now_ns()));
    if (i + 1 < kColdStarts) continue;  // ~ServerProcess kills and reaps it
    s.cold_start_s = quantile(cold, 0.5);
    s.traffic = run_traffic(server.port(), spec,
                            [&server] { return server.cpu_seconds(); });
    s.server_peak_rss_mb = server.stop();
    return s;
  }
}

double frame_latency_us(const FrameRecord& f, bool open_loop) {
  return static_cast<double>(f.done_ns - (open_loop ? f.due_ns : f.sent_ns)) /
         1e3;
}

/// Serving metrics, as medians over the sub-windows of the measured window
/// (frames assigned by due time), so a stall of the shared host moves one
/// sub-window rather than the result. Cold start and server CPU per query
/// are end-to-end; wall-clock throughput and round trips swing with the
/// host's steal time (README), so they go to the traced run, unbounded.
void report_serving(const Served& s, bool open_loop, Metrics& m,
                    Metrics& layers) {
  const TrafficResult& t = s.traffic;
  const std::size_t parts = t.cpu_marks.size() - 1;
  const double part_ns = static_cast<double>(t.window_end_ns - t.window_start_ns) /
                         static_cast<double>(parts);
  std::vector<std::vector<double>> lat(parts);
  std::vector<double> queries(parts, 0.0);
  for (const FrameRecord& f : t.frames) {
    if (!f.in_window || f.done_ns == 0) continue;
    const auto j = std::min(parts - 1, static_cast<std::size_t>(
        static_cast<double>(f.due_ns - t.window_start_ns) / part_ns));
    lat[j].push_back(frame_latency_us(f, open_loop));
    queries[j] += f.count;
  }
  std::vector<double> cpu, qps, p50, p99;
  for (std::size_t j = 0; j < parts; ++j) {
    if (queries[j] == 0) continue;  // only if the traffic was cut short
    cpu.push_back((t.cpu_marks[j + 1] - t.cpu_marks[j]) * 1e6 / queries[j]);
    qps.push_back(queries[j] / (part_ns / 1e9));
    p50.push_back(quantile(lat[j], 0.50));
    p99.push_back(quantile(lat[j], 0.99));
    std::fprintf(stderr,
                 "sub-window %zu: %zu frames, %.0f queries/s, p50 %.1f us, "
                 "p99 %.1f us, server %.3f us CPU/query\n",
                 j, lat[j].size(), qps.back(), p50.back(), p99.back(), cpu.back());
  }
  m.set("cold_start_s", s.cold_start_s, "s");
  m.set("server_cpu_us_per_query", quantile(cpu, 0.5), "us");
  layers.set("client.qps", quantile(qps, 0.5), "queries/s");
  layers.set("client.frame_p50_us", quantile(p50, 0.5), "us");
  layers.set("client.frame_p99_us", quantile(p99, 0.5), "us");
}

/// Wire checks: every request id answered exactly once, the count of
/// answers received equals the count of queries sent, and every answer
/// equals the in-process oracle's. Returns the queries left without a
/// readable answer: the run's failed operations.
std::uint64_t check_served(const Config& cfg, const PathOracle& oracle,
                           const std::vector<Pair>& pool, TrafficResult& t,
                           Checker& checker) {
  for (const WireFault& f : t.faults) checker.fail(f.check, f.detail);
  if (!t.drained) checker.fail("answered_once", "traffic ended with frames unanswered");
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < t.frames.size(); ++i) {
    const FrameRecord& f = t.frames[i];
    if (f.answers != 1)
      checker.fail("answered_once", "request id " + std::to_string(i + 1) +
                                        " answered " + std::to_string(f.answers) +
                                        " times");
    if (f.answers == 0 || f.wrong_count) failed += f.count;
  }
  if (t.answers_received != t.stream.size())
    checker.fail("answer_count", std::to_string(t.answers_received) +
                                     " answers received for " +
                                     std::to_string(t.stream.size()) +
                                     " queries sent");

  if (cfg.corrupt == "swap")  // swap two differing answers of one frame
    for (const FrameRecord& f : t.frames) {
      bool done = false;
      for (std::uint32_t k = 1; k < f.count && !done; ++k)
        if (t.answers[f.first] != t.answers[f.first + k]) {
          std::swap(t.answers[f.first], t.answers[f.first + k]);
          done = true;
        }
      if (done) break;
    }

  std::vector<double> expected(pool.size(), std::numeric_limits<double>::quiet_NaN());
  std::vector<std::uint8_t> used(pool.size(), 0);
  for (const std::uint32_t idx : t.stream) used[idx] = 1;
  parallel_for(pool.size(), [&](std::size_t i) {
    if (used[i]) expected[i] = oracle.query(pool[i].u, pool[i].v);
  });
  for (std::size_t p = 0; p < t.stream.size(); ++p) {
    const double want = expected[t.stream[p]];
    if (std::isnan(t.answers[p])) continue;  // unanswered: counted above
    if (t.answers[p] != want) {
      char detail[160];
      std::snprintf(detail, sizeof detail,
                    "position %zu (%u,%u): wire %.17g, oracle %.17g", p,
                    pool[t.stream[p]].u, pool[t.stream[p]].v, t.answers[p], want);
      checker.fail("wire_equals_oracle", detail);
    }
  }
  return failed;
}

// ---- traced per-layer replays ---------------------------------------------

void trace_serving_layers(std::shared_ptr<const PathOracle> oracle,
                          const std::string& snapshot,
                          const std::vector<Pair>& pool, const Served& served,
                          Metrics& layers) {
  namespace svc = pathsep::service;
  const TrafficResult& t = served.traffic;
  {
    const std::int64_t t0 = now_ns();
    const PathOracle loaded = svc::load_snapshot(snapshot);
    layers.set("snapshot.load_s", seconds_between(t0, now_ns()), "s");
    if (loaded.num_vertices() != oracle->num_vertices())
      throw std::runtime_error("reloaded snapshot has another vertex count");
  }

  // Serial PathOracle::query over the window's pairs.
  std::vector<double> query_ns;
  double scanned = 0;
  for (const FrameRecord& f : t.frames) {
    if (!f.in_window) continue;
    for (std::uint32_t k = 0; k < f.count && query_ns.size() < kReplayQueries; ++k) {
      const Pair q = pool[t.stream[f.first + k]];
      const std::int64_t a = now_ns();
      const double d = oracle->query(q.u, q.v);
      query_ns.push_back(static_cast<double>(now_ns() - a));
      pathsep::oracle::QueryStats qs;
      if (oracle->query_stats(q.u, q.v, qs) != d)
        throw std::runtime_error("query_stats disagrees with query");
      scanned += qs.entries_scanned;
    }
  }
  layers.set("oracle.query_ns_p50", quantile(query_ns, 0.5), "ns");
  layers.set("oracle.query_ns_mean", mean(query_ns), "ns");
  layers.set("oracle.entries_scanned_avg",
             scanned / static_cast<double>(std::max<std::size_t>(1, query_ns.size())),
             "count");

  // The server's engine configuration, fed the same frames in order: wire
  // decode, engine, wire encode, each timed per frame.
  svc::ShardedEngineOptions options;
  options.shards = kServerShards;
  options.cache_capacity = 1 << 16;  // query_server's default --cache
  svc::ShardedEngine engine(oracle, options);
  std::vector<double> decode_us, engine_us, encode_us, self_us;
  std::vector<std::uint8_t> bytes, out;
  std::vector<svc::Query> queries;
  std::vector<double> results;
  std::vector<Pair> pairs;
  std::uint64_t hits0 = 0, misses0 = 0;
  bool window_seen = false;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < t.frames.size() && replayed < kReplayQueries; ++i) {
    const FrameRecord& f = t.frames[i];
    if (f.in_window && !window_seen) {
      window_seen = true;
      hits0 = engine.cache().hits();
      misses0 = engine.cache().misses();
    }
    pairs.clear();
    for (std::uint32_t k = 0; k < f.count; ++k) pairs.push_back(pool[t.stream[f.first + k]]);
    bytes.clear();
    encode_request(bytes, static_cast<std::uint32_t>(i + 1), pairs.data(), pairs.size());
    svc::wire::ParsedRequest req;
    const std::int64_t a = now_ns();
    if (svc::wire::parse_request(bytes, 0, req, queries) != svc::wire::ParseStatus::kRequest)
      throw std::runtime_error("parse_request rejected a well-formed frame");
    const std::int64_t b = now_ns();
    results.resize(queries.size());
    engine.query_batch_into(queries, results.data());
    const std::int64_t c = now_ns();
    out.clear();
    svc::wire::append_response(out, req.request_id, results);
    const std::int64_t d = now_ns();
    if (!f.in_window) continue;
    replayed += f.count;
    decode_us.push_back(static_cast<double>(b - a) / 1e3);
    engine_us.push_back(static_cast<double>(c - b) / 1e3);
    encode_us.push_back(static_cast<double>(d - c) / 1e3);
    self_us.push_back(static_cast<double>(f.done_ns - f.sent_ns) / 1e3 -
                      static_cast<double>(d - a) / 1e3);
  }
  const double hits = static_cast<double>(engine.cache().hits() - hits0);
  const double lookups = hits + static_cast<double>(engine.cache().misses() - misses0);
  layers.set("service.engine_frame_us_p50", quantile(engine_us, 0.5), "us");
  layers.set("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  layers.set("net.decode_us_p50", quantile(decode_us, 0.5), "us");
  layers.set("net.encode_us_p50", quantile(encode_us, 0.5), "us");
  layers.set("net.self_us_p50", quantile(self_us, 0.5), "us");

  std::vector<double> lag;
  for (const FrameRecord& f : t.frames)
    if (f.in_window) lag.push_back(static_cast<double>(f.sent_ns - f.due_ns) / 1e3);
  layers.set("client.lag_us_p99", quantile(lag, 0.99), "us");
}

// ---- workloads -------------------------------------------------------------

std::vector<Pair> uniform_pairs(std::size_t n, std::size_t vertices,
                                std::uint64_t seed, std::uint64_t stream) {
  SplitMix rng(seed, stream);
  std::vector<Pair> pairs(n);
  for (Pair& p : pairs) p = {rng.below(vertices), rng.below(vertices)};
  return pairs;
}

/// Exact distances of every pair, on worker threads.
std::vector<double> reference_distances(const Graph& g, const std::vector<Pair>& pairs) {
  std::vector<double> d(pairs.size());
  parallel_for(pairs.size(), [&](std::size_t i) {
    d[i] = reference_distance(g, pairs[i].u, pairs[i].v);
  });
  return d;
}

struct Outcome {
  Metrics metrics;
  Metrics layers;
  Checker checker;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The road network is the same for every --seed (generator seed 1): across
/// seeds the generator's graphs gave snapshots of 200-218 MB and builds of
/// 16.1-18.9 CPU seconds, a spread that would hide any build change. The
/// seed draws everything else: query pairs, sampled pairs, ranks, frames.
pathsep::graph::GeometricGraph make_graph(const Config& cfg) {
  pathsep::util::Rng rng(kGraphSeed);
  return pathsep::graph::road_network(cfg.side, cfg.side, rng);
}

TrafficSpec bulk_spec(const Config& cfg, const std::vector<Pair>& pool,
                      std::atomic<std::uint32_t>& cursor, double warmup,
                      double window) {
  TrafficSpec spec;
  spec.connections = kConnections;
  spec.min_frame = spec.max_frame = kBulkFrame;
  spec.warmup_s = warmup;
  spec.window_s = window;
  spec.sub_window_s = kBulkSubWindowS;
  spec.seed = cfg.seed;
  spec.pool = &pool;
  spec.next_index = [&cursor, n = pool.size()] {
    return static_cast<std::uint32_t>(cursor++ % n);
  };
  spec.drop_one_frame = cfg.corrupt == "drop";
  spec.short_one_frame = cfg.corrupt == "short";
  return spec;
}

void run_build_road(const Config& cfg, const std::string& snapshot, Outcome& o) {
  const auto gg = make_graph(cfg);
  const std::size_t n = gg.graph.num_vertices();
  const std::vector<Pair> sampled = uniform_pairs(kSampledPairs, n, cfg.seed, 1);
  // Setup: the inputs and the exact distances the checks compare against.
  const std::vector<double> exact = reference_distances(gg.graph, sampled);
  o.metrics.set("setup_s", seconds_between(kProcessStart, now_ns()), "s");

  // A fixed number of whole rounds of build -> snapshot, whatever their
  // length, so the reported median is always taken the same way.
  std::vector<double> build_s, build_cpu_s;
  std::vector<std::vector<double>> round_est;
  Build last;
  for (std::size_t round = 0; round < kBuildRounds; ++round) {
    last = {};  // free the previous oracle before the next build
    last = build_snapshot(gg, snapshot, cfg.trace && build_s.empty(), o.layers);
    build_s.push_back(last.build_s);
    build_cpu_s.push_back(last.build_cpu_s);
    std::vector<double> est(3 * sampled.size());
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      est[i] = last.oracle->query(sampled[i].u, sampled[i].v);
      est[sampled.size() + i] = last.oracle->query(sampled[i].v, sampled[i].u);
      est[2 * sampled.size() + i] = last.oracle->query(sampled[i].v, sampled[i].v);
    }
    round_est.push_back(std::move(est));
    o.attempted += 1 + 3 * sampled.size();
  }
  const double peak_rss = process_peak_rss_mb();

  // First traffic on the fresh snapshot: the sampled pairs both ways and
  // their self pairs, then uniform pairs, through the server's reload path.
  std::vector<Pair> pool;
  for (const Pair& p : sampled) pool.push_back(p);
  for (const Pair& p : sampled) pool.push_back({p.v, p.u});
  for (const Pair& p : sampled) pool.push_back({p.v, p.v});
  for (const Pair& p : uniform_pairs(kBulkPool, n, cfg.seed, 2)) pool.push_back(p);
  std::atomic<std::uint32_t> cursor{0};
  Served served = serve(cfg, snapshot,
                        bulk_spec(cfg, pool, cursor, 0.5, kBuildServeWindowS));
  o.attempted += served.traffic.stream.size();
  if (cursor.load() < 3 * sampled.size())
    o.checker.fail("reload_served", "the sampled pairs were not all served");

  // Checks, outside every timed window.
  double stretch = 0;
  for (std::vector<double>& est : round_est) {
    std::vector<double> forward(est.begin(), est.begin() + static_cast<std::ptrdiff_t>(sampled.size()));
    if (!cfg.corrupt.empty() && &est == &round_est.front()) corrupt_estimate(cfg, forward, exact);
    stretch = check_stretch(forward, exact, o.checker);
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      if (est[i] != est[sampled.size() + i])
        o.checker.fail("symmetric", "pair " + std::to_string(i));
      if (est[2 * sampled.size() + i] != 0)
        o.checker.fail("self_zero", "vertex " + std::to_string(sampled[i].v));
    }
  }
  o.failed += check_served(cfg, *last.oracle, pool, served.traffic, o.checker);

  o.metrics.set("build_s", median(build_s), "s");
  o.metrics.set("build_cpu_s", median(build_cpu_s), "s");
  o.metrics.set("snapshot_bytes", last.snapshot_bytes, "bytes");
  o.metrics.set("peak_rss_mb", peak_rss, "MB");
  o.metrics.set("stretch_mean", stretch, "ratio");
  report_serving(served, false, o.metrics, o.layers);
  if (cfg.trace)
    trace_serving_layers(last.oracle, snapshot, pool, served, o.layers);
}

void run_serve(const Config& cfg, const std::string& snapshot, bool zipf,
               Outcome& o) {
  const auto gg = make_graph(cfg);
  const std::size_t n = gg.graph.num_vertices();
  const Build b = build_snapshot(gg, snapshot, cfg.trace, o.layers);
  o.attempted += 1;

  const std::vector<Pair> pool =
      uniform_pairs(zipf ? kZipfPool : kBulkPool, n, cfg.seed, 3);
  std::atomic<std::uint32_t> cursor{0};
  TrafficSpec spec = bulk_spec(cfg, pool, cursor, kWarmupS, cfg.seconds);
  std::vector<double> zipf_cdf;
  SplitMix zipf_rng(cfg.seed, 4);
  if (zipf) {
    double total = 0;
    for (std::size_t k = 0; k < pool.size(); ++k)
      zipf_cdf.push_back(total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent));
    for (double& c : zipf_cdf) c /= total;
    spec.next_index = [&] {
      const auto it = std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), zipf_rng.unit());
      return static_cast<std::uint32_t>(
          std::min<std::size_t>(static_cast<std::size_t>(it - zipf_cdf.begin()), pool.size() - 1));
    };
    spec.open_rate_fps = cfg.zipf_rate_fps;
    spec.sub_window_s = kZipfSubWindowS;
    spec.min_frame = kZipfFrameMin;
    spec.max_frame = kZipfFrameMax;
  }
  Served served = serve(cfg, snapshot, spec);
  o.metrics.set("setup_s", seconds_between(kProcessStart, served.traffic.window_start_ns), "s");
  o.attempted += served.traffic.stream.size();

  // Several thousand served answers against exact distances.
  std::vector<std::uint8_t> used(pool.size(), 0);
  for (const std::uint32_t idx : served.traffic.stream) used[idx] = 1;
  std::vector<Pair> checked;
  std::vector<double> est;
  for (std::size_t p = 0; p < served.traffic.stream.size() && checked.size() < kServedChecks; ++p) {
    const std::uint32_t idx = served.traffic.stream[p];
    if (used[idx] != 1 || std::isnan(served.traffic.answers[p])) continue;
    used[idx] = 2;
    checked.push_back(pool[idx]);
    est.push_back(served.traffic.answers[p]);
  }
  const std::vector<double> exact = reference_distances(gg.graph, checked);
  if (!cfg.corrupt.empty()) corrupt_estimate(cfg, est, exact);
  const double stretch = check_stretch(est, exact, o.checker);
  o.failed += check_served(cfg, *b.oracle, pool, served.traffic, o.checker);

  o.metrics.set("build_s", b.build_s, "s");
  o.metrics.set("build_cpu_s", b.build_cpu_s, "s");
  o.metrics.set("snapshot_bytes", b.snapshot_bytes, "bytes");
  o.metrics.set("peak_rss_mb", served.server_peak_rss_mb, "MB");
  o.metrics.set("stretch_mean", stretch, "ratio");
  report_serving(served, zipf, o.metrics, o.layers);
  if (cfg.trace)
    trace_serving_layers(b.oracle, snapshot, pool, served, o.layers);
}

/// Removes the run's snapshot on every exit path.
struct ScopedFile {
  std::string path;
  ~ScopedFile() { std::remove(path.c_str()); }
};

int run(int argc, char** argv) {
  Config cfg;
  cfg.workload = flag(argc, argv, "workload", "");
  cfg.seed = std::strtoull(flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  cfg.seconds = std::strtod(flag(argc, argv, "seconds", "10").c_str(), nullptr);
  cfg.trace = flag(argc, argv, "trace", "0") == "1";
  cfg.server = flag(argc, argv, "server", "");
  cfg.work_dir = flag(argc, argv, "work-dir", ".");
  cfg.side = std::strtoull(flag(argc, argv, "side", "192").c_str(), nullptr, 10);
  cfg.corrupt = flag(argc, argv, "corrupt", "");
  cfg.zipf_rate_fps = std::strtod(
      flag(argc, argv, "zipf-rate", std::to_string(kZipfRateFps)).c_str(), nullptr);
  if (cfg.server.empty() || cfg.side < 4 || !(cfg.seconds > 0) ||
      !(cfg.zipf_rate_fps > 0) ||
      (cfg.corrupt != "" && cfg.corrupt != "below" && cfg.corrupt != "above" &&
       cfg.corrupt != "swap" && cfg.corrupt != "drop" && cfg.corrupt != "short")) {
    std::fprintf(stderr, "error: bad arguments (see the header of main.cpp)\n");
    return 2;
  }
  install_child_cleanup_handlers();
  // Hard limit on the whole run: a hang fails it instead of stalling.
  alarm(static_cast<unsigned>(150 + 2 * cfg.seconds));
  const ScopedFile snapshot{cfg.work_dir + "/" + cfg.workload + "-" +
                            std::to_string(getpid()) + ".snapshot"};
  Outcome o;
  if (cfg.workload == "build_road") {
    run_build_road(cfg, snapshot.path, o);
  } else if (cfg.workload == "serve_bulk_uniform") {
    run_serve(cfg, snapshot.path, false, o);
  } else if (cfg.workload == "serve_small_zipf") {
    run_serve(cfg, snapshot.path, true, o);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  const bool correct = o.checker.ok();
  if (cfg.trace)  // the traced run's own end-to-end figures, for its overhead
    std::fprintf(stderr, "end-to-end (traced run): %s\n", o.metrics.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              (cfg.trace ? o.layers : o.metrics).json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
