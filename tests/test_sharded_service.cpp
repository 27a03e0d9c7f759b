// The shard-per-core serving stack: the lock-free MPSC intake ring, the
// epoch-based snapshot reclaimer (manual-clock proofs that nothing is freed
// while pinned), the ShardedEngine's exactness and determinism across shard
// counts, concurrent swap-while-querying, and the binary wire protocol with
// the epoll front-end. Runs under the `service` label, so the TSan leg of
// scripts/check.sh executes every concurrent scenario here with race
// detection on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "separator/finders.hpp"
#include "service/net.hpp"
#include "service/net_server.hpp"
#include "service/sharded_engine.hpp"
#include "util/epoch.hpp"
#include "util/mpsc_ring.hpp"
#include "util/rng.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace pathsep::service {
namespace {

using graph::Vertex;
using graph::Weight;

// ------------------------------------------------------------------ MpscRing

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(util::MpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(util::MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(util::MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(util::MpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(util::MpscRing<int>(1000).capacity(), 1024u);
}

TEST(MpscRing, FillDrainAndWrapAround) {
  util::MpscRing<int> ring(4);
  int out[8];
  // Three laps around a 4-slot ring exercises the sequence recycling.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 4; ++i)
      EXPECT_TRUE(ring.try_push(lap * 4 + i));
    EXPECT_FALSE(ring.try_push(99)) << "full ring must reject";
    const std::size_t n = ring.pop_batch(out, 8);
    ASSERT_EQ(n, 4u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], lap * 4 + i);
    EXPECT_TRUE(ring.empty_approx());
    ring.audit();
  }
}

TEST(MpscRing, PopBatchRespectsMaxAndPreservesFifo) {
  util::MpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(i));
  int out[16];
  EXPECT_EQ(ring.pop_batch(out, 3), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(ring.pop_batch(out, 16), 7u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[6], 9);
  EXPECT_EQ(ring.pop_batch(out, 16), 0u);
}

TEST(MpscRing, ConcurrentProducersDeliverEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  util::MpscRing<int> ring(256);
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::atomic<bool> done{false};

  std::thread consumer([&ring, &seen, &done] {
    int out[64];
    std::size_t total = 0;
    while (total < kProducers * kPerProducer) {
      const std::size_t n = ring.pop_batch(out, 64);
      for (std::size_t i = 0; i < n; ++i) ++seen[out[i]];
      total += n;
      if (n == 0) std::this_thread::yield();
    }
    done.store(true);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        while (!ring.try_push(value)) std::this_thread::yield();
      }
    });
  for (std::thread& t : producers) t.join();
  consumer.join();
  ASSERT_TRUE(done.load());
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    EXPECT_EQ(seen[i], 1) << "item " << i;
  ring.audit();
}

// ------------------------------------------------------- EpochReclaimer

TEST(EpochReclaimer, NothingIsFreedWhilePinned) {
  util::EpochReclaimer epochs(/*reserved=*/1, /*shared=*/2);
  bool destroyed = false;
  epochs.pin(0);
  epochs.retire([&destroyed] { destroyed = true; });
  EXPECT_EQ(epochs.retired_pending(), 1u);
  // The pinned reader was live when the object was retired — the manual
  // clock proves reclaim cannot run the destructor yet.
  EXPECT_EQ(epochs.try_reclaim(), 0u);
  EXPECT_FALSE(destroyed);
  epochs.unpin(0);
  EXPECT_EQ(epochs.try_reclaim(), 1u);
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(epochs.retired_pending(), 0u);
}

TEST(EpochReclaimer, PinAfterRetireDoesNotBlockReclaim) {
  util::EpochReclaimer epochs(1);
  bool destroyed = false;
  epochs.retire([&destroyed] { destroyed = true; });
  // A reader pinned *after* the retire provably sees the new pointer
  // (invariant E1), so it never constrains the old object.
  epochs.pin(0);
  EXPECT_EQ(epochs.try_reclaim(), 1u);
  EXPECT_TRUE(destroyed);
  epochs.unpin(0);
}

TEST(EpochReclaimer, ReadersConstrainOnlyObjectsRetiredAfterTheirPin) {
  util::EpochReclaimer epochs(2);
  bool first_destroyed = false;
  bool second_destroyed = false;
  epochs.pin(0);  // live before either retire
  epochs.retire([&first_destroyed] { first_destroyed = true; });
  epochs.pin(1);  // live before the second retire only
  epochs.retire([&second_destroyed] { second_destroyed = true; });
  EXPECT_EQ(epochs.try_reclaim(), 0u);

  epochs.unpin(0);
  // Slot 1 pinned after the first retire: the first object frees, the
  // second stays.
  EXPECT_EQ(epochs.try_reclaim(), 1u);
  EXPECT_TRUE(first_destroyed);
  EXPECT_FALSE(second_destroyed);

  epochs.unpin(1);
  EXPECT_EQ(epochs.try_reclaim(), 1u);
  EXPECT_TRUE(second_destroyed);
}

TEST(EpochReclaimer, DestructorRunsRemainingRetirees) {
  int destroyed = 0;
  {
    util::EpochReclaimer epochs(1);
    epochs.retire([&destroyed] { ++destroyed; });
    epochs.retire([&destroyed] { ++destroyed; });
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(EpochReclaimer, PinAnyClaimsDistinctSlotsAndRaiiUnpins) {
  util::EpochReclaimer epochs(/*reserved=*/2, /*shared=*/4);
  {
    util::EpochPin a(epochs);
    util::EpochPin b(epochs);
    EXPECT_NE(a.slot(), b.slot());
    EXPECT_GE(a.slot(), 2u) << "pin_any must not touch owner slots";
    EXPECT_LT(epochs.min_pinned(), UINT64_MAX);
  }
  EXPECT_EQ(epochs.min_pinned(), UINT64_MAX);
}

TEST(EpochReclaimer, ConcurrentPinUnpinNeverFreesAPinnedObject) {
  util::EpochReclaimer epochs(/*reserved=*/0, /*shared=*/8);
  // Each "object" is a flag the readers check while pinned: a reader that
  // observes its claimed generation destroyed caught a use-after-free.
  constexpr int kGenerations = 200;
  std::vector<std::atomic<int>> alive(kGenerations);
  for (auto& a : alive) a.store(1);
  std::atomic<int> current{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&epochs, &alive, &current, &stop] {
      while (!stop.load()) {
        const std::size_t slot = epochs.pin_any();
        const int gen = current.load(std::memory_order_seq_cst);
        EXPECT_EQ(alive[gen].load(std::memory_order_seq_cst), 1)
            << "read a generation that was already destroyed";
        epochs.unpin(slot);
      }
    });

  for (int gen = 1; gen < kGenerations; ++gen) {
    const int old = gen - 1;
    current.store(gen, std::memory_order_seq_cst);
    epochs.retire([&alive, old] { alive[old].store(0); });
    epochs.try_reclaim();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  while (epochs.retired_pending() != 0) epochs.try_reclaim();
}

// ---------------------------------------------------------------- Wire codec

TEST(Wire, ScalarsRoundTripLittleEndian) {
  std::vector<std::uint8_t> buf;
  wire::append_u32(buf, 0x01020304u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04u);  // little-endian on the wire
  EXPECT_EQ(buf[3], 0x01u);
  EXPECT_EQ(wire::read_u32(buf.data()), 0x01020304u);

  buf.clear();
  wire::append_f64(buf, 1234.5625);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(wire::read_f64(buf.data()), 1234.5625);
  buf.clear();
  wire::append_f64(buf, -0.0);
  EXPECT_EQ(wire::read_f64(buf.data()), 0.0);
}

TEST(Wire, RequestFramesRoundTripThroughTheParser) {
  const std::vector<Query> queries = {{1, 2}, {7, 7}, {0, 41}};
  std::vector<std::uint8_t> buf;
  wire::append_request(buf, 0xDEADBEEFu, queries);
  // Two frames back-to-back: the parser must consume exactly one.
  wire::append_request(buf, 5u, std::vector<Query>{{9, 9}});

  wire::ParsedRequest request;
  std::vector<Query> parsed;
  ASSERT_EQ(wire::parse_request(buf, 0, request, parsed),
            wire::ParseStatus::kRequest);
  EXPECT_EQ(request.request_id, 0xDEADBEEFu);
  EXPECT_EQ(request.frame_bytes, 4u + 4u + 3u * 8u);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[1].u, 7u);
  EXPECT_EQ(parsed[2].v, 41u);

  ASSERT_EQ(wire::parse_request(buf, request.frame_bytes, request, parsed),
            wire::ParseStatus::kRequest);
  EXPECT_EQ(request.request_id, 5u);
  ASSERT_EQ(parsed.size(), 1u);
}

TEST(Wire, ParserFlagsShortAndOversizedFrames) {
  wire::ParsedRequest request;
  std::vector<Query> parsed;

  std::vector<std::uint8_t> partial;
  wire::append_u32(partial, 12);  // header promises 12 payload bytes...
  wire::append_u32(partial, 1);   // ...but only 4 arrived
  EXPECT_EQ(wire::parse_request(partial, 0, request, parsed),
            wire::ParseStatus::kIncomplete);

  std::vector<std::uint8_t> tiny;
  wire::append_u32(tiny, 3);  // below the 4-byte request_id minimum
  EXPECT_EQ(wire::parse_request(tiny, 0, request, parsed),
            wire::ParseStatus::kMalformed);

  std::vector<std::uint8_t> ragged;
  wire::append_u32(ragged, 4 + 7);  // pair section not a multiple of 8
  EXPECT_EQ(wire::parse_request(ragged, 0, request, parsed),
            wire::ParseStatus::kMalformed);

  std::vector<std::uint8_t> huge;
  wire::append_u32(huge,
                   static_cast<std::uint32_t>(wire::kMaxFrameBytes + 12));
  EXPECT_EQ(wire::parse_request(huge, 0, request, parsed),
            wire::ParseStatus::kMalformed);
}

// ------------------------------------------------------------- ShardedEngine

oracle::PathOracle grid_oracle(std::size_t side = 12, double eps = 0.3) {
  graph::GridGraph gg = graph::grid(side, side);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(side, side));
  return oracle::PathOracle(tree, eps);
}

std::vector<Query> mixed_workload(Vertex n, std::size_t count,
                                  std::uint64_t seed = 29) {
  util::Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const Vertex v =
        i % 16 == 0 ? u : static_cast<Vertex>(rng.next_below(n));
    batch.push_back({u, v});
  }
  return batch;
}

std::uint64_t fnv_digest(const std::vector<Weight>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Weight w : results) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(w));
    std::memcpy(&bits, &w, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

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

TEST(ShardedEngine, MatchesTheSerialOracleAtEveryShardCount) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 3000);

  std::vector<Weight> expected;
  expected.reserve(batch.size());
  for (const Query& q : batch) expected.push_back(snapshot->query(q.u, q.v));
  const std::uint64_t expected_digest = fnv_digest(expected);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.inline_cutoff = 1;  // force the ring path even for this batch
    opts.drain_batch = 64;
    ShardedEngine engine(snapshot, opts);
    EXPECT_EQ(engine.num_shards(), shards);
    const std::vector<Weight> got = engine.query_batch(batch);
    ASSERT_EQ(got.size(), expected.size());
    // Byte-identical across shard counts: partitioning decides who
    // computes, never the answer (the bench cross-checks the same digest).
    EXPECT_EQ(fnv_digest(got), expected_digest) << shards << " shards";
  }
}

TEST(ShardedEngine, InlineAndSingleQueryPathsAgreeWithTheRings) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  const std::vector<Query> batch = mixed_workload(n, 256, 31);

  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  ASSERT_GT(engine.inline_cutoff(), 0u);

  // Below the cutoff: answered inline on this thread.
  const std::vector<Query> small(batch.begin(), batch.begin() + 4);
  const std::vector<Weight> small_results = engine.query_batch(small);
  for (std::size_t i = 0; i < small.size(); ++i)
    EXPECT_EQ(small_results[i], engine.query(small[i].u, small[i].v));

  // shard_of is symmetric, so both directions of a pair share an owner.
  EXPECT_EQ(engine.shard_of(3, 17), engine.shard_of(17, 3));
}

TEST(ShardedEngine, TinyRingsFallBackInlineAndStayExact) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  const std::vector<Query> batch = mixed_workload(n, 4000, 41);

  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.ring_capacity = 2;  // overflow is guaranteed at this batch size
  opts.inline_cutoff = 1;
  ShardedEngineOptions reference_opts;
  reference_opts.shards = 1;
  ShardedEngine reference(snapshot, reference_opts);
  ShardedEngine engine(snapshot, opts);
  EXPECT_EQ(fnv_digest(engine.query_batch(batch)),
            fnv_digest(reference.query_batch(batch)));
  // Backpressure must have taken the inline fallback at least once.
  const auto fallbacks =
      counter_family(engine.metrics(), "shard_intake_full_total");
  EXPECT_GT(family_sum(fallbacks), 0u);
}

TEST(ShardedEngine, AnswerFamilySumsToQueriesAtEveryShardCount) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 2000);

  std::map<std::string, std::uint64_t> baseline;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.inline_cutoff = 1;
    ShardedEngine engine(snapshot, opts);
    engine.query_batch(batch);
    const auto answers = counter_family(engine.metrics(), "answers_total");
    const auto queries = counter_family(engine.metrics(), "queries_total");
    ASSERT_FALSE(answers.empty());
    EXPECT_EQ(family_sum(answers), batch.size());
    EXPECT_EQ(family_sum(queries), batch.size());
    if (baseline.empty())
      baseline = answers;
    else
      EXPECT_EQ(answers, baseline) << shards << " shards diverged";
  }
}

TEST(ShardedEngine, CachedServingKeepsAnswersAndSumInvariant) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 1000);
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.inline_cutoff = 1;
  opts.cache_capacity = 1 << 14;
  ShardedEngine engine(snapshot, opts);
  const std::vector<Weight> cold = engine.query_batch(batch);
  const std::vector<Weight> warm = engine.query_batch(batch);
  EXPECT_EQ(fnv_digest(cold), fnv_digest(warm));
  const auto answers = counter_family(engine.metrics(), "answers_total");
  EXPECT_EQ(family_sum(answers), 2 * batch.size());
  std::uint64_t cached = 0;
  for (const auto& [key, value] : answers)
    if (key.find("level=cached;") != std::string::npos) cached = value;
  EXPECT_GT(cached, 0u);
}

TEST(ShardedEngine, SwapRetiresAndReclaimsTheOldSnapshot) {
  auto first = std::make_shared<const oracle::PathOracle>(grid_oracle());
  auto second =
      std::make_shared<const oracle::PathOracle>(grid_oracle(12, 0.8));
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(first, opts);
  std::weak_ptr<const oracle::PathOracle> watch = first;
  first.reset();

  engine.replace_snapshot(second);
  // Workers are idle (nothing pinned), so reclaim frees the old snapshot.
  while (engine.retired_pending() != 0) engine.reclaim_retired();
  EXPECT_TRUE(watch.expired()) << "old snapshot leaked past reclamation";
  EXPECT_EQ(engine.snapshot().get(), second.get());
}

TEST(ShardedEngine, ConcurrentSwapWhileQueryingStaysValid) {
  // Two oracles over the same graph at different eps: under a concurrent
  // swap, every answer must equal one of the two snapshots' answers — no
  // torn read, no answer from a destroyed snapshot.
  auto coarse = std::make_shared<const oracle::PathOracle>(grid_oracle());
  auto fine =
      std::make_shared<const oracle::PathOracle>(grid_oracle(12, 0.05));
  const auto n = static_cast<Vertex>(coarse->num_vertices());
  const std::vector<Query> batch = mixed_workload(n, 400, 43);

  std::vector<Weight> from_coarse(batch.size());
  std::vector<Weight> from_fine(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    from_coarse[i] =
        batch[i].u == batch[i].v ? 0 : coarse->query(batch[i].u, batch[i].v);
    from_fine[i] =
        batch[i].u == batch[i].v ? 0 : fine->query(batch[i].u, batch[i].v);
  }

  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.inline_cutoff = 1;  // ring path: workers hold the epoch pins
  opts.cache_capacity = 0;  // a cached answer would mask which snapshot won
  ShardedEngine engine(coarse, opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 2; ++t)
    hammers.emplace_back([&engine, &batch, &from_coarse, &from_fine, &stop,
                          &mismatches] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<Weight> got = engine.query_batch(batch);
        for (std::size_t i = 0; i < got.size(); ++i)
          if (got[i] != from_coarse[i] && got[i] != from_fine[i])
            mismatches.fetch_add(1);
      }
    });

  for (int swap = 0; swap < 40; ++swap) {
    engine.replace_snapshot(swap % 2 == 0 ? fine : coarse);
    engine.reclaim_retired();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : hammers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  while (engine.retired_pending() != 0) engine.reclaim_retired();
}

// ------------------------------------------------------------- Net front-end

#if defined(__linux__)

TEST(NetServer, RoundTripsBatchesOverLocalhost) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();
  ASSERT_NE(server.port(), 0u);

  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;

  // An empty batch is a valid ping.
  client.query_batch({}, distances);
  EXPECT_TRUE(distances.empty());

  const std::vector<Query> batch = mixed_workload(n, 300, 47);
  const std::vector<Weight> expected = engine.query_batch(batch);
  for (int frame = 0; frame < 5; ++frame) {
    client.query_batch(batch, distances);
    ASSERT_EQ(distances.size(), batch.size());
    EXPECT_EQ(fnv_digest(distances), fnv_digest(expected)) << frame;
  }

  const NetServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames_in, 6u);
  EXPECT_EQ(stats.queries_answered, 5u * batch.size());
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);

  client.close();
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(NetServer, PipelinedFramesComeBackInOrder) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<Query> a = {{0, 5}, {1, 9}};
  const std::vector<Query> b = {{2, 7}};
  client.send_request(11, a);
  client.send_request(22, b);
  std::vector<Weight> distances;
  EXPECT_EQ(client.recv_response(distances), 11u);
  EXPECT_EQ(distances.size(), a.size());
  EXPECT_EQ(client.recv_response(distances), 22u);
  EXPECT_EQ(distances.size(), b.size());
}

/// Opens a raw TCP connection to 127.0.0.1:port, so a test can send bytes
/// the NetClient refuses to produce. Returns the socket fd.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Sends `frame` on a raw connection and expects the server to close it.
void expect_closed_after(std::uint16_t port,
                         const std::vector<std::uint8_t>& frame) {
  const int fd = raw_connect(port);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "server should close on garbage";
  ::close(fd);
}

TEST(NetServer, MalformedFrameClosesOnlyThatConnection) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  // A connection opened before the bad ones must keep being served.
  wire::NetClient bystander;
  bystander.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;
  bystander.query_batch(std::vector<Query>{{0, 3}}, distances);
  ASSERT_EQ(distances.size(), 1u);

  std::vector<std::uint8_t> short_frame;
  wire::append_u32(short_frame, 3);  // payload_len below the request_id minimum
  expect_closed_after(server.port(), short_frame);

  // Well-formed frames whose vertex ids lie outside the snapshot: the
  // server must reject them instead of indexing past its labels.
  for (const Query bad : {Query{0xFFFFFFF0u, 1}, Query{1, n}}) {
    std::vector<std::uint8_t> frame;
    wire::append_request(frame, 7, std::vector<Query>{{0, 1}, bad});
    expect_closed_after(server.port(), frame);
  }

  // The listener survives: a new connection still round-trips, and so does
  // the one opened before the bad frames.
  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  client.query_batch(std::vector<Query>{{0, 3}, {n - 1, 0}}, distances);
  ASSERT_EQ(distances.size(), 2u);
  EXPECT_EQ(distances[0], engine.query(0, 3));
  EXPECT_EQ(distances[1], engine.query(n - 1, 0));
  bystander.query_batch(std::vector<Query>{{2, 5}}, distances);
  ASSERT_EQ(distances.size(), 1u);
  EXPECT_EQ(distances[0], engine.query(2, 5));
  EXPECT_EQ(server.stats().protocol_errors, 3u);
}

TEST(NetServer, StopIsIdempotentAndRestartable) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();
  const std::uint16_t first_port = server.port();
  ASSERT_NE(first_port, 0u);
  server.stop();
  server.stop();  // idempotent
  server.start();  // a stopped server can serve again (fresh ephemeral port)
  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;
  client.query_batch(std::vector<Query>{{1, 2}}, distances);
  EXPECT_EQ(distances.size(), 1u);
}

#endif  // __linux__

}  // namespace
}  // namespace pathsep::service
