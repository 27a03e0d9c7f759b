// pathsep-lint: hot-path — dispatch_batch and worker_loop sit under every
// sharded query; rings, buffers and counters are preallocated at engine
// construction (the per-worker scratch vectors are sized once at thread
// start, before the first drain).
#include "service/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace pathsep::service {
namespace {

/// splitmix64 finalizer — decorrelates the canonical pair key from the
/// shard index so grid-adjacent pairs spread across shards.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kMaxShards = 64;  ///< dispatch tracks shards in a u64

}  // namespace

ShardedEngine::ShardedEngine(
    std::shared_ptr<const oracle::PathOracle> snapshot,
    ShardedEngineOptions options)
    : options_(options),
      inline_cutoff_(options.inline_cutoff != 0 ? options.inline_cutoff
                                                : options.drain_batch / 2),
      num_vertices_(snapshot ? snapshot->num_vertices() : 0),
      cache_(options.cache_capacity, kCacheShards),
      batches_total_(&metrics_.counter("batches_total")),
      intake_full_total_(&metrics_.counter("shard_intake_full_total")),
      snapshot_swaps_total_(&metrics_.counter("snapshot_swaps_total")),
      path_(metrics_, cache_,
            snapshot ? snapshot->num_levels() : std::size_t{1},
            options.slowlog_capacity),
      epochs_(std::min<std::size_t>(
                  kMaxShards, options.shards != 0 ? options.shards
                                                  : util::default_threads()),
              /*shared=*/16) {
  if (!snapshot) throw std::invalid_argument("null oracle snapshot");
  metrics_.gauge("snapshot_vertices")
      .set(static_cast<std::int64_t>(num_vertices_));
  live_.store(snapshot.get(), std::memory_order_release);
  {
    util::LockGuard lock(owner_mutex_);
    owner_ = std::move(snapshot);
  }
  const std::size_t shards = std::min<std::size_t>(
      kMaxShards, options.shards != 0 ? options.shards
                                      : util::default_threads());
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    // pathsep-lint: allow(hot-path-alloc)
    shards_.push_back(std::make_unique<Shard>(options.ring_capacity));
  // Workers start only after every ring exists (a worker never touches a
  // sibling's ring, but shard_of spans all of shards_).
  for (std::size_t s = 0; s < shards; ++s)
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
}

ShardedEngine::~ShardedEngine() {
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Shard>& shard : shards_) wake_shard(*shard);
  for (const std::unique_ptr<Shard>& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  // epochs_ destroys any still-retired snapshots; owner_ releases the live
  // one. Workers are gone, so nothing is pinned.
}

std::size_t ShardedEngine::shard_of(graph::Vertex u, graph::Vertex v) const {
  return static_cast<std::size_t>(mix64(ResultCache::key(u, v)) %
                                  shards_.size());
}

void ShardedEngine::complete(std::atomic<std::uint32_t>* remaining,
                             std::uint32_t answered) {
  // Release pairs with the waiter's acquire: by the time it observes zero,
  // every result slot write is visible. Notify only on the last decrement —
  // the waiter checks the value before sleeping, so a notify can never be
  // lost between its load and its wait.
  if (remaining->fetch_sub(answered, std::memory_order_acq_rel) == answered)
    remaining->notify_all();
}

void ShardedEngine::wake_shard(Shard& shard) {
  // Version bump first (release: pairs with the worker's acquire load to
  // publish the ring entries), then the futex syscall only when the worker
  // advertised it was sleeping. A stale "not sleeping" read is safe: the
  // worker's wait(value) re-checks the bumped counter and returns
  // immediately (see the wake-protocol invariant in the header).
  shard.signal.fetch_add(1, std::memory_order_release);
  if (shard.sleeping.load(std::memory_order_acquire) != 0)
    shard.signal.notify_one();
}

void ShardedEngine::worker_loop(std::size_t shard_id) {
  Shard& shard = *shards_[shard_id];
  const std::size_t drain = std::max<std::size_t>(1, options_.drain_batch);
  // Per-worker scratch, sized once before the first drain.
  std::vector<Request> requests(drain);
  std::vector<Query> queries(drain);
  std::vector<graph::Weight> answers(drain);

  for (;;) {
    // Load the wake counter before the drain attempt: a producer that
    // publishes after this load also bumps the counter after it, so the
    // wait below falls through instead of sleeping over new work.
    const std::uint64_t sig = shard.signal.load(std::memory_order_acquire);
    const std::size_t n = shard.ring.pop_batch(requests.data(), drain);
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      // Brief spin catches back-to-back batches without a futex round-trip.
      bool woke = false;
      for (int i = 0; i < 64 && !woke; ++i)
        woke = !shard.ring.empty_approx();
      if (!woke) {
        shard.sleeping.store(1, std::memory_order_release);
        shard.signal.wait(sig, std::memory_order_acquire);
        shard.sleeping.store(0, std::memory_order_release);
      }
      continue;
    }

    // Answer the drained batch against the epoch-pinned snapshot. The pin
    // covers exactly one drain, so a swap waits at most one batch for this
    // worker to unpin.
    epochs_.pin(shard_id);
    const oracle::PathOracle* snap = live_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i)
      queries[i] = Query{requests[i].u, requests[i].v};
    path_.answer_chunk(*snap, queries.data(), answers.data(), n);
    epochs_.unpin(shard_id);

    for (std::size_t i = 0; i < n; ++i) {
      *requests[i].out = answers[i];
      complete(requests[i].remaining, 1);
    }
  }
}

void ShardedEngine::dispatch_batch(const oracle::PathOracle& snap,
                                   std::span<const Query> queries,
                                   graph::Weight* results,
                                   std::atomic<std::uint32_t>* remaining) {
  std::uint64_t touched = 0;  // bitmask of shards that received entries
  std::uint32_t answered_inline = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const std::size_t s = shard_of(q.u, q.v);
    const Request request{q.u, q.v, &results[i], remaining};
    if (shards_[s]->ring.try_push(request)) {
      touched |= std::uint64_t{1} << s;
    } else {
      // Backpressure: a full ring answers on this thread instead of
      // blocking — bounded extra work under overload, never a stall.
      intake_full_total_->inc();
      results[i] = path_.answer(snap, q.u, q.v);
      ++answered_inline;
    }
  }
  // One wake per touched shard per batch (not per query).
  while (touched != 0) {
    const int s = __builtin_ctzll(touched);
    touched &= touched - 1;
    wake_shard(*shards_[static_cast<std::size_t>(s)]);
  }
  // The dispatcher's own answers complete after the wakes so a batch that
  // was fully inline still reaches zero (the caller is not waiting yet —
  // notify order does not matter, the count does).
  if (answered_inline != 0) complete(remaining, answered_inline);
}

void ShardedEngine::query_batch_into(std::span<const Query> queries,
                                     graph::Weight* results) {
  if (queries.empty()) return;
  PATHSEP_SPAN("service.sharded_batch");
  batches_total_->inc();

  if (queries.size() <= inline_cutoff_ || shards_.size() <= 1) {
    // Adaptive inline fast path: answer on this thread under one pin.
    const std::size_t slot = epochs_.pin_any();
    const oracle::PathOracle* snap = live_.load(std::memory_order_acquire);
    path_.answer_chunk(*snap, queries.data(), results, queries.size());
    epochs_.unpin(slot);
    return;
  }

  std::atomic<std::uint32_t> remaining{
      static_cast<std::uint32_t>(queries.size())};
  {
    const std::size_t slot = epochs_.pin_any();
    const oracle::PathOracle* snap = live_.load(std::memory_order_acquire);
    dispatch_batch(*snap, queries, results, &remaining);
    epochs_.unpin(slot);  // before the wait: a swap never waits on a waiter
  }
  std::uint32_t left;
  while ((left = remaining.load(std::memory_order_acquire)) != 0)
    remaining.wait(left, std::memory_order_acquire);
}

std::vector<graph::Weight> ShardedEngine::query_batch(
    std::span<const Query> queries) {
  std::vector<graph::Weight> results(queries.size());
  query_batch_into(queries, results.data());
  return results;
}

graph::Weight ShardedEngine::query(graph::Vertex u, graph::Vertex v) {
  const std::size_t slot = epochs_.pin_any();
  const oracle::PathOracle* snap = live_.load(std::memory_order_acquire);
  const graph::Weight result = path_.answer(*snap, u, v);
  epochs_.unpin(slot);
  return result;
}

std::shared_ptr<const oracle::PathOracle> ShardedEngine::snapshot() const {
  util::LockGuard lock(owner_mutex_);
  return owner_;
}

void ShardedEngine::replace_snapshot(
    std::shared_ptr<const oracle::PathOracle> snapshot) {
  if (!snapshot) throw std::invalid_argument("null oracle snapshot");
  if (snapshot->num_vertices() != num_vertices_)
    throw std::invalid_argument(
        "replacement snapshot has a different vertex count");
  {
    util::LockGuard lock(owner_mutex_);
    // Publish the new pointer *before* retire advances the epoch (invariant
    // E1 in util/epoch.hpp): any reader pinned at a later epoch provably
    // loads the new snapshot, so the old one is destroyable once every pin
    // is newer than the retire epoch.
    live_.store(snapshot.get(), std::memory_order_seq_cst);
    std::shared_ptr<const oracle::PathOracle> old = std::move(owner_);
    owner_ = std::move(snapshot);
    epochs_.retire([retired = std::move(old)]() mutable { retired.reset(); });
    snapshot_swaps_total_->inc();
  }
  cache_.clear();  // cached distances belong to the old oracle
  epochs_.try_reclaim();
}

}  // namespace pathsep::service
