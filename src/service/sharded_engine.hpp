// Shard-per-core query engine: lock-free batch intake, epoch-based snapshot
// hot-swap, and zero-mutex completion on the serving hot path.
//
// Query ownership is partitioned by the canonical (min(u,v), max(u,v)) pair
// hash across N shard workers. Each shard owns one bounded lock-free MPSC
// intake ring (util/mpsc_ring.hpp): producers encode a query as a 24-byte
// request (pair, result slot, batch completion counter) and publish it with
// one CAS + one release store; the worker drains in batches and answers
// back-to-back against the epoch-pinned snapshot with chained timestamps
// (service/answer_path.hpp). Completion is a release fetch_sub on the
// batch's counter plus a C++20 atomic notify when it hits zero — producers
// wait on the counter value, never on a mutex or condition variable.
//
// Snapshot hot-swap uses epoch-based reclamation (util/epoch.hpp): a worker
// pins its owner slot for the duration of one drain, loads the live raw
// pointer, and unpins when the drain's answers are written. replace_snapshot
// stores the new pointer, retires the old owner into the reclaimer, and
// reclaims opportunistically — the query loop never touches a shared_ptr
// control block or a lock.
//
// Wake protocol (lock-free, no lost wakeups): each shard has a version
// counter `signal`. The worker loads it *before* attempting a drain and
// sleeps with atomic wait(loaded_value); a producer publishes ring entries,
// then bumps `signal` (release RMW) and notifies only when the worker
// advertised it was sleeping. If the bump lands between the worker's load
// and its sleep, the wait's value check fails and the worker retries — the
// sleeping-flag race can cost one elided syscall, never a hang.
//
// Backpressure: a full ring never blocks the producer — the query is
// answered inline on the producer's thread against the same epoch-pinned
// snapshot (counted in shard_intake_full_total). Small batches skip the
// rings entirely (see inline_cutoff): handing sub-microsecond queries to a
// worker while the caller waits costs more than it buys.
//
// Results are byte-identical across shard counts and thread counts: every
// query is answered independently from one immutable snapshot, so the
// partition changes only *who* computes each answer, never the answer.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "oracle/path_oracle.hpp"
#include "service/answer_path.hpp"
#include "service/result_cache.hpp"
#include "util/epoch.hpp"
#include "util/mpsc_ring.hpp"
#include "util/thread_annotations.hpp"

namespace pathsep::service {

struct ShardedEngineOptions {
  /// Shard workers; 0 = util::default_threads(). Clamped to 64.
  std::size_t shards = 0;
  /// Intake ring entries per shard (rounded up to a power of two).
  std::size_t ring_capacity = 8192;
  /// Max queries one drain answers back-to-back before rechecking intake.
  std::size_t drain_batch = 256;
  /// Batches at or below this size are answered inline on the caller's
  /// thread (dispatch costs more than it buys on sub-microsecond queries).
  /// 0 = adaptive default (drain_batch / 2).
  std::size_t inline_cutoff = 0;
  /// Result-cache entries (0 = serving without a cache; the canonical pair
  /// key means both query directions land on one shard either way).
  std::size_t cache_capacity = 0;
  /// Slowest-query exemplars kept by the slow-log (0 disables it).
  std::size_t slowlog_capacity = 64;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(std::shared_ptr<const oracle::PathOracle> snapshot,
                         ShardedEngineOptions options = {});

  /// Stops and joins every shard worker (pending ring entries are drained
  /// first), then destroys whatever snapshots are still retired. Callers
  /// must not have batches in flight.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Synchronous single query on the caller's thread (epoch-pinned).
  graph::Weight query(graph::Vertex u, graph::Vertex v);

  /// Answers queries[i] into results[i]; small batches inline, larger ones
  /// through the shard rings. Blocks until the whole batch is answered.
  /// Safe to call from many client threads concurrently. `results` must
  /// point at queries.size() writable slots.
  void query_batch_into(std::span<const Query> queries,
                        graph::Weight* results);

  /// Allocating convenience wrapper over query_batch_into.
  std::vector<graph::Weight> query_batch(std::span<const Query> queries);

  /// Epoch-based hot swap: queries already in flight finish against the
  /// snapshot they pinned; the old snapshot is destroyed only after every
  /// reader drained. Throws std::invalid_argument on null or on a snapshot
  /// whose vertex count differs from num_vertices(): callers validate
  /// vertex ids against that count once, and it must stay true.
  void replace_snapshot(std::shared_ptr<const oracle::PathOracle> snapshot)
      PATHSEP_EXCLUDES(owner_mutex_);

  /// Current snapshot (never null). Serving reads the raw epoch-protected
  /// pointer instead; this accessor is for control-plane callers.
  std::shared_ptr<const oracle::PathOracle> snapshot() const
      PATHSEP_EXCLUDES(owner_mutex_);

  /// Runs retired-snapshot destructors that are now safe; returns how many.
  std::size_t reclaim_retired() { return epochs_.try_reclaim(); }
  /// Retired snapshots not yet destroyed (pinned readers hold them back).
  std::size_t retired_pending() const { return epochs_.retired_pending(); }

  std::size_t num_shards() const { return shards_.size(); }
  /// Vertex count of every snapshot this engine serves (fixed at
  /// construction); valid query ids are [0, num_vertices()).
  std::size_t num_vertices() const { return num_vertices_; }
  /// Owning shard of a query pair (canonical: both directions agree).
  std::size_t shard_of(graph::Vertex u, graph::Vertex v) const;
  std::size_t inline_cutoff() const { return inline_cutoff_; }

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  const obs::WindowedHistogram& window() const { return path_.window(); }
  const obs::SlowLog& slowlog() const { return path_.slowlog(); }

 private:
  /// One intake ring entry. POD (the ring copies it twice); the pointers
  /// stay valid until `remaining` reaches zero — guaranteed by the waiter
  /// in query_batch_into.
  struct Request {
    graph::Vertex u = 0;
    graph::Vertex v = 0;
    graph::Weight* out = nullptr;
    std::atomic<std::uint32_t>* remaining = nullptr;
  };

  struct Shard {
    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
    util::MpscRing<Request> ring;
    /// Wake-protocol version counter (see file header) and sleep hint.
    alignas(64) std::atomic<std::uint64_t> signal{0};
    std::atomic<std::uint32_t> sleeping{0};
    std::thread worker;  ///< joined by ~ShardedEngine before members die
  };

  void worker_loop(std::size_t shard_id);
  /// Enqueues or inline-answers every query; does not wait. `snap` is the
  /// epoch-pinned snapshot inline fallbacks answer against.
  void dispatch_batch(const oracle::PathOracle& snap,
                      std::span<const Query> queries, graph::Weight* results,
                      std::atomic<std::uint32_t>* remaining);
  void wake_shard(Shard& shard);
  static void complete(std::atomic<std::uint32_t>* remaining,
                       std::uint32_t answered);

  /// Result-cache lock shards (a power of two; see ResultCache).
  static constexpr std::size_t kCacheShards = 16;

  ShardedEngineOptions options_;
  std::size_t inline_cutoff_ = 0;
  std::size_t num_vertices_ = 0;
  ResultCache cache_;
  obs::MetricsRegistry metrics_;
  obs::Counter* batches_total_;
  obs::Counter* intake_full_total_;  ///< ring-full inline fallbacks
  obs::Counter* snapshot_swaps_total_;
  AnswerPath path_;  ///< after cache_/metrics_: it resolves counters in them

  util::EpochReclaimer epochs_;  ///< slots: one per shard + shared pool
  /// The serving snapshot, epoch-protected: workers/inline paths read the
  /// raw pointer under a pin; ownership lives in owner_ and, after a swap,
  /// in the reclaimer's retired list until readers drain.
  std::atomic<const oracle::PathOracle*> live_{nullptr};
  mutable util::Mutex owner_mutex_;
  std::shared_ptr<const oracle::PathOracle> owner_
      PATHSEP_GUARDED_BY(owner_mutex_);

  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pathsep::service
