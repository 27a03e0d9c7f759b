// (1+ε)-approximate distance labels (Theorem 2).
//
// The label of vertex v packs, for every decomposition node H on v's chain
// and every separator path Q of H reachable from v in its stage's residual
// graph J, the ε-portal connections (portal prefix position, exact
// d_J(v, portal)). Two labels alone answer a (1+ε)-approximate distance
// query: the true shortest path is cut by some common path Q at a vertex x,
// and each endpoint owns a portal within (ε/2)·d_J(·, x) of x along Q, so
//   min over common paths, portals p of u, q of v of
//       d_J(u,p) + |prefix(p) - prefix(q)| + d_J(q,v)
// is sandwiched between d(u,v) and (1+ε)·d(u,v). The inner minimum is
// evaluated in O(|C_u| + |C_v|) by a two-directional sweep over the
// prefix-sorted connection lists.
#pragma once

#include <cstdint>
#include <vector>

#include "oracle/portals.hpp"

namespace pathsep::oracle {

/// Connections of one vertex to one (node, path) pair.
struct LabelPart {
  std::int32_t node = 0;  ///< decomposition node id
  std::int32_t path = 0;  ///< path index within the node
  std::vector<Connection> connections;  ///< sorted by prefix

  bool operator==(const LabelPart&) const = default;
};

struct DistanceLabel {
  Vertex vertex = graph::kInvalidVertex;  ///< root-graph id
  std::vector<LabelPart> parts;           ///< sorted by (node, path)

  /// Space in 8-byte words: 2 per part header + 3 per connection (packed
  /// path_index+next_hop, dist, prefix), matching the paper's space unit.
  std::size_t size_in_words() const;

  std::size_t connection_count() const;

  /// Field-by-field equality (what a snapshot round trip must preserve).
  bool operator==(const DistanceLabel&) const = default;
};

/// d(u,v) upper estimate from two labels; kInfiniteWeight when the labels
/// share no usable path (different components).
Weight query_labels(const DistanceLabel& u, const DistanceLabel& v);

/// Cost attribution of one query_labels call, for tail-latency analysis:
/// how many connections the sweeps read, and which (node, path) pair's
/// sweep produced the winning minimum. win_node/win_path stay -1 when no
/// finite estimate exists (disconnected endpoints, or no common part).
struct QueryCost {
  std::uint32_t entries_scanned = 0;
  std::int32_t win_node = -1;
  std::int32_t win_path = -1;
};

/// Same estimate as the plain overload, filling `cost` as a side effect.
Weight query_labels(const DistanceLabel& u, const DistanceLabel& v,
                    QueryCost& cost);

/// Per-phase wall-clock breakdown of one build_labels call, for benchmarks
/// and regression attribution (bench_build records it per run).
struct BuildLabelsStats {
  double connections_seconds = 0;  ///< projections + portal Dijkstras
  double assemble_seconds = 0;     ///< per-vertex part assembly
};

/// Builds all labels of the graph underlying `tree`. Work fans out over
/// `threads` workers of the shared pool (0 = util::default_threads()) at two
/// levels — nodes largest-first, and the portal Dijkstras inside each node's
/// stages — and label assembly is parallel over vertices; the result is
/// byte-identical for every thread count.
std::vector<DistanceLabel> build_labels(
    const hierarchy::DecompositionTree& tree, double epsilon,
    std::size_t threads = 0, BuildLabelsStats* stats = nullptr);

}  // namespace pathsep::oracle
