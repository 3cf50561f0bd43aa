// Static shortest-path routing over one radio's connectivity graph.
//
// §4.1: "To decouple the routing effects on performance, two separate trees
// that go over sensor and IEEE 802.11 radios are built." Two providers sit
// behind the `Router` interface the node assemblies consume:
//
//   RoutingTable       — dense all-pairs BFS next-hop/hop tables (n×n
//                        memory, one BFS per destination). Fine for the
//                        36-node paper grid and the small-n tests; O(n²)
//                        memory rules it out at scale.
//   ConvergecastRouting — the sink-rooted tree the paper actually
//                        describes: a single BFS from the sink, O(n + e)
//                        time and O(n) memory. Scenarios route every data
//                        packet to the sink, so this is what they use.
//
// Both break shortest-path ties identically: among equal-hop parents
// prefer the one geometrically closer to the destination, then the lower
// node id — so ConvergecastRouting is exactly the next_hop(·, sink) slice
// of RoutingTable, a property the tests assert.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/link_state.hpp"
#include "net/topology.hpp"

namespace bcp::net {

/// How DynamicRouting scores paths when it rebuilds.
///
///   kShortestPath  — hop count only; the historical behaviour, and the
///                    default every golden export pins byte-for-byte.
///   kLifetimeAware — hop count plus a per-relay cost from NodeCostFn
///                    (battery fraction drawn), so convergecast routes
///                    bend around nearly-depleted relays. Convergecast
///                    only: the tree is rebuilt cost-weighted on every
///                    LinkState revision move.
enum class RoutePolicy : std::uint8_t { kShortestPath, kLifetimeAware };

const char* to_string(RoutePolicy p);

/// Per-node relay cost (>= 0), folded into edge weights as
/// 1 + cost(relay) for the hop *into* `relay` (the sink costs nothing to
/// enter — delivery into it is mandatory). Must be cheap: it is consulted
/// once per node per rebuild.
using NodeCostFn = std::function<double(NodeId)>;

/// Alive (node_up) nodes other than `root` with no LinkState-masked path
/// to it — the sink-partition predicate the battery-death metrics check.
/// Empty result = every surviving node still reaches `root`. If `root`
/// itself is down, every alive node is returned.
std::vector<NodeId> unreachable_alive(const ConnectivityGraph& graph,
                                      NodeId root, const LinkState& links);

/// Next-hop provider interface the node assemblies route through.
class Router {
 public:
  virtual ~Router() = default;

  /// First hop on a shortest path from `from` toward `to`.
  /// Returns `to` itself when adjacent, `from` when from == to, and
  /// kInvalidNode when unreachable.
  virtual NodeId next_hop(NodeId from, NodeId to) const = 0;

  /// Shortest-path hop count; 0 when from == to, -1 when unreachable.
  virtual int hops(NodeId from, NodeId to) const = 0;

  virtual int node_count() const = 0;

  bool reachable(NodeId from, NodeId to) const {
    return hops(from, to) >= 0;
  }
};

/// Dense all-pairs shortest-path tables. A non-null `links` masks the
/// graph: down nodes and down links are invisible to the BFS (the
/// fault/churn path); the tables are a snapshot of that instant.
class RoutingTable final : public Router {
 public:
  explicit RoutingTable(const ConnectivityGraph& graph,
                        const LinkState* links = nullptr);

  /// Recomputes the tables in place over `graph` (same node count) and the
  /// current `links`, reusing every buffer — DynamicRouting's rebuild.
  void rebuild(const ConnectivityGraph& graph, const LinkState* links);

  NodeId next_hop(NodeId from, NodeId to) const override;
  int hops(NodeId from, NodeId to) const override;
  int node_count() const override { return n_; }

  /// Mean hop count from every node (other than `to`) that can reach `to` —
  /// the "forward progress" statistic of §2.2.
  double mean_hops_to(NodeId to) const;

 private:
  int index(NodeId from, NodeId to) const;

  int n_;
  std::vector<NodeId> next_hop_;  // n*n, row = from, col = to
  std::vector<int> hops_;         // n*n
  // Build scratch, kept so a rebuild allocates nothing.
  std::vector<std::uint8_t> mask_;
  std::vector<int> dist_;
  std::vector<double> to_dist_;
  std::vector<NodeId> queue_;
};

/// Sink-rooted shortest-path tree: one BFS from the sink, parent and
/// depth per node, O(n + e) construction and O(n) memory.
///
/// Routing toward the sink follows the shortest-path tree exactly (the
/// RoutingTable slice). Other destinations — the BCP control plane sends
/// wake-up acks *away* from the sink — are routed along tree paths: up
/// to the nearest common ancestor, then down (an Euler-tour subtree test
/// plus a binary search over each node's children picks the downward
/// branch in O(log degree)). Tree paths to non-sink destinations may be
/// longer than graph-shortest paths; convergecast traffic never is.
class ConvergecastRouting final : public Router {
 public:
  /// A non-null `links` masks the graph exactly as in RoutingTable. A
  /// non-null `cost` switches the build from plain BFS to a Dijkstra over
  /// edge weights 1 + cost(next_hop) — the lifetime-aware tree; with
  /// `cost` null the build is the historical BFS, bit-for-bit.
  ConvergecastRouting(const ConnectivityGraph& graph, NodeId sink,
                      const LinkState* links = nullptr,
                      const NodeCostFn& cost = nullptr);

  /// Rebuilds the tree in place over `graph` (same node count, same sink)
  /// and the current `links`/`cost`, exactly as a fresh construction
  /// would, reusing every buffer: a warm rebuild allocates nothing.
  void rebuild(const ConnectivityGraph& graph, const LinkState* links,
               const NodeCostFn& cost);

  NodeId sink() const { return sink_; }

  /// Next hop toward the sink (kInvalidNode when stranded; sink maps to
  /// itself).
  NodeId parent(NodeId from) const;

  /// Hops to the sink; -1 when stranded, 0 at the sink.
  int depth(NodeId from) const;

  /// Mean depth over all nodes (other than the sink) that reach it;
  /// requires at least one.
  double mean_depth() const;

  /// Nodes (other than the sink) with no path to it, ascending.
  std::vector<NodeId> stranded() const;

  // Router. next_hop/hops measure along tree paths; both endpoints must
  // be in the sink's component (else kInvalidNode / -1).
  NodeId next_hop(NodeId from, NodeId to) const override;
  int hops(NodeId from, NodeId to) const override;
  int node_count() const override {
    return static_cast<int>(parent_.size());
  }

 private:
  bool in_subtree(NodeId root, NodeId node) const;
  NodeId child_toward(NodeId from, NodeId descendant) const;

  NodeId sink_;
  std::vector<NodeId> parent_;
  std::vector<int> depth_;
  // Euler-tour order: tin/tout bracket each node's subtree; children are
  // stored contiguously, sorted by tin.
  std::vector<int> tin_;
  std::vector<int> tout_;
  std::vector<NodeId> children_;       // all children, grouped by parent
  std::vector<int> children_begin_;    // n+1 offsets into children_
  // Build scratch, kept so a rebuild allocates nothing: the membership
  // snapshot, per-node geometric distance to the sink and step cost
  // 1 + cost(v), the weighted distances, and the BFS/Dijkstra/DFS work
  // lists.
  std::vector<std::uint8_t> mask_;
  std::vector<double> sink_dist_;
  std::vector<double> step_;
  std::vector<double> wdist_;
  std::vector<std::pair<double, NodeId>> heap_;
  std::vector<NodeId> queue_;
  std::vector<std::pair<NodeId, int>> stack_;
};

/// Fault-aware router: rebuilds an underlying strategy (convergecast tree
/// or all-pairs tables) over the LinkState-masked graph, but only when the
/// LinkState's revision actually moved — the incremental-invalidation hook
/// the fault/churn scenarios route through. Queries between membership
/// changes are as cheap as the static providers; a crash/recover burst
/// that flips k nodes costs one rebuild at the next query, not k. The
/// router owns its tree (or tables) and rebuilds it in place, so a warm
/// rebuild allocates nothing. A scenario run keeps one per distinct radio
/// graph over the coordinator's membership replica and refreshes it at
/// window barriers, while no worker queries it; radio classes with equal
/// ranges share the graph and the cost function, hence one tree.
class DynamicRouting final : public Router {
 public:
  /// `graph` and `links` must outlive the router. `all_pairs` picks the
  /// dense-table strategy (small networks) over the convergecast tree.
  /// kLifetimeAware requires a non-null `cost` and always builds the
  /// cost-weighted convergecast tree (all_pairs is ignored): lifetime
  /// objectives are sink-centric, and the dense tables have no weighted
  /// form. Under kShortestPath `cost` is ignored.
  DynamicRouting(const ConnectivityGraph& graph, NodeId sink,
                 const LinkState& links, bool all_pairs,
                 RoutePolicy policy = RoutePolicy::kShortestPath,
                 NodeCostFn cost = nullptr);

  NodeId next_hop(NodeId from, NodeId to) const override {
    return refresh().next_hop(from, to);
  }
  int hops(NodeId from, NodeId to) const override {
    return refresh().hops(from, to);
  }
  int node_count() const override { return graph_.node_count(); }

  /// The current convergecast tree (rebuilt first if membership moved).
  /// Requires the tree strategy (not all-pairs tables).
  const ConvergecastRouting& tree() const;

  /// Underlying builds performed so far (1 after the first query or
  /// refresh; +1 per revision move that a later one observed).
  std::int64_t rebuild_count() const { return rebuilds_; }

  /// Rebuilds now if the LinkState revision moved, and returns the tree
  /// (or tables). A router shared across threads is refreshed after each
  /// membership change, so the queries in between only read.
  const Router& refresh() const;

 private:
  const ConnectivityGraph& graph_;
  NodeId sink_;
  const LinkState& links_;
  bool use_table_;
  NodeCostFn cost_;  ///< null unless kLifetimeAware
  // Lazy cache: queries are logically const; the rebuild is bookkeeping.
  mutable std::optional<ConvergecastRouting> tree_;
  mutable std::optional<RoutingTable> table_;
  mutable std::uint64_t built_revision_ = 0;
  mutable std::int64_t rebuilds_ = 0;
};

}  // namespace bcp::net
