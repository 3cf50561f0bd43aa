#include "net/routing.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace bcp::net {

const char* to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kShortestPath:  return "shortest-path";
    case RoutePolicy::kLifetimeAware: return "lifetime-aware";
  }
  return "?";
}

namespace {

/// Edge availability over one LinkState::up_mask snapshot; a null mask
/// (no LinkState, or nothing down) sees the whole graph.
struct EdgeMask {
  const std::uint8_t* mask = nullptr;
  const LinkState* links = nullptr;

  /// Snapshots `links` into `buf` unless it is null or all up.
  EdgeMask(const LinkState* links_in, std::vector<std::uint8_t>& buf) {
    if (links_in == nullptr || links_in->all_up()) return;
    links_in->up_mask(buf);
    mask = buf.data();
    links = links_in;
  }

  bool node_up(NodeId v) const {
    return mask == nullptr ||
           (mask[static_cast<std::size_t>(v)] & LinkState::kMaskUp) != 0;
  }
  bool edge_up(NodeId a, NodeId b) const {
    if (mask == nullptr) return true;
    const std::uint8_t both = static_cast<std::uint8_t>(
        mask[static_cast<std::size_t>(a)] & mask[static_cast<std::size_t>(b)]);
    if ((both & LinkState::kMaskUp) == 0) return false;
    return (both & LinkState::kMaskPairDown) == 0 || !links->pair_down(a, b);
  }
};

/// BFS hop counts from `root` into `dist` (-1 where unreachable), hiding
/// down nodes and links. `queue` is a reusable work list.
void bfs_distances(const ConnectivityGraph& graph, NodeId root,
                   const EdgeMask& up, std::vector<int>& dist,
                   std::vector<NodeId>& queue) {
  dist.assign(static_cast<std::size_t>(graph.node_count()), -1);
  if (!up.node_up(root)) return;
  queue.clear();
  dist[static_cast<std::size_t>(root)] = 0;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId v : graph.neighbors(u)) {
      if (!up.edge_up(u, v)) continue;
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
}

/// Geometric distance from every node to `to` into `out` — the parent
/// tie-break, computed once per node instead of once per edge.
void distances_to(const ConnectivityGraph& graph, NodeId to,
                  std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(graph.node_count()));
  const Position& target = graph.position(to);
  for (NodeId v = 0; v < graph.node_count(); ++v)
    out[static_cast<std::size_t>(v)] = distance(graph.position(v), target);
}

/// The deterministic parent choice both providers share: among `from`'s
/// neighbours one hop closer (per `dist`), the one geometrically closest
/// to the destination (`to_dist`), then the lowest id.
NodeId best_parent(const ConnectivityGraph& graph, const std::vector<int>& dist,
                   const std::vector<double>& to_dist, NodeId from,
                   const EdgeMask& up) {
  const int d = dist[static_cast<std::size_t>(from)];
  NodeId best = kInvalidNode;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const NodeId v : graph.neighbors(from)) {
    if (dist[static_cast<std::size_t>(v)] != d - 1) continue;
    if (!up.edge_up(from, v)) continue;
    const double dv = to_dist[static_cast<std::size_t>(v)];
    if (best == kInvalidNode || dv < best_dist ||
        (dv == best_dist && v < best)) {
      best = v;
      best_dist = dv;
    }
  }
  return best;
}

using HeapEntry = std::pair<double, NodeId>;  // (cost, node), min-heap

/// Dijkstra from `root` over edge weights step[next_hop] (the hop into v
/// weighs 1 + cost(v); into the root just 1): dist[u] is the cheapest cost
/// of a path u -> root (infinity where unreachable). Deterministic: the
/// heap breaks equal-cost pops by lower node id, and the parent choice
/// below re-applies the geometric/id preference.
void weighted_distances(const ConnectivityGraph& graph, NodeId root,
                        const EdgeMask& up, const std::vector<double>& step,
                        std::vector<double>& dist,
                        std::vector<HeapEntry>& heap) {
  dist.assign(static_cast<std::size_t>(graph.node_count()),
              std::numeric_limits<double>::infinity());
  if (!up.node_up(root)) return;
  const std::greater<HeapEntry> later;
  heap.clear();
  dist[static_cast<std::size_t>(root)] = 0.0;
  heap.emplace_back(0.0, root);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    // Every neighbour reaching the root through u pays the same step.
    const double cand = d + step[static_cast<std::size_t>(u)];
    for (const NodeId v : graph.neighbors(u)) {
      if (!up.edge_up(u, v)) continue;
      if (cand < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = cand;
        heap.emplace_back(cand, v);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
}

/// best_parent's weighted twin: among `from`'s neighbours on a cheapest
/// path toward the root (within a fixed tolerance, so float noise cannot
/// flip the choice), geometrically closest to the root, then lowest id.
NodeId best_parent_weighted(const ConnectivityGraph& graph,
                            const std::vector<double>& dist,
                            const std::vector<double>& step,
                            const std::vector<double>& root_dist, NodeId from,
                            const EdgeMask& up) {
  const double d = dist[static_cast<std::size_t>(from)];
  NodeId best = kInvalidNode;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const NodeId v : graph.neighbors(from)) {
    if (!up.edge_up(from, v)) continue;
    const double via =
        dist[static_cast<std::size_t>(v)] + step[static_cast<std::size_t>(v)];
    if (via > d + 1e-9) continue;  // not on a cheapest path
    const double dv = root_dist[static_cast<std::size_t>(v)];
    if (best == kInvalidNode || dv < best_dist ||
        (dv == best_dist && v < best)) {
      best = v;
      best_dist = dv;
    }
  }
  return best;
}

}  // namespace

std::vector<NodeId> unreachable_alive(const ConnectivityGraph& graph,
                                      NodeId root, const LinkState& links) {
  BCP_REQUIRE(root >= 0 && root < graph.node_count());
  std::vector<std::uint8_t> mask;
  const EdgeMask up(&links, mask);
  std::vector<int> dist;
  std::vector<NodeId> queue;
  bfs_distances(graph, root, up, dist, queue);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (v != root && up.node_up(v) && dist[static_cast<std::size_t>(v)] < 0)
      out.push_back(v);
  }
  return out;
}

// ------------------------------------------------------- RoutingTable --

RoutingTable::RoutingTable(const ConnectivityGraph& graph,
                           const LinkState* links)
    : n_(graph.node_count()),
      next_hop_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
                kInvalidNode),
      hops_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), -1) {
  rebuild(graph, links);
}

void RoutingTable::rebuild(const ConnectivityGraph& graph,
                           const LinkState* links) {
  BCP_REQUIRE(graph.node_count() == n_);
  const EdgeMask up(links, mask_);
  // One BFS per destination, relaxing parents with the deterministic
  // (hops, distance-to-destination, id) preference order.
  for (NodeId to = 0; to < n_; ++to) {
    bfs_distances(graph, to, up, dist_, queue_);
    distances_to(graph, to, to_dist_);
    for (NodeId from = 0; from < n_; ++from) {
      const auto i = static_cast<std::size_t>(index(from, to));
      const int d = dist_[static_cast<std::size_t>(from)];
      hops_[i] = d;
      if (from == to) {
        next_hop_[i] = from;
        continue;
      }
      if (d < 0) {  // unreachable
        next_hop_[i] = kInvalidNode;
        continue;
      }
      const NodeId best = best_parent(graph, dist_, to_dist_, from, up);
      BCP_ENSURE(best != kInvalidNode);
      next_hop_[i] = best;
    }
  }
}

int RoutingTable::index(NodeId from, NodeId to) const {
  BCP_REQUIRE(from >= 0 && from < n_);
  BCP_REQUIRE(to >= 0 && to < n_);
  return from * n_ + to;
}

NodeId RoutingTable::next_hop(NodeId from, NodeId to) const {
  return next_hop_[static_cast<std::size_t>(index(from, to))];
}

int RoutingTable::hops(NodeId from, NodeId to) const {
  return hops_[static_cast<std::size_t>(index(from, to))];
}

double RoutingTable::mean_hops_to(NodeId to) const {
  double sum = 0;
  int count = 0;
  for (NodeId from = 0; from < n_; ++from) {
    if (from == to) continue;
    const int h = hops(from, to);
    if (h < 0) continue;
    sum += h;
    ++count;
  }
  BCP_REQUIRE_MSG(count > 0, "destination unreachable from every node");
  return sum / count;
}

// ------------------------------------------------ ConvergecastRouting --

ConvergecastRouting::ConvergecastRouting(const ConnectivityGraph& graph,
                                         NodeId sink,
                                         const LinkState* links,
                                         const NodeCostFn& cost)
    : sink_(sink) {
  BCP_REQUIRE(sink >= 0 && sink < graph.node_count());
  parent_.resize(static_cast<std::size_t>(graph.node_count()));
  rebuild(graph, links, cost);
}

void ConvergecastRouting::rebuild(const ConnectivityGraph& graph,
                                  const LinkState* links,
                                  const NodeCostFn& cost) {
  const int n = graph.node_count();
  BCP_REQUIRE(n == node_count());
  const NodeId sink = sink_;
  const EdgeMask up(links, mask_);
  distances_to(graph, sink, sink_dist_);
  std::fill(parent_.begin(), parent_.end(), kInvalidNode);
  parent_[static_cast<std::size_t>(sink)] = sink;
  if (cost == nullptr) {
    bfs_distances(graph, sink, up, depth_, queue_);
    for (NodeId from = 0; from < n; ++from) {
      if (from == sink || depth_[static_cast<std::size_t>(from)] < 0)
        continue;
      const NodeId best = best_parent(graph, depth_, sink_dist_, from, up);
      BCP_ENSURE(best != kInvalidNode);
      parent_[static_cast<std::size_t>(from)] = best;
    }
  } else {
    // Lifetime-aware tree: cheapest-cost parents; the hop-count depths
    // along the chosen tree (depth_ stays a frame/slot currency for TDMA
    // and the mean-depth statistic even when the tree is weighted) are
    // filled by the Euler DFS below. The step into v costs 1 + cost(v),
    // into the sink just 1 (delivery into it is mandatory).
    step_.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v)
      step_[static_cast<std::size_t>(v)] = 1.0 + (v == sink ? 0.0 : cost(v));
    weighted_distances(graph, sink, up, step_, wdist_, heap_);
    for (NodeId from = 0; from < n; ++from) {
      if (from == sink ||
          wdist_[static_cast<std::size_t>(from)] ==
              std::numeric_limits<double>::infinity())
        continue;
      const NodeId best =
          best_parent_weighted(graph, wdist_, step_, sink_dist_, from, up);
      BCP_ENSURE(best != kInvalidNode);
      parent_[static_cast<std::size_t>(from)] = best;
    }
    depth_.assign(static_cast<std::size_t>(n), -1);
    depth_[static_cast<std::size_t>(sink)] = 0;
  }

  // Group children by parent (CSR layout; ascending node order keeps each
  // group id-sorted, and the DFS below then visits them in that order, so
  // a group is also tin-sorted — the binary search in child_toward relies
  // on both). Counts land one slot right, the prefix sum turns them into
  // group starts, placing advances each start to its group's end, and the
  // final shift restores the starts.
  children_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  int placed = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = parent_[static_cast<std::size_t>(v)];
    if (v != sink && p != kInvalidNode) {
      ++children_begin_[static_cast<std::size_t>(p) + 1];
      ++placed;
    }
  }
  for (int i = 0; i < n; ++i)
    children_begin_[static_cast<std::size_t>(i) + 1] +=
        children_begin_[static_cast<std::size_t>(i)];
  children_.resize(static_cast<std::size_t>(placed));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = parent_[static_cast<std::size_t>(v)];
    if (v != sink && p != kInvalidNode)
      children_[static_cast<std::size_t>(
          children_begin_[static_cast<std::size_t>(p)]++)] = v;
  }
  for (int i = n; i > 0; --i)
    children_begin_[static_cast<std::size_t>(i)] =
        children_begin_[static_cast<std::size_t>(i) - 1];
  children_begin_[0] = 0;

  // Iterative DFS from the sink for the Euler-tour brackets; every tree
  // node is entered from its parent, so its depth is the parent's + 1.
  tin_.assign(static_cast<std::size_t>(n), -1);
  tout_.assign(static_cast<std::size_t>(n), -1);
  int clock = 0;
  // Stack of (node, next-child offset).
  stack_.clear();
  stack_.emplace_back(sink, children_begin_[static_cast<std::size_t>(sink)]);
  tin_[static_cast<std::size_t>(sink)] = clock++;
  while (!stack_.empty()) {
    auto& [u, next] = stack_.back();
    if (next < children_begin_[static_cast<std::size_t>(u) + 1]) {
      const NodeId c = children_[static_cast<std::size_t>(next++)];
      tin_[static_cast<std::size_t>(c)] = clock++;
      depth_[static_cast<std::size_t>(c)] =
          depth_[static_cast<std::size_t>(u)] + 1;
      stack_.emplace_back(c, children_begin_[static_cast<std::size_t>(c)]);
    } else {
      tout_[static_cast<std::size_t>(u)] = clock++;
      stack_.pop_back();
    }
  }
  BCP_ENSURE(clock == 2 * (placed + 1));  // every parented node was reached
}

bool ConvergecastRouting::in_subtree(NodeId root, NodeId node) const {
  return tin_[static_cast<std::size_t>(root)] <=
             tin_[static_cast<std::size_t>(node)] &&
         tout_[static_cast<std::size_t>(node)] <=
             tout_[static_cast<std::size_t>(root)];
}

NodeId ConvergecastRouting::child_toward(NodeId from,
                                         NodeId descendant) const {
  // Children intervals partition from's interval; find the last child
  // whose tin is <= tin[descendant].
  const int lo = children_begin_[static_cast<std::size_t>(from)];
  const int hi = children_begin_[static_cast<std::size_t>(from) + 1];
  const int target = tin_[static_cast<std::size_t>(descendant)];
  int a = lo;
  int b = hi;
  while (b - a > 1) {
    const int mid = a + (b - a) / 2;
    if (tin_[static_cast<std::size_t>(
            children_[static_cast<std::size_t>(mid)])] <= target)
      a = mid;
    else
      b = mid;
  }
  const NodeId c = children_[static_cast<std::size_t>(a)];
  BCP_ENSURE(in_subtree(c, descendant));
  return c;
}

NodeId ConvergecastRouting::parent(NodeId from) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  return parent_[static_cast<std::size_t>(from)];
}

int ConvergecastRouting::depth(NodeId from) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  return depth_[static_cast<std::size_t>(from)];
}

double ConvergecastRouting::mean_depth() const {
  double sum = 0;
  int count = 0;
  for (NodeId from = 0; from < node_count(); ++from) {
    if (from == sink_) continue;
    const int d = depth_[static_cast<std::size_t>(from)];
    if (d < 0) continue;
    sum += d;
    ++count;
  }
  BCP_REQUIRE_MSG(count > 0, "sink unreachable from every node");
  return sum / count;
}

std::vector<NodeId> ConvergecastRouting::stranded() const {
  std::vector<NodeId> out;
  for (NodeId from = 0; from < node_count(); ++from)
    if (from != sink_ && depth_[static_cast<std::size_t>(from)] < 0)
      out.push_back(from);
  return out;
}

NodeId ConvergecastRouting::next_hop(NodeId from, NodeId to) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  BCP_REQUIRE(to >= 0 && to < node_count());
  if (from == to) return from;
  if (depth_[static_cast<std::size_t>(from)] < 0 ||
      depth_[static_cast<std::size_t>(to)] < 0)
    return kInvalidNode;  // one endpoint is outside the sink's component
  if (in_subtree(from, to)) return child_toward(from, to);
  return parent_[static_cast<std::size_t>(from)];
}

int ConvergecastRouting::hops(NodeId from, NodeId to) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  BCP_REQUIRE(to >= 0 && to < node_count());
  if (from == to) return 0;
  if (depth_[static_cast<std::size_t>(from)] < 0 ||
      depth_[static_cast<std::size_t>(to)] < 0)
    return -1;
  // Tree distance via the nearest common ancestor (climb pointers; depth
  // is bounded by the network diameter).
  NodeId a = from;
  NodeId b = to;
  while (depth_[static_cast<std::size_t>(a)] >
         depth_[static_cast<std::size_t>(b)])
    a = parent_[static_cast<std::size_t>(a)];
  while (depth_[static_cast<std::size_t>(b)] >
         depth_[static_cast<std::size_t>(a)])
    b = parent_[static_cast<std::size_t>(b)];
  while (a != b) {
    a = parent_[static_cast<std::size_t>(a)];
    b = parent_[static_cast<std::size_t>(b)];
  }
  return depth_[static_cast<std::size_t>(from)] +
         depth_[static_cast<std::size_t>(to)] -
         2 * depth_[static_cast<std::size_t>(a)];
}

// --------------------------------------------------- DynamicRouting --

DynamicRouting::DynamicRouting(const ConnectivityGraph& graph, NodeId sink,
                               const LinkState& links, bool all_pairs,
                               RoutePolicy policy, NodeCostFn cost)
    : graph_(graph),
      sink_(sink),
      links_(links),
      use_table_(all_pairs && policy != RoutePolicy::kLifetimeAware),
      cost_(policy == RoutePolicy::kLifetimeAware ? std::move(cost)
                                                  : nullptr) {
  BCP_REQUIRE(sink >= 0 && sink < graph.node_count());
  BCP_REQUIRE(links.node_count() == graph.node_count());
  BCP_REQUIRE_MSG(policy != RoutePolicy::kLifetimeAware || cost_ != nullptr,
                  "lifetime-aware routing needs a node cost function");
}

const Router& DynamicRouting::refresh() const {
  if (rebuilds_ == 0 || built_revision_ != links_.revision()) {
    if (use_table_) {
      if (table_)
        table_->rebuild(graph_, &links_);
      else
        table_.emplace(graph_, &links_);
    } else {
      if (tree_)
        tree_->rebuild(graph_, &links_, cost_);
      else
        tree_.emplace(graph_, sink_, &links_, cost_);
    }
    built_revision_ = links_.revision();
    ++rebuilds_;
  }
  if (use_table_) return *table_;
  return *tree_;
}

const ConvergecastRouting& DynamicRouting::tree() const {
  BCP_REQUIRE_MSG(!use_table_, "all-pairs DynamicRouting has no tree");
  refresh();
  return *tree_;
}

}  // namespace bcp::net
