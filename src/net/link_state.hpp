// Dynamic membership and link availability over a static placement.
//
// The fault/churn subsystem flips nodes and links up and down at run time;
// everything that consumed the static ConnectivityGraph — the Channel's
// hearer loop, the routers' BFS — consults a LinkState instead of mutating
// the graph. Membership is a property of the node, not of a radio, so a
// scenario keeps one replica per shard that both radio classes' channel
// partitions read, plus a coordinator replica that the run's routers
// read. Three design points:
//
//   * The hot path stays free: `link_up` answers through an all-up fast
//     path (one branch) while nothing is down, which is every frame of a
//     fault-free run.
//   * Every effective change bumps a revision counter. Routing wraps its
//     (expensive) tree/table build behind the counter (net::DynamicRouting)
//     so the convergecast tree is rebuilt only on membership change, not
//     per query and not per fault event that changed nothing.
//   * Bulk readers take one dense snapshot (`up_mask`) per build instead
//     of a `node_up` lookup per edge endpoint.
//
// A link is up iff both endpoints are up and the (unordered) pair has not
// been taken down explicitly. Setting a state it already has is a no-op
// and does not bump the revision.
//
// The layout is dense: one byte per node plus a hash set of explicitly
// downed pairs, so a scenario shard's replica costs n bytes.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/message.hpp"

namespace bcp::net {

/// One membership mutation, ready to be re-applied to another replica.
///
/// The sharded engine keeps one LinkState replica per shard: the shard
/// that owns a node applies crash/recover/flap mutations to its own
/// replica at the exact event instant, queues the mutation as a delta,
/// and the coordinator broadcasts the accumulated batch to every replica
/// at the next window barrier (sorted by `before` — (time, shard, node,
/// peer, kind)), so remote shards see a membership change at most one
/// window late. Re-applying a delta to the replica that originated it is
/// a no-op by LinkState's set-idempotence, so the broadcast does not bump
/// the owner's revision a second time.
struct MembershipDelta {
  enum class Kind : std::uint8_t { kNodeDown, kNodeUp, kLinkDown, kLinkUp };
  double time = 0;       ///< event instant in the owning shard
  std::int32_t shard = 0;  ///< owning shard (deterministic tie-break)
  NodeId node = -1;
  NodeId peer = -1;  ///< second endpoint for link deltas, -1 otherwise
  Kind kind = Kind::kNodeDown;

  /// Deterministic application order: (time, shard, node, peer, kind).
  static bool before(const MembershipDelta& a, const MembershipDelta& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    if (a.node != b.node) return a.node < b.node;
    if (a.peer != b.peer) return a.peer < b.peer;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
};

class LinkState {
 public:
  /// Every node and link starts up.
  explicit LinkState(int node_count);

  int node_count() const { return static_cast<int>(node_up_.size()); }

  /// True while no node and no link is down — the fast path.
  bool all_up() const { return down_nodes_ == 0 && down_links_.empty(); }

  bool node_up(NodeId node) const;

  /// Both endpoints up and the pair not explicitly down.
  bool link_up(NodeId a, NodeId b) const {
    if (all_up()) return true;
    return node_up(a) && node_up(b) &&
           !pair_down(a, b);
  }

  void set_node_up(NodeId node, bool up);
  void set_link_up(NodeId a, NodeId b, bool up);

  /// Bits of a dense membership snapshot (see up_mask).
  static constexpr std::uint8_t kMaskUp = 1;
  static constexpr std::uint8_t kMaskPairDown = 2;

  /// Dense snapshot for bulk readers (route builds): resizes `mask` to
  /// node_count() and sets, per node, kMaskUp iff node_up and
  /// kMaskPairDown iff the node ends an explicitly downed pair. Edge
  /// (a, b) is then up iff both ends carry kMaskUp and, when both also
  /// carry kMaskPairDown, !pair_down(a, b) — so a reader asks the pair set
  /// only about flagged endpoints. O(n + down), no per-node hashing.
  void up_mask(std::vector<std::uint8_t>& mask) const;

  /// True iff the unordered pair was taken down explicitly (set_link_up),
  /// whatever its endpoints' state.
  bool pair_down(NodeId a, NodeId b) const {
    return down_links_.find(key(a, b)) != down_links_.end();
  }

  /// Replays one membership delta onto this replica (no-op, and no
  /// revision bump, if the state already matches — see MembershipDelta).
  void apply(const MembershipDelta& delta);

  /// Bumped on every effective change; consumers cache against it.
  std::uint64_t revision() const { return revision_; }

  /// Invalidates consumers' caches without changing membership. The
  /// lifetime-routing refresh tick uses this: battery fractions drift
  /// continuously, so between deaths no set_* call would ever prompt
  /// DynamicRouting to re-read them.
  void touch() { ++revision_; }

  /// True iff both replicas hold the same membership: the same up/down
  /// state per node and the same set of explicitly downed pairs. The
  /// revision is not compared (touch() bumps it without a membership
  /// change). O(n + down).
  bool same_membership(const LinkState& other) const {
    return node_up_ == other.node_up_ && down_links_ == other.down_links_;
  }

 private:
  static std::uint64_t key(NodeId a, NodeId b);

  std::vector<std::uint8_t> node_up_;  ///< one byte per node, 1 = up
  std::unordered_set<std::uint64_t> down_links_;
  std::uint64_t revision_ = 0;
  int down_nodes_ = 0;
};

}  // namespace bcp::net
