#include "net/link_state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bcp::net {

LinkState::LinkState(int node_count) {
  BCP_REQUIRE(node_count > 0);
  node_up_.assign(static_cast<std::size_t>(node_count), 1);
}

std::uint64_t LinkState::key(NodeId a, NodeId b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

bool LinkState::node_up(NodeId node) const {
  BCP_REQUIRE(node >= 0 && node < node_count());
  return node_up_[static_cast<std::size_t>(node)] != 0;
}

void LinkState::up_mask(std::vector<std::uint8_t>& mask) const {
  // node_up_ already holds kMaskUp (1) or 0 per node.
  mask.assign(node_up_.begin(), node_up_.end());
  for (const std::uint64_t k : down_links_) {
    mask[static_cast<std::size_t>(k & 0xFFFFFFFFu)] |= kMaskPairDown;
    mask[static_cast<std::size_t>(k >> 32)] |= kMaskPairDown;
  }
}

void LinkState::set_node_up(NodeId node, bool up) {
  BCP_REQUIRE(node >= 0 && node < node_count());
  auto& state = node_up_[static_cast<std::size_t>(node)];
  if ((state != 0) == up) return;
  state = up ? 1 : 0;
  down_nodes_ += up ? -1 : 1;
  ++revision_;
}

void LinkState::set_link_up(NodeId a, NodeId b, bool up) {
  BCP_REQUIRE(a >= 0 && a < node_count());
  BCP_REQUIRE(b >= 0 && b < node_count());
  BCP_REQUIRE(a != b);
  const std::uint64_t k = key(a, b);
  const bool changed =
      up ? down_links_.erase(k) > 0 : down_links_.insert(k).second;
  if (changed) ++revision_;
}

void LinkState::apply(const MembershipDelta& delta) {
  switch (delta.kind) {
    case MembershipDelta::Kind::kNodeDown:
      set_node_up(delta.node, false);
      break;
    case MembershipDelta::Kind::kNodeUp:
      set_node_up(delta.node, true);
      break;
    case MembershipDelta::Kind::kLinkDown:
      set_link_up(delta.node, delta.peer, false);
      break;
    case MembershipDelta::Kind::kLinkUp:
      set_link_up(delta.node, delta.peer, true);
      break;
  }
}

}  // namespace bcp::net
