#include "net/link_state.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace bcp::net {

LinkState::LinkState(int node_count) : node_count_(node_count) {
  BCP_REQUIRE(node_count > 0);
  node_up_.assign(static_cast<std::size_t>(node_count), 1);
}

LinkState::LinkState(std::shared_ptr<const StripeDomain> domain)
    : node_count_(domain == nullptr ? 0 : domain->node_count),
      domain_(std::move(domain)) {
  BCP_REQUIRE(domain_ != nullptr && domain_->node_count > 0);
  BCP_REQUIRE(domain_->shard_of != nullptr && domain_->local_of != nullptr);
  BCP_REQUIRE(domain_->owned > 0 &&
              domain_->dense_count() <= domain_->node_count);
  node_up_.assign(static_cast<std::size_t>(domain_->dense_count()), 1);
}

std::uint64_t LinkState::key(NodeId a, NodeId b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

bool LinkState::node_up(NodeId node) const {
  BCP_REQUIRE(node >= 0 && node < node_count());
  if (domain_ != nullptr) {
    const std::int32_t slot = domain_->dense_slot(node);
    if (slot < 0) return down_remote_.find(node) == down_remote_.end();
    return node_up_[static_cast<std::size_t>(slot)] != 0;
  }
  return node_up_[static_cast<std::size_t>(node)] != 0;
}

void LinkState::up_mask(std::vector<std::uint8_t>& mask) const {
  if (domain_ == nullptr) {
    // Dense layout: node_up_ already holds kMaskUp (1) or 0 per node.
    mask.assign(node_up_.begin(), node_up_.end());
  } else {
    mask.assign(static_cast<std::size_t>(node_count_), kMaskUp);
    if (down_nodes_ > 0) {
      const StripeDomain& d = *domain_;
      for (NodeId v = 0; v < node_count_; ++v) {
        const auto i = static_cast<std::size_t>(v);
        if (d.shard_of[i] == d.shard &&
            node_up_[static_cast<std::size_t>(d.local_of[i])] == 0)
          mask[i] = 0;
      }
      for (const auto& [node, slot] : d.halo_slot)
        if (node_up_[static_cast<std::size_t>(slot)] == 0)
          mask[static_cast<std::size_t>(node)] = 0;
      for (const NodeId node : down_remote_)
        mask[static_cast<std::size_t>(node)] = 0;
    }
  }
  for (const std::uint64_t k : down_links_) {
    mask[static_cast<std::size_t>(k & 0xFFFFFFFFu)] |= kMaskPairDown;
    mask[static_cast<std::size_t>(k >> 32)] |= kMaskPairDown;
  }
}

void LinkState::set_node_up(NodeId node, bool up) {
  BCP_REQUIRE(node >= 0 && node < node_count());
  if (domain_ != nullptr) {
    const std::int32_t slot = domain_->dense_slot(node);
    if (slot < 0) {
      // Outside owned + halo: the sparse overflow. Same idempotence and
      // revision discipline as the dense path.
      const bool changed =
          up ? down_remote_.erase(node) > 0 : down_remote_.insert(node).second;
      if (!changed) return;
      down_nodes_ += up ? -1 : 1;
      ++revision_;
      return;
    }
    auto& state = node_up_[static_cast<std::size_t>(slot)];
    if ((state != 0) == up) return;
    state = up ? 1 : 0;
    down_nodes_ += up ? -1 : 1;
    ++revision_;
    return;
  }
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
