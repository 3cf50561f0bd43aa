#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::net {

util::Metres distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// ------------------------------------------------------------- Topology --

const Position& Topology::position(NodeId id) const {
  BCP_REQUIRE(id >= 0 && id < node_count());
  return positions[static_cast<std::size_t>(id)];
}

namespace {

/// RNG stream for placement draws, salted away from every traffic stream.
util::Xoshiro256 placement_rng(std::uint64_t seed) {
  return util::Xoshiro256(util::substream(seed, 0, /*salt=*/0x544F504Fu));
}

/// Deterministic standard normal via Box–Muller (std::normal_distribution
/// is implementation-defined, which would break byte-identical placement
/// across standard libraries).
double standard_normal(util::Xoshiro256& rng) {
  // uniform() is in [0, 1); shift off zero for the log.
  const double u1 = 1.0 - rng.uniform();
  const double u2 = rng.uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.141592653589793238462643383279502884 * u2);
}

}  // namespace

Topology Topology::grid(int side, util::Metres area, NodeId sink) {
  BCP_REQUIRE(side >= 1);
  BCP_REQUIRE(area > 0);
  BCP_REQUIRE(sink >= 0 && sink < side * side);
  const util::Metres spacing = side > 1 ? area / (side - 1) : 0.0;
  Topology t;
  t.name = "grid";
  t.sink = sink;
  t.positions.reserve(static_cast<std::size_t>(side) *
                      static_cast<std::size_t>(side));
  for (int row = 0; row < side; ++row)
    for (int col = 0; col < side; ++col)
      t.positions.push_back(Position{col * spacing, row * spacing});
  return t;
}

Topology Topology::uniform_random(int n, util::Metres area,
                                  std::uint64_t seed) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(area > 0);
  util::Xoshiro256 rng = placement_rng(seed);
  Topology t;
  t.name = "rand";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, area);
    const double y = rng.uniform(0.0, area);
    t.positions.push_back(Position{x, y});
  }
  return t;
}

Topology Topology::gaussian_clusters(int n, util::Metres area, int clusters,
                                     util::Metres spread,
                                     std::uint64_t seed) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(area > 0);
  BCP_REQUIRE(clusters >= 1);
  BCP_REQUIRE(spread > 0);
  util::Xoshiro256 rng = placement_rng(seed);
  std::vector<Position> centres;
  centres.reserve(static_cast<std::size_t>(clusters));
  // Keep centres a spread away from the boundary when the square allows.
  const double margin = std::min(spread, area / 2.0);
  for (int c = 0; c < clusters; ++c) {
    const double x = rng.uniform(margin, area - margin);
    const double y = rng.uniform(margin, area - margin);
    centres.push_back(Position{x, y});
  }
  Topology t;
  t.name = "cluster";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  // Node 0 — the sink — sits exactly on the first centre (the "base
  // station at the first cluster" convention).
  t.positions.push_back(centres.front());
  for (int i = 1; i < n; ++i) {
    const Position& c =
        centres[static_cast<std::size_t>(i % clusters)];
    const double x =
        std::clamp(c.x + spread * standard_normal(rng), 0.0, area);
    const double y =
        std::clamp(c.y + spread * standard_normal(rng), 0.0, area);
    t.positions.push_back(Position{x, y});
  }
  return t;
}

Topology Topology::line_corridor(int n, util::Metres length,
                                 util::Metres width, std::uint64_t seed) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(length > 0);
  BCP_REQUIRE(width > 0);
  util::Xoshiro256 rng = placement_rng(seed);
  const util::Metres spacing = n > 1 ? length / (n - 1) : 0.0;
  Topology t;
  t.name = "line";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  // The sink guards the corridor mouth at mid-width; the rest keep their
  // lattice x (so a spacing <= range guarantees a connected chain) with
  // uniform lateral jitter.
  t.positions.push_back(Position{0.0, width / 2.0});
  for (int i = 1; i < n; ++i) {
    const double y = rng.uniform(0.0, width);
    t.positions.push_back(Position{i * spacing, y});
  }
  return t;
}

Topology Topology::ring(int n, util::Metres radius) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(radius > 0);
  Topology t;
  t.name = "ring";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  const double tau = 2.0 * 3.141592653589793238462643383279502884;
  for (int i = 0; i < n; ++i) {
    const double angle = tau * i / n;
    t.positions.push_back(Position{radius + radius * std::cos(angle),
                                   radius + radius * std::sin(angle)});
  }
  return t;
}

// --------------------------------------------------------- TopologySpec --

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kGrid:             return "grid";
    case TopologyKind::kUniformRandom:    return "rand";
    case TopologyKind::kGaussianClusters: return "cluster";
    case TopologyKind::kLineCorridor:     return "line";
    case TopologyKind::kRing:             return "ring";
  }
  return "?";
}

Topology TopologySpec::build() const {
  switch (kind) {
    case TopologyKind::kGrid:
      return Topology::grid(grid_side, area, sink);
    case TopologyKind::kUniformRandom:
      return Topology::uniform_random(nodes, area, seed);
    case TopologyKind::kGaussianClusters:
      return Topology::gaussian_clusters(nodes, area, clusters,
                                         cluster_spread, seed);
    case TopologyKind::kLineCorridor:
      return Topology::line_corridor(nodes, area, corridor_width, seed);
    case TopologyKind::kRing:
      return Topology::ring(nodes, area / 2.0);
  }
  BCP_REQUIRE_MSG(false, "unknown topology kind");
  throw std::logic_error("unreachable");
}

TopologySpec first_connected(TopologySpec spec, util::Metres range,
                             int max_tries) {
  BCP_REQUIRE(range > 0);
  BCP_REQUIRE(max_tries >= 1);
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    const Topology topo = spec.build();
    const ConnectivityGraph graph(topo.positions, range);
    if (unreachable_from(graph, topo.sink).empty()) return spec;
    ++spec.seed;
  }
  BCP_REQUIRE_MSG(false,
                  std::string("no sink-connected ") + to_string(spec.kind) +
                      " placement of " + std::to_string(spec.node_count()) +
                      " nodes at range " + std::to_string(range) +
                      " m within " + std::to_string(max_tries) + " seeds");
  throw std::logic_error("unreachable");
}

// --------------------------------------------------------- GridTopology --

GridTopology::GridTopology(int side, util::Metres area, NodeId sink)
    : side_(side),
      spacing_(side > 1 ? area / (side - 1) : 0.0),
      sink_(sink) {
  BCP_REQUIRE(side >= 1);
  BCP_REQUIRE(area > 0);
  BCP_REQUIRE(sink >= 0 && sink < side * side);
  positions_ = Topology::grid(side, area, sink).positions;
}

GridTopology GridTopology::paper_grid() { return GridTopology(6, 200.0, 0); }

const Position& GridTopology::position(NodeId id) const {
  BCP_REQUIRE(id >= 0 && id < node_count());
  return positions_[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------- ConnectivityGraph --

namespace {

/// Packs a (column, row) cell coordinate into one hash key.
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(cx) << 32) ^
         (static_cast<std::uint64_t>(cy) & 0xFFFFFFFFull);
}

/// Spatial cell coordinate of one axis at the given cell size.
std::int64_t cell_of(util::Metres v, util::Metres cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

/// Flat open-addressing map from an occupied cell's key to a dense cell
/// id (linear probing, Fibonacci hashing, load factor <= 1/2): two arrays
/// for the whole population instead of one heap node per cell.
class CellIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  explicit CellIndex(std::size_t max_cells) {
    while ((std::size_t{1} << bits_) < 2 * max_cells) ++bits_;
    keys_.resize(std::size_t{1} << bits_);
    ids_.assign(std::size_t{1} << bits_, kNone);
  }

  /// Dense id of `key`, assigning the next one on first sight.
  std::uint32_t insert(std::uint64_t key) {
    const std::size_t h = probe(key);
    if (ids_[h] == kNone) {
      keys_[h] = key;
      ids_[h] = count_++;
    }
    return ids_[h];
  }

  /// Dense id of `key`, or kNone when no node occupies that cell.
  std::uint32_t find(std::uint64_t key) const { return ids_[probe(key)]; }

  std::uint32_t size() const { return count_; }

 private:
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    auto h = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      (64 - bits_));
    while (ids_[h] != kNone && keys_[h] != key) h = (h + 1) & mask;
    return h;
  }

  int bits_ = 1;
  std::uint32_t count_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace

ConnectivityGraph::ConnectivityGraph(std::vector<Position> positions,
                                     util::Metres range)
    : positions_(std::move(positions)), range_(range) {
  BCP_REQUIRE(range > 0);
  const auto n = positions_.size();

  // Bucket nodes into cells of side `range`: any link spans at most one
  // cell in each axis, so each node only tests candidates from its 3×3
  // cell block — O(n) total for bounded-density placements. Members of
  // cell c are member[cell_start[c], cell_start[c+1]), by a counting sort.
  CellIndex index(n);
  std::vector<std::uint32_t> cell(n);
  for (std::size_t i = 0; i < n; ++i)
    cell[i] = index.insert(pack_cell(cell_of(positions_[i].x, range_),
                                     cell_of(positions_[i].y, range_)));
  std::vector<std::size_t> cell_start(std::size_t{index.size()} + 1, 0);
  for (const std::uint32_t c : cell) ++cell_start[c + 1];
  for (std::size_t c = 0; c < index.size(); ++c)
    cell_start[c + 1] += cell_start[c];
  std::vector<NodeId> member(n);
  {
    std::vector<std::size_t> fill(cell_start.begin(), cell_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      member[fill[cell[i]]++] = static_cast<NodeId>(i);
  }

  // Every directed link a→b, walking each occupied cell's 3×3 block once
  // for all of its members.
  std::vector<std::pair<NodeId, NodeId>> links;
  for (std::size_t c = 0; c < index.size(); ++c) {
    const Position& anchor =
        positions_[static_cast<std::size_t>(member[cell_start[c]])];
    const std::int64_t cx = cell_of(anchor.x, range_);
    const std::int64_t cy = cell_of(anchor.y, range_);
    for (std::int64_t dx = -1; dx <= 1; ++dx)
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const std::uint32_t d = index.find(pack_cell(cx + dx, cy + dy));
        if (d == CellIndex::kNone) continue;
        for (std::size_t j = cell_start[d]; j < cell_start[d + 1]; ++j) {
          const NodeId b = member[j];
          for (std::size_t k = cell_start[c]; k < cell_start[c + 1]; ++k) {
            const NodeId a = member[k];
            if (a != b &&
                distance(positions_[static_cast<std::size_t>(a)],
                         positions_[static_cast<std::size_t>(b)]) <= range_)
              links.emplace_back(a, b);
          }
        }
      }
  }

  // Counting sort into CSR rows.
  offsets_.assign(n + 1, 0);
  for (const auto& [a, b] : links) ++offsets_[static_cast<std::size_t>(a) + 1];
  for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  neighbors_.resize(links.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [a, b] : links)
    neighbors_[cursor[static_cast<std::size_t>(a)]++] = b;
  // The pairwise scan this replaced produced ascending rows; keep that
  // order so every downstream BFS walks links identically.
  for (std::size_t i = 0; i < n; ++i)
    std::sort(neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
              neighbors_.begin() +
                  static_cast<std::ptrdiff_t>(offsets_[i + 1]));
}

bool ConnectivityGraph::connected(NodeId a, NodeId b) const {
  check(a);
  check(b);
  if (a == b) return false;
  return distance(positions_[static_cast<std::size_t>(a)],
                  positions_[static_cast<std::size_t>(b)]) <= range_;
}

const Position& ConnectivityGraph::position(NodeId id) const {
  check(id);
  return positions_[static_cast<std::size_t>(id)];
}

// ------------------------------------------------- connectivity queries --

std::vector<int> connected_components(const ConnectivityGraph& graph) {
  const int n = graph.node_count();
  std::vector<int> label(static_cast<std::size_t>(n), -1);
  int next = 0;
  std::deque<NodeId> queue;
  for (NodeId start = 0; start < n; ++start) {
    if (label[static_cast<std::size_t>(start)] >= 0) continue;
    label[static_cast<std::size_t>(start)] = next;
    queue.push_back(start);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const NodeId v : graph.neighbors(u)) {
        if (label[static_cast<std::size_t>(v)] >= 0) continue;
        label[static_cast<std::size_t>(v)] = next;
        queue.push_back(v);
      }
    }
    ++next;
  }
  return label;
}

std::vector<NodeId> unreachable_from(const ConnectivityGraph& graph,
                                     NodeId root) {
  BCP_REQUIRE(root >= 0 && root < graph.node_count());
  const std::vector<int> label = connected_components(graph);
  const int root_label = label[static_cast<std::size_t>(root)];
  std::vector<NodeId> out;
  for (NodeId id = 0; id < graph.node_count(); ++id)
    if (label[static_cast<std::size_t>(id)] != root_label)
      out.push_back(id);
  return out;
}

std::string format_node_list(const std::vector<NodeId>& nodes,
                             std::size_t max_listed) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size() && i < max_listed; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(nodes[i]);
  }
  if (nodes.size() > max_listed)
    out += ", ... (" + std::to_string(nodes.size() - max_listed) + " more)";
  out += "]";
  return out;
}

}  // namespace bcp::net
