#include "graphlab/graph/coloring.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "graphlab/util/logging.h"

namespace graphlab {

const char* ConsistencyModelName(ConsistencyModel model) {
  switch (model) {
    case ConsistencyModel::kVertexConsistency: return "vertex";
    case ConsistencyModel::kEdgeConsistency: return "edge";
    case ConsistencyModel::kFullConsistency: return "full";
  }
  return "?";
}

namespace {

/// Undirected adjacency in CSR form: vertex v's neighbours are
/// nbrs[offsets[v] .. offsets[v + 1]), in edge-list order.
struct Adjacency {
  std::vector<uint64_t> offsets;
  std::vector<VertexId> nbrs;

  size_t degree(VertexId v) const { return offsets[v + 1] - offsets[v]; }
  std::span<const VertexId> operator[](VertexId v) const {
    return {nbrs.data() + offsets[v], degree(v)};
  }
};

Adjacency BuildAdjacency(const GraphStructure& s) {
  Adjacency adj;
  adj.offsets.assign(s.num_vertices + 1, 0);
  for (const auto& [u, v] : s.edges) {
    ++adj.offsets[u + 1];
    ++adj.offsets[v + 1];
  }
  for (uint64_t v = 0; v < s.num_vertices; ++v) {
    adj.offsets[v + 1] += adj.offsets[v];
  }
  adj.nbrs.resize(adj.offsets.back());
  std::vector<uint64_t> next(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const auto& [u, v] : s.edges) {
    adj.nbrs[next[u]++] = v;
    adj.nbrs[next[v]++] = u;
  }
  return adj;
}

ColorId FirstFreeColor(std::vector<uint8_t>* used) {
  for (ColorId c = 0;; ++c) {
    if (c >= used->size()) used->resize(c + 1, 0);
    if (!(*used)[c]) return c;
  }
}

constexpr ColorId kUncolored = ~ColorId{0};

/// First-fit coloring visiting vertices in `order`: each takes the
/// smallest color none of its already-colored neighbours holds.
ColorAssignment FirstFitColoring(const Adjacency& adj,
                                 const std::vector<VertexId>& order) {
  ColorAssignment colors(order.size(), kUncolored);
  std::vector<uint8_t> used;
  std::vector<ColorId> touched;
  for (VertexId v : order) {
    touched.clear();
    for (VertexId n : adj[v]) {
      ColorId c = colors[n];
      if (c == kUncolored) continue;
      if (c >= used.size()) used.resize(c + 1, 0);
      if (!used[c]) {
        used[c] = 1;
        touched.push_back(c);
      }
    }
    colors[v] = FirstFreeColor(&used);
    for (ColorId c : touched) used[c] = 0;
  }
  return colors;
}

}  // namespace

ColorAssignment GreedyColoring(const GraphStructure& structure) {
  const Adjacency adj = BuildAdjacency(structure);
  std::vector<VertexId> order(structure.num_vertices);
  std::iota(order.begin(), order.end(), VertexId{0});
  ColorAssignment by_id = FirstFitColoring(adj, order);
  // Welsh-Powell: largest degree first, ties by id.
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return adj.degree(a) > adj.degree(b);
  });
  ColorAssignment by_degree = FirstFitColoring(adj, order);
  return NumColors(by_degree) < NumColors(by_id) ? std::move(by_degree)
                                                 : std::move(by_id);
}

ColorAssignment SecondOrderColoring(const GraphStructure& structure) {
  auto adj = BuildAdjacency(structure);
  ColorAssignment colors(structure.num_vertices, 0);
  std::vector<uint8_t> used;
  std::vector<ColorId> touched;
  auto mark = [&](VertexId n) {
    ColorId c = colors[n];
    if (c >= used.size()) used.resize(c + 1, 0);
    if (!used[c]) {
      used[c] = 1;
      touched.push_back(c);
    }
  };
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    touched.clear();
    for (VertexId n : adj[v]) {
      if (n < v) mark(n);
      for (VertexId nn : adj[n]) {
        if (nn < v && nn != v) mark(nn);
      }
    }
    colors[v] = FirstFreeColor(&used);
    for (ColorId c : touched) used[c] = 0;
  }
  return colors;
}

ColorAssignment ColoringFor(const GraphStructure& structure,
                            ConsistencyModel model) {
  switch (model) {
    case ConsistencyModel::kVertexConsistency:
      return ColorAssignment(structure.num_vertices, 0);
    case ConsistencyModel::kEdgeConsistency:
      return GreedyColoring(structure);
    case ConsistencyModel::kFullConsistency:
      return SecondOrderColoring(structure);
  }
  GL_LOG(FATAL) << "unreachable";
  return {};
}

ColorId NumColors(const ColorAssignment& colors) {
  ColorId max_color = 0;
  for (ColorId c : colors) max_color = std::max(max_color, c);
  return colors.empty() ? 0 : max_color + 1;
}

bool ValidateColoring(const GraphStructure& structure,
                      const ColorAssignment& colors) {
  if (colors.size() != structure.num_vertices) return false;
  for (const auto& [u, v] : structure.edges) {
    if (colors[u] == colors[v]) return false;
  }
  return true;
}

bool ValidateSecondOrderColoring(const GraphStructure& structure,
                                 const ColorAssignment& colors) {
  if (!ValidateColoring(structure, colors)) return false;
  auto adj = BuildAdjacency(structure);
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    for (VertexId n : adj[v]) {
      for (VertexId nn : adj[n]) {
        if (nn != v && colors[nn] == colors[v]) return false;
      }
    }
  }
  return true;
}

}  // namespace graphlab
