// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The atom graph: two-phase partitioned on-disk representation (Sec. 4.1).
//
// Phase 1 over-partitions the data graph into k atoms (k >> #machines).
// Each atom is "a simple binary compressed journal of graph generating
// commands such as AddVertex and AddEdge" plus ghost records for the
// vertices adjacent to the partition boundary.  An atom index file stores
// the meta-graph: k atom vertices with edges weighted by cross-atom edge
// counts, plus file locations.
//
// Phase 2 (loading) performs a fast balanced partition of the meta-graph
// over the physical machines (PlaceAtoms) and each machine plays back the
// journals of its atoms — reusing the same phase-1 cut for any cluster
// size without repartitioning.

#ifndef GRAPHLAB_GRAPH_ATOM_H_
#define GRAPHLAB_GRAPH_ATOM_H_

#include <map>
#include <string>
#include <vector>

#include "graphlab/graph/local_graph.h"
#include "graphlab/graph/types.h"
#include "graphlab/rpc/message.h"
#include "graphlab/util/file_io.h"
#include "graphlab/util/serialization.h"
#include "graphlab/util/status.h"

namespace graphlab {

/// Journal command tags inside an atom file.
enum class AtomCommand : uint8_t {
  kAddVertex = 1,  // owned vertex: gvid, color, data
  kAddGhost = 2,   // boundary vertex owned elsewhere: gvid, atom, color, data
  kAddEdge = 3,    // gsrc, gdst, data
};

/// Per-atom entry in the atom index.
struct AtomInfo {
  AtomId id = 0;
  std::string file;
  uint64_t num_owned_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_ghosts = 0;
  /// Meta-graph adjacency: neighbor atom -> cross edge count.
  std::vector<std::pair<AtomId, uint64_t>> neighbors;

  void Save(OutArchive* oa) const {
    *oa << id << file << num_owned_vertices << num_edges << num_ghosts
        << neighbors;
  }
  void Load(InArchive* ia) {
    *ia >> id >> file >> num_owned_vertices >> num_edges >> num_ghosts >>
        neighbors;
  }
};

/// The atom index: meta-graph over all atoms of one dataset.
struct AtomIndex {
  uint64_t num_vertices = 0;
  ColorId num_colors = 1;
  std::vector<AtomInfo> atoms;
  /// Global vertex -> atom map (the paper stores this implicitly in the
  /// journals; we also place it in the index so any machine can resolve
  /// ownership without loading foreign atoms).
  PartitionAssignment atom_of_vertex;
  /// Global vertex -> color map.
  ColorAssignment color_of_vertex;

  size_t num_atoms() const { return atoms.size(); }

  void Save(OutArchive* oa) const {
    *oa << num_vertices << num_colors << atoms << atom_of_vertex
        << color_of_vertex;
  }
  void Load(InArchive* ia) {
    *ia >> num_vertices >> num_colors >> atoms >> atom_of_vertex >>
        color_of_vertex;
  }

  Status WriteToFile(const std::string& path) const;
  static Expected<AtomIndex> ReadFromFile(const std::string& path);
};

/// Phase-2 placement: balanced assignment of atoms to machines using the
/// meta-graph.  Greedy: repeatedly give the least-loaded machine the
/// unplaced atom with the most connectivity to atoms it already holds
/// (falling back to the largest unplaced atom).
std::vector<rpc::MachineId> PlaceAtoms(const AtomIndex& index,
                                       size_t num_machines);

/// Placement over an explicit machine set — the fault-tolerance path
/// (Sec. 4.3): after a machine loss, the SAME phase-1 atom cut is
/// re-placed over the surviving machines, so the dead machine's atoms
/// spread across the cluster without repartitioning the data graph.
/// `machines` must be non-empty, ascending, and duplicate-free.
std::vector<rpc::MachineId> PlaceAtomsOnMachines(
    const AtomIndex& index, const std::vector<rpc::MachineId>& machines);

/// Builds an in-memory atom index (meta-graph only, no journal files) for
/// a fully materialized graph under `atom_of` — what placement and
/// recovery need when the demo/test path ingests via InitFromGlobal
/// instead of on-disk atoms.
AtomIndex BuildMetaIndex(const GraphStructure& structure,
                         const PartitionAssignment& atom_of,
                         const ColorAssignment& colors, AtomId num_atoms);

/// In-memory parsed form of one atom journal, produced by playback.
template <typename VertexData, typename EdgeData>
struct AtomContent {
  struct VertexCmd {
    VertexId gvid;
    AtomId atom;
    ColorId color;
    bool ghost;
    VertexData data;
  };
  struct EdgeCmd {
    VertexId src, dst;
    EdgeData data;
  };
  std::vector<VertexCmd> vertices;
  std::vector<EdgeCmd> edges;
};

/// Cuts `graph` into `num_atoms` atoms under `atom_of` and writes the atom
/// files plus the index to `dir`.  Edges crossing atoms are journaled into
/// both endpoint atoms (deduplicated at load).
template <typename VertexData, typename EdgeData>
Status WriteAtoms(const LocalGraph<VertexData, EdgeData>& graph,
                  const PartitionAssignment& atom_of,
                  const ColorAssignment& colors, AtomId num_atoms,
                  const std::string& dir, AtomIndex* index_out) {
  GL_CHECK(graph.finalized());
  GL_CHECK_EQ(atom_of.size(), graph.num_vertices());
  GL_CHECK_EQ(colors.size(), graph.num_vertices());
  GRAPHLAB_RETURN_IF_ERROR(EnsureDirectory(dir));

  AtomIndex index;
  index.num_vertices = graph.num_vertices();
  index.atom_of_vertex = atom_of;
  index.color_of_vertex = colors;
  ColorId max_color = 0;
  for (ColorId c : colors) max_color = std::max(max_color, c);
  index.num_colors = graph.num_vertices() == 0 ? 1 : max_color + 1;

  std::vector<OutArchive> journals(num_atoms);
  std::vector<AtomInfo> infos(num_atoms);
  std::vector<std::map<AtomId, uint64_t>> meta_adj(num_atoms);

  // Owned vertices.
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    AtomId a = atom_of[v];
    GL_CHECK_LT(a, num_atoms);
    journals[a] << AtomCommand::kAddVertex << v << colors[v]
                << graph.vertex_data(v);
    infos[a].num_owned_vertices++;
  }

  // Ghost records: for every cross-atom edge (u,v), u is a ghost in v's
  // atom and vice versa.  Track which ghosts were already journaled.
  std::vector<std::map<AtomId, bool>> ghost_written(graph.num_vertices());
  auto write_ghost = [&](VertexId ghost, AtomId into) {
    auto& seen = ghost_written[ghost];
    if (seen.count(into)) return;
    seen[into] = true;
    journals[into] << AtomCommand::kAddGhost << ghost << atom_of[ghost]
                   << colors[ghost] << graph.vertex_data(ghost);
    infos[into].num_ghosts++;
  };

  // Edges: journaled into both endpoint atoms (once if same atom).
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    VertexId u = graph.source(e), v = graph.target(e);
    AtomId au = atom_of[u], av = atom_of[v];
    journals[au] << AtomCommand::kAddEdge << u << v << graph.edge_data(e);
    infos[au].num_edges++;
    if (av != au) {
      journals[av] << AtomCommand::kAddEdge << u << v << graph.edge_data(e);
      infos[av].num_edges++;
      write_ghost(v, au);
      write_ghost(u, av);
      meta_adj[au][av]++;
      meta_adj[av][au]++;
    }
  }

  for (AtomId a = 0; a < num_atoms; ++a) {
    infos[a].id = a;
    infos[a].file = dir + "/atom_" + std::to_string(a) + ".glatom";
    infos[a].neighbors.assign(meta_adj[a].begin(), meta_adj[a].end());
    GRAPHLAB_RETURN_IF_ERROR(
        WriteFileBytes(infos[a].file, journals[a].buffer()));
  }
  index.atoms = std::move(infos);
  GRAPHLAB_RETURN_IF_ERROR(index.WriteToFile(dir + "/atom_index.glidx"));
  if (index_out != nullptr) *index_out = std::move(index);
  return Status::OK();
}

/// Plays back one atom journal file.
template <typename VertexData, typename EdgeData>
Expected<AtomContent<VertexData, EdgeData>> LoadAtom(const AtomInfo& info) {
  auto bytes = ReadFileBytes(info.file);
  if (!bytes.ok()) return bytes.status();
  AtomContent<VertexData, EdgeData> content;
  content.vertices.reserve(info.num_owned_vertices + info.num_ghosts);
  content.edges.reserve(info.num_edges);
  InArchive ia(*bytes);
  while (!ia.AtEnd()) {
    AtomCommand cmd = ia.ReadValue<AtomCommand>();
    switch (cmd) {
      case AtomCommand::kAddVertex: {
        typename AtomContent<VertexData, EdgeData>::VertexCmd vc;
        vc.ghost = false;
        vc.atom = info.id;
        ia >> vc.gvid >> vc.color >> vc.data;
        content.vertices.push_back(std::move(vc));
        break;
      }
      case AtomCommand::kAddGhost: {
        typename AtomContent<VertexData, EdgeData>::VertexCmd vc;
        vc.ghost = true;
        ia >> vc.gvid >> vc.atom >> vc.color >> vc.data;
        content.vertices.push_back(std::move(vc));
        break;
      }
      case AtomCommand::kAddEdge: {
        typename AtomContent<VertexData, EdgeData>::EdgeCmd ec;
        ia >> ec.src >> ec.dst >> ec.data;
        content.edges.push_back(std::move(ec));
        break;
      }
      default:
        return Status::Corruption("bad atom command in " + info.file);
    }
  }
  return content;
}

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_ATOM_H_
