// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// DistributedGraph<V, E>: one machine's partition of the data
// graph plus ghost caches of remote boundary data (Sec. 4.1).
//
// Each machine owns the vertices of its assigned atoms, stores every edge
// incident to an owned vertex, and keeps ghost copies of remote endpoint
// vertices.  "The ghosts are used as caches for their true counterparts
// across the network.  Cache coherence is managed using a simple versioning
// system, eliminating the transmission of unchanged or constant data."
//
// Storage: vertex and edge properties are struct-of-arrays
// (graph/storage.h) — each logical field (gvid, color, owner, owned,
// version, flushed, user data) is a contiguous cache-line-aligned
// PropertyColumn parallel to the CSR built by Ingest(), so the GAS gather
// loop streams only the columns it reads, the dedicated owner column
// feeds mirror/scope compilation without striding over records, and ghost
// replicas occupy rows of the same columns (a coherence push writes
// straight into the data column).  The row-oriented accessors below are
// thin views into those columns.
//
// Coherence protocol: every write bumps the entity's version; after an
// update function commits, FlushVertexScope() pushes entities whose version
// exceeds their flushed version to the machines holding replicas, batched
// into one message per destination.  Receivers apply a push only when its
// version is newer.  Constant edge data (e.g. PageRank link weights) is
// therefore transmitted at most zero times after load, reproducing the
// paper's optimization.
//
// Ghost sync modes:
//  * kPerScope — each FlushVertexScope() sends immediately, one frame per
//    destination holding a replica of something that changed.  The
//    locking engine requires this: pushes must precede lock releases on
//    the same FIFO channel.
//  * kCoalesced — FlushVertexScope() stages dirty entities into per-peer
//    send buffers; repeated writes to the same entity within the flush
//    window merge (last write wins, at its final version), and
//    FlushDeltas() ships each peer's buffer as ONE framed delta batch.
//    Engines whose consumers only read ghosts after a communication
//    barrier (chromatic color-steps, bulk-sync supersteps) use this —
//    one frame per peer per window instead of one per scope commit.
//
// Wire format of a ghost delta batch (columnar; handler kDataPushHandler):
//
//   u8  format         kGhostFrameVersion (2)
//   u32 vertex_count
//       vertex_count x u32 gvid          (column)
//       vertex_count x u64 version       (column)
//       vertex_count x VertexData blobs  (concatenated, self-delimiting)
//   u32 edge_count
//       edge_count x u32 source gvid
//       edge_count x u32 target gvid
//       edge_count x u64 version
//       edge_count x EdgeData blobs
//
// Decoding is fully checked: a truncated or corrupt frame logs and drops
// the remainder instead of crashing (see util/serialization.h).
//
// Memory-sharing discipline: machines interact with each other's
// DistributedGraph instances only through CommLayer messages.

#ifndef GRAPHLAB_GRAPH_DISTRIBUTED_GRAPH_H_
#define GRAPHLAB_GRAPH_DISTRIBUTED_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graphlab/graph/atom.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/graph/storage.h"
#include "graphlab/graph/types.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/comm_layer.h"

namespace graphlab {

/// How FlushVertexScope() ships dirty ghost data (see file header).
enum class GhostSyncMode {
  kPerScope,   // send immediately on every scope flush
  kCoalesced,  // stage into per-peer buffers; FlushDeltas() ships windows
};

/// Leading byte of every ghost push frame; bump when the layout changes.
inline constexpr uint8_t kGhostFrameVersion = 2;

template <typename VertexData, typename EdgeData>
class DistributedGraph {
 public:
  using vertex_data_type = VertexData;
  using edge_data_type = EdgeData;

  /// Handler id used for ghost data pushes.
  static constexpr rpc::HandlerId kDataPushHandler = rpc::kFirstUserHandler;

  /// Default per-peer staging budget before a coalesced buffer
  /// auto-flushes mid-window (bounds memory, pipelines the wire).
  static constexpr size_t kDefaultGhostBatchBytes = 256 * 1024;

  DistributedGraph() = default;

  // --------------------------------------------------------------------
  // Ingress
  // --------------------------------------------------------------------

  /// Loads this machine's atoms from disk (journal playback) and registers
  /// the ghost-push handler.  `placement` maps atom -> machine.
  Status LoadAtoms(const AtomIndex& index,
                   const std::vector<rpc::MachineId>& placement,
                   rpc::MachineId me, rpc::CommLayer* comm) {
    GL_CHECK_EQ(placement.size(), index.num_atoms());
    std::vector<typename AtomContent<VertexData, EdgeData>::VertexCmd> vcmds;
    std::vector<typename AtomContent<VertexData, EdgeData>::EdgeCmd> ecmds;
    for (AtomId a = 0; a < index.num_atoms(); ++a) {
      if (placement[a] != me) continue;
      auto content = LoadAtom<VertexData, EdgeData>(index.atoms[a]);
      if (!content.ok()) return content.status();
      auto& c = *content;
      vcmds.insert(vcmds.end(), c.vertices.begin(), c.vertices.end());
      ecmds.insert(ecmds.end(), c.edges.begin(), c.edges.end());
    }
    return Ingest(index, placement, me, comm, std::move(vcmds),
                  std::move(ecmds));
  }

  /// Test/bench convenience: cuts a fully materialized graph directly into
  /// this machine's partition without touching disk.  `atom_of` may map
  /// vertices straight to machines (num_atoms == num_machines) or to atoms
  /// combined with a separate placement.
  Status InitFromGlobal(
      const LocalGraph<VertexData, EdgeData>& global,
      const PartitionAssignment& atom_of, const ColorAssignment& colors,
      const std::vector<rpc::MachineId>& placement, rpc::MachineId me,
      rpc::CommLayer* comm) {
    GL_CHECK(global.finalized());
    GL_CHECK_EQ(atom_of.size(), global.num_vertices());
    AtomIndex index;
    index.num_vertices = global.num_vertices();
    index.atom_of_vertex = atom_of;
    index.color_of_vertex = colors;
    ColorId max_color = 0;
    for (ColorId c : colors) max_color = std::max(max_color, c);
    index.num_colors = colors.empty() ? 1 : max_color + 1;

    std::vector<typename AtomContent<VertexData, EdgeData>::VertexCmd> vcmds;
    std::vector<typename AtomContent<VertexData, EdgeData>::EdgeCmd> ecmds;
    auto machine_of_vertex = [&](VertexId v) { return placement[atom_of[v]]; };

    std::vector<uint8_t> present(global.num_vertices(), 0);
    for (VertexId v = 0; v < global.num_vertices(); ++v) {
      if (machine_of_vertex(v) != me) continue;
      vcmds.push_back({v, atom_of[v], colors[v], /*ghost=*/false,
                       global.vertex_data(v)});
      present[v] = 1;
    }
    for (EdgeId e = 0; e < global.num_edges(); ++e) {
      VertexId u = global.source(e), v = global.target(e);
      bool mine_u = machine_of_vertex(u) == me;
      bool mine_v = machine_of_vertex(v) == me;
      if (!mine_u && !mine_v) continue;
      ecmds.push_back({u, v, global.edge_data(e)});
      for (VertexId g : {u, v}) {
        if (machine_of_vertex(g) != me && !present[g]) {
          present[g] = 1;
          vcmds.push_back({g, atom_of[g], colors[g], /*ghost=*/true,
                           global.vertex_data(g)});
        }
      }
    }
    return Ingest(index, placement, me, comm, std::move(vcmds),
                  std::move(ecmds));
  }

  // --------------------------------------------------------------------
  // Topology accessors
  // --------------------------------------------------------------------

  size_t num_local_vertices() const { return vstore_.size(); }
  size_t num_local_edges() const { return estore_.size(); }
  size_t num_owned_vertices() const { return owned_.size(); }
  uint64_t num_global_vertices() const { return num_global_vertices_; }
  ColorId num_colors() const { return num_colors_; }
  rpc::MachineId machine_id() const { return me_; }

  /// Local ids of vertices owned by this machine, ascending by global id.
  const std::vector<LocalVid>& owned_vertices() const { return owned_; }

  LocalVid Lvid(VertexId gvid) const {
    auto it = lvid_of_.find(gvid);
    GL_CHECK(it != lvid_of_.end()) << "vertex " << gvid << " not local";
    return it->second;
  }
  LocalVid TryLvid(VertexId gvid) const {
    auto it = lvid_of_.find(gvid);
    return it == lvid_of_.end() ? kInvalidLocalVid : it->second;
  }

  VertexId Gvid(LocalVid l) const { return vstore_.GvidOf(l); }
  ColorId color(LocalVid l) const { return vstore_.ColorOf(l); }
  bool is_owned(LocalVid l) const { return vstore_.OwnedOf(l); }
  rpc::MachineId owner(LocalVid l) const { return vstore_.OwnerOf(l); }

  /// Owner machine of any global vertex (resolved via the atom index data
  /// replicated to every machine).
  rpc::MachineId OwnerOfGlobal(VertexId gvid) const {
    GL_CHECK_LT(gvid, atom_of_vertex_.size());
    return placement_[atom_of_vertex_[gvid]];
  }

  std::span<const LocalEid> in_edges(LocalVid l) const {
    return {in_list_.data() + in_index_[l], in_index_[l + 1] - in_index_[l]};
  }
  std::span<const LocalEid> out_edges(LocalVid l) const {
    return {out_list_.data() + out_index_[l],
            out_index_[l + 1] - out_index_[l]};
  }
  std::span<const LocalVid> neighbors(LocalVid l) const {
    return {nbr_list_.data() + nbr_index_[l],
            nbr_index_[l + 1] - nbr_index_[l]};
  }
  LocalVid edge_source(LocalEid e) const { return estore_.SrcOf(e); }
  LocalVid edge_target(LocalEid e) const { return estore_.DstOf(e); }

  /// Machines participating in the scope of owned vertex l (this machine
  /// plus owners of all neighbors), ascending — the canonical machine order
  /// used by the pipelined lock chains.
  std::span<const rpc::MachineId> scope_machines(LocalVid l) const {
    return {scope_machines_list_.data() + scope_machines_index_[l],
            scope_machines_index_[l + 1] - scope_machines_index_[l]};
  }

  // --------------------------------------------------------------------
  // Data access + versioning
  // --------------------------------------------------------------------

  VertexData& vertex_data(LocalVid l) { return vstore_.Data(l); }
  const VertexData& vertex_data(LocalVid l) const { return vstore_.DataOf(l); }
  EdgeData& edge_data(LocalEid e) { return estore_.Data(e); }
  const EdgeData& edge_data(LocalEid e) const { return estore_.DataOf(e); }

  /// Records that an update wrote the vertex / edge; bumps its version so
  /// the next flush transmits it.
  void MarkVertexModified(LocalVid l) { vstore_.Version(l)++; }
  void MarkEdgeModified(LocalEid e) { estore_.Version(e)++; }

  uint64_t vertex_version(LocalVid l) const { return vstore_.VersionOf(l); }
  uint64_t edge_version(LocalEid e) const { return estore_.VersionOf(e); }

  // --------------------------------------------------------------------
  // Contiguous property columns.  The flat-gather fast path streams
  // these; the serving/snapshot layers scan them.  Spans stay
  // valid until the next Ingest().
  // --------------------------------------------------------------------
  std::span<const VertexData> vertex_data_span() const {
    return vstore_.data_span();
  }
  std::span<const EdgeData> edge_data_span() const {
    return estore_.data_span();
  }
  std::span<const LocalVid> edge_source_span() const {
    return estore_.src_span();
  }
  std::span<const LocalVid> edge_target_span() const {
    return estore_.dst_span();
  }
  /// The dedicated owner column (mirror/scope compilation reads this).
  std::span<const rpc::MachineId> owner_span() const {
    return vstore_.owner_span();
  }

  /// Dirty epochs of the data columns (see property_column.h): bumped when
  /// data is overwritten out-of-band — by a coherence push landing on this
  /// machine (ApplyDataPush) or a journal restore (BumpVertexDataEpoch is
  /// public for the snapshot layer).  Scope-locked engine writes are
  /// tracked by the per-entity version columns instead, keeping the update
  /// hot path free of shared atomics.
  uint64_t vertex_data_epoch() const { return vstore_.data_epoch(); }
  uint64_t edge_data_epoch() const { return estore_.data_epoch(); }
  void BumpVertexDataEpoch() { vstore_.BumpDataEpoch(); }
  void BumpEdgeDataEpoch() { estore_.BumpDataEpoch(); }

  /// Selects how ghost pushes travel (see file header).  Engines set this
  /// at Start(): chromatic/bulk-sync use kCoalesced windows, the locking
  /// engine requires kPerScope.  `max_batch_bytes` 0 means the default
  /// budget.  Not thread safe against in-flight flushes — switch only
  /// between runs; switching away from kCoalesced ships any staged
  /// deltas first.
  void SetGhostSyncMode(GhostSyncMode mode, size_t max_batch_bytes = 0) {
    if (ghost_sync_mode_ == GhostSyncMode::kCoalesced &&
        mode != GhostSyncMode::kCoalesced) {
      FlushDeltas();
    }
    ghost_sync_mode_ = mode;
    ghost_batch_bytes_ =
        max_batch_bytes == 0 ? kDefaultGhostBatchBytes : max_batch_bytes;
  }
  GhostSyncMode ghost_sync_mode() const { return ghost_sync_mode_; }

  /// Pushes the modified data of owned vertex l and its adjacent edges to
  /// every machine holding a replica.  Entities whose version has not
  /// advanced are skipped (the paper's versioned cache coherence), and
  /// destinations with nothing changed get no frame at all.  In
  /// kPerScope mode the frames leave immediately (one per destination);
  /// in kCoalesced mode the entities are staged into the per-peer send
  /// buffers and leave at the next FlushDeltas() window (or when a
  /// buffer overflows its byte budget).  Must be called while the caller
  /// still holds exclusive rights to the scope (before lock release /
  /// within the color step).
  void FlushVertexScope(LocalVid l) {
    GL_CHECK(is_owned(l));
    const bool coalesce = ghost_sync_mode_ == GhostSyncMode::kCoalesced;
    thread_local std::vector<std::pair<rpc::MachineId, DeltaFrame>> batches;
    thread_local std::string blob;
    if (!coalesce) batches.clear();
    auto frame_for = [&](rpc::MachineId m) -> DeltaFrame& {
      for (auto& [dst, frame] : batches) {
        if (dst == m) return frame;
      }
      batches.emplace_back(m, DeltaFrame());
      return batches.back().second;
    };

    if (vstore_.VersionOf(l) > vstore_.FlushedOf(l)) {
      auto mirrors = MirrorSpan(l);
      if (!mirrors.empty()) {
        SerializeBlob(vstore_.DataOf(l), &blob);
        const VertexId gvid = vstore_.GvidOf(l);
        const uint64_t version = vstore_.VersionOf(l);
        for (rpc::MachineId m : mirrors) {
          if (coalesce) {
            StageVertex(m, gvid, version, blob);
          } else {
            frame_for(m).AddVertex(gvid, version, blob);
          }
        }
        pushes_sent_ += mirrors.size();
      }
      vstore_.Flushed(l) = vstore_.VersionOf(l);
    } else {
      pushes_skipped_++;
    }
    auto flush_edge = [&](LocalEid e) {
      if (estore_.VersionOf(e) <= estore_.FlushedOf(e)) return;
      rpc::MachineId other = EdgeMirror(e);
      if (other != me_) {
        SerializeBlob(estore_.DataOf(e), &blob);
        const uint64_t version = estore_.VersionOf(e);
        if (coalesce) {
          StageEdge(other, Gvid(estore_.SrcOf(e)), Gvid(estore_.DstOf(e)),
                    version, blob);
        } else {
          frame_for(other).AddEdge(Gvid(estore_.SrcOf(e)),
                                   Gvid(estore_.DstOf(e)), version, blob);
        }
        pushes_sent_++;
      }
      estore_.Flushed(e) = estore_.VersionOf(e);
    };
    for (LocalEid e : in_edges(l)) flush_edge(e);
    for (LocalEid e : out_edges(l)) flush_edge(e);

    if (!coalesce) {
      for (auto& [dst, frame] : batches) {
        if (!frame.empty()) {
          OutArchive oa;
          frame.Encode(&oa);
          if (delta_batches_metric_ != nullptr) delta_batches_metric_->Inc();
          comm_->Send(me_, dst, kDataPushHandler, std::move(oa));
          frame.Clear();
        }
      }
    }
  }

  /// Ships every staged coalesced delta, one framed batch per peer with
  /// anything pending.  Engines call this at window boundaries (end of a
  /// color-step / superstep, before the communication barrier).  No-op
  /// for peers with empty buffers and in kPerScope mode.
  void FlushDeltas() {
    GL_TRACE_SCOPE(trace::kRpc, "graph.flush_deltas");
    for (rpc::MachineId m = 0; m < stages_.size(); ++m) {
      PeerStage& st = *stages_[m];
      std::lock_guard<std::mutex> lock(st.mutex);
      FlushStageLocked(m, &st);
    }
  }

  /// Bulk variant used by the synchronous (MPI-style) baseline: stages
  /// every owned vertex whose version advanced since its last flush and
  /// ships one batched frame per destination machine for the whole pass
  /// (the MPI_Alltoall analogue).  Edges are not exchanged (synchronous
  /// kernels keep mutable state on vertices).
  void FlushAllOwnedBulk() { PushEntities(owned_, {}); }

  /// Pushes the given owned vertices and local edges to the machines
  /// holding replicas, as coalesced batches (one per peer), reading no
  /// other row.  Entities whose version has not advanced are skipped, so
  /// duplicates in the lists cost nothing.  Besides the bulk flush above,
  /// this is the snapshot layer's post-restore push: a replay writes a
  /// set of rows disjoint from the rows its peers' replays write, so
  /// pushing exactly that set never reads a row a concurrent peer push
  /// overwrites (FlushVertexScope would read every adjacent edge).
  void PushEntities(std::span<const LocalVid> vertices,
                    std::span<const LocalEid> edges) {
    std::string blob;
    for (LocalVid l : vertices) {
      if (vstore_.VersionOf(l) <= vstore_.FlushedOf(l)) {
        pushes_skipped_++;
        continue;
      }
      auto mirrors = MirrorSpan(l);
      if (!mirrors.empty()) {
        SerializeBlob(vstore_.DataOf(l), &blob);
        for (rpc::MachineId m : mirrors) {
          StageVertex(m, vstore_.GvidOf(l), vstore_.VersionOf(l), blob);
          pushes_sent_++;
        }
      }
      vstore_.Flushed(l) = vstore_.VersionOf(l);
    }
    for (LocalEid e : edges) {
      if (estore_.VersionOf(e) <= estore_.FlushedOf(e)) continue;
      const rpc::MachineId other = EdgeMirror(e);
      if (other != me_) {
        SerializeBlob(estore_.DataOf(e), &blob);
        StageEdge(other, Gvid(estore_.SrcOf(e)), Gvid(estore_.DstOf(e)),
                  estore_.VersionOf(e), blob);
        pushes_sent_++;
      }
      estore_.Flushed(e) = estore_.VersionOf(e);
    }
    FlushDeltas();
  }

  /// Versioning-ablation counters.
  uint64_t pushes_sent() const { return pushes_sent_; }
  uint64_t pushes_skipped() const { return pushes_skipped_; }

  /// Coalescing instrumentation: framed batches shipped, and staged
  /// writes that merged into an existing entry (re-writes within a flush
  /// window that per-scope mode would have transmitted separately).
  uint64_t delta_batches_sent() const {
    return delta_batches_metric_ == nullptr
               ? 0
               : delta_batches_metric_->Value() - delta_batches_base_;
  }
  uint64_t coalesced_merges() const {
    return coalesced_merges_metric_ == nullptr
               ? 0
               : coalesced_merges_metric_->Value() - coalesced_merges_base_;
  }

  /// Registers callbacks fired (from the comm dispatch thread) whenever a
  /// coherence push actually overwrites a local replica — the hook layers
  /// above use to invalidate derived per-vertex state (the GAS gather
  /// delta cache, see vertex_program/gas_compiler.h).  Replaces any
  /// previous listener; pass empty functions to clear.  Callbacks must be
  /// thread-safe against concurrently running update functions.
  void SetCoherenceListener(std::function<void(LocalVid)> on_vertex,
                            std::function<void(LocalEid)> on_edge) {
    on_remote_vertex_ = std::move(on_vertex);
    on_remote_edge_ = std::move(on_edge);
  }

  /// Applies one framed ghost delta batch (runs on the dispatch thread).
  /// Decoding is fully checked: a truncated or unknown-format frame is
  /// logged and dropped; entities already applied stay (idempotent under
  /// the version rule).  Writes land directly in the property columns; a
  /// frame that overwrote anything bumps the column dirty epochs.
  void ApplyDataPush(InArchive& ia) {
    uint8_t format = ia.ReadValue<uint8_t>();
    if (!ia.ok() || format != kGhostFrameVersion) {
      GL_LOG(ERROR) << "machine " << me_
                    << ": dropping ghost frame with format "
                    << static_cast<int>(format) << " (want "
                    << static_cast<int>(kGhostFrameVersion) << ")";
      return;
    }

    thread_local std::vector<VertexId> keys;
    thread_local std::vector<uint64_t> versions;
    bool vertex_applied = false;
    bool edge_applied = false;

    const uint32_t vcount = ia.ReadValue<uint32_t>();
    if (!ReadColumn(ia, vcount, &keys) ||
        !ReadColumn(ia, vcount, &versions)) {
      GL_LOG(ERROR) << "machine " << me_ << ": truncated ghost frame";
      return;
    }
    for (uint32_t i = 0; i < vcount; ++i) {
      VertexData data;
      ia >> data;
      if (!ia.ok()) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": truncated vertex blob in ghost frame";
        if (vertex_applied) vstore_.BumpDataEpoch();
        return;
      }
      // Corrupt-but-decodable keys (not local, or claiming an owned
      // vertex) are logged and skipped, not fatal: over TCP this input
      // is externally reachable.
      LocalVid l = TryLvid(keys[i]);
      if (l == kInvalidLocalVid || vstore_.OwnedOf(l)) {
        GL_LOG(ERROR) << "machine " << me_ << ": ghost push for "
                      << (l == kInvalidLocalVid ? "non-local" : "owned")
                      << " vertex " << keys[i] << "; dropping entity";
        continue;
      }
      if (versions[i] > vstore_.VersionOf(l)) {
        vstore_.Data(l) = std::move(data);
        vstore_.Version(l) = versions[i];
        vertex_applied = true;
        if (on_remote_vertex_) on_remote_vertex_(l);
      }
    }
    if (vertex_applied) vstore_.BumpDataEpoch();

    thread_local std::vector<VertexId> dst_keys;
    const uint32_t ecount = ia.ReadValue<uint32_t>();
    if (!ReadColumn(ia, ecount, &keys) ||
        !ReadColumn(ia, ecount, &dst_keys) ||
        !ReadColumn(ia, ecount, &versions)) {
      GL_LOG(ERROR) << "machine " << me_ << ": truncated ghost frame";
      return;
    }
    for (uint32_t i = 0; i < ecount; ++i) {
      EdgeData data;
      ia >> data;
      if (!ia.ok()) {
        GL_LOG(ERROR) << "machine " << me_
                      << ": truncated edge blob in ghost frame";
        if (edge_applied) estore_.BumpDataEpoch();
        return;
      }
      auto it = leid_of_.find(EdgeKey(keys[i], dst_keys[i]));
      if (it == leid_of_.end()) {
        GL_LOG(ERROR) << "machine " << me_ << ": ghost push for non-local "
                      << "edge " << keys[i] << "->" << dst_keys[i]
                      << "; dropping entity";
        continue;
      }
      LocalEid e = it->second;
      if (versions[i] > estore_.VersionOf(e)) {
        estore_.Data(e) = std::move(data);
        estore_.Version(e) = versions[i];
        // Keep flushed in sync so this machine does not re-push data it
        // merely received.
        estore_.Flushed(e) = versions[i];
        edge_applied = true;
        if (on_remote_edge_) on_remote_edge_(e);
      }
    }
    if (edge_applied) estore_.BumpDataEpoch();
  }

  /// Local edge id for a global (src, dst) pair; CHECKs presence.
  LocalEid LeidOf(VertexId gsrc, VertexId gdst) const {
    auto it = leid_of_.find(EdgeKey(gsrc, gdst));
    GL_CHECK(it != leid_of_.end())
        << "edge " << gsrc << "->" << gdst << " not local";
    return it->second;
  }
  /// Like LeidOf but returns kInvalidLocalEid when the edge is not held
  /// locally — snapshot journals span the whole cluster, and a restore
  /// onto different membership must skip foreign records.
  LocalEid TryLeid(VertexId gsrc, VertexId gdst) const {
    auto it = leid_of_.find(EdgeKey(gsrc, gdst));
    return it == leid_of_.end() ? kInvalidLocalEid : it->second;
  }

 private:
  static uint64_t EdgeKey(VertexId s, VertexId d) {
    return (static_cast<uint64_t>(s) << 32) | d;
  }

  // --------------------------------------------------------------------
  // Ghost delta frames (see the wire-format comment in the file header)
  // --------------------------------------------------------------------

  /// Column-oriented frame contents: entity keys and versions in flat
  /// columns, pre-serialized data blobs appended in entity order.
  struct DeltaFrame {
    std::vector<VertexId> vgvid;
    std::vector<uint64_t> vversion;
    std::vector<std::string> vblob;
    std::vector<VertexId> esrc, edst;
    std::vector<uint64_t> eversion;
    std::vector<std::string> eblob;

    bool empty() const { return vgvid.empty() && esrc.empty(); }
    size_t ApproxBytes() const {
      size_t b = vgvid.size() * 12 + esrc.size() * 16;
      for (const auto& s : vblob) b += s.size();
      for (const auto& s : eblob) b += s.size();
      return b;
    }
    void Clear() {
      vgvid.clear();
      vversion.clear();
      vblob.clear();
      esrc.clear();
      edst.clear();
      eversion.clear();
      eblob.clear();
    }
    void AddVertex(VertexId gvid, uint64_t version, const std::string& blob) {
      vgvid.push_back(gvid);
      vversion.push_back(version);
      vblob.push_back(blob);
    }
    void AddEdge(VertexId src, VertexId dst, uint64_t version,
                 const std::string& blob) {
      esrc.push_back(src);
      edst.push_back(dst);
      eversion.push_back(version);
      eblob.push_back(blob);
    }
    void Encode(OutArchive* oa) const {
      *oa << kGhostFrameVersion;
      *oa << static_cast<uint32_t>(vgvid.size());
      for (VertexId v : vgvid) *oa << v;
      for (uint64_t v : vversion) *oa << v;
      for (const auto& b : vblob) oa->WriteBytes(b.data(), b.size());
      *oa << static_cast<uint32_t>(esrc.size());
      for (VertexId v : esrc) *oa << v;
      for (VertexId v : edst) *oa << v;
      for (uint64_t v : eversion) *oa << v;
      for (const auto& b : eblob) oa->WriteBytes(b.data(), b.size());
    }
  };

  /// Per-peer coalescing buffer: a DeltaFrame plus slot maps so repeated
  /// writes to the same entity within a window replace in place.
  struct PeerStage {
    std::mutex mutex;
    DeltaFrame frame;
    std::unordered_map<VertexId, size_t> vslot;
    std::unordered_map<uint64_t, size_t> eslot;
    size_t approx_bytes = 0;
  };

  template <typename T>
  static bool ReadColumn(InArchive& ia, uint32_t count,
                         std::vector<T>* out) {
    // Validate the wire-controlled count against the bytes left BEFORE
    // allocating (a corrupt count of 2^32-1 must not resize gigabytes).
    if (count > ia.remaining() / sizeof(T)) {
      out->clear();
      return false;
    }
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) ia >> (*out)[i];
    return ia.ok();
  }

  template <typename T>
  static void SerializeBlob(const T& value, std::string* out) {
    thread_local OutArchive scratch;
    scratch.Clear();
    scratch << value;
    out->assign(scratch.buffer().data(), scratch.size());
  }

  void StageVertex(rpc::MachineId dst, VertexId gvid, uint64_t version,
                   const std::string& blob) {
    PeerStage& st = *stages_[dst];
    std::lock_guard<std::mutex> lock(st.mutex);
    auto [it, inserted] = st.vslot.try_emplace(gvid, st.frame.vgvid.size());
    if (inserted) {
      st.frame.AddVertex(gvid, version, blob);
      st.approx_bytes += 12 + blob.size();
    } else {
      DeltaFrame& f = st.frame;
      st.approx_bytes += blob.size() - f.vblob[it->second].size();
      f.vversion[it->second] = version;
      f.vblob[it->second] = blob;
      if (coalesced_merges_metric_ != nullptr) coalesced_merges_metric_->Inc();
    }
    if (st.approx_bytes >= ghost_batch_bytes_) FlushStageLocked(dst, &st);
  }

  void StageEdge(rpc::MachineId dst, VertexId gsrc, VertexId gdst,
                 uint64_t version, const std::string& blob) {
    PeerStage& st = *stages_[dst];
    std::lock_guard<std::mutex> lock(st.mutex);
    auto [it, inserted] =
        st.eslot.try_emplace(EdgeKey(gsrc, gdst), st.frame.esrc.size());
    if (inserted) {
      st.frame.AddEdge(gsrc, gdst, version, blob);
      st.approx_bytes += 16 + blob.size();
    } else {
      DeltaFrame& f = st.frame;
      st.approx_bytes += blob.size() - f.eblob[it->second].size();
      f.eversion[it->second] = version;
      f.eblob[it->second] = blob;
      if (coalesced_merges_metric_ != nullptr) coalesced_merges_metric_->Inc();
    }
    if (st.approx_bytes >= ghost_batch_bytes_) FlushStageLocked(dst, &st);
  }

  /// Encodes and ships one peer's staged frame.  Caller holds st->mutex.
  void FlushStageLocked(rpc::MachineId dst, PeerStage* st) {
    if (st->frame.empty()) return;
    OutArchive oa;
    st->frame.Encode(&oa);
    st->frame.Clear();
    st->vslot.clear();
    st->eslot.clear();
    st->approx_bytes = 0;
    if (delta_batches_metric_ != nullptr) delta_batches_metric_->Inc();
    comm_->Send(me_, dst, kDataPushHandler, std::move(oa));
  }

  /// Machines holding a ghost of owned vertex l.
  std::span<const rpc::MachineId> MirrorSpan(LocalVid l) const {
    return {mirror_list_.data() + mirror_index_[l],
            mirror_index_[l + 1] - mirror_index_[l]};
  }

  /// The other machine holding edge e (or me_ if fully local).
  rpc::MachineId EdgeMirror(LocalEid e) const {
    rpc::MachineId os = vstore_.OwnerOf(estore_.SrcOf(e));
    rpc::MachineId od = vstore_.OwnerOf(estore_.DstOf(e));
    if (os != me_) return os;
    if (od != me_) return od;
    return me_;
  }

  Status Ingest(
      const AtomIndex& index, const std::vector<rpc::MachineId>& placement,
      rpc::MachineId me, rpc::CommLayer* comm,
      std::vector<typename AtomContent<VertexData, EdgeData>::VertexCmd>
          vcmds,
      std::vector<typename AtomContent<VertexData, EdgeData>::EdgeCmd>
          ecmds) {
    me_ = me;
    comm_ = comm;
    num_global_vertices_ = index.num_vertices;
    num_colors_ = index.num_colors;
    atom_of_vertex_ = index.atom_of_vertex;
    placement_ = placement;

    // Deduplicate vertices: owned records win over ghost records.
    std::sort(vcmds.begin(), vcmds.end(), [](const auto& a, const auto& b) {
      if (a.gvid != b.gvid) return a.gvid < b.gvid;
      return a.ghost < b.ghost;  // owned (ghost=false) first
    });
    vstore_.clear();
    vstore_.reserve(vcmds.size());
    lvid_of_.clear();
    owned_.clear();
    for (const auto& vc : vcmds) {
      const size_t count = vstore_.size();
      if (count > 0 &&
          vstore_.GvidOf(static_cast<LocalVid>(count - 1)) == vc.gvid) {
        continue;
      }
      const rpc::MachineId owner = placement_[atom_of_vertex_[vc.gvid]];
      const bool owned = (owner == me_);
      if (vc.ghost && owned) {
        return Status::Corruption("ghost record for locally owned vertex");
      }
      lvid_of_[vc.gvid] = static_cast<LocalVid>(count);
      if (owned) owned_.push_back(static_cast<LocalVid>(count));
      vstore_.Append(vc.gvid, vc.color, owner, owned, vc.data);
    }

    // Deduplicate edges (cross-atom edges journaled twice).
    estore_.clear();
    estore_.reserve(ecmds.size());
    leid_of_.clear();
    leid_of_.reserve(ecmds.size());
    for (const auto& ec : ecmds) {
      uint64_t key = EdgeKey(ec.src, ec.dst);
      if (leid_of_.count(key)) continue;
      auto its = lvid_of_.find(ec.src);
      auto itd = lvid_of_.find(ec.dst);
      if (its == lvid_of_.end() || itd == lvid_of_.end()) {
        return Status::Corruption("edge references vertex missing locally");
      }
      leid_of_[key] = static_cast<LocalEid>(estore_.size());
      estore_.Append(its->second, itd->second, ec.data);
    }

    BuildAdjacency();
    BuildMirrors();
    stages_.clear();
    for (size_t m = 0; m < comm_->num_machines(); ++m) {
      stages_.push_back(std::make_unique<PeerStage>());
    }
    // Bind the coalescing counters to this machine's registry.  The
    // registry outlives and is shared across graph instances on the same
    // machine, so the per-instance accessors below subtract the value at
    // bind time.
    metrics::MetricsRegistry& reg = comm_->registry(me_);
    delta_batches_metric_ = reg.counter("graph.delta_batches_sent");
    coalesced_merges_metric_ = reg.counter("graph.coalesced_merges");
    delta_batches_base_ = delta_batches_metric_->Value();
    coalesced_merges_base_ = coalesced_merges_metric_->Value();
    RegisterHandler();
    return Status::OK();
  }

  void BuildAdjacency() {
    const size_t n = vstore_.size();
    const size_t m = estore_.size();
    auto build = [&](auto key_fn, std::vector<uint64_t>* idx,
                     std::vector<LocalEid>* list) {
      idx->assign(n + 1, 0);
      for (LocalEid e = 0; e < m; ++e) (*idx)[key_fn(e) + 1]++;
      for (size_t i = 0; i < n; ++i) (*idx)[i + 1] += (*idx)[i];
      list->resize(m);
      std::vector<uint64_t> cursor(idx->begin(), idx->end() - 1);
      for (LocalEid e = 0; e < m; ++e) {
        (*list)[cursor[key_fn(e)]++] = e;
      }
    };
    build([this](LocalEid e) { return estore_.DstOf(e); }, &in_index_,
          &in_list_);
    build([this](LocalEid e) { return estore_.SrcOf(e); }, &out_index_,
          &out_list_);

    // Distinct-neighbor CSR.
    nbr_index_.assign(n + 1, 0);
    nbr_list_.clear();
    std::vector<LocalVid> scratch;
    for (LocalVid l = 0; l < n; ++l) {
      scratch.clear();
      for (LocalEid e : in_edges(l)) scratch.push_back(estore_.SrcOf(e));
      for (LocalEid e : out_edges(l)) scratch.push_back(estore_.DstOf(e));
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      nbr_list_.insert(nbr_list_.end(), scratch.begin(), scratch.end());
      nbr_index_[l + 1] = nbr_list_.size();
    }
  }

  void BuildMirrors() {
    const size_t n = vstore_.size();
    mirror_index_.assign(n + 1, 0);
    mirror_list_.clear();
    scope_machines_index_.assign(n + 1, 0);
    scope_machines_list_.clear();
    std::vector<rpc::MachineId> scratch;
    // Neighbor owners come from the dedicated owner column — a contiguous
    // u32 scan per neighbor list instead of striding over full vertex
    // records.
    for (LocalVid l = 0; l < n; ++l) {
      scratch.clear();
      for (LocalVid nb : neighbors(l)) scratch.push_back(vstore_.OwnerOf(nb));
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      // Mirrors: remote machines owning neighbors (only meaningful for
      // owned vertices but computed for all).
      for (rpc::MachineId m : scratch) {
        if (m != me_) mirror_list_.push_back(m);
      }
      mirror_index_[l + 1] = mirror_list_.size();
      // Scope machines: mirrors plus this machine, ascending.
      bool inserted_me = false;
      for (rpc::MachineId m : scratch) {
        if (!inserted_me && me_ < m) {
          scope_machines_list_.push_back(me_);
          inserted_me = true;
        }
        scope_machines_list_.push_back(m);
        if (m == me_) inserted_me = true;
      }
      if (!inserted_me) scope_machines_list_.push_back(me_);
      scope_machines_index_[l + 1] = scope_machines_list_.size();
    }
  }

  void RegisterHandler() {
    comm_->RegisterHandler(me_, kDataPushHandler,
                           [this](rpc::MachineId, InArchive& ia) {
                             ApplyDataPush(ia);
                           });
  }

  rpc::MachineId me_ = 0;
  rpc::CommLayer* comm_ = nullptr;
  uint64_t num_global_vertices_ = 0;
  ColorId num_colors_ = 1;
  PartitionAssignment atom_of_vertex_;
  std::vector<rpc::MachineId> placement_;

  storage::DistVertexSoA<VertexData> vstore_;
  storage::DistEdgeSoA<EdgeData> estore_;
  std::unordered_map<VertexId, LocalVid> lvid_of_;
  std::unordered_map<uint64_t, LocalEid> leid_of_;
  std::vector<LocalVid> owned_;

  std::vector<uint64_t> in_index_, out_index_, nbr_index_;
  std::vector<LocalEid> in_list_, out_list_;
  std::vector<LocalVid> nbr_list_;
  std::vector<uint64_t> mirror_index_, scope_machines_index_;
  std::vector<rpc::MachineId> mirror_list_, scope_machines_list_;

  std::atomic<uint64_t> pushes_sent_{0};
  std::atomic<uint64_t> pushes_skipped_{0};

  GhostSyncMode ghost_sync_mode_ = GhostSyncMode::kPerScope;
  size_t ghost_batch_bytes_ = kDefaultGhostBatchBytes;
  std::vector<std::unique_ptr<PeerStage>> stages_;
  // Registry-backed coalescing counters (null until Ingest binds them);
  // the bases let accessors report per-instance counts off the shared
  // per-machine registry.
  metrics::Counter* delta_batches_metric_ = nullptr;
  metrics::Counter* coalesced_merges_metric_ = nullptr;
  uint64_t delta_batches_base_ = 0;
  uint64_t coalesced_merges_base_ = 0;

  // Coherence listener (set before Start(); fired from the dispatch
  // thread while it holds no graph locks).
  std::function<void(LocalVid)> on_remote_vertex_;
  std::function<void(LocalEid)> on_remote_edge_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_DISTRIBUTED_GRAPH_H_
