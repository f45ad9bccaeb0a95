// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Fault tolerance via distributed snapshots (Sec. 4.3).
//
// Two strategies, as in the paper:
//
//  * Synchronous snapshot — the engines suspend update execution, flush all
//    communication channels, and every machine journals its owned vertex
//    and edge data to the DFS directory.  Exhibits the characteristic
//    "flatline" in the updates-vs-time curve (Fig. 4).
//
//  * Asynchronous snapshot — a variant of the Chandy-Lamport algorithm
//    expressed *as a GraphLab update function* (Alg. 5).  Vertices carry a
//    snapshot epoch inside their vertex data, so the marker state
//    propagates to ghosts through the ordinary versioned coherence push,
//    and the three correctness conditions are supplied by the locking
//    engine: edge consistency, schedule-before-unlock, and maximum
//    priority for snapshot updates.
//
// Requirements: for the async variant, VertexData must expose a public
// member `uint32_t snapshot_epoch` initialized to 0.
//
// The journal is a per-machine file snap_<epoch>_m<machine>.glsnap under
// the snapshot directory; Restore() plays the journal back into the owned
// partition (and re-pushes ghosts).  Both strategies write the same v3
// format through one encoder (EncodeFullJournal): the magic byte 0xC1, a
// version byte, a masked CRC32C of the body, the body length, then the
// columnar body (codec-compressed id columns + contiguous property blobs,
// mirroring the in-memory column layout).  The async variant stages its
// columns as the snapshot sweeps the graph and encodes them once at
// FinishAsync.  Anything that is not a well-formed v3 envelope with a
// matching checksum is Corruption, at verify time and at replay time.
//
// Durability (this layer implements the storage half of Sec. 4.3):
//
//  * Incremental (delta) checkpoints — WriteDeltaSnapshot journals only
//    the vertices/edges whose per-entity version changed since the last
//    checkpoint, onto a CRC-verified WAL (util/wal.h) as
//    delta_<epoch>_m<machine>.gldelta.  The manifest is a chain
//    {base_epoch, delta_epochs[]}; RestoreChain replays base + deltas in
//    order.  Checkpoint cost becomes O(dirty), not O(graph).
//
//  * Full journals and the one manifest file per committed epoch
//    (MANIFEST_<epoch>) commit through the atomic temp+fsync+rename path
//    in util/file_io.h.  Delta journals are WAL files made durable by
//    fdatasync; their directory entries become durable with the
//    directory fsync of machine 0's manifest commit, which follows every
//    member's DONE on the shared store.  Every durable byte is
//    CRC32C-protected, so the recovery ladder (fault/ft_runner.h) can
//    prove an epoch trustworthy before it replays it — or fall back to
//    an older epoch.
//
//  * A checkpoint is two steps: an encode step that reads the suspended
//    graph into an in-memory EncodedJournal (the dirty scan, the new
//    dirty baseline, DONE's dirty/total counts), and a persist step that
//    writes those bytes and touches no graph state, so the checkpoint
//    coordinator (fault/checkpoint.h) runs it on a writer thread while
//    the next sweep computes, one round in flight at a time.
//    WriteSyncSnapshot/WriteDeltaSnapshot are encode + persist,
//    blocking, for the callers that stop the world.

#ifndef GRAPHLAB_ENGINE_SNAPSHOT_H_
#define GRAPHLAB_ENGINE_SNAPSHOT_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <string>
#include <vector>

#include "graphlab/engine/context.h"
#include "graphlab/graph/column_codec.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/crc32c.h"
#include "graphlab/util/file_io.h"
#include "graphlab/util/wal.h"

namespace graphlab {

/// Young's first-order approximation to the optimal checkpoint interval
/// (Eq. 3): T_interval = sqrt(2 * T_checkpoint * T_MTBF).
inline double OptimalCheckpointIntervalSeconds(double t_checkpoint_sec,
                                               double t_mtbf_sec) {
  return std::sqrt(2.0 * t_checkpoint_sec * t_mtbf_sec);
}

/// The priority used for snapshot updates; larger than anything the
/// applications use so the scheduler runs markers first (Alg. 5 condition).
inline constexpr double kSnapshotPriority = 1e30;

/// First byte of every full journal.
inline constexpr uint8_t kColumnarJournalMagic = 0xC1;

/// Second byte of every full journal: the format version.
inline constexpr uint8_t kJournalVersion = 3;

/// Bytes in front of a full journal's body: magic, version, CRC, length.
inline constexpr size_t kJournalHeaderBytes = 14;

/// Parses `bytes` as a v3 CRC envelope:
///
///   [u8 0xC1] [u8 3] [u32 masked_crc] [u64 body_len] [body_len bytes]
///
/// with nothing trailing.  Returns true and fills `stored_crc`/`body` on
/// a structural match; false means the file is not a full journal (empty,
/// wrong magic or version, or truncated).  The verify and replay paths
/// share this parse, so they never disagree about a file.
inline bool ParseV3Envelope(const std::vector<char>& bytes,
                            uint32_t* stored_crc, std::vector<char>* body) {
  if (bytes.size() < 2 ||
      static_cast<uint8_t>(bytes[0]) != kColumnarJournalMagic ||
      static_cast<uint8_t>(bytes[1]) != kJournalVersion) {
    return false;
  }
  InArchive ia(bytes);
  ia.ReadValue<uint8_t>();  // magic
  ia.ReadValue<uint8_t>();  // version
  *stored_crc = ia.ReadValue<uint32_t>();
  ia >> *body;
  return ia.ok() && ia.AtEnd();
}

/// Extracts the body of a full-snapshot journal: the file must be a
/// well-formed v3 envelope whose CRC matches its body.  The replay
/// decodes nothing that has not passed this check.
inline Status ParseFullJournal(const std::vector<char>& bytes,
                               const std::string& what,
                               std::vector<char>* body) {
  uint32_t stored = 0;
  if (!ParseV3Envelope(bytes, &stored, body)) {
    return Status::Corruption("not a well-formed v3 journal: " + what);
  }
  if (crc32c::Unmask(stored) != crc32c::Value(body->data(), body->size())) {
    return Status::Corruption("journal checksum mismatch: " + what);
  }
  return Status::OK();
}

/// Integrity check of a full-snapshot journal without decoding property
/// types.  The recovery ladder calls this on every journal of a manifest
/// chain before trusting the epoch.
inline Status VerifyFullJournalBytes(const std::vector<char>& bytes,
                                     const std::string& what) {
  std::vector<char> body;
  return ParseFullJournal(bytes, what, &body);
}

/// The columns of a full journal's body, staged by either snapshot
/// strategy: owned-vertex gvids with their serialized VertexData (in
/// column order), then edge endpoint gvids with their serialized
/// EdgeData.
struct FullJournalColumns {
  std::vector<VertexId> gvids;
  OutArchive vertex_blobs;
  std::vector<VertexId> esrc, edst;
  OutArchive edge_blobs;
};

/// Encodes the one full-journal format:
///
///   [u8 0xC1] [u8 3] [u32 masked_crc(body)] [u64 body_len] [body]
///
///   body = [string gvid_col] [VertexData x n]
///          [string esrc_col] [string edst_col] [EdgeData x m]
///
/// The id columns are codec-compressed (column_codec.h — sorted-ish id
/// runs delta-varint down to ~1 byte each); the property blobs stream
/// contiguously per column.  The body is appended in place behind a
/// placeholder header that is filled in once its CRC is known.
inline std::vector<char> EncodeFullJournal(const FullJournalColumns& c) {
  const char placeholder[kJournalHeaderBytes] = {};
  OutArchive journal;
  journal.WriteBytes(placeholder, kJournalHeaderBytes);
  std::string col;
  EncodeColumn<VertexId>({c.gvids.data(), c.gvids.size()}, &col);
  journal << col;
  journal.WriteBytes(c.vertex_blobs.buffer().data(), c.vertex_blobs.size());
  col.clear();
  EncodeColumn<VertexId>({c.esrc.data(), c.esrc.size()}, &col);
  journal << col;
  col.clear();
  EncodeColumn<VertexId>({c.edst.data(), c.edst.size()}, &col);
  journal << col;
  journal.WriteBytes(c.edge_blobs.buffer().data(), c.edge_blobs.size());

  std::vector<char> bytes = journal.TakeBuffer();
  const char* body = bytes.data() + kJournalHeaderBytes;
  const uint64_t body_len = bytes.size() - kJournalHeaderBytes;
  OutArchive header;
  header << kColumnarJournalMagic << kJournalVersion
         << crc32c::Mask(crc32c::Value(body, body_len)) << body_len;
  std::copy(header.buffer().begin(), header.buffer().end(), bytes.begin());
  return bytes;
}

/// Integrity check of a delta journal (WAL format): reads every record
/// and fails if the reader reports any corruption — a delta must verify
/// end-to-end to be replayed, since a truncated delta silently loses
/// committed mutations.
inline Status VerifyDeltaJournalBytes(const std::vector<char>& bytes,
                                      const std::string& what) {
  wal::WalReader reader(bytes);
  std::string record;
  while (reader.ReadRecord(&record)) {
  }
  if (!reader.corruptions().empty()) {
    const auto& c = reader.corruptions().front();
    return Status::Corruption("delta journal " + what + " corrupt at offset " +
                              std::to_string(c.offset) + ": " + c.reason);
  }
  return Status::OK();
}

/// Commit record of a globally complete snapshot, stored as
/// `<dir>/MANIFEST_<epoch>` on the (shared) snapshot filesystem — one
/// file per committed epoch; the newest one that decodes is the commit
/// point.  Written by the checkpoint coordinator only after every
/// machine's journal for `epoch` is durable, so recovery never reads a
/// half-written epoch; `machines`
/// records who journaled (the membership at snapshot time), which is the
/// set of journal files a restore onto ANY later membership must replay.
///
/// With incremental checkpoints the manifest describes a *chain*: a full
/// snapshot `base_epoch` plus `delta_epochs` (ascending) of O(dirty)
/// delta journals replayed on top.  `epoch` is the newest committed
/// epoch in the chain (== base_epoch when delta_epochs is empty).  A
/// verified prefix of a chain is itself a consistent earlier state —
/// the property the recovery ladder leans on when a trailing delta is
/// corrupt; the older manifests let it step back past a corrupt base.
struct SnapshotManifest {
  uint32_t epoch = 0;
  std::vector<rpc::MachineId> machines;
  uint32_t base_epoch = 0;
  std::vector<uint32_t> delta_epochs;
};

inline std::string ManifestPathFor(const std::string& dir, uint32_t epoch) {
  return dir + "/MANIFEST_" + std::to_string(epoch);
}

/// Journal path helpers, free-standing so non-template code (the
/// recovery ladder) can locate files without the property types.
inline std::string SnapshotJournalPath(const std::string& dir, uint32_t epoch,
                                       rpc::MachineId machine) {
  return dir + "/snap_" + std::to_string(epoch) + "_m" +
         std::to_string(machine) + ".glsnap";
}
inline std::string SnapshotDeltaPath(const std::string& dir, uint32_t epoch,
                                     rpc::MachineId machine) {
  return dir + "/delta_" + std::to_string(epoch) + "_m" +
         std::to_string(machine) + ".gldelta";
}

/// Serialized manifest: archive payload + 4-byte masked CRC32C trailer.
inline std::vector<char> EncodeSnapshotManifest(
    const SnapshotManifest& manifest) {
  OutArchive oa;
  oa << manifest.epoch << manifest.machines << manifest.base_epoch
     << manifest.delta_epochs;
  std::vector<char> bytes = oa.buffer();
  const uint32_t crc =
      crc32c::Mask(crc32c::Value(bytes.data(), bytes.size()));
  bytes.push_back(static_cast<char>(crc));
  bytes.push_back(static_cast<char>(crc >> 8));
  bytes.push_back(static_cast<char>(crc >> 16));
  bytes.push_back(static_cast<char>(crc >> 24));
  return bytes;
}

inline Expected<SnapshotManifest> DecodeSnapshotManifest(
    const std::vector<char>& bytes, const std::string& what) {
  if (bytes.size() < 4) {
    return Status::Corruption("manifest too short: " + what);
  }
  const size_t n = bytes.size() - 4;
  const uint8_t* t = reinterpret_cast<const uint8_t*>(bytes.data() + n);
  const uint32_t stored = static_cast<uint32_t>(t[0]) |
                          static_cast<uint32_t>(t[1]) << 8 |
                          static_cast<uint32_t>(t[2]) << 16 |
                          static_cast<uint32_t>(t[3]) << 24;
  if (crc32c::Unmask(stored) != crc32c::Value(bytes.data(), n)) {
    return Status::Corruption("manifest checksum mismatch: " + what);
  }
  SnapshotManifest manifest;
  InArchive ia(bytes.data(), n);
  ia >> manifest.epoch >> manifest.machines >> manifest.base_epoch >>
      manifest.delta_epochs;
  if (!ia.ok() || !ia.AtEnd()) {
    return Status::Corruption("bad snapshot manifest: " + what);
  }
  return manifest;
}

/// Commits `manifest` durably as MANIFEST_<epoch> through the atomic
/// temp+rename path (which also fsyncs the directory): a crash before
/// the rename leaves the previous — still fully consistent — epoch the
/// newest manifest.
inline Status WriteSnapshotManifest(const std::string& dir,
                                    const SnapshotManifest& manifest) {
  return WriteFileAtomic(ManifestPathFor(dir, manifest.epoch),
                         EncodeSnapshotManifest(manifest));
}

inline Expected<SnapshotManifest> ReadManifestFile(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return Status::NotFound("no manifest at " + path);
  return DecodeSnapshotManifest(*bytes, path);
}

/// The epoch a `MANIFEST_<epoch>` file name carries; 0 for any other
/// name, a commit's `.tmp` file included (epoch 0 is never committed).
inline uint32_t ManifestEpochOf(const std::string& filename) {
  constexpr size_t kPrefix = sizeof("MANIFEST_") - 1;
  if (filename.rfind("MANIFEST_", 0) != 0) return 0;
  char* end = nullptr;
  const unsigned long epoch =
      std::strtoul(filename.c_str() + kPrefix, &end, 10);
  return *end == '\0' ? static_cast<uint32_t>(epoch) : 0;
}

/// The newest committed manifest: the highest-numbered MANIFEST_<epoch>
/// that decodes.  NotFound when no snapshot has been committed yet.
inline Expected<SnapshotManifest> ReadSnapshotManifest(
    const std::string& dir) {
  std::vector<uint32_t> epochs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const uint32_t epoch = ManifestEpochOf(entry.path().filename().string());
    if (epoch != 0) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end(), std::greater<uint32_t>());
  for (uint32_t epoch : epochs) {
    if (auto m = ReadManifestFile(ManifestPathFor(dir, epoch)); m.ok()) {
      return m;
    }
  }
  return Status::NotFound("no snapshot manifest in " + dir);
}

/// One checkpoint journal encoded in memory from the suspended graph,
/// ready for SnapshotManager::Persist, which touches no graph state.
struct EncodedJournal {
  bool delta = false;
  std::string path;
  std::vector<char> bytes;                 // full: the whole v3 file
  std::vector<std::vector<char>> records;  // delta: WAL records, in order
  // Dirty/total entities the encode scan counted (see
  // SnapshotManager::last_dirty_entities()).
  uint64_t dirty_entities = 0;
  uint64_t total_entities = 0;
};

template <typename VertexData, typename EdgeData>
class SnapshotManager {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;
  using ContextType = Context<GraphType>;

  SnapshotManager(rpc::MachineContext ctx, GraphType* graph, std::string dir)
      : ctx_(ctx), graph_(graph), dir_(std::move(dir)) {
    GL_CHECK_OK(EnsureDirectory(dir_));
  }

  /// Models the DFS write bandwidth (bytes/sec; 0 = unthrottled).  The
  /// paper's checkpoints take minutes because gigabytes go to HDFS/S3;
  /// scaled-down journals would otherwise write in microseconds and the
  /// Fig. 4 flatline would be invisible.  Synchronous snapshots block the
  /// caller for journal_size / bandwidth; the asynchronous variant's
  /// journal IO overlaps computation (applied at FinishAsync, off the
  /// update path) exactly as the paper intends.
  void SetDfsBandwidth(double bytes_per_sec) {
    dfs_bandwidth_ = bytes_per_sec;
  }

  static std::string JournalPathFor(const std::string& dir, uint32_t epoch,
                                    rpc::MachineId machine) {
    return SnapshotJournalPath(dir, epoch, machine);
  }
  std::string JournalPath(uint32_t epoch) const {
    return JournalPathFor(dir_, epoch, ctx_.id);
  }
  static std::string DeltaPathFor(const std::string& dir, uint32_t epoch,
                                  rpc::MachineId machine) {
    return SnapshotDeltaPath(dir, epoch, machine);
  }
  std::string DeltaPath(uint32_t epoch) const {
    return DeltaPathFor(dir_, epoch, ctx_.id);
  }
  const std::string& dir() const { return dir_; }

  /// Bytes the most recent WriteSyncSnapshot/WriteDeltaSnapshot put on
  /// disk (the full-vs-delta bench rows; the checkpoint coordinator
  /// takes Persist's return value instead).
  uint64_t last_checkpoint_bytes() const { return last_checkpoint_bytes_; }

  /// True once a checkpoint has captured version baselines on this
  /// graph, i.e. WriteDeltaSnapshot knows what "dirty since last
  /// checkpoint" means.  False initially and after any restore (a
  /// restore rewrites columns wholesale, so the next checkpoint must be
  /// full).
  bool has_baseline() const { return has_baseline_; }

  /// Dirty/total entity counts measured by the most recent encode step
  /// while it scanned the owned partition anyway — no extra pass (also
  /// in its EncodedJournal).  The checkpoint coordinator ships these in
  /// its DONE message and aggregates them cluster-wide to drive the next
  /// full-vs-delta decision, so no machine's local skew (and no
  /// dedicated O(all entities) scan at decision time) misleads the
  /// policy.  total == 0 means "unknown": the scan had no baseline to
  /// compare against.
  uint64_t last_dirty_entities() const { return last_dirty_entities_; }
  uint64_t last_total_entities() const { return last_total_entities_; }

  /// Fraction of journaled entities (owned vertices + their out-edges)
  /// whose version changed since the baseline; 1.0 with no baseline.
  /// O(all owned entities) — a diagnostic for tests, benches, and demos;
  /// the checkpoint coordinator's policy uses the cluster-aggregated
  /// last_dirty_entities() counts instead, which cost nothing extra.
  double DirtyFraction() const {
    if (!has_baseline_) return 1.0;
    size_t total = 0, dirty = 0;
    for (LocalVid l : graph_->owned_vertices()) {
      ++total;
      if (VertexDirty(l)) ++dirty;
      for (LocalEid e : graph_->out_edges(l)) {
        ++total;
        if (EdgeDirty(e)) ++dirty;
      }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(dirty) / static_cast<double>(total);
  }

  // --------------------------------------------------------------------
  // Synchronous snapshot
  // --------------------------------------------------------------------

  /// Journals all owned vertex and edge data in the full-journal format
  /// (EncodeFullJournal) and commits it via the atomic temp+rename path:
  /// EncodeFullSnapshot + Persist, blocking.  The caller (engine) must
  /// have suspended updates and flushed channels cluster-wide.
  Status WriteSyncSnapshot(uint32_t epoch) {
    return PersistNow(EncodeFullSnapshot(epoch));
  }

  /// Encode step of a full snapshot: the owned partition as one v3
  /// journal image, with a fresh dirty baseline.  Each owned vertex
  /// journals its out-edges; in-edges whose source is a ghost belong to
  /// the remote owner's journal.  Together the journals cover every edge
  /// exactly once.
  EncodedJournal EncodeFullSnapshot(uint32_t epoch) {
    GL_TRACE_SCOPE1(trace::kSnapshot, "snapshot.full", "epoch", epoch);
    FullJournalColumns cols;
    cols.gvids.reserve(graph_->num_owned_vertices());
    uint64_t dirty = 0, total = 0;
    for (LocalVid l : graph_->owned_vertices()) {
      cols.gvids.push_back(graph_->Gvid(l));
      cols.vertex_blobs << graph_->vertex_data(l);
      ++total;
      if (has_baseline_ && VertexDirty(l)) ++dirty;
      for (LocalEid e : graph_->out_edges(l)) {
        cols.esrc.push_back(graph_->Gvid(graph_->edge_source(e)));
        cols.edst.push_back(graph_->Gvid(graph_->edge_target(e)));
        cols.edge_blobs << graph_->edge_data(e);
        ++total;
        if (has_baseline_ && EdgeDirty(e)) ++dirty;
      }
    }
    // Piggybacked dirtiness measurement (see last_dirty_entities()):
    // meaningful only relative to a baseline.
    EncodedJournal journal;
    journal.path = JournalPath(epoch);
    journal.bytes = EncodeFullJournal(cols);
    SetScanCounts(&journal, has_baseline_ ? dirty : 0,
                  has_baseline_ ? total : 0);
    CaptureBaseline();
    return journal;
  }

  // --------------------------------------------------------------------
  // Incremental (delta) snapshot
  // --------------------------------------------------------------------

  /// Journals only the owned vertices / out-edges whose version column
  /// advanced since the last checkpoint's baseline, as a CRC-verified
  /// WAL (util/wal.h): EncodeDeltaSnapshot + Persist, blocking.  Cost is
  /// O(dirty) bytes — the acceptance criterion this subsystem exists
  /// for.
  Status WriteDeltaSnapshot(uint32_t epoch) {
    auto journal = EncodeDeltaSnapshot(epoch);
    GRAPHLAB_RETURN_IF_ERROR(journal.status());
    return PersistNow(*journal);
  }

  /// Encode step of a delta: the dirty entities as batched WAL records
  ///
  ///   vertex record: [u8 0] [u32 count] ([u64 gvid] [VertexData]) * count
  ///   edge record:   [u8 1] [u32 count] ([u64 gsrc] [u64 gdst] [EdgeData]) * count
  ///
  /// and a fresh dirty baseline.  Requires has_baseline(); the
  /// coordinator falls back to a full snapshot otherwise.
  Expected<EncodedJournal> EncodeDeltaSnapshot(uint32_t epoch) {
    GL_TRACE_SCOPE1(trace::kSnapshot, "snapshot.wal", "epoch", epoch);
    if (!has_baseline_) {
      return Status::FailedPrecondition(
          "delta snapshot without a baseline: write a full snapshot first");
    }
    EncodedJournal journal;
    journal.delta = true;
    journal.path = DeltaPath(epoch);

    // Batch dirty entities into bounded records so large deltas exercise
    // the FIRST/MIDDLE/LAST fragmentation and small ones stay one FULL
    // record per kind.
    constexpr size_t kBatch = 512;
    OutArchive rec;
    uint32_t count = 0;
    auto flush = [&](uint8_t kind) {
      if (count == 0) return;
      OutArchive framed;
      framed << kind << count;
      framed.WriteBytes(rec.buffer().data(), rec.size());
      journal.records.push_back(framed.TakeBuffer());
      rec = OutArchive();
      count = 0;
    };
    uint64_t dirty = 0, total = 0;
    for (LocalVid l : graph_->owned_vertices()) {
      ++total;
      if (!VertexDirty(l)) continue;
      ++dirty;
      rec << static_cast<uint64_t>(graph_->Gvid(l)) << graph_->vertex_data(l);
      if (++count >= kBatch) flush(0);
    }
    flush(0);
    for (LocalVid l : graph_->owned_vertices()) {
      for (LocalEid e : graph_->out_edges(l)) {
        ++total;
        if (!EdgeDirty(e)) continue;
        ++dirty;
        rec << static_cast<uint64_t>(graph_->Gvid(graph_->edge_source(e)))
            << static_cast<uint64_t>(graph_->Gvid(graph_->edge_target(e)))
            << graph_->edge_data(e);
        if (++count >= kBatch) flush(1);
      }
    }
    flush(1);
    SetScanCounts(&journal, dirty, total);
    CaptureBaseline();
    return journal;
  }

  /// Persist step: writes an encoded journal durably — a full journal
  /// through the atomic temp+rename path, a delta as a WAL file closed
  /// with fdatasync — and models the DFS bandwidth.  Touches no graph
  /// state, so it may run on another thread while updates continue.
  /// Returns the bytes put on disk.
  Expected<uint64_t> Persist(const EncodedJournal& journal) const {
    uint64_t bytes = journal.bytes.size();
    if (journal.delta) {
      wal::WalWriter writer;
      GRAPHLAB_RETURN_IF_ERROR(writer.Open(journal.path));
      for (const std::vector<char>& record : journal.records) {
        GRAPHLAB_RETURN_IF_ERROR(
            writer.AddRecord(record.data(), record.size()));
      }
      GRAPHLAB_RETURN_IF_ERROR(writer.Close());
      bytes = writer.bytes_written();
    } else {
      GRAPHLAB_RETURN_IF_ERROR(WriteFileAtomic(journal.path, journal.bytes));
    }
    ThrottleDfs(bytes);
    return bytes;
  }

  // --------------------------------------------------------------------
  // Asynchronous (Chandy-Lamport) snapshot
  // --------------------------------------------------------------------

  /// Starts epoch bookkeeping on this machine.
  void BeginAsyncEpoch(uint32_t epoch) {
    std::lock_guard<std::mutex> lock(journal_mutex_);
    epoch_ = epoch;
    async_ = FullJournalColumns();
    snapshotted_local_.store(0, std::memory_order_relaxed);
  }

  /// The Alg. 5 update function.  Install as the engine's snapshot
  /// function; Context::Schedule must route to snapshot scheduling.
  UpdateFn<GraphType> MakeSnapshotUpdateFn() {
    return [this](ContextType& ctx) { SnapshotUpdate(ctx); };
  }

  /// True when every owned vertex has been snapshotted in this epoch.
  bool AsyncComplete() const {
    return snapshotted_local_.load(std::memory_order_acquire) >=
           graph_->num_owned_vertices();
  }

  /// Encodes the columns the snapshot updates staged into the same
  /// full-journal format WriteSyncSnapshot writes, and commits it
  /// atomically so a crash mid-write never leaves a torn journal under
  /// the committed name.
  Status FinishAsync() {
    std::lock_guard<std::mutex> lock(journal_mutex_);
    return WriteFileAtomic(JournalPath(epoch_), EncodeFullJournal(async_));
  }

  // --------------------------------------------------------------------
  // Recovery
  // --------------------------------------------------------------------

  /// Applies this machine's journal for `epoch` to the owned partition and
  /// re-pushes what it applied so ghosts become coherent.  The journal
  /// must be this machine's own under the same placement: a record that
  /// lands on no owned vertex or local edge is Corruption.  The journals
  /// of one epoch hold each record once cluster-wide, so the rows this
  /// replay writes and pushes are disjoint from the rows peers' pushes
  /// write, and no barrier is needed before the push.  Collective:
  /// callers run a flush round afterwards (rpc/flush_round.h; the push
  /// handler sends nothing).
  Status Restore(uint32_t epoch) {
    const std::string path = JournalPath(epoch);
    size_t unplaced = 0;
    GRAPHLAB_RETURN_IF_ERROR(ReplayFullJournal(path, &unplaced));
    RetireDerivedState();
    if (unplaced > 0) {
      return Status::Corruption(std::to_string(unplaced) +
                                " records of " + path +
                                " belong to no owned vertex or local edge");
    }
    RepushOwnedScopes();
    return Status::OK();
  }

  /// Restore for recovery after machine loss: replays the epoch's
  /// journals of `journal_machines` — the membership AT SNAPSHOT TIME,
  /// from the manifest, which includes the dead machine — and applies
  /// every record this machine now holds under its (possibly different)
  /// placement: owned vertices take vertex records, locally present
  /// edges take edge records, everything else is skipped.  Works on a
  /// freshly re-ingested graph whose membership shrank.  Purely local:
  /// afterwards call barrier + RepushOwnedScopes() + a flush round to
  /// re-sync ghosts cluster-wide.  Every machine holding
  /// an edge replays its record, so the first barrier must keep peers'
  /// pushes out until this machine's replay is done.
  Status RestoreFrom(uint32_t epoch,
                     const std::vector<rpc::MachineId>& journal_machines) {
    size_t unplaced = 0;
    for (rpc::MachineId jm : journal_machines) {
      GRAPHLAB_RETURN_IF_ERROR(
          ReplayFullJournal(JournalPathFor(dir_, epoch, jm), &unplaced));
    }
    RetireDerivedState();
    return Status::OK();
  }

  /// Replays one delta journal epoch from every machine in
  /// `journal_machines`, leniently (records that no longer map to a
  /// local entity are skipped — same re-placement semantics as
  /// RestoreFrom).  Fails on any WAL corruption: the ladder must have
  /// verified the chain first, so a corrupt delta here is a logic error
  /// upstream, not something to paper over.
  Status RestoreDeltaFrom(uint32_t epoch,
                          const std::vector<rpc::MachineId>& journal_machines) {
    GL_TRACE_SCOPE1(trace::kSnapshot, "snapshot.wal", "epoch", epoch);
    for (rpc::MachineId jm : journal_machines) {
      const std::string path = DeltaPathFor(dir_, epoch, jm);
      auto bytes = ReadFileBytes(path);
      if (!bytes.ok()) return bytes.status();
      wal::WalReader reader(*bytes);
      std::string record;
      while (reader.ReadRecord(&record)) {
        InArchive ia(record.data(), record.size());
        const uint8_t kind = ia.ReadValue<uint8_t>();
        const uint32_t count = ia.ReadValue<uint32_t>();
        if (!ia.ok() || kind > 1) {
          return Status::Corruption("bad delta record in " + path);
        }
        for (uint32_t i = 0; i < count; ++i) {
          if (kind == 0) {
            const VertexId gvid =
                static_cast<VertexId>(ia.ReadValue<uint64_t>());
            VertexData data;
            ia >> data;
            if (!ia.ok()) return Status::Corruption("truncated " + path);
            PlaceVertex(gvid, std::move(data));
          } else {
            const VertexId gsrc =
                static_cast<VertexId>(ia.ReadValue<uint64_t>());
            const VertexId gdst =
                static_cast<VertexId>(ia.ReadValue<uint64_t>());
            EdgeData data;
            ia >> data;
            if (!ia.ok()) return Status::Corruption("truncated " + path);
            PlaceEdge(gsrc, gdst, std::move(data));
          }
        }
        if (!ia.AtEnd()) {
          return Status::Corruption("trailing bytes in delta record: " + path);
        }
      }
      if (!reader.corruptions().empty()) {
        return Status::Corruption("corrupt delta journal: " + path);
      }
    }
    RetireDerivedState();
    return Status::OK();
  }

  /// Restores a manifest chain: the full snapshot at `base_epoch`, then
  /// every delta epoch in order.  Purely local, lenient placement; call
  /// barrier + RepushOwnedScopes() + a flush round afterwards (see
  /// RestoreFrom).
  Status RestoreChain(const SnapshotManifest& manifest) {
    GRAPHLAB_RETURN_IF_ERROR(
        RestoreFrom(manifest.base_epoch, manifest.machines));
    for (uint32_t delta_epoch : manifest.delta_epochs) {
      GRAPHLAB_RETURN_IF_ERROR(
          RestoreDeltaFrom(delta_epoch, manifest.machines));
    }
    return Status::OK();
  }

  /// Pushes every vertex and edge the restores since the last call
  /// applied to the machines holding replicas, so ghosts become coherent
  /// with the restored data (one coalesced delta batch per peer).  Reads
  /// only the rows the replay wrote (DistributedGraph::PushEntities).
  /// Collective: a flush round after (rpc/flush_round.h).
  void RepushOwnedScopes() {
    graph_->PushEntities(restored_vertices_, restored_edges_);
    std::vector<LocalVid>().swap(restored_vertices_);
    std::vector<LocalEid>().swap(restored_edges_);
  }

 private:
  /// Algorithm 5 — Snapshot Update on vertex v.
  void SnapshotUpdate(ContextType& ctx) {
    const uint32_t epoch = epoch_;
    // "if v was already snapshotted: quit".
    if (ctx.const_vertex_data().snapshot_epoch >= epoch) return;

    std::lock_guard<std::mutex> lock(journal_mutex_);
    // "Save D_v".
    async_.gvids.push_back(ctx.vertex_id());
    async_.vertex_blobs << ctx.const_vertex_data();
    // "foreach u in N[v]: if u was not snapshotted: save D_{u<->v};
    //  schedule u for a Snapshot Update".
    auto save_edge_if_needed = [&](LocalEid e, LocalVid u) {
      if (ctx.neighbor_data(u).snapshot_epoch >= epoch) return;
      async_.esrc.push_back(ctx.graph().Gvid(ctx.edge_source(e)));
      async_.edst.push_back(ctx.graph().Gvid(ctx.edge_target(e)));
      async_.edge_blobs << ctx.const_edge_data(e);
    };
    for (LocalEid e : ctx.in_edges()) save_edge_if_needed(e, ctx.edge_source(e));
    for (LocalEid e : ctx.out_edges()) save_edge_if_needed(e, ctx.edge_target(e));
    for (LocalVid u : ctx.neighbors()) {
      if (ctx.neighbor_data(u).snapshot_epoch < epoch) {
        ctx.Schedule(u, kSnapshotPriority);
      }
    }
    // "Mark v as snapshotted" — the write propagates to ghosts with the
    // ordinary flush, acting as the Chandy-Lamport marker.
    ctx.vertex_data().snapshot_epoch = epoch;
    snapshotted_local_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Replays the full journal at `path` leniently: records that land on
  /// an owned vertex / local edge are applied, the rest are counted into
  /// `*unplaced`.  Nothing is applied unless the envelope verifies.
  Status ReplayFullJournal(const std::string& path, size_t* unplaced) {
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    std::vector<char> body;
    GRAPHLAB_RETURN_IF_ERROR(ParseFullJournal(*bytes, path, &body));
    InArchive ia(body.data(), body.size());
    std::string col;
    ia >> col;
    std::vector<VertexId> gvids;
    if (!ia.ok() || !DecodeColumn<VertexId>(col, &gvids)) {
      return Status::Corruption("bad vertex-id column in " + path);
    }
    for (VertexId gvid : gvids) {
      VertexData data;
      ia >> data;
      if (!ia.ok()) return Status::Corruption("truncated " + path);
      if (!PlaceVertex(gvid, std::move(data))) ++*unplaced;
    }
    std::vector<VertexId> esrc, edst;
    ia >> col;
    if (!ia.ok() || !DecodeColumn<VertexId>(col, &esrc)) {
      return Status::Corruption("bad edge-source column in " + path);
    }
    ia >> col;
    if (!ia.ok() || !DecodeColumn<VertexId>(col, &edst)) {
      return Status::Corruption("bad edge-target column in " + path);
    }
    if (esrc.size() != edst.size()) {
      return Status::Corruption("edge column length mismatch in " + path);
    }
    for (size_t i = 0; i < esrc.size(); ++i) {
      EdgeData data;
      ia >> data;
      if (!ia.ok()) return Status::Corruption("truncated " + path);
      if (!PlaceEdge(esrc[i], edst[i], std::move(data))) ++*unplaced;
    }
    if (!ia.AtEnd()) {
      return Status::Corruption("trailing bytes in " + path);
    }
    return Status::OK();
  }

  /// Applies one journaled vertex if this machine owns it; false if not.
  bool PlaceVertex(VertexId gvid, VertexData data) {
    const LocalVid l = graph_->TryLvid(gvid);
    if (l == kInvalidLocalVid || !graph_->is_owned(l)) return false;
    graph_->vertex_data(l) = std::move(data);
    graph_->MarkVertexModified(l);
    restored_vertices_.push_back(l);
    return true;
  }

  /// Applies one journaled edge if this machine holds it; false if not.
  bool PlaceEdge(VertexId gsrc, VertexId gdst, EdgeData data) {
    const LocalEid e = graph_->TryLeid(gsrc, gdst);
    if (e == kInvalidLocalEid) return false;
    graph_->edge_data(e) = std::move(data);
    graph_->MarkEdgeModified(e);
    restored_edges_.push_back(e);
    return true;
  }

  /// Persists on the calling thread and records the bytes for
  /// last_checkpoint_bytes().
  Status PersistNow(const EncodedJournal& journal) {
    auto bytes = Persist(journal);
    GRAPHLAB_RETURN_IF_ERROR(bytes.status());
    last_checkpoint_bytes_ = *bytes;
    return Status::OK();
  }

  void SetScanCounts(EncodedJournal* journal, uint64_t dirty,
                     uint64_t total) {
    journal->dirty_entities = last_dirty_entities_ = dirty;
    journal->total_entities = last_total_entities_ = total;
  }

  /// A restore rewrites whole property columns: retire the dirty baseline
  /// derived from the pre-restore columns (the next checkpoint must be
  /// full).
  void RetireDerivedState() { has_baseline_ = false; }

  // Dirty tracking for O(dirty) deltas: the per-entity version columns
  // (bumped by MarkVertexModified / MarkEdgeModified) compared against a
  // baseline captured at the last checkpoint.  Indexed by LocalVid /
  // LocalEid over all local entities; entities added after the baseline
  // (index past the end) count as dirty.
  void CaptureBaseline() {
    const size_t nv = graph_->num_local_vertices();
    const size_t ne = graph_->num_local_edges();
    base_vversion_.resize(nv);
    base_eversion_.resize(ne);
    for (size_t l = 0; l < nv; ++l) {
      base_vversion_[l] = graph_->vertex_version(static_cast<LocalVid>(l));
    }
    for (size_t e = 0; e < ne; ++e) {
      base_eversion_[e] = graph_->edge_version(static_cast<LocalEid>(e));
    }
    has_baseline_ = true;
  }

  bool VertexDirty(LocalVid l) const {
    return static_cast<size_t>(l) >= base_vversion_.size() ||
           graph_->vertex_version(l) != base_vversion_[l];
  }
  bool EdgeDirty(LocalEid e) const {
    return static_cast<size_t>(e) >= base_eversion_.size() ||
           graph_->edge_version(e) != base_eversion_[e];
  }

  void ThrottleDfs(size_t bytes) const {
    if (dfs_bandwidth_ <= 0) return;
    double seconds = static_cast<double>(bytes) / dfs_bandwidth_;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  std::string dir_;
  double dfs_bandwidth_ = 0;

  std::vector<uint64_t> base_vversion_;
  std::vector<uint64_t> base_eversion_;
  bool has_baseline_ = false;
  // Entities the restores since the last RepushOwnedScopes() applied.
  std::vector<LocalVid> restored_vertices_;
  std::vector<LocalEid> restored_edges_;
  uint64_t last_checkpoint_bytes_ = 0;
  uint64_t last_dirty_entities_ = 0;
  uint64_t last_total_entities_ = 0;

  std::mutex journal_mutex_;
  FullJournalColumns async_;  // staged by SnapshotUpdate, guarded above
  std::atomic<uint32_t> epoch_{0};
  std::atomic<uint64_t> snapshotted_local_{0};
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_SNAPSHOT_H_
