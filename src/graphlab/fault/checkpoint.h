// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// CheckpointCoordinator: drives periodic, globally consistent snapshots
// of a running engine (Sec. 4.3), through the engines' boundary hook.
//
// The collective engines (chromatic, bulk_sync) invoke AtBoundary() at
// every sweep/superstep boundary — all machines aligned between
// barriers, all communication channels flushed — which is exactly the
// "suspend and flush" precondition of the paper's synchronous snapshot,
// obtained for free instead of with a dedicated stop-the-world phase.
//
// Protocol per boundary (coordinator = machine 0):
//   DECIDE  m0 checks its clock against the checkpoint interval and
//           broadcasts {round, epoch, kind} — epoch 0 means "no
//           checkpoint"; kind picks FULL vs DELTA so the cluster writes
//           one uniform checkpoint kind per epoch.
//   ENCODE  on epoch != 0 every machine encodes its owned partition in
//           memory — SnapshotManager::EncodeFullSnapshot or
//           EncodeDeltaSnapshot (O(dirty) WAL records) — and hands the
//           bytes to its writer thread.  AtBoundary returns here: this
//           is all of a checkpoint the engine waits for.
//   WRITE   the writer thread persists the journal and reports DONE —
//           with a failure flag when the write failed.
//   COMMIT  when every round member reported, m0's writer writes the
//           epoch's MANIFEST_<epoch> {epoch, membership, base_epoch,
//           delta_epochs} — the atomic commit point a restore trusts —
//           and broadcasts COMMIT.  A failed DONE or manifest write makes
//           it broadcast ABANDON instead, and writes no manifest.  Every
//           writer then waits for COMMIT/ABANDON, and the round is over.
//
// One round in flight.  The next AtBoundary waits for the previous
// round before it decides, and returns that round's verdict — a
// writer's I/O error, an abandoned epoch, or a membership abort — just
// as a synchronous round returned its own.  FaultTolerantRunner waits
// for the last round (AwaitRound) after the engine stops, on every path,
// before it reads the counters below; the destructor joins the writer.
// So (1) MANIFEST_<e> is written only by m0's writer after the DONE of
// every member of e's round, each sent after that member's journal for e
// was durable; (2) at most one round is in flight per machine — the
// writer runs rounds one at a time, and a new one is handed over only
// after AwaitRound saw the previous one finish; (3) the writer is joined
// before the next attempt reads the snapshot directory (its ladder and
// MaxEpochOnDisk scan run after the rendezvous, which every machine
// reaches only after destroying its coordinator).
//
// Cost accounting.  fault.checkpoint_ms, checkpoint_seconds() and
// Young's T_checkpoint measure the engine-blocking stall: waiting for
// the previous round, DECIDE and ENCODE.  The writer's own time is the
// fault.checkpoint_io_ms histogram and the fault.checkpoint_io span.
//
// Full vs delta: the first checkpoint of an attempt is always full (no
// baseline exists after a start or a restore).  After that, deltas run
// until either full_checkpoint_every_deltas have accumulated (a long
// chain slows restore) or the cluster's dirty fraction exceeds
// delta_dirty_threshold (a near-full delta costs more than a full).
// The dirty fraction is aggregated, not scanned: every machine counts
// dirty/total entities during the encode scan it performs anyway and
// piggybacks the counts on its DONE message; m0 sums them and uses the
// resulting fraction — dirtiness accumulated over the LAST interval —
// as the predictor for the NEXT checkpoint's kind.  One interval of
// staleness is the price of avoiding a dedicated O(all entities) scan
// at decision time and of not letting m0's local skew speak for the
// cluster; full_checkpoint_every_deltas bounds any misprediction.
// Baselines advance in lockstep cluster-wide because every machine
// checkpoints at exactly the decided epochs, so m0's decision is safe
// to apply everywhere.
//
// The interval is either fixed (checkpoint_interval_seconds) or derived
// from Young's first-order approximation (Eq. 3 of the paper):
//     T_interval = sqrt(2 * T_checkpoint * T_mtbf)
// re-evaluated after every checkpoint with the measured stall of the
// checkpoints actually being taken — with incremental checkpoints and
// the write off the critical path, the smoothed cost converges to the
// (much cheaper) delta encode and the interval tightens accordingly,
// which is the point: cheaper checkpoints ⇒ checkpoint more often ⇒
// less lost work at equal MTBF.
//
// Any machine death mid-protocol unblocks every wait with
// Status::Aborted — the epoch is then simply never committed, and
// recovery restores from the previous manifest (crash consistency by
// write-journals-then-commit ordering).

#ifndef GRAPHLAB_FAULT_CHECKPOINT_H_
#define GRAPHLAB_FAULT_CHECKPOINT_H_

#include <algorithm>
#include <array>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/fault/options.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/util/status.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace fault {

template <typename VertexData, typename EdgeData>
class CheckpointCoordinator {
 public:
  using SnapshotManagerType = SnapshotManager<VertexData, EdgeData>;

  /// One instance per machine per run attempt.  `first_epoch` must
  /// exceed every epoch any file in the snapshot directory mentions —
  /// committed or abandoned (fault::MaxEpochOnDisk + 1), so a recovery
  /// step-down never reuses an epoch number from a rejected timeline.
  CheckpointCoordinator(rpc::MachineContext ctx,
                        SnapshotManagerType* snapshots,
                        const FtOptions& options, uint32_t first_epoch)
      : ctx_(ctx),
        comm_(&ctx.comm()),
        snapshots_(snapshots),
        options_(options),
        next_epoch_(first_epoch),
        epoch_at_start_(comm_->membership().epoch()),
        t_checkpoint_(options.t_checkpoint_estimate_seconds) {
    handler_scope_ = comm_->RegisterHandler(
        ctx_.id, kCheckpointControlHandler,
        [this](rpc::MachineId src, InArchive& ia) { OnMessage(src, ia); });
    membership_subscription_ = comm_->membership().Subscribe(
        [this](rpc::MachineId, uint64_t) {
          std::lock_guard<std::mutex> lock(mutex_);
          cv_.notify_all();
        });
  }

  /// Finishes a round still in flight, then joins the writer.  A round
  /// always ends: every wait in it unblocks on progress or on a
  /// membership change.
  ~CheckpointCoordinator() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (writer_.joinable()) writer_.join();
  }

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Install as the engine's boundary hook:
  ///   engine->SetBoundaryHook([&](uint64_t b) {
  ///     return coordinator.AtBoundary(b); });
  /// Collective across the live membership.  Returns the previous
  /// round's failure (a write or manifest error, or Aborted when a
  /// machine died mid-protocol), or Aborted when a machine dies during
  /// this boundary's DECIDE; the engine then aborts the run and the
  /// fault runner recovers or fails.
  Status AtBoundary(uint64_t /*engine_boundary*/) {
    Timer stall;
    GRAPHLAB_RETURN_IF_ERROR(AwaitRound());
    const double waited = stall.Seconds();
    const uint64_t round = ++round_;

    // The machines whose journals this round's epoch must contain, fixed
    // at round start.  Membership only shrinks, so an epoch unchanged
    // since the attempt began, read after the bitmap, proves the bitmap
    // is still the attempt's membership.  A death seen already means no
    // epoch can cover every machine; a death later in the round leaves a
    // DONE missing on m0's writer.  Either way the round aborts instead
    // of committing without the dead machine's journal.
    std::vector<uint8_t> members = comm_->membership().alive_bitmap();
    if (comm_->membership().epoch() != epoch_at_start_) {
      return Status::Aborted("membership changed before checkpoint round");
    }

    if (ctx_.id == 0) {
      uint32_t epoch = 0;
      uint8_t kind = kFullKind;
      if (force_full_next_) {
        // Out-of-band request (live migration): a full epoch regardless
        // of the interval clock — even with periodic checkpointing off —
        // so the next attempt restores the exact pre-migration state.
        epoch = next_epoch_++;
        kind = kFullKind;
        force_full_next_ = false;
      } else if (interval_seconds() > 0 &&
                 since_checkpoint_.Seconds() >= interval_seconds()) {
        epoch = next_epoch_++;
        kind = DecideKind();
      }
      Broadcast(kDecide, round, epoch, kind);
    }

    // Everyone (including machine 0, via its self-send) waits for the
    // decision so the cluster acts uniformly.
    uint32_t epoch = 0;
    uint8_t kind = kFullKind;
    GRAPHLAB_RETURN_IF_ERROR(
        WaitFor(round, [&](const RoundState& r) { return r.have_decision; },
                [&](const RoundState& r) {
                  epoch = r.epoch;
                  kind = r.kind;
                }));
    if (epoch == 0) {
      checkpoint_seconds_ += waited;
      return Status::OK();
    }

    // ENCODE: journals are globally consistent here (boundary
    // precondition); each machine captures its owned partition, then
    // hands the bytes to its writer and lets the engine resume.
    Round job{round, epoch, kind, std::move(members), {}};
    {
      GL_TRACE_SCOPE1(trace::kFault, "fault.checkpoint", "epoch", epoch);
      if (kind == kDeltaKind) {
        auto journal = snapshots_->EncodeDeltaSnapshot(epoch);
        GRAPHLAB_RETURN_IF_ERROR(journal.status());
        job.journal = std::move(*journal);
      } else {
        job.journal = snapshots_->EncodeFullSnapshot(epoch);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queued_ = std::move(job);
      in_flight_ = true;
    }
    if (!writer_.joinable()) writer_ = std::thread([this] { WriterLoop(); });
    cv_.notify_all();

    // The stall this boundary charged the engine feeds Young's interval:
    // once deltas dominate, the smoothed cost converges to the delta
    // encode and the interval re-derives from it.
    const double cost = stall.Seconds();
    checkpoint_seconds_ += cost;
    comm_->registry(ctx_.id)
        .histogram("fault.checkpoint_ms")
        ->Record(static_cast<uint64_t>(cost * 1e3));
    t_checkpoint_ = (t_checkpoint_ + cost) / 2.0;  // smoothed measurement
    since_checkpoint_ = Timer();
    return Status::OK();
  }

  /// Waits until no round is in flight and returns the verdict of the
  /// last one that finished since the previous call (OK if none).  Call
  /// after the engine stopped and before reading the counters below.
  Status AwaitRound() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !in_flight_; });
    return std::exchange(round_status_, Status::OK());
  }

  /// The effective interval: fixed wins, else Young's from the measured
  /// checkpoint cost, else 0 (checkpointing off).
  double interval_seconds() const {
    if (options_.checkpoint_interval_seconds > 0) {
      return options_.checkpoint_interval_seconds;
    }
    if (options_.mtbf_seconds > 0) {
      return OptimalCheckpointIntervalSeconds(t_checkpoint_,
                                              options_.mtbf_seconds);
    }
    return 0;
  }

  /// Make the next AtBoundary write a FULL snapshot unconditionally (the
  /// live-migration handoff point).  Meaningful on the coordinator; safe
  /// to call everywhere (collective decisions keep the cluster uniform).
  void ForceFullNext() { force_full_next_ = true; }

  // Written by the writer thread; read them after AwaitRound().
  uint32_t last_complete_epoch() const { return last_complete_epoch_; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  uint64_t full_checkpoints_written() const {
    return full_checkpoints_written_;
  }
  uint64_t delta_checkpoints_written() const {
    return delta_checkpoints_written_;
  }
  uint64_t checkpoint_bytes_full() const { return bytes_full_; }
  uint64_t checkpoint_bytes_delta() const { return bytes_delta_; }
  /// The engine-blocking stall summed over this attempt's boundaries.
  double checkpoint_seconds() const { return checkpoint_seconds_; }
  double measured_checkpoint_cost() const { return t_checkpoint_; }

 private:
  enum Tag : uint8_t { kDecide = 0, kDone = 1, kCommit = 2, kAbandon = 3 };
  enum Kind : uint8_t { kFullKind = 0, kDeltaKind = 1 };

  struct RoundState {
    uint64_t id = 0;
    bool have_decision = false;
    uint32_t epoch = 0;
    uint8_t kind = kFullKind;
    bool committed = false;
    bool abandoned = false;
    std::vector<uint8_t> done;  // coordinator only, per machine
    bool write_failed = false;  // coordinator only: some DONE said so
    uint64_t dirty_sum = 0;     // coordinator only: DONE-piggybacked
    uint64_t total_sum = 0;     //   dirty/total entity counts, summed
  };

  /// A round handed from the boundary to the writer.
  struct Round {
    uint64_t id = 0;
    uint32_t epoch = 0;
    uint8_t kind = kFullKind;
    std::vector<uint8_t> members;
    EncodedJournal journal;
  };

  /// Coordinator-side full-vs-delta policy; see the header comment.
  /// O(1): the dirty fraction was aggregated from every machine's DONE
  /// counts in the last round, not scanned here.
  uint8_t DecideKind() const {
    if (!options_.incremental_checkpoints) return kFullKind;
    if (!snapshots_->has_baseline()) return kFullKind;
    if (options_.full_checkpoint_every_deltas > 0 &&
        deltas_since_full_ >= options_.full_checkpoint_every_deltas) {
      return kFullKind;
    }
    if (last_dirty_fraction_ > options_.delta_dirty_threshold) {
      return kFullKind;
    }
    return kDeltaKind;
  }

  void WriterLoop() {
    for (;;) {
      Round job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return queued_.has_value() || stop_; });
        if (!queued_.has_value()) return;
        job = std::move(*queued_);
        queued_.reset();
      }
      const Status st = WriteAndCommit(job);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        round_status_ = st;
        in_flight_ = false;
      }
      cv_.notify_all();
    }
  }

  /// WRITE + COMMIT of one round, on the writer thread.  Touches no
  /// graph state.
  Status WriteAndCommit(const Round& job) {
    GL_TRACE_SCOPE1(trace::kFault, "fault.checkpoint_io", "epoch", job.epoch);
    Timer io;
    auto& registry = comm_->registry(ctx_.id);
    const bool delta = job.kind == kDeltaKind;
    const Expected<uint64_t> bytes = snapshots_->Persist(job.journal);
    if (bytes.ok()) {
      registry
          .counter(delta ? "fault.checkpoint_bytes_delta"
                         : "fault.checkpoint_bytes_full")
          ->Inc(*bytes);
      (delta ? bytes_delta_ : bytes_full_) += *bytes;
    }
    // DONE even after a failed write: m0 must hear from every member to
    // settle the round, and a failed member makes it abandon the epoch.
    OutArchive done;
    done << uint8_t{kDone} << job.id << job.epoch << job.kind
         << static_cast<uint8_t>(bytes.ok() ? 1 : 0)
         << job.journal.dirty_entities << job.journal.total_entities;
    comm_->Send(ctx_.id, 0, kCheckpointControlHandler, std::move(done));

    if (ctx_.id == 0) {
      GRAPHLAB_RETURN_IF_ERROR(CommitOrAbandon(job));
    }

    bool abandoned = false;
    GRAPHLAB_RETURN_IF_ERROR(WaitFor(
        job.id,
        [](const RoundState& r) { return r.committed || r.abandoned; },
        [&](const RoundState& r) { abandoned = r.abandoned; }));
    if (!bytes.ok()) return bytes.status();
    if (abandoned) {
      return Status::IOError("checkpoint epoch " + std::to_string(job.epoch) +
                             " was abandoned: a journal or manifest write "
                             "failed");
    }
    last_complete_epoch_ = job.epoch;
    checkpoints_written_++;
    if (delta) {
      delta_checkpoints_written_++;
      deltas_since_full_++;
    } else {
      full_checkpoints_written_++;
      deltas_since_full_ = 0;
    }
    registry.histogram("fault.checkpoint_io_ms")
        ->Record(static_cast<uint64_t>(io.Seconds() * 1e3));
    return Status::OK();
  }

  /// m0's writer: once every member's DONE is in, writes MANIFEST_<e>
  /// and broadcasts COMMIT — or ABANDON, with no manifest, when a member
  /// or the manifest write failed.  Aborted when a member died first.
  Status CommitOrAbandon(const Round& job) {
    uint64_t dirty_sum = 0, total_sum = 0;
    bool write_failed = false;
    GRAPHLAB_RETURN_IF_ERROR(WaitFor(
        job.id,
        [&](const RoundState& r) {
          for (rpc::MachineId m = 0; m < job.members.size(); ++m) {
            if (job.members[m] && !(m < r.done.size() && r.done[m])) {
              return false;
            }
          }
          return true;
        },
        [&](const RoundState& r) {
          dirty_sum = r.dirty_sum;
          total_sum = r.total_sum;
          write_failed = r.write_failed;
        }));
    // Cluster-wide dirtiness over the interval that just ended — the
    // predictor DecideKind uses next round.  total 0 = no machine had a
    // baseline (first full): no evidence against trying a delta.
    last_dirty_fraction_ =
        total_sum == 0 ? 0.0
                       : static_cast<double>(dirty_sum) /
                             static_cast<double>(total_sum);
    Status commit = write_failed
                        ? Status::IOError("a journal write failed")
                        : Status::OK();
    if (commit.ok()) {
      SnapshotManifest manifest;
      manifest.epoch = job.epoch;
      for (rpc::MachineId m = 0; m < job.members.size(); ++m) {
        if (job.members[m]) manifest.machines.push_back(m);
      }
      if (job.kind == kDeltaKind) {
        manifest.base_epoch = chain_base_epoch_;
        manifest.delta_epochs = chain_deltas_;
        manifest.delta_epochs.push_back(job.epoch);
      } else {
        manifest.base_epoch = job.epoch;
      }
      commit = WriteSnapshotManifest(snapshots_->dir(), manifest);
      if (commit.ok()) {
        chain_base_epoch_ = manifest.base_epoch;
        chain_deltas_ = std::move(manifest.delta_epochs);
      }
    }
    if (!commit.ok()) {
      GL_LOG(ERROR) << "checkpoint: abandoning epoch " << job.epoch << ": "
                    << commit.ToString();
    }
    Broadcast(commit.ok() ? kCommit : kAbandon, job.id, job.epoch, job.kind);
    return Status::OK();
  }

  void Broadcast(Tag tag, uint64_t round, uint32_t epoch, uint8_t kind) {
    const auto alive = comm_->membership().alive_bitmap();
    for (rpc::MachineId dst = 0; dst < alive.size(); ++dst) {
      if (!alive[dst]) continue;
      OutArchive oa;
      oa << static_cast<uint8_t>(tag) << round << epoch << kind;
      comm_->Send(/*src=*/0, dst, kCheckpointControlHandler, std::move(oa));
    }
  }

  /// Waits for `pred` on this round's state; `extract` runs under the
  /// lock on success.  Aborted the moment the membership moves past the
  /// attempt's baseline — a death mid-protocol, or one observed before
  /// the call (no wake-up to miss: checked in the predicate itself).
  template <typename Pred, typename Extract>
  Status WaitFor(uint64_t round, Pred pred, Extract extract) {
    std::unique_lock<std::mutex> lock(mutex_);
    RoundState& r = RoundFor(round);
    bool dead = false;
    cv_.wait(lock, [&] {
      if (comm_->membership().epoch() != epoch_at_start_) {
        dead = true;
        return true;
      }
      return pred(r);
    });
    if (dead && !pred(r)) {
      return Status::Aborted("membership changed during checkpoint");
    }
    extract(r);
    return Status::OK();
  }

  RoundState& RoundFor(uint64_t round) {
    RoundState& r = rounds_[round % rounds_.size()];
    if (r.id != round) {
      r = RoundState{};
      r.id = round;
    }
    return r;
  }

  void OnMessage(rpc::MachineId src, InArchive& ia) {
    uint8_t tag = ia.ReadValue<uint8_t>();
    uint64_t round = ia.ReadValue<uint64_t>();
    uint32_t epoch = ia.ReadValue<uint32_t>();
    uint8_t kind = ia.ReadValue<uint8_t>();
    // DONE carries the sender's write verdict and its piggybacked
    // dirty/total entity counts.
    uint8_t written = 0;
    uint64_t dirty = 0, total = 0;
    if (tag == kDone) {
      written = ia.ReadValue<uint8_t>();
      dirty = ia.ReadValue<uint64_t>();
      total = ia.ReadValue<uint64_t>();
    }
    if (!ia.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    RoundState& r = RoundFor(round);
    switch (tag) {
      case kDecide:
        r.have_decision = true;
        r.epoch = epoch;
        r.kind = kind;
        break;
      case kDone:
        if (r.done.empty()) r.done.assign(comm_->num_machines(), 0);
        if (src < r.done.size() && !r.done[src]) {
          r.done[src] = 1;
          r.write_failed = r.write_failed || written == 0;
          r.dirty_sum += dirty;
          r.total_sum += total;
        }
        break;
      case kCommit:
        r.committed = true;
        break;
      case kAbandon:
        r.abandoned = true;
        break;
      default:
        GL_LOG(ERROR) << "checkpoint: unknown tag " << static_cast<int>(tag);
        return;
    }
    cv_.notify_all();
  }

  rpc::MachineContext ctx_;
  rpc::CommLayer* comm_;
  SnapshotManagerType* snapshots_;
  FtOptions options_;
  uint32_t next_epoch_;
  const uint64_t epoch_at_start_;  // membership epoch this attempt baselined

  // Boundary-thread state.
  uint64_t round_ = 0;
  // Set by ForceFullNext, consumed by the next DECIDE.  Both run on the
  // boundary-hook thread, so no synchronization is needed.
  bool force_full_next_ = false;
  Timer since_checkpoint_;
  double t_checkpoint_;
  double checkpoint_seconds_ = 0;

  // Writer-thread state, handed to the boundary thread through mutex_
  // when a round finishes (AwaitRound).
  uint32_t last_complete_epoch_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t full_checkpoints_written_ = 0;
  uint64_t delta_checkpoints_written_ = 0;
  uint64_t deltas_since_full_ = 0;
  uint64_t bytes_full_ = 0;
  uint64_t bytes_delta_ = 0;
  // Cluster-aggregated dirty fraction measured over the last round
  // (coordinator only; 0 until the first delta-eligible measurement).
  double last_dirty_fraction_ = 0.0;
  // The chain under construction (coordinator only): the full epoch the
  // current deltas stack on.  A new attempt starts a fresh coordinator,
  // so a chain never spans memberships.
  uint32_t chain_base_epoch_ = 0;
  std::vector<uint32_t> chain_deltas_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::array<RoundState, 16> rounds_{};
  // The boundary -> writer handoff, guarded by mutex_.
  std::optional<Round> queued_;
  bool in_flight_ = false;  // a round was handed over and has not finished
  Status round_status_;     // the finished round's verdict, for AwaitRound
  bool stop_ = false;
  std::thread writer_;

  rpc::HandlerScope handler_scope_;
  rpc::Subscription membership_subscription_;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_CHECKPOINT_H_
