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
//   WRITE   on epoch != 0 every machine journals its owned partition —
//           WriteSyncSnapshot (full) or WriteDeltaSnapshot (O(dirty)
//           WAL delta) — and reports DONE.
//   COMMIT  when every round member reported, m0 writes the LATEST
//           manifest {epoch, membership, base_epoch, delta_epochs} —
//           the atomic commit point a restore trusts — and broadcasts
//           COMMIT; everyone proceeds.
//
// Full vs delta: the first checkpoint of an attempt is always full (no
// baseline exists after a start or a restore).  After that, deltas run
// until either full_checkpoint_every_deltas have accumulated (a long
// chain slows restore) or the cluster's dirty fraction exceeds
// delta_dirty_threshold (a near-full delta costs more than a full).
// The dirty fraction is aggregated, not scanned: every machine counts
// dirty/total entities during the write scan it performs anyway and
// piggybacks the counts on its DONE message; m0 sums them and uses the
// resulting fraction — dirtiness accumulated over the LAST interval —
// as the predictor for the NEXT checkpoint's kind.  One interval of
// staleness is the price of avoiding a dedicated O(all entities) scan
// at decision time and of not letting m0's local skew speak for the
// cluster; full_checkpoint_every_deltas bounds any misprediction.
// Baselines advance in lockstep cluster-wide because every machine
// checkpoints at exactly the committed epochs, so m0's decision is safe
// to apply everywhere.
//
// The interval is either fixed (checkpoint_interval_seconds) or derived
// from Young's first-order approximation (Eq. 3 of the paper):
//     T_interval = sqrt(2 * T_checkpoint * T_mtbf)
// re-evaluated after every checkpoint with the measured cost of the
// checkpoints actually being written — with incremental checkpoints on,
// the smoothed cost converges to the (much cheaper) delta cost and the
// interval tightens accordingly, which is the point: cheaper
// checkpoints ⇒ checkpoint more often ⇒ less lost work at equal MTBF.
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

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Install as the engine's boundary hook:
  ///   engine->SetBoundaryHook([&](uint64_t b) {
  ///     return coordinator.AtBoundary(b); });
  /// Collective across the live membership; returns Aborted when a
  /// machine dies mid-protocol (the engine then aborts the run and the
  /// fault runner recovers).
  Status AtBoundary(uint64_t /*engine_boundary*/) {
    const uint64_t round = ++round_;
    Timer round_timer;

    // The machines whose journals this round's epoch must contain, fixed
    // at round start.  Membership only shrinks, so an epoch unchanged
    // since the attempt began, read after the bitmap, proves the bitmap
    // is still the attempt's membership.  A death seen already means no
    // epoch can cover every machine; a death later in the round leaves a
    // DONE missing below.  Either way the round aborts instead of
    // committing without the dead machine's journal.
    const std::vector<uint8_t> members = comm_->membership().alive_bitmap();
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
    if (epoch == 0) return Status::OK();
    GL_TRACE_SCOPE1(trace::kFault, "fault.checkpoint", "epoch", epoch);

    // WRITE: journals are already globally consistent (boundary
    // precondition); each machine persists its owned partition.
    if (kind == kDeltaKind) {
      GRAPHLAB_RETURN_IF_ERROR(snapshots_->WriteDeltaSnapshot(epoch));
    } else {
      GRAPHLAB_RETURN_IF_ERROR(snapshots_->WriteSyncSnapshot(epoch));
    }
    {
      auto& registry = comm_->registry(ctx_.id);
      const uint64_t bytes = snapshots_->last_checkpoint_bytes();
      registry
          .counter(kind == kDeltaKind ? "fault.checkpoint_bytes_delta"
                                      : "fault.checkpoint_bytes_full")
          ->Inc(bytes);
      if (kind == kDeltaKind) {
        bytes_delta_ += bytes;
      } else {
        bytes_full_ += bytes;
      }
    }
    OutArchive done;
    done << uint8_t{kDone} << round << epoch << kind
         << snapshots_->last_dirty_entities()
         << snapshots_->last_total_entities();
    comm_->Send(ctx_.id, 0, kCheckpointControlHandler, std::move(done));

    if (ctx_.id == 0) {
      // COMMIT once every member's journal is durable.
      uint64_t dirty_sum = 0, total_sum = 0;
      Status all = WaitFor(
          round,
          [&](const RoundState& r) {
            for (rpc::MachineId m = 0; m < members.size(); ++m) {
              if (members[m] && !(m < r.done.size() && r.done[m])) {
                return false;
              }
            }
            return true;
          },
          [&](const RoundState& r) {
            dirty_sum = r.dirty_sum;
            total_sum = r.total_sum;
          });
      GRAPHLAB_RETURN_IF_ERROR(all);
      // Cluster-wide dirtiness over the interval that just ended — the
      // predictor DecideKind uses next round.  total 0 = no machine had
      // a baseline (first full): no evidence against trying a delta.
      last_dirty_fraction_ =
          total_sum == 0 ? 0.0
                         : static_cast<double>(dirty_sum) /
                               static_cast<double>(total_sum);
      if (kind == kDeltaKind) {
        chain_deltas_.push_back(epoch);
      } else {
        chain_base_epoch_ = epoch;
        chain_deltas_.clear();
      }
      SnapshotManifest manifest;
      manifest.epoch = epoch;
      for (rpc::MachineId m = 0; m < members.size(); ++m) {
        if (members[m]) manifest.machines.push_back(m);
      }
      manifest.base_epoch = chain_base_epoch_;
      manifest.delta_epochs = chain_deltas_;
      GRAPHLAB_RETURN_IF_ERROR(
          WriteSnapshotManifest(snapshots_->dir(), manifest));
      Broadcast(kCommit, round, epoch, kind);
    }

    GRAPHLAB_RETURN_IF_ERROR(WaitFor(
        round, [&](const RoundState& r) { return r.committed; },
        [](const RoundState&) {}));

    // Bookkeeping: measured cost feeds Young's interval for next time —
    // once deltas dominate, the smoothed cost converges to the delta
    // cost and the interval re-derives from it.
    last_complete_epoch_ = epoch;
    checkpoints_written_++;
    if (kind == kDeltaKind) {
      delta_checkpoints_written_++;
      deltas_since_full_++;
    } else {
      full_checkpoints_written_++;
      deltas_since_full_ = 0;
    }
    const double cost = round_timer.Seconds();
    checkpoint_seconds_ += cost;
    comm_->registry(ctx_.id)
        .histogram("fault.checkpoint_ms")
        ->Record(static_cast<uint64_t>(cost * 1e3));
    t_checkpoint_ = (t_checkpoint_ + cost) / 2.0;  // smoothed measurement
    since_checkpoint_ = Timer();
    return Status::OK();
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
  double checkpoint_seconds() const { return checkpoint_seconds_; }
  double measured_checkpoint_cost() const { return t_checkpoint_; }

 private:
  enum Tag : uint8_t { kDecide = 0, kDone = 1, kCommit = 2 };
  enum Kind : uint8_t { kFullKind = 0, kDeltaKind = 1 };

  struct RoundState {
    uint64_t id = 0;
    bool have_decision = false;
    uint32_t epoch = 0;
    uint8_t kind = kFullKind;
    bool committed = false;
    std::vector<uint8_t> done;  // coordinator only, per machine
    uint64_t dirty_sum = 0;     // coordinator only: DONE-piggybacked
    uint64_t total_sum = 0;     //   dirty/total entity counts, summed
  };

  /// Coordinator-side full-vs-delta policy; see the header comment.
  /// O(1): the dirty fraction was aggregated from every machine's DONE
  /// counts at the last committed checkpoint, not scanned here.
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
    // DONE carries the sender's piggybacked dirty/total entity counts.
    uint64_t dirty = 0, total = 0;
    if (tag == kDone) {
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
          r.dirty_sum += dirty;
          r.total_sum += total;
        }
        break;
      case kCommit:
        r.committed = true;
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

  uint64_t round_ = 0;
  // Set by ForceFullNext, consumed by the next DECIDE.  Both run on the
  // boundary-hook thread, so no synchronization is needed.
  bool force_full_next_ = false;
  Timer since_checkpoint_;
  double t_checkpoint_;
  uint32_t last_complete_epoch_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t full_checkpoints_written_ = 0;
  uint64_t delta_checkpoints_written_ = 0;
  uint64_t deltas_since_full_ = 0;
  uint64_t bytes_full_ = 0;
  uint64_t bytes_delta_ = 0;
  // Cluster-aggregated dirty fraction measured over the last committed
  // checkpoint interval (coordinator only; 0 until the first delta-
  // eligible measurement arrives).
  double last_dirty_fraction_ = 0.0;

  // The chain under construction (coordinator only): the full epoch the
  // current deltas stack on.  A new attempt starts a fresh coordinator,
  // so a chain never spans memberships.
  uint32_t chain_base_epoch_ = 0;
  std::vector<uint32_t> chain_deltas_;

  double checkpoint_seconds_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::array<RoundState, 16> rounds_{};

  rpc::HandlerScope handler_scope_;
  rpc::Subscription membership_subscription_;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_CHECKPOINT_H_
