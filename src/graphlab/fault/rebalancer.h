// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// LoadRebalancer: online load rebalancing by live atom migration.
//
// The static two-phase placement (PlaceAtomsOnMachines) is decided once,
// from topology alone; on power-law graphs the *runtime* load — update
// work, ghost traffic — still concentrates.  This component watches the
// per-machine load mid-run and, when the skew warrants it, moves a hot
// machine's atom to a cold machine by replaying the recovery path over
// the amended placement (drain at a boundary, rebuild from atoms,
// restore the just-forced full checkpoint, re-push owned scopes) —
// migration is recovery with nobody dead.
//
// Protocol, at boundaries ShouldCheck() selects (collective — boundary
// numbers are globally aligned on the collective engines):
//
//   ROUND   one rpc::AllReduce round of width 2n over
//           kRebalanceValueHandler / kRebalanceResultHandler: machine m
//           puts its load signal (engine.updates or rpc.bytes_sent)
//           since its previous contribution in slot m and a live flag
//           of 1 in slot n+m.
//   DECIDE  the decision is a function of the reduced vector, the
//           attempt's placement and the atom index alone, all the same
//           on every machine, so each one runs DecideMigration()
//           itself: on skew >= threshold (or a forced check), the
//           hottest machine, the coldest machine, and the atom on the
//           hot machine whose meta-graph affinity most favors the cold
//           one.  Machines whose flag is 0 did not contribute and are
//           never picked.
//   ADOPT   every machine stores the pending placement; the runner's
//           boundary hook forces a full checkpoint at this boundary and
//           aborts the attempt, and the next attempt rebuilds from
//           TakePendingPlacement(), which counts the migration.
//
// No round is entered once the membership moved during the attempt
// (AtBoundary returns Aborted); a death mid-round releases the survivors
// or, through the runner's abort bundle, cancels the round.  So after a
// death the survivors may hold different verdicts: every one of them
// discards its pending placement, and the state ShouldCheck() reads
// (migrations, the forced check) changes only on adoption, which happens
// everywhere or nowhere.

#ifndef GRAPHLAB_FAULT_REBALANCER_H_
#define GRAPHLAB_FAULT_REBALANCER_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "graphlab/fault/options.h"
#include "graphlab/graph/atom.h"
#include "graphlab/rpc/allreduce.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/status.h"

namespace graphlab {
namespace fault {

/// One check's verdict: move `atom` from machine `from` to machine `to`.
struct MigrationDecision {
  bool migrate = false;
  AtomId atom = 0;
  rpc::MachineId from = 0;
  rpc::MachineId to = 0;
  double skew = 0;  // max / mean of the signal deltas
};

/// The decision every machine computes from the same reduced round.
/// `reduced` holds 2n slots for n machines: machine m's load signal since
/// its previous contribution in slot m and its live flag in slot n+m.
/// `placement` maps each of meta's atoms to its machine.
MigrationDecision DecideMigration(const AtomIndex& meta,
                                  const std::vector<rpc::MachineId>& placement,
                                  const std::vector<uint64_t>& reduced,
                                  double skew_threshold, bool forced);

class LoadRebalancer {
 public:
  /// `meta` must outlive the rebalancer (it is the runner Problem's atom
  /// index).  Construct before the runner's handler-alignment barrier so
  /// no round frame can beat the handler registration.
  LoadRebalancer(rpc::MachineContext ctx, const AtomIndex* meta,
                 const FtOptions& options);

  LoadRebalancer(const LoadRebalancer&) = delete;
  LoadRebalancer& operator=(const LoadRebalancer&) = delete;

  /// True when the FtOptions ask for any rebalancing at all.
  static bool Enabled(const FtOptions& options) {
    return options.rebalance_every_boundaries > 0 ||
           options.rebalance_at_boundary > 0;
  }

  /// Collective boundary check.  Sets *migrate when a migration was
  /// decided (pending placement stored on every machine).  Cheap no-op
  /// on boundaries ShouldCheck rejects.
  Status AtBoundary(uint64_t boundary, bool* migrate);

  /// Record the survivor set an attempt runs over and the placement it
  /// actually built with — the baseline the next decision amends — and
  /// realign the decision round.  Every machine calls it at the same
  /// point of an attempt, with channels drained.
  void BeginAttempt(const std::vector<rpc::MachineId>& alive,
                    const std::vector<rpc::MachineId>& placement);

  /// Part of the runner's abort bundle: a peer died, so a blocked
  /// decision round returns Aborted.  Non-blocking.
  void Cancel() { round_.Cancel(ctx_.id); }

  bool migration_pending() const;

  /// Consume the pending placement and count the migration.  Empty when
  /// none is pending or when `alive` differs from the attempt's survivor
  /// set (decided in an attempt a death interrupted) — callers then fall
  /// back to fresh placement.
  std::vector<rpc::MachineId> TakePendingPlacement(
      const std::vector<rpc::MachineId>& alive);

  uint64_t migrations() const { return migrations_; }
  /// This machine's last entered decision round in the current attempt.
  uint64_t round() { return round_.round(ctx_.id); }

 private:
  bool ShouldCheck(uint64_t boundary) const;

  rpc::MachineContext ctx_;
  rpc::CommLayer* comm_;
  const AtomIndex* meta_;
  FtOptions options_;
  rpc::AllReduce round_;
  uint64_t epoch_;  // membership epoch the current attempt started in

  uint64_t migrations_ = 0;
  bool forced_done_ = false;

  // Identical on every machine: the attempt's survivors and the
  // placement being amended.
  std::vector<rpc::MachineId> attempt_alive_;
  std::vector<rpc::MachineId> current_placement_;
  // This machine's signal counter at its last contribution.
  uint64_t last_signal_ = 0;

  mutable std::mutex mutex_;
  // Guarded by mutex_.
  std::vector<rpc::MachineId> pending_placement_;
  bool pending_forced_ = false;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_REBALANCER_H_
