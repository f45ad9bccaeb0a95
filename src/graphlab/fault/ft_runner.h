// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// FaultTolerantRunner: run a distributed computation so that it SURVIVES
// machine loss (the Sec. 4.3 claim this repo could not honor before —
// killing a TCP worker mid-run used to hang the cluster in
// quiescence/consensus forever).
//
// SPMD surface: every machine constructs a runner on its MachineContext
// and calls Run() with the same Problem.  Internally each attempt is
//
//   rendezvous -> drain -> rebuild -> restore -> resume
//
//   rendezvous  survivors meet (fault/recovery.h): membership converges
//               to the coordinator's view, barrier/allreduce/flush-round
//               counters realign, and the collective retry/done decision
//               is made.
//   drain       barrier + one flush round (rpc/flush_round.h) flushes
//               every surviving channel, so no stale ghost frame can
//               race the rebuild (frames from the dead machine are
//               dropped by the transport).
//   rebuild     the SAME phase-1 atom cut is re-placed over the
//               survivors via the atom meta-graph (PlaceAtomsOnMachines)
//               and each machine re-ingests its new partition — the dead
//               machine's atoms spread across the cluster without
//               repartitioning.
//   restore     every machine replays the last committed snapshot epoch
//               (ALL journal files, including the dead machine's — they
//               live on the shared snapshot filesystem) into the
//               vertices/edges it now owns, then re-pushes owned scopes
//               so ghost replicas become coherent.  No manifest = replay
//               from initial state (correct for self-stabilizing
//               computations; just slower).
//   resume      a fresh engine is built for the new membership (ghost /
//               replica tables and scope-lock plans recompile from the
//               re-ingested graph at Start()), a fresh checkpoint
//               coordinator arms, every owned vertex is re-scheduled
//               (conservative: schedule state is not checkpointed), and
//               the computation continues to the same fixed point an
//               unfailed run reaches.
//
// While an attempt runs, the failure detector's PeerDown event triggers
// the non-blocking abort bundle — cancel this machine's barrier,
// allreduce and flush-round slots, request engine abort — so every
// blocking collective the engine sits in returns with a status instead
// of hanging.
//
// A run that ends at a collective abort decision with nobody dead and no
// migration pending was stopped by a failing boundary hook: Run() then
// fails on every machine — with the hook's own error where it failed —
// rather than report a partly converged graph as a result.
//
// Assumptions (documented in README): machine 0 survives (it is the
// barrier/allreduce/rendezvous coordinator), and at most
// FtOptions::max_recoveries failures per Run().  Over the shared
// simulated fabric construct one runner per fabric only; the TCP shapes
// (loopback cluster, multi-process) give each machine its own fabric and
// are the intended deployment.

#ifndef GRAPHLAB_FAULT_FT_RUNNER_H_
#define GRAPHLAB_FAULT_FT_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/fault/checkpoint.h"
#include "graphlab/fault/failure_detector.h"
#include "graphlab/fault/options.h"
#include "graphlab/fault/rebalancer.h"
#include "graphlab/fault/recovery.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace fault {

/// What Run() reports back (per machine; machine 0's copy is the one the
/// demos publish).
struct FtReport {
  uint64_t attempts = 0;            // run attempts (1 = no failure)
  uint64_t recoveries = 0;          // completed failure->resume cycles
  uint32_t restored_epoch = 0;      // snapshot epoch the last attempt used
  uint64_t checkpoints_written = 0; // across all attempts
  uint64_t full_checkpoints = 0;    // ... of which full snapshots
  uint64_t delta_checkpoints = 0;   // ... of which O(dirty) WAL deltas
  uint64_t checkpoint_bytes_full = 0;   // journal bytes, full snapshots
  uint64_t checkpoint_bytes_delta = 0;  // journal bytes, delta journals
  uint64_t corrupt_journals = 0;    // journals the recovery ladder rejected
  // The engine-blocking checkpoint stall: DECIDE, the in-memory encode
  // and any wait for the previous round's background write and commit
  // (fault/checkpoint.h); the write itself is off the critical path.
  double checkpoint_seconds = 0;
  double checkpoint_interval_seconds = 0;  // effective cadence (last)
  double recovery_seconds = 0;      // last detection -> engine resumed
  uint64_t rebalances = 0;          // live migrations adopted
  double rebalance_seconds = 0;     // last migration decide -> resumed
  RunResult result;                 // the successful attempt's result
};

/// The recovery ladder's verdict: the newest manifest chain whose every
/// journal verifies end-to-end, possibly after stepping down.
struct VerifiedChain {
  bool found = false;          // false: restore from initial state
  SnapshotManifest manifest;   // delta_epochs already truncated to the
                               // verified prefix; epoch = newest usable
  uint64_t corrupt_journals = 0;  // journals rejected along the way
};

/// Recovery ladder (pure storage inspection, no graph types): decide
/// which epoch a restore can trust, stepping down on corruption instead
/// of aborting.
///
///   1. Candidates: every MANIFEST_<epoch> file in the directory.  A
///      manifest whose own CRC fails is skipped — the other rungs still
///      work.
///   2. For a candidate chain, CRC-verify the base epoch's journal of
///      every machine in the manifest membership.  Base corrupt ⇒ the
///      whole chain is unusable; drop the candidate.
///   3. Verify the delta journals in chain order and truncate at the
///      first corrupt epoch: a verified chain *prefix* is itself a
///      consistent earlier committed state, so the ladder keeps
///      everything up to the corruption instead of discarding the chain.
///   4. Of all candidates, pick the one whose VERIFIED epoch (after
///      truncation) is newest — not the first candidate whose base
///      happens to verify.  A high-numbered manifest whose chain
///      truncates early must not shadow a lower-numbered one that
///      verifies further.
///
/// Each distinct journal file is read and verified once (memoized) and
/// counted at most once in corrupt_journals, however many candidate
/// chains reference it.  Deterministic given the same directory
/// contents, so every machine resolves the same epoch without
/// coordination.
inline VerifiedChain ResolveVerifiedChain(const std::string& dir) {
  GL_TRACE_SCOPE(trace::kSnapshot, "snapshot.wal.verify");
  VerifiedChain out;

  // Gather candidate manifests, newest first.
  std::map<uint32_t, SnapshotManifest, std::greater<uint32_t>> candidates;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ManifestEpochOf(entry.path().filename().string()) == 0) continue;
    if (auto m = ReadManifestFile(entry.path().string()); m.ok()) {
      candidates.emplace(m->epoch, *m);
    }
  }

  std::map<std::string, bool> verified;  // memoized per-file verdicts
  auto journal_ok = [&](const std::string& path, bool delta) {
    if (auto it = verified.find(path); it != verified.end()) {
      return it->second;
    }
    bool ok = false;
    if (auto bytes = ReadFileBytes(path); bytes.ok()) {
      const Status st = delta ? VerifyDeltaJournalBytes(*bytes, path)
                              : VerifyFullJournalBytes(*bytes, path);
      if (!st.ok()) {
        GL_LOG(WARNING) << "recovery ladder: " << st.message();
      }
      ok = st.ok();
    }  // else: missing on the shared store — counts as corrupt
    if (!ok) out.corrupt_journals++;
    verified.emplace(path, ok);
    return ok;
  };

  for (const auto& [epoch, manifest] : candidates) {
    bool base_ok = true;
    for (rpc::MachineId m : manifest.machines) {
      if (!journal_ok(SnapshotJournalPath(dir, manifest.base_epoch, m),
                      /*delta=*/false)) {
        base_ok = false;
      }
    }
    if (!base_ok) continue;  // chain unusable; try the other candidates
    SnapshotManifest resolved = manifest;
    resolved.delta_epochs.clear();
    resolved.epoch = manifest.base_epoch;
    for (uint32_t delta_epoch : manifest.delta_epochs) {
      bool delta_epoch_ok = true;
      for (rpc::MachineId m : manifest.machines) {
        if (!journal_ok(SnapshotDeltaPath(dir, delta_epoch, m),
                        /*delta=*/true)) {
          delta_epoch_ok = false;
        }
      }
      if (!delta_epoch_ok) break;  // keep the verified prefix
      resolved.delta_epochs.push_back(delta_epoch);
      resolved.epoch = delta_epoch;
    }
    if (!out.found || resolved.epoch > out.manifest.epoch) {
      out.found = true;
      out.manifest = resolved;
    }
  }
  return out;
}

/// Largest epoch any durable artifact in `dir` mentions — committed or
/// not: manifests, full journals, and delta journals all count (a WRITE
/// that never reached COMMIT still leaves journal files).  Epoch
/// numbering after a recovery resumes ABOVE this, never at
/// restored_epoch + 1: reusing an epoch number from an abandoned
/// timeline would let a new snap_<e>/delta_<e> satisfy a stale
/// higher-epoch manifest's chain byte-for-byte, and a later ladder run
/// could then splice the two histories into a state no execution ever
/// produced.
inline uint32_t MaxEpochOnDisk(const std::string& dir) {
  uint32_t max_epoch = 0;
  auto consider = [&](const std::string& name, const char* prefix,
                      size_t prefix_len) {
    if (name.rfind(prefix, 0) != 0) return;
    const uint32_t e = static_cast<uint32_t>(
        std::strtoul(name.c_str() + prefix_len, nullptr, 10));
    max_epoch = std::max(max_epoch, e);
  };
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    consider(name, "MANIFEST_", sizeof("MANIFEST_") - 1);
    consider(name, "snap_", sizeof("snap_") - 1);
    consider(name, "delta_", sizeof("delta_") - 1);
  }
  return max_epoch;
}

/// Retires the abandoned timeline after the ladder stepped down:
/// deletes every MANIFEST_<e> with e above the verified epoch (their
/// chains failed verification — they must never be offered as
/// candidates again once new epochs commit around them) and rewrites
/// the verified chain's MANIFEST_<e> when it does not already hold that
/// chain, so the newest manifest — the commit point — never advertises
/// a rejected timeline.  With no verified chain at all, every manifest
/// goes.  Journal files are kept: the verified chain references some of
/// them, and MaxEpochOnDisk uses the rest to keep their epoch numbers
/// retired forever.
///
/// Machine 0 only, strictly after the post-restore barrier (no peer may
/// still be iterating the directory) and before any new epoch commits.
/// Best-effort: a failure here is logged, not fatal — the ladder
/// re-derives the same step-down from the untouched directory.
inline void InvalidateStaleManifests(const std::string& dir,
                                     const VerifiedChain& chain) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const uint32_t epoch = ManifestEpochOf(name);
    if (epoch == 0) continue;
    if (chain.found && epoch <= chain.manifest.epoch) continue;
    std::error_code rm_ec;
    if (!std::filesystem::remove(entry.path(), rm_ec) || rm_ec) {
      GL_LOG(WARNING) << "could not retire stale manifest " << name << ": "
                      << rm_ec.message();
    }
  }
  if (!chain.found) return;
  auto held = ReadManifestFile(ManifestPathFor(dir, chain.manifest.epoch));
  if (!held.ok() ||
      EncodeSnapshotManifest(*held) != EncodeSnapshotManifest(chain.manifest)) {
    if (Status st = WriteSnapshotManifest(dir, chain.manifest); !st.ok()) {
      GL_LOG(WARNING) << "could not rewrite the manifest of verified epoch "
                      << chain.manifest.epoch << ": " << st.message();
    }
  }
}

template <typename VertexData, typename EdgeData>
class FaultTolerantRunner {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;

  /// The computation, membership-independent: `build` must (re)ingest
  /// `graph` under any given atom placement — it runs once per attempt,
  /// with shrunk placements after failures.
  struct Problem {
    /// Meta-graph over the phase-1 atoms (BuildMetaIndex or a loaded
    /// atom_index.glidx) — drives placement on every membership.
    AtomIndex meta;
    std::function<Status(GraphType* graph,
                         const std::vector<rpc::MachineId>& placement)>
        build;
    UpdateFn<GraphType> update_fn;
    std::string engine = "chromatic";
    EngineOptions engine_options;
    /// Optional extra boundary hook, run before the checkpoint decision
    /// (tests use it for deterministic fault injection; demos for
    /// progress logging).  Non-OK aborts the attempt.
    std::function<Status(uint64_t boundary)> on_boundary;
  };

  FaultTolerantRunner(rpc::MachineContext ctx, FtOptions options)
      : ctx_(ctx),
        options_(std::move(options)),
        detector_(&ctx.comm(), ctx.id, options_),
        allreduce_(&ctx.comm(), 1),
        rendezvous_(&ctx.comm(), &ctx.barrier(), &allreduce_, &ctx.flush()) {}

  FailureDetector& detector() { return detector_; }

  Expected<FtReport> Run(Problem& problem, GraphType* graph) {
    FtReport report;
    const rpc::MachineId me = ctx_.id;
    uint64_t seq = 0;

    // EngineOptions carries the checkpoint cadence knobs too (so apps
    // configure one bag); they win whenever FtOptions left cadence
    // unset.
    if (options_.checkpoint_interval_seconds == 0 &&
        problem.engine_options.checkpoint_interval_seconds > 0) {
      options_.checkpoint_interval_seconds =
          problem.engine_options.checkpoint_interval_seconds;
    }
    if (options_.mtbf_seconds == 0 &&
        problem.engine_options.mtbf_seconds > 0) {
      options_.mtbf_seconds = problem.engine_options.mtbf_seconds;
    }

    // Online rebalancing, when asked for.  Constructed before the fence
    // barrier below for the same handler-alignment reason: a fast
    // machine's round frame must never beat machine 0's handler
    // registration.  And before the abort bundle, which cancels its round.
    rebalancer_.reset();
    if (LoadRebalancer::Enabled(options_)) {
      rebalancer_ =
          std::make_unique<LoadRebalancer>(ctx_, &problem.meta, options_);
    }
    struct ListenerGuard {
      FailureDetector* d;
      ~ListenerGuard() { d->SetPeerDownListener(nullptr); }
    } guard{&detector_};

    // Handler-registration fence: rendezvous ENTER frames go to machine
    // 0, whose handler is registered in ITS runner's constructor, and
    // every machine passes this barrier only once every machine's runner
    // exists.  (The barrier's own handlers are registered at Runtime
    // construction, so entering it is always safe.)  A peer's death
    // must not cut the fence short: the barrier releases over the
    // survivors once they are all in.  Only this machine's own death
    // cancels it, so that machine stops here.
    detector_.SetPeerDownListener([this, me](rpc::MachineId down) {
      if (down == me) ctx_.barrier().Cancel(me);
    });
    ctx_.barrier().Wait(me);

    // Arm the abort bundle for the rest of Run(): any observed death —
    // including this machine's own InjectKill — yanks this machine out
    // of every blocking collective, and aborts whatever engine is
    // currently running.  Runs on transport threads; non-blocking.  A
    // death during the fence is not lost: the rendezvous below adopts
    // machine 0's membership view.
    detector_.SetPeerDownListener([this, me](rpc::MachineId) {
      failure_observed_.store(true, std::memory_order_release);
      ctx_.barrier().Cancel(me);
      allreduce_.Cancel(me);
      ctx_.flush().Cancel(me);
      if (rebalancer_ != nullptr) rebalancer_->Cancel();
      // The engine pointer is guarded: RunAttempt clears it under the
      // same mutex before destroying the engine, so RequestAbort can
      // never hit a freed object.
      std::lock_guard<std::mutex> lock(engine_mutex_);
      if (current_engine_ != nullptr) current_engine_->RequestAbort();
    });

    // Initial alignment (a no-op rendezvous when nothing has failed).
    auto outcome = rendezvous_.Arrive(me, ++seq, false);
    if (!outcome.ok()) return outcome.status();

    for (uint64_t attempt = 1; attempt <= options_.max_recoveries + 1;
         ++attempt) {
      GRAPHLAB_RETURN_IF_ERROR(detector_.CheckSelf());
      report.attempts = attempt;
      failure_observed_.store(false, std::memory_order_release);

      Status st = RunAttempt(problem, graph, outcome->alive, &report);
      if (!st.ok() && st.code() != StatusCode::kAborted) return st;
      if (st.ok() && report.result.aborted) {
        // Nobody died and no migration is pending, yet the sweep decision
        // carried an abort bit: a boundary hook failed.  Every machine
        // saw the same decision, so every machine fails here, and no
        // machine waits at a rendezvous the others skip.
        if (!hook_error_.ok()) return hook_error_;
        return Status::Internal(
            "the run was aborted by another machine's boundary hook");
      }

      const bool saw_failure =
          !st.ok() || failure_observed_.load(std::memory_order_acquire);
      GL_TRACE_BEGIN(trace::kFault, "fault.rendezvous");
      outcome = rendezvous_.Arrive(me, ++seq, saw_failure);
      GL_TRACE_END(trace::kFault, "fault.rendezvous");
      if (!outcome.ok()) return outcome.status();
      if (!outcome->any_failure) return report;  // collective success

      report.recoveries++;
      GL_LOG(WARNING) << "machine " << me << ": recovering (attempt "
                      << attempt + 1 << ", "
                      << outcome->alive.size() << " survivors)";
    }
    return Status::Internal("unrecoverable: more than " +
                            std::to_string(options_.max_recoveries) +
                            " failures in one run");
  }

 private:
  using EngineType = IEngine<GraphType>;

  /// One rendezvous-to-rendezvous attempt.  Aborted = a failure
  /// interrupted it (recoverable); other errors are fatal.
  Status RunAttempt(Problem& problem, GraphType* graph,
                    const std::vector<rpc::MachineId>& alive,
                    FtReport* report) {
    const rpc::MachineId me = ctx_.id;
    Timer recovery_timer;
    const bool restoring = report->recoveries > 0;
    if (restoring) GL_TRACE_BEGIN(trace::kFault, "fault.recovery");

    {
      // Drain: flush every surviving channel before touching the graph,
      // so no stale ghost frame from the aborted run can race the rebuild.
      // The round's precondition holds for the handlers that can run
      // during it: ghost pushes send nothing; the previous attempt's
      // checkpoint coordinator is gone, so its late control frames are
      // dropped unhandled; the barrier and all-reduce masters were reset
      // at the rendezvous, so a stale contribution is discarded
      // unanswered.
      GL_TRACE_SCOPE(trace::kFault, "fault.drain");
      if (!ctx_.barrier().Wait(me)) return Status::Aborted("peer died");
      if (!ctx_.flush().Run(me)) return Status::Aborted("peer died");
    }

    bool migrating = false;
    {
      // Rebuild: same atoms, surviving machines.  A pending rebalance
      // placement (decided collectively at the aborted attempt's last
      // boundary) wins unless a death interrupted that attempt; then
      // every survivor falls back to fresh placement.
      GL_TRACE_SCOPE(trace::kFault, "fault.rebuild");
      std::vector<rpc::MachineId> placement;
      if (rebalancer_ != nullptr) {
        placement = rebalancer_->TakePendingPlacement(alive);
        migrating = !placement.empty();
      }
      if (placement.empty()) {
        placement = PlaceAtomsOnMachines(problem.meta, alive);
      }
      GRAPHLAB_RETURN_IF_ERROR(problem.build(graph, placement));
      if (rebalancer_ != nullptr) rebalancer_->BeginAttempt(alive, placement);
      // All partitions rebuilt before anyone pushes restored ghosts.
      if (!ctx_.barrier().Wait(me)) return Status::Aborted("peer died");
    }
    if (migrating) report->rebalances++;

    // Restore from the last committed epoch (if checkpointing is on and
    // one exists), then re-sync ghost replicas cluster-wide.
    std::unique_ptr<SnapshotManager<VertexData, EdgeData>> snapshots;
    VerifiedChain chain;
    {
      GL_TRACE_SCOPE(trace::kFault, "fault.restore");
      if (!options_.snapshot_dir.empty()) {
        snapshots = std::make_unique<SnapshotManager<VertexData, EdgeData>>(
            ctx_, graph, options_.snapshot_dir);
        // Recovery ladder: trust only a chain whose every journal
        // verifies; step down to an older epoch on corruption rather
        // than aborting.  found == false means no usable snapshot at
        // all — replay from initial state, as before.
        chain = ResolveVerifiedChain(options_.snapshot_dir);
        if (chain.corrupt_journals > 0) {
          report->corrupt_journals += chain.corrupt_journals;
          ctx_.comm()
              .registry(me)
              .counter("fault.corrupt_journals")
              ->Inc(chain.corrupt_journals);
        }
        if (chain.found && restoring) {
          GRAPHLAB_RETURN_IF_ERROR(snapshots->RestoreChain(chain.manifest));
          report->restored_epoch = chain.manifest.epoch;
        }
      }
      // Every survivor finishes replaying the chain into its edge rows
      // before any peer's re-push (ApplyDataPush) writes the same rows.
      if (!ctx_.barrier().Wait(me)) return Status::Aborted("peer died");
      if (chain.found && restoring) snapshots->RepushOwnedScopes();
      // The re-pushed ghosts are applied everywhere once the round is
      // done; its only traffic is those pushes, whose handler sends
      // nothing.
      if (!ctx_.flush().Run(me)) return Status::Aborted("peer died");
    }

    // Every machine is past its ladder resolution (the barrier above),
    // so the coordinator can retire the abandoned timeline: stale
    // manifests above the verified epoch stop being ladder candidates
    // before any new epoch commits next to them.  New epochs then
    // number from above EVERYTHING on disk — including journals of the
    // rejected timeline and of uncommitted epochs — never from
    // restored_epoch + 1: an epoch number, once used by any attempt, is
    // retired forever, so no stale manifest chain can ever resolve
    // against a mix of old- and new-timeline files.
    uint32_t first_epoch = 1;
    if (!options_.snapshot_dir.empty()) {
      if (me == 0) InvalidateStaleManifests(options_.snapshot_dir, chain);
      first_epoch = MaxEpochOnDisk(options_.snapshot_dir) + 1;
    }

    // Resume: fresh checkpoint coordinator and engine for the new
    // membership.  The coordinator is declared before the engine, whose
    // boundary hook uses it, and both end with this attempt; the
    // coordinator's destructor joins its writer thread.
    std::unique_ptr<CheckpointCoordinator<VertexData, EdgeData>> checkpoint;
    if (snapshots != nullptr) {
      checkpoint =
          std::make_unique<CheckpointCoordinator<VertexData, EdgeData>>(
              ctx_, snapshots.get(), options_, first_epoch);
    }
    DistributedEngineDeps<VertexData, EdgeData> deps;
    deps.allreduce = &allreduce_;
    auto engine = CreateEngine(problem.engine, ctx_, graph,
                               problem.engine_options, deps);
    GRAPHLAB_RETURN_IF_ERROR(engine.status());
    GL_TRACE_BEGIN(trace::kFault, "fault.resume");

    hook_error_ = Status::OK();
    (*engine)->SetBoundaryHook([this, &problem, &checkpoint](
                                   uint64_t boundary) -> Status {
      // The checkpoint and rebalance protocols are collective: even when
      // the extra hook fails, this machine must still participate or the
      // others would wait on its DONE forever (both unblock on
      // membership changes).  The first error wins.
      Status extra = problem.on_boundary ? problem.on_boundary(boundary)
                                         : Status::OK();
      bool migrate = false;
      Status rebal = rebalancer_ != nullptr
                         ? rebalancer_->AtBoundary(boundary, &migrate)
                         : Status::OK();
      // On a migrate decision the checkpoint at THIS boundary is forced
      // full, so the next attempt restores the exact pre-migration state
      // (boundary-aligned, channels flushed — nothing is in flight).
      if (migrate && checkpoint != nullptr) checkpoint->ForceFullNext();
      Status ckpt = checkpoint != nullptr ? checkpoint->AtBoundary(boundary)
                                          : Status::OK();
      for (const Status* st : {&extra, &rebal, &ckpt}) {
        if (st->ok()) continue;
        if (hook_error_.ok()) hook_error_ = *st;
        return *st;
      }
      // Abort the attempt to run the drain -> rebuild -> restore path
      // over the amended placement.  Collective: every machine got the
      // same decision, so every machine aborts at this boundary.
      if (migrate) return Status::Aborted("rebalance migration");
      return Status::OK();
    });
    (*engine)->SetUpdateFn(problem.update_fn);
    (*engine)->ScheduleAll();

    // Publish for the abort bundle, then close the arming race: a death
    // observed before publication must still abort this engine.
    {
      std::lock_guard<std::mutex> lock(engine_mutex_);
      current_engine_ = engine->get();
    }
    if (failure_observed_.load(std::memory_order_acquire)) {
      (*engine)->RequestAbort();
    }
    if (report->recoveries > 0 && report->recovery_seconds == 0) {
      report->recovery_seconds = recovery_timer.Seconds();
      ctx_.comm()
          .registry(me)
          .histogram("fault.recovery_ms")
          ->Record(static_cast<uint64_t>(report->recovery_seconds * 1e3));
    }
    if (migrating) {
      // Migration latency: decide-boundary abort -> engine resumed on
      // the amended placement (the bench's "rebalance latency" row).
      report->rebalance_seconds = recovery_timer.Seconds();
      ctx_.comm()
          .registry(me)
          .histogram("fault.rebalance_ms")
          ->Record(static_cast<uint64_t>(report->rebalance_seconds * 1e3));
    }
    GL_TRACE_END(trace::kFault, "fault.resume");
    if (restoring) GL_TRACE_END(trace::kFault, "fault.recovery");

    RunResult result = (*engine)->Start();
    {
      std::lock_guard<std::mutex> lock(engine_mutex_);
      current_engine_ = nullptr;
    }

    // The last boundary's checkpoint round may still be writing or
    // committing.  Finish it on every path — a migration's forced-full
    // epoch must be committed before the next attempt resolves its
    // restore chain — and before the counters below are read.
    const Status last_round =
        checkpoint != nullptr ? checkpoint->AwaitRound() : Status::OK();
    if (checkpoint != nullptr) {
      report->checkpoints_written += checkpoint->checkpoints_written();
      report->full_checkpoints += checkpoint->full_checkpoints_written();
      report->delta_checkpoints += checkpoint->delta_checkpoints_written();
      report->checkpoint_bytes_full += checkpoint->checkpoint_bytes_full();
      report->checkpoint_bytes_delta += checkpoint->checkpoint_bytes_delta();
      report->checkpoint_seconds += checkpoint->checkpoint_seconds();
      report->checkpoint_interval_seconds = checkpoint->interval_seconds();
    }
    if (failure_observed_.load(std::memory_order_acquire)) {
      return Status::Aborted("peer died during run");
    }
    // A write, manifest or membership failure in the last round: no
    // boundary is left to return it, so the attempt does.
    GRAPHLAB_RETURN_IF_ERROR(last_round);
    if (rebalancer_ != nullptr && rebalancer_->migration_pending()) {
      // The hook aborted the engine with nobody dead: a live migration.
      // Report Aborted so the rendezvous votes "retry" collectively and
      // the next attempt rebuilds on the pending placement.
      return Status::Aborted("rebalance migration");
    }
    report->result = result;
    return Status::OK();
  }

  rpc::MachineContext ctx_;
  FtOptions options_;
  FailureDetector detector_;
  SumAllReduce allreduce_;
  RecoveryRendezvous rendezvous_;
  std::unique_ptr<LoadRebalancer> rebalancer_;
  std::mutex engine_mutex_;
  EngineType* current_engine_ = nullptr;  // guarded by engine_mutex_
  std::atomic<bool> failure_observed_{false};
  // The attempt's first failed boundary-hook status; the hook runs on
  // the thread that called the engine's Start().
  Status hook_error_;
};

}  // namespace fault
}  // namespace graphlab

#endif  // GRAPHLAB_FAULT_FT_RUNNER_H_
