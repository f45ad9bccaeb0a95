// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The Distributed Locking Engine (Sec. 4.2.2) — fully asynchronous,
// supports general graphs (no coloring needed) and vertex priorities.
//
// Pipelined locking and prefetching: each machine keeps a pipeline of
// scope-lock requests in flight (Alg. 4).  The local scheduler feeds the
// pipeline; scopes whose distributed locks complete move to a ready queue
// consumed by the substrate's worker loop; after executing the update the
// worker pushes ghost changes *then* releases the locks (the order the
// FIFO-channel coherence argument requires).  Termination uses the
// distributed counting consensus (rpc/termination.h) polled by the
// coordinator hook running on the substrate's calling thread.  Sync
// operations run continuously in the background.  Snapshots (sync or
// async Chandy-Lamport) are triggered by the coordinator mid-run
// (Sec. 4.3).
//
// One engine per machine; Start() is collective and single-use:
// construct a fresh engine per run.

#ifndef GRAPHLAB_ENGINE_LOCKING_ENGINE_H_
#define GRAPHLAB_ENGINE_LOCKING_ENGINE_H_

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/locking/lock_manager.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/timer.h"

namespace graphlab {

template <typename VertexData, typename EdgeData>
class LockingEngine final
    : public EngineBase<DistributedGraph<VertexData, EdgeData>> {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  LockingEngine(rpc::MachineContext ctx, GraphType* graph,
                SyncManager<GraphType>* sync, SumAllReduce* allreduce,
                SnapshotManager<VertexData, EdgeData>* snapshot,
                EngineOptions options)
      : Base(std::move(options)),
        ctx_(ctx),
        graph_(graph),
        sync_(sync),
        allreduce_(allreduce),
        snapshot_(snapshot),
        lock_manager_(ctx, graph, this->options_.consistency,
                      [this](LocalVid v, double priority) {
                        in_pipeline_.fetch_sub(1, std::memory_order_acq_rel);
                        ready_.Push(Task{v, priority});
                      }),
        scheduler_(
            this->MakeScheduler(graph->num_local_vertices(), "priority")),
        user_pending_(graph->num_local_vertices()),
        snapshot_pending_(graph->num_local_vertices()) {
    if (this->options_.max_pipeline_length == 0) {
      this->options_.max_pipeline_length = 1;
    }
    // Precompile the owned-restricted local lock set of every scope this
    // machine participates in: chain hops and releases then walk flat
    // spans instead of re-deriving (and allocating) the set per request.
    // Safe here: no machine issues lock requests before the collective
    // barrier inside Start(), by which time every engine is constructed.
    lock_manager_.CompilePlans(
        [this](size_t n, const std::function<void(size_t, size_t)>& fn) {
          this->substrate_.RunBatch(this->options_.num_threads, n, fn);
        });
    forward_scope_ = ctx_.comm().RegisterHandler(
        ctx_.id, kScheduleForwardHandler,
        [this](rpc::MachineId src, InArchive& ia) {
          DeliverForwards(src, ia);
        });
    trigger_scope_ = ctx_.comm().RegisterHandler(
        ctx_.id, kSnapshotTriggerHandler,
        [this](rpc::MachineId, InArchive& ia) {
          uint8_t mode = ia.ReadValue<uint8_t>();
          if (mode == 1) {
            sync_snapshot_requested_.store(true, std::memory_order_release);
          } else {
            async_snapshot_requested_.store(true, std::memory_order_release);
          }
        });
  }

  const char* name() const override { return "locking"; }

  /// Schedules a local-or-ghost vertex; ghosts are forwarded.
  void Schedule(LocalVid l, double priority = 1.0) override {
    if (this->substrate_.aborted()) return;
    if (graph_->is_owned(l)) {
      ScheduleUserLocal(l, priority);
    } else {
      ForwardSchedule(l, priority, /*snapshot=*/false);
    }
  }

  /// Seeds T with every owned vertex at the given priority.
  void ScheduleAll(double priority = 1.0) override {
    for (LocalVid l : graph_->owned_vertices()) {
      ScheduleUserLocal(l, priority);
    }
  }
  void ScheduleAllOwned(double priority = 1.0) { ScheduleAll(priority); }

  /// Runs the engine until global quiescence.  Collective, and single-use:
  /// construct a fresh engine per run.  `max_updates` budgets are not
  /// supported (the run ends at the distributed termination consensus);
  /// AbortAndJoin() drains the cluster early instead.
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(this->update_fn_) << "no update function";
    GL_CHECK_EQ(max_updates, uint64_t{0})
        << "locking engine runs to the distributed termination consensus";
    GL_TRACE_SCOPE(trace::kEngine, "locking.run");
    Timer timer;
    // Bracket the whole run — including the collective teardown after the
    // workers join — so AbortAndJoin() callers cannot observe Start() as
    // finished while this machine is still inside allreduce/barriers.
    this->substrate_.BeginRun();
    // Pin immediate per-scope flushing regardless of ghost_coalescing:
    // the coherence argument needs every push on the channel BEFORE the
    // lock release that follows it, so subsequent lock holders observe
    // the write (FIFO channels).  A coalescing window would break that.
    graph_->SetGhostSyncMode(GhostSyncMode::kPerScope);
    rpc::CommStats before = ctx_.comm().GetStats(ctx_.id);
    const uint64_t updates_at_start = this->substrate_.total_updates();
    const double busy_before = this->substrate_.busy_seconds();
    progress_.clear();
    if (snapshot_ != nullptr &&
        this->options_.snapshot_mode == SnapshotMode::kAsynchronous) {
      snapshot_->BeginAsyncEpoch(this->options_.snapshot_epoch);
      snapshot_fn_ = snapshot_->MakeSnapshotUpdateFn();
    }

    // Install termination state provider and open a fresh detection epoch.
    ctx_.termination().SetStateFn(ctx_.id, [this] {
      rpc::TerminationDetector::LocalState st;
      st.idle = LocallyIdle();
      st.tasks_sent = tasks_sent_.load(std::memory_order_acquire);
      st.tasks_received = tasks_received_.load(std::memory_order_acquire);
      return st;
    });
    ctx_.barrier().Wait(ctx_.id);
    if (ctx_.id == 0) ctx_.termination().NewRun();
    ctx_.barrier().Wait(ctx_.id);

    // Workers drain the granted-scope queue; the coordinator hook runs on
    // this thread until the cluster-wide termination verdict.
    ExecutionSubstrate::WorkerHooks hooks;
    hooks.exit_on_quiescence = false;
    hooks.tick = [this] {
      if (ctx_.comm().StallActive(ctx_.id)) {
        // Simulated machine fault: freeze like the comm dispatcher does.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return false;
      }
      // While paused (synchronous snapshot) the pipeline is not refilled
      // (TryFillPipeline checks), but already-granted scopes must still
      // execute so their locks release and the cluster can drain.
      TryFillPipeline();
      return true;
    };
    hooks.next_task = [this](LocalVid* v, double* priority,
                             size_t /*worker*/) {
      // The ready queue is fed by lock-grant callbacks, not per-worker —
      // the worker affinity applies one stage earlier, where
      // TryFillPipeline pops the scheduler (its two-argument GetNext
      // resolves the calling worker's published affinity).
      auto task = ready_.PopWithTimeout(std::chrono::microseconds(500));
      if (!task.has_value()) return false;
      *v = task->vid;
      *priority = task->priority;
      return true;
    };
    hooks.execute = [this](LocalVid v, double priority) {
      ExecuteTask(v, priority);
      TryFillPipeline();
    };
    this->substrate_.RunWorkers(
        this->options_.num_threads, /*max_updates=*/0, hooks, [this, &timer] {
          CoordinatorLoop(timer);
          // Drain a snapshot trigger that raced with the termination
          // verdict so no machine is left alone at the snapshot barrier.
          if (sync_snapshot_requested_.exchange(false,
                                                std::memory_order_acq_rel)) {
            PerformSyncSnapshot();
          }
          ready_.Shutdown();  // unblock the workers' timed pops
        });

    if (snapshot_ != nullptr && snapshot_fired_ &&
        this->options_.snapshot_mode == SnapshotMode::kAsynchronous) {
      GL_CHECK_OK(snapshot_->FinishAsync());
    }

    this->last_result_ = RunResult{};
    std::vector<uint64_t> totals = allreduce_->Reduce(
        ctx_.id, {this->substrate_.total_updates() - updates_at_start});
    this->last_result_.updates = totals[0];
    this->last_result_.seconds = timer.Seconds();
    this->last_result_.busy_seconds =
        this->substrate_.busy_seconds() - busy_before;
    rpc::CommStats after = ctx_.comm().GetStats(ctx_.id);
    this->last_result_.bytes_sent = after.bytes_sent - before.bytes_sent;
    this->last_result_.messages_sent =
        after.messages_sent - before.messages_sent;
    // Let in-flight release / push messages land before Start() returns,
    // so whoever reads the graph next sees current ghosts: one flush
    // round, which also aligns the machines.  Its
    // precondition holds after the termination verdict: no lock request
    // is outstanding anywhere, so a release frees locks nobody waits for
    // and the grant and chain-hop handlers have nothing to send; every
    // forwarded task was received (the verdict balances them), and ghost
    // pushes send nothing.  A sync partial still in flight may make
    // machine 0 publish after its frame, but that lands in the
    // SyncManager, which outlives the engine.
    ctx_.flush().Run(ctx_.id);
    this->substrate_.EndRun();
    return this->last_result_;
  }

  /// (elapsed seconds, cumulative local updates) samples of the last run.
  const std::vector<std::pair<double, uint64_t>>& progress() const override {
    return progress_;
  }

 private:
  struct Task {
    LocalVid vid;
    double priority;
  };

  // ------------------------------------------------------------------
  // Scheduling
  // ------------------------------------------------------------------
  static void ScheduleSnapshot(void* self, LocalVid v, double priority) {
    auto* e = static_cast<LockingEngine*>(self);
    if (e->graph_->is_owned(v)) {
      e->ScheduleSnapshotLocal(v);
    } else {
      e->ForwardSchedule(v, priority, /*snapshot=*/true);
    }
  }

  void ScheduleUserLocal(LocalVid l, double priority) {
    if (this->substrate_.aborted()) return;
    user_pending_.SetBit(l);
    scheduler_->Schedule(l, priority);
  }

  void ScheduleSnapshotLocal(LocalVid l) {
    snapshot_pending_.SetBit(l);
    scheduler_->Schedule(l, kSnapshotPriority);
  }

  /// Decodes one schedule-forward frame of (gvid, priority, snapshot)
  /// triples.  The frame is accepted whole or dropped whole: a torn
  /// triple, a gvid this machine does not hold, or a gvid it holds only
  /// as a ghost (the bytes are corrupt or hostile; a real sender forwards
  /// to the owner) is logged and schedules nothing.  Only accepted
  /// triples count as received tasks, so a dropped frame cannot unbalance
  /// termination detection.
  void DeliverForwards(rpc::MachineId src, InArchive& ia) {
    struct Forward {
      LocalVid l;
      double priority;
      bool snapshot;
    };
    thread_local std::vector<Forward> forwards;
    forwards.clear();
    const char* problem = nullptr;
    while (problem == nullptr && !ia.AtEnd()) {
      const VertexId gvid = ia.ReadValue<VertexId>();
      const double priority = ia.ReadValue<double>();
      const uint8_t snap = ia.ReadValue<uint8_t>();
      const LocalVid l = ia.ok() ? graph_->TryLvid(gvid) : kInvalidLocalVid;
      if (!ia.ok()) {
        problem = "torn triple";
      } else if (l == kInvalidLocalVid) {
        problem = "non-local vertex";
      } else if (!graph_->is_owned(l)) {
        problem = "ghost vertex";
      } else {
        forwards.push_back({l, priority, snap != 0});
      }
    }
    if (problem != nullptr) {
      GL_LOG(ERROR) << "machine " << ctx_.id << ": schedule forward from "
                    << src << ": " << problem << "; dropping frame";
      return;
    }
    for (const Forward& f : forwards) {
      tasks_received_.fetch_add(1, std::memory_order_acq_rel);
      if (f.snapshot) {
        ScheduleSnapshotLocal(f.l);
      } else {
        ScheduleUserLocal(f.l, f.priority);
      }
    }
  }

  void ForwardSchedule(LocalVid ghost, double priority, bool snapshot) {
    OutArchive oa;
    oa << graph_->Gvid(ghost) << priority
       << static_cast<uint8_t>(snapshot ? 1 : 0);
    tasks_sent_.fetch_add(1, std::memory_order_acq_rel);
    ctx_.comm().Send(ctx_.id, graph_->owner(ghost), kScheduleForwardHandler,
                     std::move(oa));
  }

  /// Abort: stop feeding the pipeline and drop queued tasks; granted
  /// scopes still execute and release, so the cluster drains and the
  /// termination consensus ends the run on every machine.
  void OnAbort() override { scheduler_->Clear(); }

  // ------------------------------------------------------------------
  // Pipeline
  // ------------------------------------------------------------------
  void TryFillPipeline() {
    if (paused_.load(std::memory_order_acquire)) return;
    for (;;) {
      size_t cur = in_pipeline_.load(std::memory_order_acquire);
      if (cur >= this->options_.max_pipeline_length) return;
      if (!in_pipeline_.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_acq_rel)) {
        continue;
      }
      LocalVid v;
      double priority;
      if (!scheduler_->GetNext(&v, &priority)) {
        in_pipeline_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
      lock_manager_.RequestScope(v, priority);
    }
  }

  bool LocallyIdle() const {
    return scheduler_->Empty() &&
           in_pipeline_.load(std::memory_order_acquire) == 0 &&
           ready_.Size() == 0 && this->substrate_.active_workers() == 0 &&
           !paused_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------------
  // Execution
  // ------------------------------------------------------------------
  void ExecuteTask(LocalVid v, double priority) {
    bool run_snapshot = snapshot_pending_.ClearBit(v);
    bool run_user = user_pending_.ClearBit(v);
    if (run_snapshot && snapshot_fn_) {
      ContextType sctx(graph_, v, kSnapshotPriority,
                       this->options_.consistency, this, &ScheduleSnapshot);
      snapshot_fn_(sctx);
    }
    if (run_user) {
      ContextType uctx(graph_, v, priority, this->options_.consistency,
                       static_cast<Base*>(this), &Base::ScheduleTrampoline);
      this->update_fn_(uctx);
      this->substrate_.CountUpdate();
    }
    // Push ghost changes *before* releasing locks: the FIFO channels then
    // guarantee every subsequent lock holder observes this write.
    graph_->FlushVertexScope(v);
    lock_manager_.ReleaseScope(v);
  }

  // ------------------------------------------------------------------
  // Coordination: termination, syncs, snapshots, progress
  // ------------------------------------------------------------------
  void CoordinatorLoop(const Timer& timer) {
    Timer since_sync;
    double next_sample = 0.0;
    while (!ctx_.termination().Done(ctx_.id)) {
      ctx_.termination().Poll(ctx_.id);

      if (this->options_.progress_sample_ms != 0 &&
          timer.Seconds() * 1e3 >= next_sample) {
        next_sample += static_cast<double>(this->options_.progress_sample_ms);
        progress_.emplace_back(timer.Seconds(),
                               this->substrate_.total_updates());
      }

      if (sync_ != nullptr && this->options_.sync_interval_ms != 0 &&
          since_sync.Millis() >=
              static_cast<double>(this->options_.sync_interval_ms)) {
        since_sync.Start();
        for (const std::string& key : this->options_.sync_keys) {
          sync_->RunSyncAsync(key, ctx_.id);
        }
      }

      MaybeTriggerSnapshot();
      if (sync_snapshot_requested_.exchange(false,
                                            std::memory_order_acq_rel)) {
        PerformSyncSnapshot();
      }
      if (async_snapshot_requested_.exchange(false,
                                             std::memory_order_acq_rel)) {
        // Seed the Chandy-Lamport markers: one initiator per machine so
        // disconnected partitions are covered too.
        snapshot_fired_ = true;
        if (!graph_->owned_vertices().empty()) {
          ScheduleSnapshotLocal(graph_->owned_vertices().front());
        }
      }

      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void MaybeTriggerSnapshot() {
    if (ctx_.id != 0 || snapshot_fired_ ||
        this->options_.snapshot_mode == SnapshotMode::kNone ||
        snapshot_ == nullptr) {
      return;
    }
    uint64_t estimate =
        this->substrate_.total_updates() * ctx_.num_machines();
    if (estimate < this->options_.snapshot_trigger_updates) return;
    snapshot_fired_ = true;
    uint8_t mode =
        this->options_.snapshot_mode == SnapshotMode::kSynchronous ? 1 : 2;
    for (rpc::MachineId dst = 0; dst < ctx_.num_machines(); ++dst) {
      OutArchive oa;
      oa << mode;
      ctx_.comm().Send(0, dst, kSnapshotTriggerHandler, std::move(oa));
    }
  }

  /// Stop-the-world snapshot: drain local work, flush channels cluster
  /// wide, journal, resume (Sec. 4.3 synchronous strategy).
  void PerformSyncSnapshot() {
    GL_TRACE_SCOPE(trace::kSnapshot, "locking.sync_snapshot");
    snapshot_fired_ = true;  // on non-coordinator machines
    paused_.store(true, std::memory_order_release);
    while (!(in_pipeline_.load(std::memory_order_acquire) == 0 &&
             ready_.Size() == 0 &&
             this->substrate_.active_workers() == 0)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Once every machine has entered the barrier, every pipeline is
    // empty and paused, so no lock request is outstanding: the flush
    // round's handlers (releases, ghost pushes, schedule forwards) send
    // nothing.  A sync publish trailing machine 0's frame touches no
    // vertex or edge data, so the journal stays consistent.
    ctx_.barrier().Wait(ctx_.id);
    ctx_.flush().Run(ctx_.id);
    GL_CHECK_OK(snapshot_->WriteSyncSnapshot(this->options_.snapshot_epoch));
    ctx_.barrier().Wait(ctx_.id);
    paused_.store(false, std::memory_order_release);
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  SyncManager<GraphType>* sync_;
  SumAllReduce* allreduce_;
  SnapshotManager<VertexData, EdgeData>* snapshot_;

  DistributedLockManager<VertexData, EdgeData> lock_manager_;
  std::unique_ptr<IScheduler> scheduler_;
  DenseBitset user_pending_;
  DenseBitset snapshot_pending_;
  UpdateFn<GraphType> snapshot_fn_;

  BlockingQueue<Task> ready_;
  std::atomic<size_t> in_pipeline_{0};
  std::atomic<uint64_t> tasks_sent_{0};
  std::atomic<uint64_t> tasks_received_{0};
  std::atomic<bool> paused_{false};
  std::atomic<bool> sync_snapshot_requested_{false};
  std::atomic<bool> async_snapshot_requested_{false};
  bool snapshot_fired_ = false;

  std::vector<std::pair<double, uint64_t>> progress_;

  rpc::HandlerScope forward_scope_;
  rpc::HandlerScope trigger_scope_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_LOCKING_ENGINE_H_
