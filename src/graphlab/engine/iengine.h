// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// IEngine<Graph>: the uniform engine concept every execution strategy
// implements (the "one abstraction, many consistency models and execution
// strategies" claim of Low et al., PVLDB 2012, Sec. 3).
//
// An engine owns the Alg. 2 loop for one machine: it maintains the task
// set T through a scheduler, executes the user update function over vertex
// scopes under the configured consistency model, and cooperates with the
// cluster on termination.  Five strategies implement the concept:
//
//   name             graph type          execution strategy
//   ---------------  ------------------  --------------------------------
//   shared_memory    LocalGraph          async workers, local scope locks
//   bsp              LocalGraph          synchronous supersteps (Pregel)
//   chromatic        DistributedGraph    color-steps + flush rounds
//   locking          DistributedGraph    pipelined distributed scope locks
//   bulk_sync        DistributedGraph    dense supersteps + bulk exchange
//
// Construct engines through CreateEngine() (engine/engine_factory.h);
// the shared run-loop machinery they delegate to lives in
// engine/execution_substrate.h.

#ifndef GRAPHLAB_ENGINE_IENGINE_H_
#define GRAPHLAB_ENGINE_IENGINE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/context.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/status.h"

namespace graphlab {

namespace metrics {
class MetricsRegistry;
}  // namespace metrics

/// Snapshot strategies of Sec. 4.3 (locking engine only).
enum class SnapshotMode { kNone, kSynchronous, kAsynchronous };

/// Unified engine configuration.  Every engine reads the subset of knobs
/// relevant to its strategy and ignores the rest; the comments note which
/// strategies consume each field.
struct EngineOptions {
  /// Consistency model enforced around every update (all engines).
  ConsistencyModel consistency = ConsistencyModel::kEdgeConsistency;

  /// Worker threads per machine (all engines; a deliberately unified
  /// default — the pre-unification engines varied between 2 and 4).
  size_t num_threads = 2;

  /// Scheduler maintaining T: "fifo" | "sweep" | "priority"
  /// (shared_memory, locking).  Empty picks the strategy's documented
  /// default: "fifo" everywhere except the priority-driven locking
  /// engine (Sec. 4.2.2).
  std::string scheduler;

  /// Shard count for the sharded work-stealing schedulers
  /// (shared_memory, locking).  0 = auto: num_threads rounded down to a
  /// power of two, so every shard is some worker's home shard (see the
  /// starvation rule at ResolveSchedulerShards).
  size_t scheduler_shards = 0;

  /// When false, no scope locks are taken: the racing / non-serializable
  /// execution of Fig. 1(d).  Only use with race-tolerant vertex data
  /// (shared_memory, bsp, bulk_sync update-fn mode).
  bool enforce_consistency = true;

  /// Maximum scope-lock requests in flight, Sec. 4.2.2 (locking).
  size_t max_pipeline_length = 100;

  /// Iteration budget: color sweeps (chromatic) or supersteps (bsp,
  /// bulk_sync).  0 = run until the cluster-wide task set empties
  /// (bulk_sync kernel mode treats 0 as its legacy default of 10).
  uint64_t max_sweeps = 0;

  /// Stop when the summed kernel residual drops below this; 0 = never
  /// (bulk_sync kernel mode).
  double residual_tolerance = 0.0;

  /// Coalesce ghost pushes into per-peer framed delta batches shipped at
  /// window boundaries (chromatic color-steps, bulk-sync supersteps)
  /// instead of one frame per scope commit.  Repeated writes to the same
  /// ghost entity within a window merge, cutting bytes on the wire.  The
  /// locking engine ignores this: its coherence argument needs pushes on
  /// the channel before lock releases (per-scope mode).
  bool ghost_coalescing = true;

  /// Background sync cadence in milliseconds (locking; 0 = off).
  uint64_t sync_interval_ms = 0;
  /// Sync cadence in color-steps (chromatic; 0 = off).
  uint64_t sync_interval_steps = 0;
  /// Registered sync operations driven at the cadence above.
  std::vector<std::string> sync_keys;

  /// Record (elapsed seconds, local updates) samples at this cadence for
  /// the Fig. 4 updates-vs-time curves (locking; 0 = off).
  uint64_t progress_sample_ms = 0;

  /// Snapshot configuration, Sec. 4.3 (locking).
  SnapshotMode snapshot_mode = SnapshotMode::kNone;
  uint64_t snapshot_trigger_updates = 0;
  uint32_t snapshot_epoch = 1;

  /// Checkpoint cadence (consumed by fault::CheckpointCoordinator via the
  /// fault-tolerant runner, not by the engines themselves).  A fixed
  /// interval in seconds wins when > 0; otherwise mtbf_seconds > 0 derives
  /// the interval from Young's approximation (Eq. 3 of Sec. 4.3,
  /// OptimalCheckpointIntervalSeconds) using the measured checkpoint
  /// cost.  Both 0 = no periodic checkpoints.
  double checkpoint_interval_seconds = 0;
  double mtbf_seconds = 0;

  /// Metrics namespace the engine (and the scheduler it hosts) reports
  /// through: engine.updates, sched.steals, lock.stall_ns...  nullptr resolves to the machine's registry on the
  /// distributed CreateEngine path (rpc/transport.h) and to
  /// metrics::Default() otherwise, so reporting is always on; the cost is
  /// one relaxed striped increment per event.
  metrics::MetricsRegistry* metrics = nullptr;
};

/// Point-in-time counters exposed by every engine.
struct EngineMetrics {
  uint64_t updates = 0;        // update-function executions on this machine
  double busy_seconds = 0.0;   // engine worker CPU time (RunResult)
  uint64_t runs = 0;           // completed Start() calls
  bool aborted = false;        // AbortAndJoin() was requested
};

/// The engine concept.  `Graph` is LocalGraph<V, E> for the single-machine
/// strategies and DistributedGraph<V, E> for the cluster strategies; in
/// the distributed case vertex ids passed to Schedule() are machine-local
/// ids and ghost schedules are forwarded to the owner.
template <typename Graph>
class IEngine {
 public:
  using GraphType = Graph;
  using ContextType = Context<Graph>;
  using UpdateFnType = UpdateFn<Graph>;

  virtual ~IEngine() = default;

  /// Strategy name, matching the CreateEngine() key ("locking", ...).
  virtual const char* name() const = 0;

  /// Installs the f(v, S_v) of Sec. 3.2.  Must be set before Start().
  virtual void SetUpdateFn(UpdateFn<Graph> fn) = 0;

  /// Adds vertex `v` to T (idempotent; priorities merge by max).  On
  /// distributed engines ghost vertices are forwarded to their owner.
  /// Dropped after AbortAndJoin().
  virtual void Schedule(LocalVid v, double priority = 1.0) = 0;

  /// Seeds T with every vertex this machine executes (all vertices for
  /// local engines, owned vertices for distributed ones).
  virtual void ScheduleAll(double priority = 1.0) = 0;

  /// Executes the schedule until quiescence.  Blocking; collective on
  /// distributed engines (every machine must call concurrently).
  /// `max_updates` (0 = unlimited) bounds the additional update count for
  /// strategies that support slicing (shared_memory, bsp); the collective
  /// strategies run to their natural termination and document so.
  virtual RunResult Start(uint64_t max_updates = 0) = 0;

  /// Cooperatively stops a Start() in progress: new schedules are
  /// dropped, in-flight scopes finish and release, and the cluster drains
  /// to a consistent quiescent state.  From another thread the call
  /// blocks until Start() has returned; from inside an update function it
  /// flags the abort and returns immediately (the run winds down once the
  /// update returns).  Idempotent; safe to call when no run is active.
  virtual void AbortAndJoin() = 0;

  /// The non-blocking half of AbortAndJoin(): flags the abort and
  /// returns immediately.  Safe from any thread, including transport /
  /// failure-detector callbacks that must never block (the fault runner
  /// calls this the moment a peer death is observed).
  virtual void RequestAbort() = 0;
  virtual bool aborted() const = 0;

  /// Installs a hook the collective engines invoke at every globally
  /// consistent boundary — end of a chromatic sweep (after its last
  /// step-end exchange) or a bulk-sync superstep (after its barrier),
  /// when every ghost write of the window has been applied and no
  /// machine can send the next window's data before the boundary's
  /// collective decision.  The fault subsystem hangs
  /// its checkpoint coordinator here.  A non-OK return aborts the run
  /// cooperatively.  Engines without such boundaries (shared_memory,
  /// bsp, locking — the latter snapshots through its own Sec. 4.3
  /// machinery) ignore the hook.
  using BoundaryHook = std::function<Status(uint64_t boundary)>;
  virtual void SetBoundaryHook(BoundaryHook hook) { (void)hook; }

  // ------------------------------------------------------------------
  // Stats / metrics
  // ------------------------------------------------------------------
  /// Update executions on this machine across all runs.
  virtual uint64_t total_updates() const = 0;
  /// Updates this machine contributed to the last run.  Strategies
  /// without per-run tracking report the engine-lifetime total — equal
  /// for the construct-per-run pattern, cumulative if Start() is sliced.
  virtual uint64_t local_updates() const { return total_updates(); }
  virtual EngineMetrics metrics() const = 0;
  /// Summary of the most recent Start() (updates are cluster-wide on
  /// distributed engines).
  virtual const RunResult& last_result() const = 0;
  /// (elapsed seconds, cumulative local updates) samples of the last run;
  /// empty unless the strategy records progress (locking).
  virtual const std::vector<std::pair<double, uint64_t>>& progress() const {
    static const std::vector<std::pair<double, uint64_t>> kEmpty;
    return kEmpty;
  }
  /// Per-vertex update counters (Fig. 1(b)); no-op on strategies that do
  /// not track them.
  virtual void EnableUpdateCounting() {}
  virtual const std::vector<uint32_t>& update_counts() const {
    static const std::vector<uint32_t> kEmpty;
    return kEmpty;
  }
  virtual const EngineOptions& options() const = 0;
};

/// Scheduler factory routed through the engine options (the engine-facing
/// spelling of CreateScheduler; see scheduler/scheduler.h).
/// `default_name` resolves an empty options.scheduler to the calling
/// strategy's documented default.
inline Expected<std::unique_ptr<IScheduler>> CreateScheduler(
    const EngineOptions& options, size_t num_vertices,
    const std::string& default_name = "fifo") {
  // Default the shard count to the worker count (rounded down to a
  // power of two): every shard must be some worker's home shard or
  // home-first draining starves the un-homed shards (see
  // ResolveSchedulerShards).
  size_t shards = options.scheduler_shards;
  if (shards == 0) {
    shards = std::bit_floor(std::max<size_t>(1, options.num_threads));
  }
  return CreateScheduler(
      options.scheduler.empty() ? default_name : options.scheduler,
      num_vertices, shards);
}

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_IENGINE_H_
