// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// ExecutionSubstrate: the run-loop machinery shared by every engine.
//
// Before this layer existed each engine re-implemented its own worker
// pool, scheduler drain loop, scope locking, and termination detection.
// The substrate extracts the three reusable pieces so engines reduce to
// thin strategy layers:
//
//   1. RunWorkers(): the asynchronous Alg. 2 loop — spawn N workers, each
//      repeatedly pops a task from the strategy's source and executes it,
//      with cooperative local termination (idle-spin quiescence over
//      "no tasks + no active worker + strategy-idle") or an external
//      verdict (the distributed counting consensus) driving exit.  Used by
//      the shared_memory and locking engines.
//
//   2. RunBatch(): the synchronous superstep executor — a persistent
//      worker pool self-schedules dynamic chunks of an index range.  Used
//      by the chromatic, bsp, and bulk_sync engines for their
//      color-steps / supersteps.
//
//   3. ScopeLockTable: blocking consistency-scope acquisition for the
//      single-machine case, built on the same non-blocking callback
//      readers-writer locks (engine/locking/) that the distributed
//      lock manager uses.  Locks are taken in the canonical ascending
//      vertex order of Sec. 4.2.2, so acquisition is deadlock free.
//
// All counters every engine reports (updates, busy time) live here too,
// so IEngine's stats accessors are uniform across strategies.

#ifndef GRAPHLAB_ENGINE_EXECUTION_SUBSTRATE_H_
#define GRAPHLAB_ENGINE_EXECUTION_SUBSTRATE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <semaphore>
#include <thread>
#include <utility>
#include <vector>

#include "graphlab/engine/iengine.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/engine/scope_lock_plan.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/util/logging.h"
#include "graphlab/util/thread_pool.h"
#include "graphlab/util/timer.h"

namespace graphlab {

// ---------------------------------------------------------------------
// Local consistency-scope acquisition
// ---------------------------------------------------------------------

/// Blocking scope locks over the callback lock table.  One instance per
/// engine covering its local vertex ids.  AcquireScope() blocks the
/// calling worker until every lock of v's scope (central vertex exclusive;
/// neighbors shared under edge consistency, exclusive under full
/// consistency, untouched under vertex consistency) is held; locks are
/// taken one at a time in ascending vertex order, which is deadlock free.
///
/// CompilePlan() precompiles every vertex's lock set into a flat CSR
/// ScopeLockPlan once per (graph, model) pair; Acquire/ReleaseScope for
/// that model then walk a contiguous span with zero per-update
/// allocation.  Calls under a different model (or before compilation)
/// fall back to deriving the set per update.
class ScopeLockTable {
 public:
  explicit ScopeLockTable(size_t num_vertices) : table_(num_vertices) {}

  /// Precompiles the scope lock sets of all `num_vertices` vertices for
  /// `model` (structure is frozen once the graph is finalized, so this
  /// holds for the engine's lifetime).  `parallel_for` distributes the
  /// build (engines pass ExecutionSubstrate::RunBatch).
  template <typename Graph>
  void CompilePlan(const Graph& graph, size_t num_vertices,
                   ConsistencyModel model,
                   const PlanParallelFor& parallel_for) {
    plan_ = ScopeLockPlan::Compile(graph, num_vertices, model, parallel_for);
  }

  const ScopeLockPlan& plan() const { return plan_; }

  template <typename Graph>
  void AcquireScope(const Graph& graph, LocalVid v, ConsistencyModel model) {
    if (plan_.compiled() && plan_.model() == model) {
      for (const ScopeLockPlan::Entry& e : plan_.scope(v)) {
        LockOne(e.vid, e.exclusive != 0);
      }
      return;
    }
    ForEachScopeLock(graph, v, model, [this](LocalVid u, bool exclusive) {
      LockOne(u, exclusive);
    });
  }

  template <typename Graph>
  void ReleaseScope(const Graph& graph, LocalVid v, ConsistencyModel model) {
    if (plan_.compiled() && plan_.model() == model) {
      for (const ScopeLockPlan::Entry& e : plan_.scope(v)) {
        table_.Release(e.vid, e.exclusive != 0);
      }
      return;
    }
    ForEachScopeLock(graph, v, model, [this](LocalVid u, bool exclusive) {
      table_.Release(u, exclusive);
    });
  }

  /// Points the contended-wait instrumentation at a registry-backed
  /// histogram (lock.stall_ns).  Only the contended slow path records;
  /// the uncontended TryAcquire fast path stays untouched.
  void BindStallHistogram(metrics::Histogram* stalls) { stalls_ = stalls; }

 private:
  /// Blocks until the lock is held.  Uncontended locks grant through the
  /// inline TryAcquire fast path (one compare-and-swap on the lock word,
  /// no mutex, no semaphore, no allocation); only contended locks pay the
  /// callback + semaphore handshake — and even there the one-reference
  /// callback lives in std::function's small buffer, so the wait itself
  /// allocates only if the lock's waiter queue is new or grows.
  void LockOne(LocalVid u, bool exclusive) {
    if (table_.TryAcquire(u, exclusive)) return;
    const uint64_t t0 = stalls_ != nullptr ? Timer::NowNanos() : 0;
    std::binary_semaphore held(0);
    table_.Acquire(u, exclusive, [&held] { held.release(); });
    held.acquire();
    if (stalls_ != nullptr) stalls_->Record(Timer::NowNanos() - t0);
  }

  /// Visits the scope lock set of v in canonical ascending order with
  /// duplicates merged (a neighbor reachable through both an in- and an
  /// out-edge must be locked exactly once, at the strongest mode).
  template <typename Graph, typename Fn>
  void ForEachScopeLock(const Graph& graph, LocalVid v,
                        ConsistencyModel model, Fn&& fn) const {
    if (model == ConsistencyModel::kVertexConsistency) {
      fn(v, /*exclusive=*/true);
      return;
    }
    const bool neighbors_exclusive =
        model == ConsistencyModel::kFullConsistency;
    thread_local std::vector<std::pair<LocalVid, bool>> set;
    set.clear();
    set.emplace_back(v, true);
    for (LocalVid n : graph.neighbors(v)) {
      set.emplace_back(n, neighbors_exclusive);
    }
    std::sort(set.begin(), set.end());
    for (size_t i = 0; i < set.size(); ++i) {
      if (i + 1 < set.size() && set[i + 1].first == set[i].first) {
        set[i + 1].second = set[i].second || set[i + 1].second;
        continue;  // duplicate vertex: defer to the strongest entry
      }
      fn(set[i].first, set[i].second);
    }
  }

  CallbackLockTable table_;
  ScopeLockPlan plan_;
  metrics::Histogram* stalls_ = nullptr;
};

// ---------------------------------------------------------------------
// ExecutionSubstrate
// ---------------------------------------------------------------------

class ExecutionSubstrate {
 public:
  /// Strategy hooks for the asynchronous worker loop.
  struct WorkerHooks {
    /// Pops the next ready task for `worker` — the calling worker's index
    /// in [0, num_threads), which strategies forward to their scheduler
    /// as the work-stealing affinity hint.  Returns false when none is
    /// available right now.  May block briefly (e.g. a timed queue pop).
    /// Required.
    std::function<bool(LocalVid* v, double* priority, size_t worker)>
        next_task;
    /// Executes one task (scope acquisition, update fn, release, flush —
    /// whatever the strategy requires).  Required.
    std::function<void(LocalVid v, double priority)> execute;
    /// Gate run at the top of every worker iteration (pipeline refill,
    /// simulated-stall freeze...).  Return false to skip task acquisition
    /// this iteration.  Optional.
    std::function<bool()> tick;
    /// Extra strategy-side idleness (scheduler empty, pipeline drained...)
    /// folded into the cooperative quiescence test.  Optional.
    std::function<bool()> locally_idle;
    /// When true (single-machine case) workers self-terminate once the
    /// machine is quiescent: no poppable task, no active worker, and
    /// locally_idle() holds, observed idle_spins_before_exit times in a
    /// row (a running update may still schedule more work).  When false
    /// the coordinator — typically polling the distributed termination
    /// consensus — is responsible for ending the run.
    bool exit_on_quiescence = true;
    int idle_spins_before_exit = 3;
    std::chrono::microseconds idle_sleep{50};
  };

  // ------------------------------------------------------------------
  // Asynchronous mode
  // ------------------------------------------------------------------

  /// Runs the worker drain loop to quiescence / budget / abort.  Spawns
  /// `num_threads` workers; if `coordinator` is provided it runs on the
  /// calling thread and the workers are stopped when it returns (it must
  /// unblock any queue the next_task hook waits on before returning).
  /// `max_updates` (0 = unlimited) stops all workers once that many
  /// additional updates have been counted.  Returns the number of updates
  /// counted during this call.
  uint64_t RunWorkers(size_t num_threads, uint64_t max_updates,
                      const WorkerHooks& hooks,
                      const std::function<void()>& coordinator = nullptr) {
    GL_CHECK(hooks.next_task && hooks.execute);
    const uint64_t start = updates_.load(std::memory_order_acquire);
    const uint64_t budget =
        max_updates == 0 ? ~uint64_t{0} : start + max_updates;
    // An engine whose Start() has collective work around the worker loop
    // (the locking engine's teardown barriers) brackets the whole run
    // with BeginRun()/EndRun() itself so JoinRun() covers that tail too.
    const bool owns_run = !running();
    if (owns_run) BeginRun();
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      // A worker's whole CPU time counts as busy: one clock pair per
      // worker per run, not per task.
      workers.emplace_back([this, &hooks, budget, t] {
        const uint64_t cpu0 = Timer::ThreadCpuNanos();
        WorkerLoop(hooks, budget, t);
        AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
      });
    }
    if (coordinator) {
      coordinator();
      stop_.store(true, std::memory_order_release);
    }
    for (auto& w : workers) w.join();
    if (owns_run) EndRun();
    return updates_.load(std::memory_order_acquire) - start;
  }

  // ------------------------------------------------------------------
  // Synchronous (superstep) mode
  // ------------------------------------------------------------------

  /// Executes fn(begin, end) over dynamic chunks of [0, n) across
  /// `num_threads` persistent pool workers and waits for completion.
  /// Chunks self-schedule off a shared cursor, so skewed per-item cost
  /// (power-law degree distributions) balances automatically.
  void RunBatch(size_t num_threads, size_t n,
                const std::function<void(size_t begin, size_t end)>& fn) {
    if (n == 0) return;
    if (num_threads <= 1 || n == 1) {
      WorkerTlsScope tls(this);  // updates may AbortAndJoin inline too
      fn(0, n);
      return;
    }
    EnsurePool(num_threads);
    const size_t chunk = std::max<size_t>(1, n / (num_threads * 8));
    std::atomic<size_t> cursor{0};
    for (size_t t = 0; t < num_threads; ++t) {
      pool_->Submit([this, &cursor, &fn, n, chunk] {
        WorkerTlsScope tls(this);
        for (;;) {
          size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n) return;
          fn(begin, std::min(n, begin + chunk));
        }
      });
    }
    pool_->Wait();
  }

  /// Marks a synchronous engine's Start() as in progress so JoinRun()
  /// (and therefore AbortAndJoin()) covers it; RunWorkers() does this
  /// internally for the asynchronous engines.
  void BeginRun() {
    GL_CHECK(!running_.exchange(true, std::memory_order_acq_rel))
        << "engine Start() reentered while a run is active";
    stop_.store(aborted_.load(std::memory_order_acquire),
                std::memory_order_release);
  }
  void EndRun() {
    runs_.fetch_add(1, std::memory_order_acq_rel);
    running_.store(false, std::memory_order_release);
  }

  // ------------------------------------------------------------------
  // Cooperative stop / abort
  // ------------------------------------------------------------------

  /// Requests a cooperative stop of the current asynchronous run (workers
  /// exit at the next loop iteration; in-flight updates finish).
  void Stop() { stop_.store(true, std::memory_order_release); }

  /// Marks the engine aborted: strategies drop new schedules, drain, and
  /// every subsequent run stops immediately.  Does NOT hard-stop workers —
  /// the strategy decides how to reach quiescence safely (a distributed
  /// engine must keep executing granted scopes so their locks release).
  void RequestAbort() { aborted_.store(true, std::memory_order_release); }

  /// Blocks until no run is in progress (paired with RequestAbort()).
  /// No-op on this substrate's own worker threads — an update function
  /// aborting its engine cannot wait for itself to finish.
  void JoinRun() const {
    if (OnWorkerThread()) return;
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// True when the calling thread is one of this substrate's workers
  /// (async drain loop or batch pool), i.e. we are inside an update.
  bool OnWorkerThread() const { return tls_current_substrate_ == this; }

  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  bool running() const { return running_.load(std::memory_order_acquire); }

  // ------------------------------------------------------------------
  // Shared counters
  // ------------------------------------------------------------------

  uint64_t CountUpdate() {
    if (updates_metric_ != nullptr) updates_metric_->Inc();
    return updates_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Mirrors every CountUpdate() into a registry-backed counter
  /// (engine.updates) so cluster aggregation sees per-machine update
  /// counts.  One striped relaxed add per update; the bench-asserted
  /// fast-path budget (<= 2%, bench_micro_substrate).
  void BindUpdateCounter(metrics::Counter* updates) {
    updates_metric_ = updates;
  }
  void AddBusyNanos(uint64_t ns) {
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  uint64_t total_updates() const {
    return updates_.load(std::memory_order_acquire);
  }
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }
  uint32_t active_workers() const {
    return active_.load(std::memory_order_acquire);
  }
  EngineMetrics metrics() const {
    EngineMetrics m;
    m.updates = total_updates();
    m.busy_seconds = busy_seconds();
    m.runs = runs_.load(std::memory_order_acquire);
    m.aborted = aborted();
    return m;
  }

 private:
  /// Marks the calling thread as belonging to this substrate for the
  /// scope's duration (restores the previous owner: batch pool threads
  /// persist across runs and nested engines).
  struct WorkerTlsScope {
    explicit WorkerTlsScope(ExecutionSubstrate* substrate)
        : previous(tls_current_substrate_) {
      tls_current_substrate_ = substrate;
    }
    ~WorkerTlsScope() { tls_current_substrate_ = previous; }
    ExecutionSubstrate* previous;
  };

  void WorkerLoop(const WorkerHooks& hooks, uint64_t budget, size_t worker) {
    WorkerTlsScope tls(this);
    // Publish the worker index so Schedule() calls made from inside
    // update functions land on this worker's home scheduler shard.
    WorkerAffinity::Scope affinity(worker);
    int idle_spins = 0;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (updates_.load(std::memory_order_acquire) >= budget) {
        stop_.store(true, std::memory_order_release);
        return;
      }
      if (hooks.tick && !hooks.tick()) {
        // A gated iteration (paused pipeline, simulated stall) must not
        // spin a core; pace it like an empty queue.
        std::this_thread::sleep_for(hooks.idle_sleep);
        continue;
      }
      LocalVid v;
      double priority;
      if (!hooks.next_task(&v, &priority, worker)) {
        if (!hooks.exit_on_quiescence) continue;  // timed pop paces the loop
        // Empty now; terminate once no worker is mid-update (a running
        // update may still schedule more work) and the strategy agrees.
        if (active_.load(std::memory_order_acquire) == 0 &&
            (!hooks.locally_idle || hooks.locally_idle())) {
          if (++idle_spins > hooks.idle_spins_before_exit) return;
        }
        std::this_thread::sleep_for(hooks.idle_sleep);
        continue;
      }
      idle_spins = 0;
      active_.fetch_add(1, std::memory_order_acq_rel);
      hooks.execute(v, priority);
      active_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  void EnsurePool(size_t num_threads) {
    if (pool_ == nullptr || pool_->num_threads() != num_threads) {
      pool_ = std::make_unique<ThreadPool>(num_threads);
    }
  }

  metrics::Counter* updates_metric_ = nullptr;
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> runs_{0};
  std::atomic<uint32_t> active_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> running_{false};
  std::unique_ptr<ThreadPool> pool_;
  inline static thread_local ExecutionSubstrate* tls_current_substrate_ =
      nullptr;
};

// ---------------------------------------------------------------------
// EngineBase
// ---------------------------------------------------------------------

/// Shared plumbing for the concrete engines: options storage, the
/// substrate, and the uniform stats/abort surface of IEngine.  Strategies
/// override OnAbort() to stop feeding work (the substrate handles the
/// rest of AbortAndJoin()).
template <typename Graph>
class EngineBase : public IEngine<Graph> {
 public:
  explicit EngineBase(EngineOptions options) : options_(std::move(options)) {
    if (options_.num_threads == 0) options_.num_threads = 1;
    // Resolve the metrics namespace once: the distributed factory passes
    // the machine's transport-owned registry, everything else reports to
    // the process-global default.  Counter pointers are cached here so
    // the per-event cost is one striped relaxed add.
    metrics_ = options_.metrics != nullptr ? options_.metrics
                                           : metrics::Default();
    substrate_.BindUpdateCounter(metrics_->counter("engine.updates"));
  }

  void SetUpdateFn(UpdateFn<Graph> fn) override {
    update_fn_ = std::move(fn);
  }

  void AbortAndJoin() final {
    RequestAbort();
    substrate_.JoinRun();
  }
  void RequestAbort() final {
    substrate_.RequestAbort();
    OnAbort();
  }
  bool aborted() const final { return substrate_.aborted(); }

  void SetBoundaryHook(typename IEngine<Graph>::BoundaryHook hook) override {
    boundary_hook_ = std::move(hook);
  }

  uint64_t total_updates() const override {
    return substrate_.total_updates();
  }
  EngineMetrics metrics() const final { return substrate_.metrics(); }
  const RunResult& last_result() const final { return last_result_; }
  const EngineOptions& options() const final { return options_; }

 protected:
  /// Strategy-specific abort propagation (clear the scheduler, raise a
  /// collective abort flag...).  New schedules are already dropped via
  /// substrate_.aborted().
  virtual void OnAbort() {}

  /// Context::Schedule hook shared by every strategy whose scheduling is
  /// just the engine's virtual Schedule().  Pass the engine as
  /// `static_cast<EngineBase*>(this)` when constructing the Context.
  static void ScheduleTrampoline(void* self, LocalVid v, double priority) {
    static_cast<EngineBase*>(self)->Schedule(v, priority);
  }

  /// Precompiles `locks`'s scope-lock plan for this engine's configured
  /// consistency model, building in parallel on the substrate's batch
  /// pool.  No-op when consistency enforcement is off or a matching plan
  /// already exists.  Call at the top of Start(), before workers spawn
  /// (single-threaded with respect to lock traffic).
  template <typename G>
  void EnsureScopePlan(const G& graph, size_t num_vertices,
                       ScopeLockTable* locks) {
    if (!options_.enforce_consistency) return;
    locks->BindStallHistogram(metrics_->histogram("lock.stall_ns"));
    if (locks->plan().compiled() &&
        locks->plan().model() == options_.consistency) {
      return;
    }
    locks->CompilePlan(
        graph, num_vertices, options_.consistency,
        [this](size_t n, const std::function<void(size_t, size_t)>& fn) {
          substrate_.RunBatch(options_.num_threads, n, fn);
        });
  }

  /// The local consistency-enforcement sequence shared by the
  /// shared_memory / bsp / bulk_sync strategies: acquire v's scope (per
  /// options), run the update function, run `while_locked` (per-vertex
  /// bookkeeping that must stay inside the scope), release.
  template <typename WhileLocked>
  void RunLockedUpdate(Graph* graph, ScopeLockTable* locks, LocalVid v,
                       double priority, WhileLocked&& while_locked) {
    const bool lock = options_.enforce_consistency;
    if (lock) locks->AcquireScope(*graph, v, options_.consistency);
    Context<Graph> ctx(graph, v, priority, options_.consistency,
                       static_cast<EngineBase*>(this), &ScheduleTrampoline);
    update_fn_(ctx);
    while_locked();
    if (lock) locks->ReleaseScope(*graph, v, options_.consistency);
  }
  void RunLockedUpdate(Graph* graph, ScopeLockTable* locks, LocalVid v,
                       double priority) {
    RunLockedUpdate(graph, locks, v, priority, [] {});
  }

  /// Scheduler construction for strategies that maintain T through one;
  /// an empty options.scheduler resolves to `default_name`.
  /// CreateEngine() pre-validates the name, so a failure here is a
  /// programmer error on the direct-construction path.
  std::unique_ptr<IScheduler> MakeScheduler(
      size_t num_vertices, const std::string& default_name) const {
    auto scheduler = CreateScheduler(options_, num_vertices, default_name);
    GL_CHECK(scheduler.ok()) << scheduler.status().ToString();
    scheduler.value()->BindStealCounter(metrics_->counter("sched.steals"));
    // Remember the scheduler so RunBoundaryHook can publish its depth —
    // the strategies that call this own the scheduler for the engine's
    // lifetime (constructed once in their init lists).
    schedulers_.push_back(scheduler.value().get());
    return std::move(scheduler.value());
  }

  /// The resolved metrics namespace (never null; see the constructor).
  metrics::MetricsRegistry* metrics_registry() const { return metrics_; }

  /// Runs the boundary hook (if any); a non-OK status flags a
  /// cooperative abort.  Collective engines call this at their aligned,
  /// channels-flushed superstep/sweep boundaries.  Deliberately NOT
  /// skipped on an aborted engine: the hook may be a cluster collective
  /// (the checkpoint protocol), and a machine that aborted locally must
  /// keep participating until the collective abort decision — skipping
  /// would leave the others waiting on its contribution forever.  Hooks
  /// that cannot proceed (peer death) unblock themselves via membership.
  void RunBoundaryHook(uint64_t boundary) {
    // Publish the schedulers' pending-task depth as a gauge at every
    // boundary: O(schedulers) per boundary instead of per update, so the
    // fast-path budget is untouched, and the telemetry sampler picks it
    // up for the health monitor's stall rule (zero update rate with
    // nonzero depth).
    if (!schedulers_.empty()) {
      size_t depth = 0;
      for (const IScheduler* s : schedulers_) depth += s->ApproxSize();
      metrics_->gauge("sched.depth")->Set(static_cast<int64_t>(depth));
    }
    if (!boundary_hook_) return;
    Status st = boundary_hook_(boundary);
    if (!st.ok()) {
      if (!substrate_.aborted()) {
        GL_LOG(WARNING) << "boundary hook aborted the run: "
                        << st.ToString();
      }
      RequestAbort();
    }
  }

  EngineOptions options_;
  metrics::MetricsRegistry* metrics_ = nullptr;
  /// Schedulers created through MakeScheduler (owned by the strategy for
  /// the engine's lifetime); mutable because MakeScheduler is const.
  mutable std::vector<IScheduler*> schedulers_;
  ExecutionSubstrate substrate_;
  UpdateFn<Graph> update_fn_;
  typename IEngine<Graph>::BoundaryHook boundary_hook_;
  RunResult last_result_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_EXECUTION_SUBSTRATE_H_
