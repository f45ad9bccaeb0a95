// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// SharedMemoryEngine: the original multicore GraphLab engine [24] that
// Distributed GraphLab extends.  A thin strategy over the execution
// substrate: the substrate's worker loop drains this engine's scheduler
// and the substrate's scope-lock table enforces the chosen consistency
// model in the canonical ascending-vertex order; the engine contributes
// only the policy glue.
//
// Used by the Fig. 1 motivation experiments (async vs sync convergence,
// dynamic update-count distribution, serializable vs racing ALS — the
// latter via `enforce_consistency = false`, with the application supplying
// race-tolerant atomic vertex data so the experiment stays UB-free).

#ifndef GRAPHLAB_ENGINE_SHARED_MEMORY_ENGINE_H_
#define GRAPHLAB_ENGINE_SHARED_MEMORY_ENGINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/timer.h"

namespace graphlab {

template <typename VertexData, typename EdgeData>
class SharedMemoryEngine final : public EngineBase<LocalGraph<VertexData, EdgeData>> {
 public:
  using GraphType = LocalGraph<VertexData, EdgeData>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  SharedMemoryEngine(GraphType* graph, EngineOptions options)
      : Base(std::move(options)),
        graph_(graph),
        scheduler_(this->MakeScheduler(graph->num_vertices(), "fifo")),
        scope_locks_(graph->num_vertices()) {
    GL_CHECK(graph->finalized());
  }

  const char* name() const override { return "shared_memory"; }

  void Schedule(LocalVid v, double priority = 1.0) override {
    if (this->substrate_.aborted()) return;
    scheduler_->Schedule(v, priority);
  }
  void ScheduleAll(double priority = 1.0) override {
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      Schedule(v, priority);
    }
  }

  /// Tracks per-vertex update counts (Fig. 1(b)).
  void EnableUpdateCounting() override {
    update_counts_.assign(graph_->num_vertices(), 0);
  }
  const std::vector<uint32_t>& update_counts() const override {
    return update_counts_;
  }

  /// Executes until the task set empties or `max_updates` additional
  /// updates have run (0 = unlimited).  The schedule survives across
  /// calls, so convergence curves can be sampled by running in slices.
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(this->update_fn_) << "no update function";
    GL_TRACE_SCOPE1(trace::kEngine, "shared_memory.run", "max_updates",
                    max_updates);
    Timer timer;
    const double busy_before = this->substrate_.busy_seconds();
    // Compile the flat scope-lock plan once per (graph, model) pair so
    // every update's Acquire/ReleaseScope is a plan walk (no allocation,
    // no sort).
    this->EnsureScopePlan(*graph_, graph_->num_vertices(), &scope_locks_);

    ExecutionSubstrate::WorkerHooks hooks;
    hooks.next_task = [this](LocalVid* v, double* priority, size_t worker) {
      return scheduler_->GetNext(v, priority, worker);
    };
    hooks.execute = [this](LocalVid v, double priority) {
      ExecuteUpdate(v, priority);
    };
    hooks.locally_idle = [this] { return scheduler_->Empty(); };
    uint64_t ran = this->substrate_.RunWorkers(this->options_.num_threads,
                                               max_updates, hooks);

    this->last_result_ = RunResult{};
    this->last_result_.updates = ran;
    this->last_result_.seconds = timer.Seconds();
    this->last_result_.busy_seconds =
        this->substrate_.busy_seconds() - busy_before;
    return this->last_result_;
  }

  bool ScheduleEmpty() const { return scheduler_->Empty(); }

 private:
  void OnAbort() override { scheduler_->Clear(); }

  void ExecuteUpdate(LocalVid v, double priority) {
    this->RunLockedUpdate(graph_, &scope_locks_, v, priority, [this, v] {
      if (!update_counts_.empty()) {
        update_counts_[v]++;  // guarded by the central write lock
      }
    });
    this->substrate_.CountUpdate();
  }

  GraphType* graph_;
  std::unique_ptr<IScheduler> scheduler_;
  ScopeLockTable scope_locks_;
  std::vector<uint32_t> update_counts_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_SHARED_MEMORY_ENGINE_H_
