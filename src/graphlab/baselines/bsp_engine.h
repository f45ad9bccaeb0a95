// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// BspEngine: a Pregel-style bulk synchronous baseline.
//
// The paper compares GraphLab's asynchronous/dynamic execution against
// "Sync. (Pregel)" schedules (Fig. 1a, 1c, 9a).  This engine reproduces
// those semantics: supersteps over the active vertex set in which every
// kernel reads the *previous* superstep's neighbor values (double-buffered
// vertex data — the message-free equivalent of Pregel's message passing
// for the pull-style algorithms evaluated here), and vertices vote to halt
// by not re-activating.
//
// Two programming surfaces:
//   * SetStepFn(): the native double-buffered Pregel kernel (exact
//     previous-superstep reads); drive it with RunSupersteps().
//   * SetUpdateFn() via IEngine: the uniform GraphLab update function.
//     Supersteps batch the scheduled set and Schedule() activates for the
//     *next* superstep, but reads see current values, so the substrate's
//     scope locks enforce the configured consistency model during the
//     batch (disable via enforce_consistency for the racing experiments).
//     Both surfaces drive the same superstep loop on the substrate's
//     batch workers.
//
// Single-process by design: the paper uses Pregel semantics only for
// convergence-shape comparisons (it could not benchmark Pregel's runtime);
// the distributed synchronous runtime baseline is baselines/bulk_sync.h.

#ifndef GRAPHLAB_BASELINES_BSP_ENGINE_H_
#define GRAPHLAB_BASELINES_BSP_ENGINE_H_

#include <functional>
#include <utility>
#include <vector>

#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace baselines {

template <typename VertexData, typename EdgeData>
class BspEngine final : public EngineBase<LocalGraph<VertexData, EdgeData>> {
 public:
  using GraphType = LocalGraph<VertexData, EdgeData>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  /// Scope view for one vertex in one superstep (StepFn surface).
  class BspContext {
   public:
    BspContext(BspEngine* engine, VertexId v) : engine_(engine), v_(v) {}

    VertexId vertex_id() const { return v_; }

    /// Mutable current-superstep value of the central vertex.
    VertexData& vertex_data() { return engine_->graph_->vertex_data(v_); }

    /// Previous-superstep value of any vertex (what a Pregel message
    /// would have carried).
    const VertexData& prev_data(VertexId u) const {
      return engine_->prev_[u];
    }

    const EdgeData& edge_data(EdgeId e) const {
      return engine_->graph_->edge_data(e);
    }

    /// Mutable edge access: BSP steps may write only the direction-slot
    /// they own (source writes forward, target writes reverse), which the
    /// superstep structure makes race-free.
    EdgeData& mutable_edge_data(EdgeId e) {
      return engine_->graph_->edge_data(e);
    }

    auto in_edges() const { return engine_->graph_->in_edges(v_); }
    auto out_edges() const { return engine_->graph_->out_edges(v_); }
    auto neighbors() const { return engine_->graph_->neighbors(v_); }
    VertexId edge_source(EdgeId e) const {
      return engine_->graph_->source(e);
    }
    VertexId edge_target(EdgeId e) const {
      return engine_->graph_->target(e);
    }

    /// Activates `u` for the next superstep.
    void Activate(VertexId u) { engine_->next_active_.SetBit(u); }
    void ActivateSelf() { Activate(v_); }

   private:
    BspEngine* engine_;
    VertexId v_;
  };

  using StepFn = std::function<void(BspContext&)>;

  BspEngine(GraphType* graph, EngineOptions options)
      : Base(std::move(options)),
        graph_(graph),
        active_(graph->num_vertices()),
        next_active_(graph->num_vertices()),
        scope_locks_(graph->num_vertices()) {
    GL_CHECK(graph->finalized());
  }

  const char* name() const override { return "bsp"; }

  void SetStepFn(StepFn fn) { step_fn_ = std::move(fn); }

  /// Schedule == activate: before a run the vertex joins the current
  /// active set; from inside an update it activates the next superstep.
  void Schedule(LocalVid v, double /*priority*/ = 1.0) override {
    if (this->substrate_.aborted()) return;
    if (in_superstep_.load(std::memory_order_acquire)) {
      next_active_.SetBit(v);
    } else {
      active_.SetBit(v);
    }
  }
  void ScheduleAll(double priority = 1.0) override {
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      Schedule(v, priority);
    }
  }
  void ActivateAll() { ScheduleAll(); }
  void Activate(VertexId v) { Schedule(v); }

  /// Uniform surface: runs supersteps over the scheduled set with the
  /// installed update function until quiescence, options().max_sweeps, or
  /// `max_updates` additional updates.
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(this->update_fn_) << "no update function";
    return RunLoop(this->options_.max_sweeps, max_updates,
                   /*use_step_fn=*/false);
  }

  /// Native Pregel surface: runs double-buffered supersteps with the
  /// installed step function (0 = until no vertex is active, capped by
  /// options().max_sweeps).  The schedule survives across calls so
  /// convergence curves can be sampled.
  RunResult RunSupersteps(uint64_t max_supersteps_this_call = 0) {
    GL_CHECK(step_fn_) << "no step function";
    uint64_t budget = max_supersteps_this_call != 0
                          ? max_supersteps_this_call
                          : this->options_.max_sweeps;
    return RunLoop(budget, /*max_updates=*/0, /*use_step_fn=*/true);
  }

  bool HasActiveVertices() const { return active_.PopCount() > 0; }

 private:
  friend class BspContext;

  RunResult RunLoop(uint64_t superstep_budget, uint64_t max_updates,
                    bool use_step_fn) {
    Timer timer;
    if (!use_step_fn) {
      // Update-fn supersteps lock scopes; precompile their flat plan
      // (the native Pregel surface is double-buffered and lock free).
      this->EnsureScopePlan(*graph_, graph_->num_vertices(), &scope_locks_);
    }
    this->substrate_.BeginRun();
    const uint64_t updates_before = this->substrate_.total_updates();
    const double busy_before = this->substrate_.busy_seconds();
    RunResult result;
    for (uint64_t step = 0;
         superstep_budget == 0 || step < superstep_budget; ++step) {
      if (this->substrate_.aborted()) break;
      if (max_updates != 0 &&
          this->substrate_.total_updates() - updates_before >= max_updates) {
        break;
      }
      std::vector<VertexId> batch;
      for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
        if (active_.Test(v)) batch.push_back(v);
      }
      if (batch.empty()) break;
      active_.Clear();
      GL_TRACE_SCOPE1(trace::kEngine, "bsp.superstep", "step", step);

      if (use_step_fn) {
        // Freeze the previous superstep's values (Pregel semantics).
        prev_.assign(graph_->num_vertices(), VertexData{});
        for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
          prev_[v] = graph_->vertex_data(v);
        }
      }

      in_superstep_.store(true, std::memory_order_release);
      this->substrate_.RunBatch(
          this->options_.num_threads, batch.size(),
          [&](size_t begin, size_t end) {
            const uint64_t cpu0 = Timer::ThreadCpuNanos();
            for (size_t i = begin; i < end; ++i) {
              if (use_step_fn) {
                BspContext ctx(this, batch[i]);
                step_fn_(ctx);
              } else {
                this->RunLockedUpdate(graph_, &scope_locks_, batch[i], 1.0);
              }
              this->substrate_.CountUpdate();
            }
            this->substrate_.AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
          });
      in_superstep_.store(false, std::memory_order_release);
      result.sweeps += 1;

      // Swap activation sets.
      for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
        if (next_active_.Test(v)) active_.SetBit(v);
      }
      next_active_.Clear();
    }
    result.updates = this->substrate_.total_updates() - updates_before;
    result.seconds = timer.Seconds();
    result.busy_seconds = this->substrate_.busy_seconds() - busy_before;
    this->last_result_ = result;
    this->substrate_.EndRun();
    return result;
  }

  GraphType* graph_;
  StepFn step_fn_;
  DenseBitset active_;
  DenseBitset next_active_;
  std::vector<VertexData> prev_;
  ScopeLockTable scope_locks_;
  std::atomic<bool> in_superstep_{false};
};

}  // namespace baselines
}  // namespace graphlab

#endif  // GRAPHLAB_BASELINES_BSP_ENGINE_H_
