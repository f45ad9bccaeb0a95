// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// BulkSyncEngine: the tailored-MPI baseline (Sec. 5.1, 5.3).
//
// "Our MPI implementation of ALS is highly optimized, and uses synchronous
// MPI collective operations for communication.  The computation is broken
// into super-steps ... between super-steps the new user and movie values
// are scattered (using MPI_Alltoall) to the machines that need them."
//
// Two programming surfaces:
//   * SetKernel()/SetSelector(): the native hand-tuned-MPI shape — per
//     superstep each machine runs the kernel over (a selected subset of)
//     its owned vertices with no locking (neighbor reads come from the
//     ghost values of the previous exchange), then one bulk all-to-all
//     exchange of modified vertex data and a barrier.  Per-vertex
//     overheads are zero, matching a hand-tuned MPI code.
//   * SetUpdateFn() via IEngine: the uniform GraphLab update function run
//     in dense supersteps over every owned vertex.  Schedule() requests
//     are counted and all-reduced: the run ends when no update anywhere
//     asked for more work (or at max_sweeps).  Because update functions
//     may touch shared scope data, the substrate's scope locks enforce
//     the configured consistency model within the machine, and flushing
//     uses the per-scope path so modified *edge* data propagates too
//     (FlushAllOwnedBulk ships vertices only).  Cross-machine replicas of
//     the same edge may still diverge for edge-writing apps — run those
//     on one machine or on the locking/chromatic engines.
//
// Superstep batches execute on the substrate's batch workers; the engine
// itself owns no threads.  One instance per machine; Start() is
// collective.

#ifndef GRAPHLAB_BASELINES_BULK_SYNC_ENGINE_H_
#define GRAPHLAB_BASELINES_BULK_SYNC_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace baselines {

template <typename VertexData, typename EdgeData>
class BulkSyncEngine final
    : public EngineBase<DistributedGraph<VertexData, EdgeData>> {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  /// Kernel over one owned vertex; returns a residual contribution used
  /// for convergence detection (return 0 when not needed).  May read any
  /// scope data and write the central vertex (mark via the graph) — the
  /// engine marks the vertex modified automatically after the call.
  using Kernel =
      std::function<double(GraphType&, LocalVid, uint64_t superstep)>;

  /// Selects which owned vertices run in a given superstep (e.g. ALS
  /// alternates users and movies).  Null = all owned vertices.
  using Selector = std::function<bool(const GraphType&, LocalVid,
                                      uint64_t superstep)>;

  BulkSyncEngine(rpc::MachineContext ctx, GraphType* graph,
                 SumAllReduce* allreduce, EngineOptions options)
      : Base(std::move(options)),
        ctx_(ctx),
        graph_(graph),
        allreduce_(allreduce),
        scope_locks_(graph->num_local_vertices()) {}

  const char* name() const override { return "bulk_sync"; }

  void SetKernel(Kernel kernel) { kernel_ = std::move(kernel); }
  void SetSelector(Selector selector) { selector_ = std::move(selector); }

  /// Dense supersteps run everything; Schedule() only counts as a
  /// continuation request in update-fn mode.
  void Schedule(LocalVid /*v*/, double /*priority*/ = 1.0) override {
    schedule_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  void ScheduleAll(double /*priority*/ = 1.0) override {}

  /// Collective superstep loop.  In kernel mode runs exactly as the
  /// MPI baseline (max_sweeps supersteps, 0 = legacy default 10, with the
  /// optional residual-tolerance early exit); in update-fn mode runs
  /// until no update function anywhere requested further work.
  /// `max_updates` budgets are not supported (pass 0).
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(kernel_ || this->update_fn_) << "no kernel or update function";
    GL_CHECK_EQ(max_updates, uint64_t{0})
        << "bulk_sync engine runs whole supersteps; bound the run with "
           "EngineOptions::max_sweeps";
    const bool kernel_mode = static_cast<bool>(kernel_);
    Timer timer;
    if (!kernel_mode) {
      // Update-fn supersteps lock scopes; precompile their flat plan
      // (kernel mode is lock free by construction).
      this->EnsureScopePlan(*graph_, graph_->num_local_vertices(),
                            &scope_locks_);
    }
    this->substrate_.BeginRun();
    rpc::CommStats before = ctx_.comm().GetStats(ctx_.id);
    const double busy_before = this->substrate_.busy_seconds();
    RunResult result;
    // Superstep boundaries are natural coalescing windows: consumers only
    // read ghosts after the scatter barrier.
    graph_->SetGhostSyncMode(this->options_.ghost_coalescing
                                 ? GhostSyncMode::kCoalesced
                                 : GhostSyncMode::kPerScope,
                             this->options_.ghost_batch_bytes);
    ctx_.barrier().Wait(ctx_.id);

    uint64_t max_supersteps = this->options_.max_sweeps;
    if (kernel_mode && max_supersteps == 0) max_supersteps = 10;

    const auto& owned = graph_->owned_vertices();
    for (uint64_t step = 0;
         max_supersteps == 0 || step < max_supersteps; ++step) {
      GL_TRACE_SCOPE1(trace::kEngine, "bulk_sync.superstep", "step", step);
      // Compute phase.
      std::vector<LocalVid> batch;
      batch.reserve(owned.size());
      for (LocalVid l : owned) {
        if (!selector_ || selector_(*graph_, l, step)) batch.push_back(l);
      }
      schedule_requests_.store(0, std::memory_order_relaxed);
      std::atomic<uint64_t> residual_bits{0};
      this->substrate_.RunBatch(
          this->options_.num_threads, batch.size(),
          [&](size_t begin, size_t end) {
            const uint64_t cpu0 = Timer::ThreadCpuNanos();
            double local_res = 0;
            for (size_t i = begin; i < end; ++i) {
              if (kernel_mode) {
                local_res += kernel_(*graph_, batch[i], step);
                graph_->MarkVertexModified(batch[i]);
              } else {
                this->RunLockedUpdate(graph_, &scope_locks_, batch[i], 1.0);
              }
              this->substrate_.CountUpdate();
            }
            this->substrate_.AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
            // Accumulate double via compare-exchange on the bit pattern.
            uint64_t observed =
                residual_bits.load(std::memory_order_relaxed);
            double desired;
            do {
              double current;
              static_assert(sizeof(current) == sizeof(observed));
              std::memcpy(&current, &observed, sizeof(current));
              desired = current + local_res;
            } while (!residual_bits.compare_exchange_weak(
                observed, std::bit_cast<uint64_t>(desired),
                std::memory_order_relaxed));
          });
      result.updates += batch.size();
      result.sweeps += 1;

      // Close the compute phase cluster-wide before anyone transmits:
      // pushes are applied by the dispatch thread without scope locks,
      // so one may not land while another machine's workers still read
      // ghosts (the MPI_Alltoall this models is just as synchronizing).
      ctx_.barrier().Wait(ctx_.id);

      // Scatter phase (MPI_Alltoall analogue) + full barrier.  Kernel
      // mode ships vertices in one bulk message per machine pair; the
      // update-fn surface flushes per scope so edge writes travel too.
      if (kernel_mode) {
        graph_->FlushAllOwnedBulk();
      } else {
        for (LocalVid l : batch) graph_->FlushVertexScope(l);
        // With coalescing on, per-scope flushes staged into the per-peer
        // buffers; the superstep boundary is the flush window.
        graph_->FlushDeltas();
      }
      ctx_.barrier().Wait(ctx_.id);
      ctx_.comm().WaitQuiescent();
      ctx_.barrier().Wait(ctx_.id);

      // Globally consistent boundary (all machines aligned, channels
      // flushed): the fault subsystem's checkpoint coordinator runs here.
      this->RunBoundaryHook(step + 1);

      // Collective continuation decision.  Kernel mode without a residual
      // tolerance skips it entirely — the hand-tuned MPI baseline sends
      // zero control traffic and runs its fixed superstep count (aborts
      // then only take effect at run end).  The condition is config-
      // uniform across machines, so the cluster always agrees.  One word
      // carries the kernel residual (fixed-point) or the schedule-request
      // count, plus one kAbortUnit per aborted machine so aborts end the
      // run everywhere.
      const bool check_residual =
          kernel_mode && this->options_.residual_tolerance > 0.0;
      if (!check_residual && kernel_mode) continue;
      uint64_t word;
      if (kernel_mode) {
        // Fixed-point encode the residual, clamped into [0, kPayloadCap]
        // so huge early-superstep residuals (or a stray negative kernel
        // return) cannot masquerade as an abort.
        double local = std::bit_cast<double>(
            residual_bits.load(std::memory_order_relaxed));
        double encoded = std::max(0.0, local * 1e6);
        word = static_cast<uint64_t>(
            std::min(encoded, static_cast<double>(kPayloadCap)));
      } else {
        word = std::min<uint64_t>(
            schedule_requests_.load(std::memory_order_relaxed), kPayloadCap);
      }
      if (this->substrate_.aborted()) word += kAbortUnit;
      std::vector<uint64_t> continue_totals =
          allreduce_->Reduce(ctx_.id, {word});
      if (continue_totals[0] >= kAbortUnit) break;  // someone aborted
      uint64_t payload = continue_totals[0] & (kAbortUnit - 1);
      if (!kernel_mode && payload == 0) break;  // no continuation request
      if (check_residual && static_cast<double>(payload) / 1e6 <
                                this->options_.residual_tolerance) {
        break;
      }
    }

    // Leave the graph in immediate-flush mode between runs (ships any
    // straggler staged deltas, e.g. after an abort mid-superstep).
    graph_->SetGhostSyncMode(GhostSyncMode::kPerScope);

    // Cluster-wide update count.
    std::vector<uint64_t> totals =
        allreduce_->Reduce(ctx_.id, {result.updates});
    result.updates = totals[0];
    result.seconds = timer.Seconds();
    result.busy_seconds = this->substrate_.busy_seconds() - busy_before;
    rpc::CommStats after = ctx_.comm().GetStats(ctx_.id);
    result.bytes_sent = after.bytes_sent - before.bytes_sent;
    result.messages_sent = after.messages_sent - before.messages_sent;
    this->last_result_ = result;
    this->substrate_.EndRun();
    return result;
  }

 private:
  static constexpr uint64_t kAbortUnit = uint64_t{1} << 48;
  /// Per-machine payloads are capped so that even a 256-machine sum
  /// cannot carry into the abort bits of the reduced word.
  static constexpr uint64_t kPayloadCap = (kAbortUnit >> 8) - 1;

  rpc::MachineContext ctx_;
  GraphType* graph_;
  SumAllReduce* allreduce_;
  ScopeLockTable scope_locks_;
  Kernel kernel_;
  Selector selector_;
  std::atomic<uint64_t> schedule_requests_{0};
};

}  // namespace baselines
}  // namespace graphlab

#endif  // GRAPHLAB_BASELINES_BULK_SYNC_ENGINE_H_
