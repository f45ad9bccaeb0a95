// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The Chromatic Engine (Sec. 4.2.1).
//
// Given a vertex coloring of the data graph, the edge consistency model is
// satisfied by executing, synchronously, all scheduled vertices of one
// color (a "color-step") before moving to the next color.  Full consistency
// uses a second-order coloring and vertex consistency a single color — the
// engine itself is agnostic: it trusts the colors stored in the graph.
//
// Inside a color-step, changes to ghosts are communicated *asynchronously
// as they are made* (FlushVertexScope after each update), making full use
// of network bandwidth and processor time; a full communication barrier
// (RPC barrier + channel quiescence + RPC barrier) separates color-steps.
// Schedule requests for ghosts ride the same color-step window: a
// forwarded vertex can only run after that barrier, so they are staged in
// a bitset (repeats dedupe for free) and shipped as one u32 gvid column
// per peer when the step ends.
// Sync operations run between color-steps.  The color-step batches execute
// on the substrate's self-scheduling batch workers; the engine itself owns
// no threads.
//
// One engine instance lives on each machine; Start() is collective.

#ifndef GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
#define GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/timer.h"

namespace graphlab {

template <typename VertexData, typename EdgeData,
          StorageLayout Layout = StorageLayout::kSoA>
class ChromaticEngine final
    : public EngineBase<DistributedGraph<VertexData, EdgeData, Layout>> {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData, Layout>;
  using ContextType = Context<GraphType>;
  using Base = EngineBase<GraphType>;
  using Options = EngineOptions;

  /// `sync` may be nullptr when no sync ops are used.
  ChromaticEngine(rpc::MachineContext ctx, GraphType* graph,
                  SyncManager<GraphType>* sync, SumAllReduce* allreduce,
                  EngineOptions options)
      : Base(std::move(options)),
        ctx_(ctx),
        graph_(graph),
        sync_(sync),
        allreduce_(allreduce),
        scheduled_(graph->num_local_vertices()),
        forwards_(graph->num_local_vertices()) {
    ctx_.comm().RegisterHandler(
        ctx_.id, kScheduleForwardHandler,
        [this](rpc::MachineId src, InArchive& ia) {
          ApplyScheduleForwards(src, ia);
        });
  }

  const char* name() const override { return "chromatic"; }

  /// Seeds T with one vertex (owned or ghost).  A ghost is staged and
  /// forwarded to its owner at the end of the color-step, or at Start()
  /// when scheduled between runs — the owner's engine must exist by
  /// then.  This engine ignores priorities.
  void Schedule(LocalVid l, double /*priority*/ = 1.0) override {
    if (this->substrate_.aborted()) return;
    if (graph_->is_owned(l)) {
      if (scheduled_.SetBit(l)) pending_.fetch_add(1);
    } else {
      forwards_.SetBit(l);
    }
  }

  /// Seeds T with every vertex owned by this machine.
  void ScheduleAll(double priority = 1.0) override {
    for (LocalVid l : graph_->owned_vertices()) Schedule(l, priority);
  }
  void ScheduleAllOwned(double priority = 1.0) { ScheduleAll(priority); }

  /// Executes the schedule to completion (or options().max_sweeps).
  /// Collective: every machine's engine must call Start() concurrently.
  /// The cluster-wide continuation decision runs after each sweep, so
  /// `max_updates` budgets are not supported (pass 0); use max_sweeps to
  /// bound the run instead.
  RunResult Start(uint64_t max_updates = 0) override {
    GL_CHECK(this->update_fn_) << "no update function";
    GL_CHECK_EQ(max_updates, uint64_t{0})
        << "chromatic engine runs to collective termination; bound the run "
           "with EngineOptions::max_sweeps";
    Timer timer;
    this->substrate_.BeginRun();
    rpc::CommStats before = ctx_.comm().GetStats(ctx_.id);
    const double busy_before = this->substrate_.busy_seconds();
    local_updates_ = 0;
    uint64_t sweeps = 0;
    const ColorId num_colors = graph_->num_colors();

    // Color-steps are natural coalescing windows: neighbors only read
    // ghost data after the full communication barrier below, so dirty
    // entities can ride one framed delta batch per peer per color-step
    // instead of one frame per scope commit.
    graph_->SetGhostSyncMode(this->options_.ghost_coalescing
                                 ? GhostSyncMode::kCoalesced
                                 : GhostSyncMode::kPerScope,
                             this->options_.ghost_batch_bytes);

    // Ghosts scheduled before Start() ship now.  The owner must handle
    // them before color-step 0 collects its batch, and the barrier alone
    // does not order this machine's channel to the owner against the
    // master's release — so a machine that shipped anything waits for
    // quiescence before entering it.
    if (FlushForwards()) ctx_.comm().WaitQuiescent();
    // Align all machines before starting.
    ctx_.barrier().Wait(ctx_.id);

    for (;;) {
      GL_TRACE_SCOPE1(trace::kEngine, "chromatic.sweep", "sweep", sweeps + 1);
      for (ColorId color = 0; color < num_colors; ++color) {
        // An aborted machine (peer death, AbortAndJoin) stops executing
        // updates but keeps walking the collective call sequence — its
        // barrier/quiescence calls are failure-released or cancelled, so
        // it reaches the sweep-end decision instead of desynchronizing
        // the survivors' barrier generations.
        GL_TRACE_SCOPE1(trace::kEngine, "chromatic.color_step", "color",
                        color);
        RunColorStep(color);
        // Close the coalescing window: ship one schedule-forward frame
        // and one framed delta batch per peer with anything staged.
        FlushForwards();
        graph_->FlushDeltas();
        // Full communication barrier between color-steps: everyone done
        // sending, channels flushed, everyone observed the flush.
        ctx_.barrier().Wait(ctx_.id);
        ctx_.comm().WaitQuiescent();
        ctx_.barrier().Wait(ctx_.id);
        if (this->options_.sync_interval_steps != 0 && sync_ != nullptr &&
            !this->substrate_.aborted() &&
            ++steps_since_sync_ >= this->options_.sync_interval_steps) {
          steps_since_sync_ = 0;
          for (const std::string& key : this->options_.sync_keys) {
            sync_->RunSyncBlocking(key, ctx_.id);
          }
        }
      }
      ++sweeps;
      // Globally consistent boundary: all machines aligned, channels
      // flushed.  The fault subsystem's checkpoint coordinator runs here.
      this->RunBoundaryHook(sweeps);
      // Cluster-wide continuation decision; a local abort propagates to
      // every machine through the high bits of the reduced word so the
      // cluster breaks out of the sweep loop together.
      uint64_t word = pending_.load(std::memory_order_acquire);
      if (this->substrate_.aborted()) word += kAbortUnit;
      std::vector<uint64_t> totals = allreduce_->Reduce(ctx_.id, {word});
      // A machine cancelled by the fault runner gets all-zeros back and
      // leaves through the T-empty branch; everyone else leaves through
      // the abort bit once their own cancellation or the collective
      // decision lands.
      if (totals[0] >= kAbortUnit) break;                  // someone aborted
      if ((totals[0] & (kAbortUnit - 1)) == 0) break;      // T empty
      if (this->options_.max_sweeps != 0 &&
          sweeps >= this->options_.max_sweeps) {
        break;
      }
    }

    // Leave the graph in immediate-flush mode between runs.
    graph_->SetGhostSyncMode(GhostSyncMode::kPerScope);

    this->last_result_ = RunResult{};
    this->last_result_.updates = CollectTotalUpdates(local_updates_);
    this->last_result_.seconds = timer.Seconds();
    this->last_result_.busy_seconds =
        this->substrate_.busy_seconds() - busy_before;
    this->last_result_.sweeps = sweeps;
    rpc::CommStats after = ctx_.comm().GetStats(ctx_.id);
    this->last_result_.bytes_sent = after.bytes_sent - before.bytes_sent;
    this->last_result_.messages_sent =
        after.messages_sent - before.messages_sent;
    this->substrate_.EndRun();
    return this->last_result_;
  }

  /// Updates executed by this machine in the last Start().
  uint64_t local_updates() const override { return local_updates_; }

  /// Per-vertex update counters (local ids) — used by the Fig. 1(b)
  /// update-distribution experiment.
  const std::vector<uint32_t>& update_counts() const override {
    return update_counts_;
  }
  void EnableUpdateCounting() override {
    update_counts_.assign(graph_->num_local_vertices(), 0);
  }

 private:
  /// Sweeps-with-abort are reduced in one word: low 48 bits carry the
  /// pending-task count, each aborted machine adds one kAbortUnit.
  static constexpr uint64_t kAbortUnit = uint64_t{1} << 48;

  /// Ships every staged ghost schedule: one frame per owner, a bare
  /// column of u32 gvids in local-id order.  Runs on the coordinator
  /// thread while no update function is staging.  True if anything was
  /// sent.
  bool FlushForwards() {
    std::vector<OutArchive> frames;
    for (size_t l = forwards_.FindFirstFrom(0); l < forwards_.size();
         l = forwards_.FindFirstFrom(l + 1)) {
      forwards_.ClearBit(l);
      if (frames.empty()) frames.resize(ctx_.comm().num_machines());
      const auto lvid = static_cast<LocalVid>(l);
      frames[graph_->owner(lvid)] << graph_->Gvid(lvid);
    }
    for (rpc::MachineId m = 0; m < frames.size(); ++m) {
      if (frames[m].size() == 0) continue;
      ctx_.comm().Send(ctx_.id, m, kScheduleForwardHandler,
                       std::move(frames[m]));
    }
    return !frames.empty();
  }

  /// Decodes one schedule-forward frame (dispatch thread).  A truncated
  /// column stops at the last whole gvid (CommLayer logs the over-read);
  /// a gvid this machine does not own is logged and dropped.
  void ApplyScheduleForwards(rpc::MachineId src, InArchive& ia) {
    while (!ia.AtEnd()) {
      const VertexId gvid = ia.ReadValue<VertexId>();
      if (!ia.ok()) return;
      const LocalVid l = graph_->TryLvid(gvid);
      if (l == kInvalidLocalVid || !graph_->is_owned(l)) {
        GL_LOG(ERROR) << "machine " << ctx_.id << ": schedule forward from "
                      << src << " for "
                      << (l == kInvalidLocalVid ? "non-local" : "ghost")
                      << " vertex " << gvid << "; dropping entry";
        continue;
      }
      if (scheduled_.SetBit(l)) pending_.fetch_add(1);
    }
  }

  uint64_t RunColorStep(ColorId color) {
    if (this->substrate_.aborted()) return 0;
    // Collect scheduled owned vertices of this color.
    std::vector<LocalVid> batch;
    for (LocalVid l : graph_->owned_vertices()) {
      if (graph_->color(l) == color && scheduled_.Test(l)) {
        if (scheduled_.ClearBit(l)) {
          pending_.fetch_sub(1);
          batch.push_back(l);
        }
      }
    }
    if (batch.empty()) return 0;

    // Execute the color-step across the substrate's batch workers; ghost
    // changes stream out asynchronously as each update commits.
    this->substrate_.RunBatch(
        this->options_.num_threads, batch.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ExecuteUpdate(batch[i]);
        });
    local_updates_ += batch.size();
    return batch.size();
  }

  void ExecuteUpdate(LocalVid l) {
    const uint64_t cpu0 = Timer::ThreadCpuNanos();
    ContextType context(graph_, l, 1.0, this->options_.consistency,
                        static_cast<Base*>(this), &Base::ScheduleTrampoline);
    this->update_fn_(context);
    graph_->FlushVertexScope(l);
    if (!update_counts_.empty()) update_counts_[l]++;
    this->substrate_.CountUpdate();
    this->substrate_.AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
  }

  uint64_t CollectTotalUpdates(uint64_t local) {
    std::vector<uint64_t> totals = allreduce_->Reduce(ctx_.id, {local});
    return totals[0];
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  SyncManager<GraphType>* sync_;
  SumAllReduce* allreduce_;

  DenseBitset scheduled_;
  DenseBitset forwards_;  // ghosts scheduled since the last flush
  std::atomic<uint64_t> pending_{0};
  uint64_t local_updates_ = 0;
  uint64_t steps_since_sync_ = 0;
  std::vector<uint32_t> update_counts_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
