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
// as they are made* (FlushVertexScope after each update, or one coalesced
// delta batch per peer at the step's end), making full use of network
// bandwidth and processor time.  Sync operations run between color-steps.
// The color-step batches execute on the substrate's self-scheduling batch
// workers; the engine itself owns no threads.
//
// Color-step protocol.  The paper separates color-steps with a full
// communication barrier.  Here the runtime's flush round
// (rpc/flush_round.h, handler 35) does that job: when a machine's step
// ends it flushes its delta batches and runs one round, whose frame to
// each live peer is
//
//   u64 generation | u32 gvid column
//
// The column lists the peer-owned ghosts scheduled here during the step
// — a bitset dedupes repeats — and is empty more often than not.  Once
// the round completes, every ghost write of the step has been applied
// here.  The round's precondition holds for every handler that can run
// during a color-step: the ghost push decoder and the round's own
// decoder send nothing, and the write-back handler id is reserved but
// never registered.
//
// Forwards received in round g are merged into the schedule only after
// g's wait, so a forwarded vertex runs in exactly the step it ran in
// under the barrier protocol.  The engine installs the round's payload
// decoder for its machine: a column whose length is not a whole number
// of gvids, or that names a gvid this machine does not own, drops the
// frame whole (rpc.flush_dropped), so it can never schedule a vertex or
// release a wait.
//
// The wait also ends when a peer dies or the engine aborts.  A death
// mid-run aborts the engine — the dead machine's step is lost — and the
// run ends at the sweep's abort-bit decision.  An aborted machine keeps
// walking the step sequence and keeps sending its (now empty) frames, so
// the survivors stay aligned.  Start() opens with a barrier — engines
// are built per machine with no ordering between them, and it guarantees
// every peer's decoder is installed before a forward flies — followed by
// the opening round, which ships the ghosts scheduled between runs.
//
// One engine instance lives on each machine, and at most one chromatic
// engine per machine at a time (it owns its machine's round decoder);
// Start() is collective.  The destructor removes the decoder, so a
// forward that lands after the engine is gone is dropped, not
// dereferenced.

#ifndef GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
#define GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/timer.h"

namespace graphlab {

template <typename VertexData, typename EdgeData>
class ChromaticEngine final
    : public EngineBase<DistributedGraph<VertexData, EdgeData>> {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;
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
    ctx_.flush().SetDecoder(
        ctx_.id, [graph](rpc::MachineId, InArchive& ia,
                         std::vector<uint64_t>* out) -> const char* {
          return DecodeForwards(*graph, ia, out);
        });
  }

  ~ChromaticEngine() override { ctx_.flush().SetDecoder(ctx_.id, nullptr); }

  const char* name() const override { return "chromatic"; }

  /// Seeds T with one vertex (owned or ghost).  A ghost is staged and
  /// forwarded to its owner in the step-end frame of the current
  /// color-step, or in Start()'s opening exchange when scheduled between
  /// runs.  This engine ignores priorities.
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
    bool collective_abort = false;
    const ColorId num_colors = graph_->num_colors();

    // Color-steps are natural coalescing windows: neighbors only read
    // ghost data after the step-end exchange below, so dirty entities can
    // ride one framed delta batch per peer per color-step instead of one
    // frame per scope commit.
    graph_->SetGhostSyncMode(this->options_.ghost_coalescing
                                 ? GhostSyncMode::kCoalesced
                                 : GhostSyncMode::kPerScope);

    // Every peer's forward decoder exists once this barrier releases;
    // then the opening exchange ships ghosts scheduled before Start(), so
    // their owners see them before color-step 0 collects its batch.
    ctx_.barrier().Wait(ctx_.id);
    alive_at_start_ = ctx_.comm().membership().num_alive();
    ExchangeStepEnd();

    for (;;) {
      GL_TRACE_SCOPE1(trace::kEngine, "chromatic.sweep", "sweep", sweeps + 1);
      for (ColorId color = 0; color < num_colors; ++color) {
        // An aborted machine (peer death, AbortAndJoin) stops executing
        // updates but keeps walking the collective call sequence — its
        // exchanges still send, and its waits return at once — so it
        // reaches the sweep-end decision with the survivors.
        GL_TRACE_SCOPE1(trace::kEngine, "chromatic.color_step", "color",
                        color);
        RunColorStep(color);
        // Close the coalescing window, then the step: one delta batch
        // and one flush-round frame per peer.
        graph_->FlushDeltas();
        ExchangeStepEnd();
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
      // Globally consistent boundary: every ghost write of the sweep has
      // been applied here, and no peer can send the next sweep's data
      // before the decision below.  The fault subsystem's checkpoint
      // coordinator runs here.
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
      if (totals[0] >= kAbortUnit) {  // someone aborted
        collective_abort = true;
        break;
      }
      if ((totals[0] & (kAbortUnit - 1)) == 0) break;      // T empty
      if (this->options_.max_sweeps != 0 &&
          sweeps >= this->options_.max_sweeps) {
        break;
      }
    }

    // Leave the graph in immediate-flush mode between runs.
    graph_->SetGhostSyncMode(GhostSyncMode::kPerScope);

    this->last_result_ = RunResult{};
    this->last_result_.aborted = collective_abort;
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

 protected:
  /// Wakes a step-end wait in progress; it returns once it sees the flag.
  void OnAbort() override { ctx_.flush().Wake(ctx_.id); }

 private:
  /// Sweeps-with-abort are reduced in one word: low 48 bits carry the
  /// pending-task count, each aborted machine adds one kAbortUnit.
  static constexpr uint64_t kAbortUnit = uint64_t{1} << 48;

  /// The flush round's payload decoder: a column of gvids this machine
  /// owns, decoded into local ids.  A torn column, or a gvid this machine
  /// does not hold or holds only as a ghost (the sender's partition
  /// differs from ours, or the bytes are hostile), drops the frame.
  static const char* DecodeForwards(const GraphType& graph, InArchive& ia,
                                    std::vector<uint64_t>* out) {
    if (ia.remaining() % sizeof(VertexId) != 0) return "torn gvid column";
    out->reserve(ia.remaining() / sizeof(VertexId));
    while (!ia.AtEnd()) {
      const LocalVid l = graph.TryLvid(ia.ReadValue<VertexId>());
      if (l == kInvalidLocalVid) return "non-local vertex in column";
      if (!graph.is_owned(l)) return "ghost vertex in column";
      out->push_back(l);
    }
    return nullptr;
  }

  /// One step-end exchange: a flush round whose frame to each live peer
  /// carries the forwards it owns (none once aborted), then a merge of
  /// the forwards received for it.  Runs on the coordinator thread while
  /// no update function is staging.  A peer that died since Start()
  /// aborts the run.
  void ExchangeStepEnd() {
    GL_TRACE_SCOPE(trace::kEngine, "chromatic.step_exchange");
    const size_t n = ctx_.comm().num_machines();
    std::vector<OutArchive> payloads(n);
    const bool aborted = this->substrate_.aborted();
    for (size_t l = forwards_.FindFirstFrom(0); l < forwards_.size();
         l = forwards_.FindFirstFrom(l + 1)) {
      forwards_.ClearBit(l);
      if (aborted) continue;
      const auto lvid = static_cast<LocalVid>(l);
      payloads[graph_->owner(lvid)] << graph_->Gvid(lvid);
    }
    std::vector<uint64_t> forwarded;
    const bool flushed = ctx_.flush().Run(
        ctx_.id, std::move(payloads), &forwarded,
        [this] { return this->substrate_.aborted(); });
    if ((!flushed ||
         ctx_.comm().membership().num_alive() < alive_at_start_) &&
        !this->substrate_.aborted()) {
      GL_LOG(WARNING) << "machine " << ctx_.id
                      << ": a machine died during the run; aborting";
      this->RequestAbort();
    }
    if (this->substrate_.aborted()) return;
    for (uint64_t l : forwarded) {
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
          // One thread-CPU clock pair per chunk: the read is a syscall
          // that costs more than a PageRank update.
          const uint64_t cpu0 = Timer::ThreadCpuNanos();
          for (size_t i = begin; i < end; ++i) ExecuteUpdate(batch[i]);
          this->substrate_.AddBusyNanos(Timer::ThreadCpuNanos() - cpu0);
        });
    local_updates_ += batch.size();
    return batch.size();
  }

  void ExecuteUpdate(LocalVid l) {
    ContextType context(graph_, l, 1.0, this->options_.consistency,
                        static_cast<Base*>(this), &Base::ScheduleTrampoline);
    this->update_fn_(context);
    graph_->FlushVertexScope(l);
    if (!update_counts_.empty()) update_counts_[l]++;
    this->substrate_.CountUpdate();
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
  DenseBitset forwards_;  // ghosts scheduled since the last exchange
  std::atomic<uint64_t> pending_{0};
  uint64_t local_updates_ = 0;
  uint64_t steps_since_sync_ = 0;
  std::vector<uint32_t> update_counts_;
  size_t alive_at_start_ = 0;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
