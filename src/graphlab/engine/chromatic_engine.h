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
// communication barrier.  Here one message round does that job: when a
// machine's step ends it flushes its delta batches, then sends every live
// peer exactly one step-end frame (handler kColorStepEndHandler):
//
//   u64 generation | u32 gvid column
//
// The generation counts the exchanges of this engine (0 at the first
// Start(), +1 per color-step, continuing across Start() calls).  The
// column lists the peer-owned ghosts scheduled here during the step — a
// bitset dedupes repeats — and is empty more often than not; the frame is
// sent anyway.  The machine then waits for every live peer's frame of the
// same generation before it starts the next step.
//
// Why one round suffices: every ordered machine pair is a FIFO channel
// and each machine runs all handlers on one dispatch thread (README,
// "Distributed runtime & wire format").  A peer's step-end frame is therefore handled only after
// every data frame that peer sent earlier in the step, so once all live
// peers' frames of generation g are in, every ghost write of step g has
// been applied here — what "barrier, quiescence, barrier" proved, in one
// one-way hop instead of at least eight.  This holds under one precondition: no handler
// that runs during a color-step sends a data message (a handler's send
// could trail its machine's step-end frame).  Today's handlers honour it:
// the ghost push decoder and the step-end decoder send nothing, and the
// write-back handler id is reserved but never registered.
//
// A fast peer can be one step ahead, so its next frame may arrive before
// this machine's wait ends.  Received forwards are staged by generation
// parity and merged into the schedule only after that generation's wait,
// so a forwarded vertex runs in exactly the step it ran in under the
// barrier protocol.  The decoder accepts a frame only when its generation
// is exactly one past the last one seen from that source and its column
// names whole gvids this machine owns; anything else (a stale frame of
// an aborted attempt, hostile TCP input) is logged, counted in
// engine.step_frames_dropped and dropped whole, so it can never schedule
// a vertex or release a wait.
//
// The wait also ends when a peer dies (membership subscription) or the
// engine aborts.  A death mid-run aborts the engine — the dead machine's
// step is lost — and the run ends at the sweep's abort-bit decision.  An
// aborted machine keeps walking the step sequence and keeps sending its
// (now empty) frames, so the survivors stay aligned.  Start() opens with
// a barrier — engines are built per machine with no ordering between
// them, and it guarantees every step-end handler is registered before
// the first frame flies — followed by exchange 0, which ships the ghosts
// scheduled between runs.
//
// One engine instance lives on each machine, and at most one chromatic
// engine per machine at a time (the step-end handler id is per machine);
// Start() is collective.  The destructor swaps in an inert handler, so a
// frame that lands after the engine is gone is dropped, not dereferenced.

#ifndef GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
#define GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
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
        forwards_(graph->num_local_vertices()),
        exchange_(std::make_shared<StepExchange>()) {
    exchange_->graph = graph;
    exchange_->self = ctx_.id;
    exchange_->next_generation.assign(ctx_.comm().num_machines(), 0);
    exchange_->dropped =
        this->metrics_registry()->counter("engine.step_frames_dropped");
    // The handler and the membership callback share the exchange state,
    // not the engine, so a delivery still running while the engine is
    // destroyed touches only memory it keeps alive itself.
    ctx_.comm().RegisterHandler(
        ctx_.id, kColorStepEndHandler,
        [exchange = exchange_](rpc::MachineId src, InArchive& ia) {
          exchange->Deliver(src, ia);
        });
    membership_token_ = ctx_.comm().membership().Subscribe(
        [exchange = exchange_](rpc::MachineId, uint64_t) {
          std::lock_guard<std::mutex> lock(exchange->mutex);
          exchange->cv.notify_all();
        });
  }

  ~ChromaticEngine() override {
    ctx_.comm().RegisterHandler(ctx_.id, kColorStepEndHandler,
                                [](rpc::MachineId, InArchive&) {});
    ctx_.comm().membership().Unsubscribe(membership_token_);
    std::lock_guard<std::mutex> lock(exchange_->mutex);
    exchange_->graph = nullptr;
  }

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
    const ColorId num_colors = graph_->num_colors();

    // Color-steps are natural coalescing windows: neighbors only read
    // ghost data after the step-end exchange below, so dirty entities can
    // ride one framed delta batch per peer per color-step instead of one
    // frame per scope commit.
    graph_->SetGhostSyncMode(this->options_.ghost_coalescing
                                 ? GhostSyncMode::kCoalesced
                                 : GhostSyncMode::kPerScope);

    // Every peer's step-end handler exists once this barrier releases;
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
        // and one step-end frame per peer.
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

 protected:
  /// Wakes a step-end wait in progress; it returns once it sees the flag.
  void OnAbort() override {
    std::lock_guard<std::mutex> lock(exchange_->mutex);
    exchange_->cv.notify_all();
  }

 private:
  /// Sweeps-with-abort are reduced in one word: low 48 bits carry the
  /// pending-task count, each aborted machine adds one kAbortUnit.
  static constexpr uint64_t kAbortUnit = uint64_t{1} << 48;

  /// Receive side of the step-end exchange, shared by the engine, its
  /// handler and its membership callback.  Everything is guarded by
  /// `mutex`; `graph` is null once the engine is gone.
  struct StepExchange {
    std::mutex mutex;
    std::condition_variable cv;
    const GraphType* graph = nullptr;
    rpc::MachineId self = 0;
    std::vector<uint64_t> next_generation;  // per source machine
    std::vector<LocalVid> staged[2];        // forwards by generation parity
    metrics::Counter* dropped = nullptr;

    /// Decodes one step-end frame (dispatch thread).  The frame is
    /// accepted whole or dropped whole: a torn generation, a generation
    /// other than the next one from `src`, a torn column, or a gvid this
    /// machine does not own (the sender's partition differs from ours,
    /// or the bytes are hostile) drops it without touching the schedule
    /// or the generation count.
    void Deliver(rpc::MachineId src, InArchive& ia) {
      std::lock_guard<std::mutex> lock(mutex);
      if (graph == nullptr) return;
      const size_t frame_bytes = ia.remaining();
      const uint64_t generation = ia.ReadValue<uint64_t>();
      const char* problem = nullptr;
      std::vector<LocalVid> forwards;
      if (!ia.ok()) {
        problem = "torn generation";
      } else if (generation != next_generation[src]) {
        problem = "out-of-sequence generation";
      } else if (ia.remaining() % sizeof(VertexId) != 0) {
        problem = "torn gvid column";
      } else {
        forwards.reserve(ia.remaining() / sizeof(VertexId));
        while (problem == nullptr && !ia.AtEnd()) {
          const LocalVid l = graph->TryLvid(ia.ReadValue<VertexId>());
          if (l == kInvalidLocalVid) {
            problem = "non-local vertex in column";
          } else if (!graph->is_owned(l)) {
            problem = "ghost vertex in column";
          } else {
            forwards.push_back(l);
          }
        }
      }
      if (problem != nullptr) {
        GL_LOG(ERROR) << "machine " << self << ": step-end frame from "
                      << src << " (generation " << generation << ", "
                      << frame_bytes << " bytes): " << problem
                      << "; dropping frame";
        dropped->Inc();
        return;
      }
      std::vector<LocalVid>& stage = staged[generation & 1];
      stage.insert(stage.end(), forwards.begin(), forwards.end());
      ++next_generation[src];
      cv.notify_all();
    }
  };

  /// One step-end exchange: sends every live peer this generation's
  /// frame (forwards it owns, empty once aborted), waits for every live
  /// peer's frame of the same generation, then merges the forwards
  /// staged for it.  Runs on the coordinator thread while no update
  /// function is staging.  A peer that died since Start() aborts the run.
  void ExchangeStepEnd() {
    GL_TRACE_SCOPE(trace::kEngine, "chromatic.step_exchange");
    const uint64_t generation = next_generation_++;
    const size_t n = ctx_.comm().num_machines();
    std::vector<OutArchive> frames(n);
    for (OutArchive& frame : frames) frame << generation;
    const bool aborted = this->substrate_.aborted();
    for (size_t l = forwards_.FindFirstFrom(0); l < forwards_.size();
         l = forwards_.FindFirstFrom(l + 1)) {
      forwards_.ClearBit(l);
      if (aborted) continue;
      const auto lvid = static_cast<LocalVid>(l);
      frames[graph_->owner(lvid)] << graph_->Gvid(lvid);
    }
    rpc::Membership& members = ctx_.comm().membership();
    for (rpc::MachineId m = 0; m < n; ++m) {
      if (m == ctx_.id || !members.alive(m)) continue;
      ctx_.comm().Send(ctx_.id, m, kColorStepEndHandler,
                       std::move(frames[m]));
    }

    std::vector<LocalVid> forwarded;
    {
      std::unique_lock<std::mutex> lock(exchange_->mutex);
      exchange_->cv.wait(lock, [&] {
        if (this->substrate_.aborted() || !members.alive(ctx_.id)) {
          return true;
        }
        for (rpc::MachineId m = 0; m < n; ++m) {
          if (m != ctx_.id && exchange_->next_generation[m] <= generation &&
              members.alive(m)) {
            return false;
          }
        }
        return true;
      });
      forwarded.swap(exchange_->staged[generation & 1]);
    }
    if (members.num_alive() < alive_at_start_ &&
        !this->substrate_.aborted()) {
      GL_LOG(WARNING) << "machine " << ctx_.id
                      << ": a machine died during the run; aborting";
      this->RequestAbort();
    }
    if (this->substrate_.aborted()) return;
    for (LocalVid l : forwarded) {
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
  DenseBitset forwards_;  // ghosts scheduled since the last exchange
  std::atomic<uint64_t> pending_{0};
  uint64_t local_updates_ = 0;
  uint64_t steps_since_sync_ = 0;
  std::vector<uint32_t> update_counts_;

  std::shared_ptr<StepExchange> exchange_;
  size_t membership_token_ = 0;
  uint64_t next_generation_ = 0;  // of this machine's next step-end frame
  size_t alive_at_start_ = 0;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_CHROMATIC_ENGINE_H_
