// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// The Sync operation: global values (Sec. 3.5).
//
//   Z = Finalize( (+)_{v in V}  Map(S_v) )
//
// Each machine maps its owned vertices into a partial accumulator, sends
// the partial to the coordinator, which combines all partials, runs the
// finalization phase (the Pregel-missing feature used for normalization
// and the CoSeg GMM re-estimation), and broadcasts the global value.
// Update functions read the latest published value locally.
//
// A round completes once every LIVE machine has contributed (the
// coordinator's membership view, re-checked on every death), and its
// value is published to the live machines, so a death never wedges a
// blocking sync; the value then covers the survivors' partials.
//
// Two cadences mirror the paper: the chromatic engine runs syncs between
// color-steps; the locking engine runs them continuously in the background
// every `interval` updates (consistent variant would require halting the
// cluster; like the paper we default to the inconsistent-but-atomic
// published snapshot).

#ifndef GRAPHLAB_ENGINE_SYNC_H_
#define GRAPHLAB_ENGINE_SYNC_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/util/logging.h"
#include "graphlab/util/serialization.h"

namespace graphlab {

/// Cluster-wide sync manager templated on the distributed graph type.
/// One instance serves all machines; per-machine graphs are registered
/// individually and machines only touch their own slot + the coordinator
/// handlers run on machine 0's dispatch thread.
template <typename Graph>
class SyncManager {
 public:
  explicit SyncManager(rpc::CommLayer* comm) : comm_(comm) {
    graphs_.resize(comm->num_machines(), nullptr);
    handler_scopes_.push_back(comm_->RegisterHandler(
        0, kSyncPartialHandler,
        [this](rpc::MachineId src, InArchive& ia) { OnPartial(src, ia); }));
    for (rpc::MachineId m = 0; m < comm->num_machines(); ++m) {
      handler_scopes_.push_back(comm_->RegisterHandler(
          m, kSyncPublishHandler,
          [this, m](rpc::MachineId src, InArchive& ia) {
            OnPublish(m, src, ia);
          }));
    }
    // A death may complete a round that waited only for the dead
    // machine's partial.  Runs on a transport thread; does not block.
    membership_subscription_ = comm_->membership().Subscribe(
        [this](rpc::MachineId, uint64_t) {
          std::vector<std::pair<std::string, Completed>> completed;
          {
            std::lock_guard<std::mutex> lock(ops_mutex_);
            for (auto& [key, op] : ops_) {
              for (Completed& c : op->TakeCompleted(Alive(), NumVertices())) {
                completed.emplace_back(key, std::move(c));
              }
            }
          }
          for (const auto& [key, c] : completed) Publish(key, c);
        });
  }

  /// Attaches machine m's graph partition.  Collective, before first sync.
  void AttachGraph(rpc::MachineId m, Graph* graph) { graphs_[m] = graph; }

  /// Registers a sync operation under `key`.
  ///   map:      folds one owned vertex into the accumulator
  ///   combine:  merges a partial into the left accumulator
  ///   finalize: optional post-processing with |V| available
  /// Acc must be serializable and default/zero constructed from `zero`.
  template <typename Acc>
  void Register(
      const std::string& key, Acc zero,
      std::function<void(const Graph&, LocalVid, Acc*)> map,
      std::function<void(Acc*, const Acc&)> combine,
      std::function<void(Acc*, uint64_t)> finalize = nullptr) {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    auto op = std::make_unique<Op<Acc>>();
    op->zero = zero;
    op->map = std::move(map);
    op->combine = std::move(combine);
    op->finalize = std::move(finalize);
    op->published.assign(comm_->num_machines(), zero);
    op->published_round.assign(comm_->num_machines(), 0);
    op->local_round.assign(comm_->num_machines(), 0);
    ops_[key] = std::move(op);
  }

  /// Machine m computes its partial for `key` and ships it to the
  /// coordinator.  Non-blocking; the new value appears via OnPublish.
  /// Collective cadence: all machines must call the same number of times.
  void RunSyncAsync(const std::string& key, rpc::MachineId m) {
    OpBase* op = FindOp(key);
    uint64_t round = ++op->local_round[m];
    OutArchive oa;
    oa << key << round;
    op->SerializePartial(*graphs_[m], &oa);
    comm_->Send(m, 0, kSyncPartialHandler, std::move(oa));
  }

  /// Blocking variant: waits until the round started here is published.
  void RunSyncBlocking(const std::string& key, rpc::MachineId m) {
    OpBase* op = FindOp(key);
    RunSyncAsync(key, m);
    uint64_t round = op->local_round[m];
    std::unique_lock<std::mutex> lock(op->mutex);
    op->cv.wait(lock, [&] { return op->published_round[m] >= round; });
  }

  /// Latest published value on machine m (initially `zero`).
  template <typename Acc>
  Acc Get(const std::string& key, rpc::MachineId m) {
    OpBase* base = FindOp(key);
    auto* op = dynamic_cast<Op<Acc>*>(base);
    GL_CHECK(op != nullptr) << "sync op type mismatch for " << key;
    std::lock_guard<std::mutex> lock(op->mutex);
    return op->published[m];
  }

  /// Round counter of the latest publish seen by machine m.
  uint64_t PublishedRound(const std::string& key, rpc::MachineId m) {
    OpBase* op = FindOp(key);
    std::lock_guard<std::mutex> lock(op->mutex);
    return op->published_round[m];
  }

 private:
  /// A round the coordinator closed: its finalized, serialized value.
  struct Completed {
    uint64_t round = 0;
    OutArchive value;
  };

  struct OpBase {
    virtual ~OpBase() = default;
    virtual void SerializePartial(const Graph& graph, OutArchive* oa) = 0;
    /// Coordinator: merges `src`'s serialized partial into its round.  A
    /// torn partial fails `ia` and is not merged; returns false for a
    /// partial the round cannot take (a second one from `src`, or one
    /// for a round already closed).
    virtual bool Accumulate(rpc::MachineId src, uint64_t round,
                            InArchive& ia) = 0;
    /// Coordinator: closes, in round order, every pending round that
    /// every machine alive in `alive` has contributed to.
    virtual std::vector<Completed> TakeCompleted(
        const std::vector<uint8_t>& alive, uint64_t num_global_vertices) = 0;
    /// A torn value fails `ia` and is not applied.
    virtual void ApplyPublish(rpc::MachineId m, uint64_t round,
                              InArchive& ia) = 0;

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<uint64_t> local_round;
    std::vector<uint64_t> published_round;
  };

  template <typename Acc>
  struct Op : OpBase {
    Acc zero{};
    std::function<void(const Graph&, LocalVid, Acc*)> map;
    std::function<void(Acc*, const Acc&)> combine;
    std::function<void(Acc*, uint64_t)> finalize;
    std::vector<Acc> published;

    // Coordinator per-round accumulation, keyed by round.
    struct RoundAcc {
      std::vector<uint8_t> contributed;  // per machine
      Acc acc{};
    };
    std::map<uint64_t, RoundAcc> rounds;
    uint64_t closed_through = 0;  // every round up to here is published

    void SerializePartial(const Graph& graph, OutArchive* oa) override {
      Acc acc = zero;
      for (LocalVid l : graph.owned_vertices()) {
        map(graph, l, &acc);
      }
      *oa << acc;
    }

    bool Accumulate(rpc::MachineId src, uint64_t round,
                    InArchive& ia) override {
      Acc partial;
      ia >> partial;
      if (!ia.ok()) return false;
      std::lock_guard<std::mutex> lock(this->mutex);
      if (round <= closed_through) return false;
      RoundAcc& r = rounds[round];
      if (r.contributed.empty()) {
        r.contributed.assign(this->local_round.size(), 0);
        r.acc = zero;
      }
      if (r.contributed[src]) return false;
      r.contributed[src] = 1;
      combine(&r.acc, partial);
      return true;
    }

    std::vector<Completed> TakeCompleted(
        const std::vector<uint8_t>& alive,
        uint64_t num_global_vertices) override {
      std::vector<Completed> out;
      std::lock_guard<std::mutex> lock(this->mutex);
      for (auto it = rounds.begin(); it != rounds.end();) {
        bool complete = true;
        for (size_t m = 0; m < alive.size(); ++m) {
          complete = complete && (!alive[m] || it->second.contributed[m]);
        }
        if (!complete) break;  // later rounds wait for this one
        Acc result = std::move(it->second.acc);
        if (finalize) finalize(&result, num_global_vertices);
        Completed c;
        c.round = it->first;
        c.value << result;
        out.push_back(std::move(c));
        closed_through = it->first;
        it = rounds.erase(it);
      }
      return out;
    }

    void ApplyPublish(rpc::MachineId m, uint64_t round,
                      InArchive& ia) override {
      Acc value;
      ia >> value;
      if (!ia.ok()) return;
      std::lock_guard<std::mutex> lock(this->mutex);
      if (round > this->published_round[m]) {
        this->published_round[m] = round;
        published[m] = std::move(value);
        this->cv.notify_all();
      }
    }
  };

  OpBase* FindOp(const std::string& key) {
    OpBase* op = LookupOp(key);
    GL_CHECK(op != nullptr) << "unknown sync op: " << key;
    return op;
  }

  /// nullptr when no op is registered under `key` (wire input).
  OpBase* LookupOp(const std::string& key) {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    auto it = ops_.find(key);
    return it == ops_.end() ? nullptr : it->second.get();
  }

  /// Reads a frame's `key | round` header; logs and returns nullptr for a
  /// torn header or an unknown key.
  OpBase* ReadHeader(const char* what, rpc::MachineId src, InArchive& ia,
                     std::string* key, uint64_t* round) {
    ia >> *key >> *round;
    OpBase* op = ia.ok() ? LookupOp(*key) : nullptr;
    if (op == nullptr) DropFrame(what, src, "unknown sync op or torn header");
    return op;
  }

  static void DropFrame(const char* what, rpc::MachineId src,
                        const char* why) {
    GL_LOG(WARNING) << "dropping sync " << what << " from machine " << src
                    << ": " << why;
  }

  std::vector<uint8_t> Alive() const {
    return comm_->membership().alive_bitmap();
  }

  uint64_t NumVertices() const {
    return graphs_[0] != nullptr ? graphs_[0]->num_global_vertices() : 0;
  }

  /// Coordinator: sends a closed round's value to every live machine.
  void Publish(const std::string& key, const Completed& c) {
    const std::vector<uint8_t> alive = Alive();
    for (rpc::MachineId dst = 0; dst < alive.size(); ++dst) {
      if (!alive[dst]) continue;
      OutArchive oa;
      oa << key << c.round;
      oa.WriteBytes(c.value.buffer().data(), c.value.size());
      comm_->Send(0, dst, kSyncPublishHandler, std::move(oa));
    }
  }

  void OnPartial(rpc::MachineId src, InArchive& ia) {
    std::string key;
    uint64_t round = 0;
    OpBase* op = ReadHeader("partial", src, ia, &key, &round);
    if (op == nullptr) return;
    const bool merged = op->Accumulate(src, round, ia);
    if (!ia.ok()) {
      DropFrame("partial", src, "torn value");
      return;
    }
    if (!merged) {
      DropFrame("partial", src, "repeated or closed round");
      return;
    }
    for (const Completed& c : op->TakeCompleted(Alive(), NumVertices())) {
      Publish(key, c);
    }
  }

  void OnPublish(rpc::MachineId self, rpc::MachineId src, InArchive& ia) {
    std::string key;
    uint64_t round = 0;
    OpBase* op = ReadHeader("publish", src, ia, &key, &round);
    if (op == nullptr) return;
    op->ApplyPublish(self, round, ia);
    if (!ia.ok()) DropFrame("publish", src, "torn value");
  }

  rpc::CommLayer* comm_;
  std::vector<Graph*> graphs_;
  std::mutex ops_mutex_;
  std::map<std::string, std::unique_ptr<OpBase>> ops_;

  std::vector<rpc::HandlerScope> handler_scopes_;
  rpc::Subscription membership_subscription_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_SYNC_H_
