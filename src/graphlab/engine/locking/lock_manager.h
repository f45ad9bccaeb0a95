// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Distributed scope locking with chained continuations (Sec. 4.2.2, Ex. 4).
//
// To acquire a scope for vertex v, a lock-chain message visits the machines
// participating in the scope (owner(v) plus the owners of N(v)) in the
// canonical ascending-machine order.  At each machine the locally owned
// scope vertices are locked in ascending global-id order — together this is
// the (owner(v), v) total order of the paper, so deadlock-free operation is
// guaranteed.  Each hop uses the non-blocking callback locks, so a
// contended lock parks the chain without occupying a thread, which is what
// makes deep pipelines cheap.  When the last machine finishes, it notifies
// the requester (or completes inline when the requester is last).
//
// Ghost coherence: writers flush scope data *before* releasing locks, and
// grants travel strictly after releases on the same FIFO channels (or via
// longer paths), so a granted scope always observes fresh ghost data; see
// DESIGN.md §5 and the proof sketch in docs of distributed_graph.h.

#ifndef GRAPHLAB_ENGINE_LOCKING_LOCK_MANAGER_H_
#define GRAPHLAB_ENGINE_LOCKING_LOCK_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/engine/scope_lock_plan.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/rpc/runtime.h"

namespace graphlab {

template <typename VertexData, typename EdgeData>
class DistributedLockManager {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;
  using ScopeReadyCallback = std::function<void()>;

  DistributedLockManager(rpc::MachineContext ctx, GraphType* graph,
                         ConsistencyModel model)
      : ctx_(ctx),
        graph_(graph),
        model_(model),
        locks_(graph->num_local_vertices()) {
    ctx_.comm().RegisterHandler(
        ctx_.id, kLockChainHandler,
        [this](rpc::MachineId, InArchive& ia) { OnChainHop(ia); });
    ctx_.comm().RegisterHandler(
        ctx_.id, kLockGrantHandler,
        [this](rpc::MachineId, InArchive& ia) {
          uint64_t id = ia.ReadValue<uint64_t>();
          CompleteRequest(id);
        });
    ctx_.comm().RegisterHandler(
        ctx_.id, kLockReleaseHandler,
        [this](rpc::MachineId, InArchive& ia) {
          VertexId gvid = ia.ReadValue<VertexId>();
          ReleaseLocal(gvid);
        });
  }

  /// Begins acquisition of the scope of owned vertex l; `cb` fires (on an
  /// RPC dispatch thread or inline) once every lock in the scope is held.
  /// Never blocks — this is the pipeline entry point.
  void RequestScope(LocalVid l, ScopeReadyCallback cb) {
    GL_CHECK(graph_->is_owned(l));
    uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_[id] = std::move(cb);
    }
    std::vector<rpc::MachineId> chain = ChainFor(l);
    VertexId gvid = graph_->Gvid(l);
    StartHop(chain, /*pos=*/0, id, gvid);
  }

  /// Releases every lock of l's scope; remote machines get one release
  /// message per locked vertex batched into per-machine messages.
  /// The caller must have flushed scope data first (FIFO coherence).
  void ReleaseScope(LocalVid l) {
    VertexId gvid = graph_->Gvid(l);
    for (rpc::MachineId m : ChainFor(l)) {
      if (m == ctx_.id) {
        ReleaseLocal(gvid);
      } else {
        OutArchive oa;
        oa << gvid;
        ctx_.comm().Send(ctx_.id, m, kLockReleaseHandler, std::move(oa));
      }
    }
  }

  /// Number of scope requests whose locks are not yet all granted.
  uint64_t outstanding() const {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    return pending_.size();
  }

  CallbackLockTable& lock_table() { return locks_; }

  /// Precompiles, for every local vertex's scope, the subset of locks
  /// this machine owns — ascending by *global* id, the canonical
  /// (owner(v), v) acquisition order — into a flat CSR plan.  Chain hops
  /// and releases then walk contiguous spans instead of allocating and
  /// sorting a fresh set per request.  Must be called (once) before any
  /// scope request flows; the locking engine does so at construction.
  void CompilePlans(const PlanParallelFor& parallel_for) {
    const size_t n = graph_->num_local_vertices();
    const bool vertex_only =
        model_ == ConsistencyModel::kVertexConsistency;
    const uint8_t nbr_excl =
        model_ == ConsistencyModel::kFullConsistency ? 1 : 0;
    plan_ = ScopeLockPlan::CompileWith(
        n, model_, parallel_for,
        [this, vertex_only](LocalVid center) -> size_t {
          size_t count = graph_->is_owned(center) ? 1 : 0;
          if (vertex_only) return count;
          for (LocalVid nb : graph_->neighbors(center)) {
            if (graph_->is_owned(nb)) count++;
          }
          return count;
        },
        [this, vertex_only, nbr_excl](LocalVid center,
                                      ScopeLockPlan::Entry* out) {
          size_t i = 0;
          if (graph_->is_owned(center)) out[i++] = {center, 1};
          if (!vertex_only) {
            for (LocalVid nb : graph_->neighbors(center)) {
              if (graph_->is_owned(nb)) out[i++] = {nb, nbr_excl};
            }
          }
          std::sort(out, out + i,
                    [this](const ScopeLockPlan::Entry& a,
                           const ScopeLockPlan::Entry& b) {
                      return graph_->Gvid(a.vid) < graph_->Gvid(b.vid);
                    });
        });
  }

 private:
  /// Machines participating in the scope chain of owned vertex l.
  std::vector<rpc::MachineId> ChainFor(LocalVid l) const {
    if (model_ == ConsistencyModel::kVertexConsistency) {
      return {ctx_.id};  // only the central vertex is locked
    }
    auto span = graph_->scope_machines(l);
    return {span.begin(), span.end()};
  }

  /// Lock set for the scope of global vertex `gvid` restricted to
  /// vertices owned by this machine, ascending by global id — a view
  /// into the plan compiled by CompilePlans() (stable for the manager's
  /// lifetime, so chained continuations may hold it across hops).
  std::span<const ScopeLockPlan::Entry> LocalLockSet(VertexId gvid) const {
    GL_CHECK(plan_.compiled()) << "CompilePlans() not called";
    return plan_.scope(graph_->Lvid(gvid));
  }

  void StartHop(const std::vector<rpc::MachineId>& chain, size_t pos,
                uint64_t id, VertexId gvid) {
    GL_CHECK_LT(pos, chain.size());
    if (chain[pos] == ctx_.id) {
      AcquireLocalThenForward(chain, pos, id, gvid);
    } else {
      OutArchive oa;
      oa << id << gvid << chain << static_cast<uint64_t>(pos)
         << ctx_.id;  // requester
      ctx_.comm().Send(ctx_.id, chain[pos], kLockChainHandler,
                       std::move(oa));
    }
  }

  void OnChainHop(InArchive& ia) {
    uint64_t id = ia.ReadValue<uint64_t>();
    VertexId gvid = ia.ReadValue<VertexId>();
    std::vector<rpc::MachineId> chain;
    ia >> chain;
    uint64_t pos = ia.ReadValue<uint64_t>();
    rpc::MachineId requester = ia.ReadValue<rpc::MachineId>();
    AcquireLocalThenForwardRemote(chain, pos, id, gvid, requester);
  }

  /// Local-origin variant (requester == this machine).
  void AcquireLocalThenForward(std::vector<rpc::MachineId> chain, size_t pos,
                               uint64_t id, VertexId gvid) {
    AcquireLocalThenForwardRemote(std::move(chain), pos, id, gvid, ctx_.id);
  }

  void AcquireLocalThenForwardRemote(std::vector<rpc::MachineId> chain,
                                     size_t pos, uint64_t id, VertexId gvid,
                                     rpc::MachineId requester) {
    AcquireSequential(std::move(chain), pos, id, gvid, requester,
                      LocalLockSet(gvid), 0);
  }

  /// Acquires set[i..] one by one via callback chaining, then forwards.
  /// `set` views the precompiled plan (stable storage), so continuations
  /// carry a 16-byte span instead of a shared_ptr'd vector.
  void AcquireSequential(std::vector<rpc::MachineId> chain, size_t pos,
                         uint64_t id, VertexId gvid,
                         rpc::MachineId requester,
                         std::span<const ScopeLockPlan::Entry> set,
                         size_t i) {
    if (i == set.size()) {
      Forward(std::move(chain), pos, id, gvid, requester);
      return;
    }
    const ScopeLockPlan::Entry e = set[i];
    locks_.Acquire(e.vid, e.exclusive != 0,
                   [this, chain = std::move(chain), pos, id, gvid, requester,
                    set, i]() mutable {
                     AcquireSequential(std::move(chain), pos, id, gvid,
                                       requester, set, i + 1);
                   });
  }

  void Forward(std::vector<rpc::MachineId> chain, size_t pos, uint64_t id,
               VertexId gvid, rpc::MachineId requester) {
    if (pos + 1 < chain.size()) {
      rpc::MachineId next = chain[pos + 1];
      if (next == ctx_.id) {
        // Cannot happen (chain machines are distinct) but keep safe.
        AcquireLocalThenForwardRemote(std::move(chain), pos + 1, id, gvid,
                                      requester);
        return;
      }
      OutArchive oa;
      oa << id << gvid << chain << static_cast<uint64_t>(pos + 1)
         << requester;
      ctx_.comm().Send(ctx_.id, next, kLockChainHandler, std::move(oa));
      return;
    }
    // Chain complete.
    if (requester == ctx_.id) {
      CompleteRequest(id);
    } else {
      OutArchive oa;
      oa << id;
      ctx_.comm().Send(ctx_.id, requester, kLockGrantHandler, std::move(oa));
    }
  }

  void CompleteRequest(uint64_t id) {
    ScopeReadyCallback cb;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      auto it = pending_.find(id);
      GL_CHECK(it != pending_.end()) << "unknown lock request " << id;
      cb = std::move(it->second);
      pending_.erase(it);
    }
    cb();
  }

  /// Releases this machine's locks for the scope of `gvid`.
  void ReleaseLocal(VertexId gvid) {
    for (const ScopeLockPlan::Entry& e : LocalLockSet(gvid)) {
      locks_.Release(e.vid, e.exclusive != 0);
    }
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  ConsistencyModel model_;
  CallbackLockTable locks_;
  ScopeLockPlan plan_;

  std::atomic<uint64_t> next_request_id_{1};
  mutable std::mutex pending_mutex_;
  std::unordered_map<uint64_t, ScopeReadyCallback> pending_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_LOCKING_LOCK_MANAGER_H_
