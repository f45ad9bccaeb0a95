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
// A hop walks its lock set with TryAcquire and builds a continuation only
// at the first lock that is actually contended, so a scope whose locks are
// free costs no allocation and no mutex.  Requests carry no id: a grant
// names its scope by (gvid, priority), and a per-vertex count of
// outstanding requests (a vertex may be in the pipeline more than once)
// tells a grant the requester is waiting for from a stray one.
//
// Ghost coherence: writers flush scope data *before* releasing locks, and
// grants travel strictly after releases on the same FIFO channels (or via
// longer paths), so a granted scope always observes fresh ghost data; see
// DESIGN.md §5 and the proof sketch in docs of distributed_graph.h.
//
// Wire frames (README "Wire format"): a chain hop (19) is gvid, priority,
// position and the chain; a grant (20) is gvid and priority; a release
// (21) is gvid.  A frame that is torn, names a vertex this machine does
// not hold (or, for a grant, does not own), a chain that does not name
// this machine at its position, a grant nobody waits for, or a release of
// locks that are not held, is logged, counted in "lock.frames_dropped"
// and dropped whole.

#ifndef GRAPHLAB_ENGINE_LOCKING_LOCK_MANAGER_H_
#define GRAPHLAB_ENGINE_LOCKING_LOCK_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graphlab/engine/handler_ids.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/engine/scope_lock_plan.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/rpc/runtime.h"

namespace graphlab {

template <typename VertexData, typename EdgeData>
class DistributedLockManager {
 public:
  using GraphType = DistributedGraph<VertexData, EdgeData>;
  /// Called once per granted scope request with the vertex and the
  /// priority it was requested at, on an RPC dispatch thread or inline in
  /// RequestScope()/ReleaseScope().
  using ScopeReadyFn = std::function<void(LocalVid, double)>;

  DistributedLockManager(rpc::MachineContext ctx, GraphType* graph,
                         ConsistencyModel model, ScopeReadyFn on_ready)
      : ctx_(ctx),
        graph_(graph),
        model_(model),
        on_ready_(std::move(on_ready)),
        locks_(graph->num_local_vertices()),
        outstanding_(std::make_unique<std::atomic<uint32_t>[]>(
            graph->num_local_vertices())),
        dropped_(ctx_.comm().registry(ctx_.id).counter(
            "lock.frames_dropped")) {
    chain_scope_ = ctx_.comm().RegisterHandler(
        ctx_.id, kLockChainHandler,
        [this](rpc::MachineId src, InArchive& ia) { OnChainHop(src, ia); });
    grant_scope_ = ctx_.comm().RegisterHandler(
        ctx_.id, kLockGrantHandler,
        [this](rpc::MachineId src, InArchive& ia) { OnGrant(src, ia); });
    release_scope_ = ctx_.comm().RegisterHandler(
        ctx_.id, kLockReleaseHandler,
        [this](rpc::MachineId src, InArchive& ia) { OnRelease(src, ia); });
  }

  /// Begins acquisition of the scope of owned vertex l; the ready callback
  /// fires with (l, priority) once every lock in the scope is held.
  /// Never blocks — this is the pipeline entry point.
  void RequestScope(LocalVid l, double priority) {
    GL_CHECK(graph_->is_owned(l));
    outstanding_[l].fetch_add(1, std::memory_order_relaxed);
    const std::span<const rpc::MachineId> chain = Chain(l);
    if (chain[0] == ctx_.id) {
      AcquireFrom(graph_->Gvid(l), l, priority, chain, /*pos=*/0,
                  /*i=*/0);
    } else {
      SendHop(graph_->Gvid(l), priority, chain, /*pos=*/0);
    }
  }

  /// Releases every lock of l's scope: this machine's inline, each other
  /// chain machine's with one release frame.  The caller must have
  /// flushed scope data first (FIFO coherence).
  void ReleaseScope(LocalVid l) {
    const VertexId gvid = graph_->Gvid(l);
    for (rpc::MachineId m : Chain(l)) {
      if (m == ctx_.id) {
        ReleaseLocal(l);
      } else {
        OutArchive oa;
        oa << gvid;
        ctx_.comm().Send(ctx_.id, m, kLockReleaseHandler, std::move(oa));
      }
    }
  }

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
  /// Machines participating in the scope chain of owned vertex l,
  /// ascending; views stable storage.
  std::span<const rpc::MachineId> Chain(LocalVid l) const {
    if (model_ == ConsistencyModel::kVertexConsistency) {
      return {&ctx_.id, 1};  // only the central vertex is locked
    }
    return graph_->scope_machines(l);
  }

  /// Lock set for the scope of local vertex l restricted to vertices
  /// owned by this machine, ascending by global id — a view into the plan
  /// compiled by CompilePlans() (stable for the manager's lifetime).
  std::span<const ScopeLockPlan::Entry> LocalLockSet(LocalVid l) const {
    GL_CHECK(plan_.compiled()) << "CompilePlans() not called";
    return plan_.scope(l);
  }

  /// Takes this machine's locks of the scope of `gvid` (local id l) from
  /// entry i on, then forwards the chain.  Free locks are taken inline
  /// with TryAcquire; at the first contended one the walk parks as a
  /// continuation that resumes from the next entry once that lock is
  /// granted.  Only that continuation allocates (it owns a copy of the
  /// chain, since a hop frame's chain does not outlive its handler).
  void AcquireFrom(VertexId gvid, LocalVid l, double priority,
                   std::span<const rpc::MachineId> chain, size_t pos,
                   size_t i) {
    const std::span<const ScopeLockPlan::Entry> set = LocalLockSet(l);
    while (i < set.size() &&
           locks_.TryAcquire(set[i].vid, set[i].exclusive != 0)) {
      ++i;
    }
    if (i < set.size()) {
      locks_.Acquire(
          set[i].vid, set[i].exclusive != 0,
          [this, gvid, l, priority,
           owned = std::vector<rpc::MachineId>(chain.begin(), chain.end()),
           pos, i] { AcquireFrom(gvid, l, priority, owned, pos, i + 1); });
      return;
    }
    if (pos + 1 < chain.size()) {
      SendHop(gvid, priority, chain, pos + 1);
      return;
    }
    // Chain complete: the requester is the vertex's owner.
    const rpc::MachineId requester = graph_->owner(l);
    if (requester == ctx_.id) {
      outstanding_[l].fetch_sub(1, std::memory_order_relaxed);
      on_ready_(l, priority);
    } else {
      OutArchive oa;
      oa << gvid << priority;
      ctx_.comm().Send(ctx_.id, requester, kLockGrantHandler, std::move(oa));
    }
  }

  void SendHop(VertexId gvid, double priority,
               std::span<const rpc::MachineId> chain, size_t pos) {
    OutArchive oa;
    oa << gvid << priority << static_cast<uint64_t>(pos)
       << static_cast<uint64_t>(chain.size());
    oa.WriteBytes(chain.data(), chain.size() * sizeof(rpc::MachineId));
    ctx_.comm().Send(ctx_.id, chain[pos], kLockChainHandler, std::move(oa));
  }

  /// Logs and counts a lock frame dropped whole.
  void Drop(rpc::MachineId src, const char* frame, const char* problem) {
    GL_LOG(ERROR) << "machine " << ctx_.id << ": lock " << frame
                  << " frame from " << src << ": " << problem
                  << "; dropping frame";
    dropped_->Inc();
  }

  /// Local id of a decoded frame's vertex, or kInvalidLocalVid after
  /// reporting the frame's fault: torn, trailing bytes, unknown vertex.
  LocalVid DecodedVertex(rpc::MachineId src, const char* frame,
                         const InArchive& ia, VertexId gvid) {
    if (!ia.ok() || !ia.AtEnd()) {
      Drop(src, frame, "torn frame or trailing bytes");
      return kInvalidLocalVid;
    }
    const LocalVid l = graph_->TryLvid(gvid);
    if (l == kInvalidLocalVid) Drop(src, frame, "unknown vertex");
    return l;
  }

  void OnChainHop(rpc::MachineId src, InArchive& ia) {
    const VertexId gvid = ia.ReadValue<VertexId>();
    const double priority = ia.ReadValue<double>();
    const uint64_t pos = ia.ReadValue<uint64_t>();
    thread_local std::vector<rpc::MachineId> chain;
    ia >> chain;
    const LocalVid l = DecodedVertex(src, "chain", ia, gvid);
    if (l == kInvalidLocalVid) return;
    if (pos >= chain.size() || chain[pos] != ctx_.id) {
      Drop(src, "chain", "chain does not name this machine at its position");
      return;
    }
    // A real chain is the owner's ascending scope machine list; anything
    // else could send to a machine that does not exist or grant a
    // machine that never asked.
    const bool ascending =
        std::adjacent_find(chain.begin(), chain.end(),
                           std::greater_equal<rpc::MachineId>()) ==
        chain.end();
    if (!ascending || chain.back() >= ctx_.num_machines() ||
        !std::binary_search(chain.begin(), chain.end(), graph_->owner(l))) {
      Drop(src, "chain", "malformed chain");
      return;
    }
    AcquireFrom(gvid, l, priority, chain, pos, /*i=*/0);
  }

  void OnGrant(rpc::MachineId src, InArchive& ia) {
    const VertexId gvid = ia.ReadValue<VertexId>();
    const double priority = ia.ReadValue<double>();
    const LocalVid l = DecodedVertex(src, "grant", ia, gvid);
    if (l == kInvalidLocalVid) return;
    if (!graph_->is_owned(l)) {
      Drop(src, "grant", "vertex not owned here");
      return;
    }
    std::atomic<uint32_t>& count = outstanding_[l];
    uint32_t n = count.load(std::memory_order_relaxed);
    do {
      if (n == 0) {
        Drop(src, "grant", "no outstanding request");
        return;
      }
    } while (!count.compare_exchange_weak(n, n - 1,
                                          std::memory_order_relaxed));
    on_ready_(l, priority);
  }

  void OnRelease(rpc::MachineId src, InArchive& ia) {
    const VertexId gvid = ia.ReadValue<VertexId>();
    const LocalVid l = DecodedVertex(src, "release", ia, gvid);
    if (l == kInvalidLocalVid) return;
    const std::span<const ScopeLockPlan::Entry> set = LocalLockSet(l);
    const bool held =
        !set.empty() &&
        std::all_of(set.begin(), set.end(),
                    [this](const ScopeLockPlan::Entry& e) {
                      return locks_.Held(e.vid, e.exclusive != 0);
                    });
    if (!held) {
      Drop(src, "release", "scope locks not held here");
      return;
    }
    ReleaseLocal(l);
  }

  /// Releases this machine's locks for the scope of local vertex l.
  void ReleaseLocal(LocalVid l) {
    for (const ScopeLockPlan::Entry& e : LocalLockSet(l)) {
      locks_.Release(e.vid, e.exclusive != 0);
    }
  }

  rpc::MachineContext ctx_;
  GraphType* graph_;
  ConsistencyModel model_;
  ScopeReadyFn on_ready_;
  CallbackLockTable locks_;
  ScopeLockPlan plan_;
  /// Per local vertex: scope requests issued here and not yet granted.
  std::unique_ptr<std::atomic<uint32_t>[]> outstanding_;
  metrics::Counter* dropped_;

  rpc::HandlerScope chain_scope_;
  rpc::HandlerScope grant_scope_;
  rpc::HandlerScope release_scope_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_LOCKING_LOCK_MANAGER_H_
