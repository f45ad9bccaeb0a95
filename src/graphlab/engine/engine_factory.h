// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// CreateEngine: the string-keyed engine factory, mirroring
// CreateScheduler.  Applications, examples, benchmarks and tests select
// execution strategies by name so switching engine (or adding a new one)
// is a one-string change, not a five-engine sweep.
//
//   Local (single-machine, LocalGraph):
//     "shared_memory" | "async"   SharedMemoryEngine
//     "bsp"                       baselines::BspEngine
//
//   Distributed (simulated cluster, DistributedGraph; collective):
//     "chromatic"                 ChromaticEngine
//     "locking"                   LockingEngine
//     "bulk_sync" | "bulksync"    baselines::BulkSyncEngine
//
// Bad engine or scheduler names return InvalidArgument instead of
// aborting, so callers (and tests) can handle misconfiguration.

#ifndef GRAPHLAB_ENGINE_ENGINE_FACTORY_H_
#define GRAPHLAB_ENGINE_ENGINE_FACTORY_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graphlab/baselines/bsp_engine.h"
#include "graphlab/baselines/bulk_sync_engine.h"
#include "graphlab/engine/chromatic_engine.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/locking_engine.h"
#include "graphlab/engine/shared_memory_engine.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/engine/sync.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/options.h"
#include "graphlab/util/status.h"

namespace graphlab {

/// Engine names accepted by the local CreateEngine overload.
inline const std::vector<std::string>& ListLocalEngineNames() {
  static const std::vector<std::string> kNames = {"shared_memory", "bsp"};
  return kNames;
}

/// Engine names accepted by the distributed CreateEngine overload.
inline const std::vector<std::string>& ListDistributedEngineNames() {
  static const std::vector<std::string> kNames = {"chromatic", "locking",
                                                  "bulk_sync"};
  return kNames;
}

/// Every execution strategy CreateEngine knows, local then distributed —
/// the single source of truth for --help text, unknown-name errors, and
/// all-engine sweeps (tests, benches).
inline const std::vector<std::string>& ListEngineNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = ListLocalEngineNames();
    const auto& dist = ListDistributedEngineNames();
    names.insert(names.end(), dist.begin(), dist.end());
    return names;
  }();
  return kNames;
}

namespace detail {
inline Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  // Validate the scheduler spelling up front so factory users get a
  // Status, not the CHECK on the direct-construction path.  A name check
  // suffices — constructing a scheduler here would allocate per-vertex
  // state twice.  Empty means "strategy default", always valid.
  if (!options.scheduler.empty()) {
    const auto& names = ListSchedulerNames();
    if (std::find(names.begin(), names.end(), options.scheduler) ==
        names.end()) {
      return Status::InvalidArgument("unknown scheduler: " +
                                     options.scheduler + " (expected " +
                                     JoinedSchedulerNames() + ")");
    }
  }
  return Status::OK();
}
}  // namespace detail

/// Optional collaborators of the distributed engines.  `allreduce` is
/// required (every distributed strategy makes collective decisions);
/// `sync` and `snapshot` enable the Sec. 4.3 background sync / snapshot
/// features on engines that support them.
template <typename VertexData, typename EdgeData>
struct DistributedEngineDeps {
  SumAllReduce* allreduce = nullptr;
  SyncManager<DistributedGraph<VertexData, EdgeData>>* sync = nullptr;
  SnapshotManager<VertexData, EdgeData>* snapshot = nullptr;
};

/// Creates a single-machine engine over a finalized LocalGraph.
template <typename VertexData, typename EdgeData>
Expected<std::unique_ptr<IEngine<LocalGraph<VertexData, EdgeData>>>>
CreateEngine(const std::string& name,
             LocalGraph<VertexData, EdgeData>* graph,
             const EngineOptions& options) {
  using EnginePtr = std::unique_ptr<IEngine<LocalGraph<VertexData, EdgeData>>>;
  if (graph == nullptr || !graph->finalized()) {
    return Status::InvalidArgument("graph must be non-null and finalized");
  }
  GRAPHLAB_RETURN_IF_ERROR(detail::ValidateEngineOptions(options));
  if (name == "shared_memory" || name == "async") {
    return EnginePtr(std::make_unique<SharedMemoryEngine<VertexData, EdgeData>>(
        graph, options));
  }
  if (name == "bsp") {
    return EnginePtr(std::make_unique<baselines::BspEngine<VertexData, EdgeData>>(
        graph, options));
  }
  return Status::InvalidArgument(
      "unknown local engine: " + name + " (expected " +
      JoinNames(ListLocalEngineNames()) + ")");
}

/// Creates this machine's member of a distributed engine.  Collective:
/// every machine must create and Start() the same strategy.
template <typename VertexData, typename EdgeData>
Expected<std::unique_ptr<IEngine<DistributedGraph<VertexData, EdgeData>>>>
CreateEngine(const std::string& name, rpc::MachineContext ctx,
             DistributedGraph<VertexData, EdgeData>* graph,
             const EngineOptions& options,
             const DistributedEngineDeps<VertexData, EdgeData>& deps) {
  using EnginePtr =
      std::unique_ptr<IEngine<DistributedGraph<VertexData, EdgeData>>>;
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must be non-null");
  }
  if (deps.allreduce == nullptr) {
    return Status::InvalidArgument(
        "distributed engines require DistributedEngineDeps::allreduce");
  }
  GRAPHLAB_RETURN_IF_ERROR(detail::ValidateEngineOptions(options));
  // Default the metrics namespace to the machine's transport-owned
  // registry so cluster aggregation (metrics/metrics_service.h) sees this
  // engine's counters without any caller plumbing.
  EngineOptions resolved = options;
  if (resolved.metrics == nullptr) {
    resolved.metrics = &ctx.comm().registry(ctx.id);
  }
  if (name == "chromatic") {
    return EnginePtr(std::make_unique<ChromaticEngine<VertexData, EdgeData>>(
        ctx, graph, deps.sync, deps.allreduce, resolved));
  }
  if (name == "locking") {
    return EnginePtr(std::make_unique<LockingEngine<VertexData, EdgeData>>(
        ctx, graph, deps.sync, deps.allreduce, deps.snapshot, resolved));
  }
  if (name == "bulk_sync" || name == "bulksync") {
    return EnginePtr(
        std::make_unique<baselines::BulkSyncEngine<VertexData, EdgeData>>(
            ctx, graph, deps.allreduce, resolved));
  }
  return Status::InvalidArgument(
      "unknown distributed engine: " + name + " (expected " +
      JoinNames(ListDistributedEngineNames()) + ")");
}

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_ENGINE_FACTORY_H_
