// Multithreaded stress tests for the sharded work-stealing schedulers
// (set semantics under concurrency, the Clear/Schedule protocol, worker
// affinity), the callback lock table under concurrent readers and
// writers, and allocation-freedom of the precompiled scope-lock plans and
// of the distributed lock manager's uncontended path.  Built to run under
// ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "bench/alloc_counter.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/locking/lock_manager.h"
#include "graphlab/engine/locking/lock_table.h"
#include "graphlab/engine/scope_lock_plan.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/scheduler/fifo_scheduler.h"
#include "graphlab/scheduler/scheduler.h"
#include "graphlab/util/random.h"
#include "tests/transport_param.h"


namespace graphlab {
namespace {

constexpr size_t kVertices = 2048;
constexpr size_t kProducers = 4;
constexpr size_t kConsumers = 4;

class SchedulerStressTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<IScheduler> Make(size_t shards = 8) {
    auto s = CreateScheduler(GetParam(), kVertices, shards);
    EXPECT_TRUE(s.ok());
    return std::move(s.value());
  }
};

// Every vertex is scheduled (concurrently, some twice) before any pop;
// the drain must then yield each exactly once: duplicates collapsed,
// nothing lost across shards.
TEST_P(SchedulerStressTest, ConcurrentScheduleThenDrainPopsEachOnce) {
  auto sched = Make();
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      WorkerAffinity::Scope affinity(p);  // exercise affinity pushes
      // Slices overlap (stride kProducers/2) so about half the
      // vertices are scheduled by two threads concurrently.
      for (size_t v = p / 2; v < kVertices; v += kProducers / 2) {
        sched->Schedule(static_cast<LocalVid>(v), 1.0 + p);
      }
    });
  }
  for (auto& t : producers) t.join();

  std::vector<std::atomic<uint32_t>> pops(kVertices);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      LocalVid v;
      double priority;
      while (sched->GetNext(&v, &priority, c)) {
        pops[v].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : consumers) t.join();

  for (size_t v = 0; v < kVertices; ++v) {
    EXPECT_EQ(pops[v].load(), 1u) << "vertex " << v;
  }
  EXPECT_TRUE(sched->Empty());
  EXPECT_EQ(sched->ApproxSize(), 0u);
}

// Producers and consumers run concurrently.  Sound invariants under any
// interleaving: every pop consumes a distinct prior schedule call
// (pops[v] <= schedules[v] — set semantics can collapse, never
// amplify), nothing is lost (every scheduled vertex pops at least once
// by the end), and the structure drains to empty.
TEST_P(SchedulerStressTest, ConcurrentHammerNeverLosesOrDuplicates) {
  auto sched = Make();
  constexpr uint64_t kOpsPerProducer = 20000;
  std::vector<std::atomic<uint32_t>> schedules(kVertices);
  std::vector<std::atomic<uint32_t>> pops(kVertices);
  std::atomic<size_t> producers_live{kProducers};

  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      WorkerAffinity::Scope affinity(p);
      uint64_t rng = 0x9E3779B97F4A7C15 * (p + 1);
      for (uint64_t i = 0; i < kOpsPerProducer; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        LocalVid v = static_cast<LocalVid>(rng % kVertices);
        // Count first, then schedule: when a consumer later pops v, its
        // matching schedule is already counted, so pops <= schedules
        // holds at every instant.
        schedules[v].fetch_add(1, std::memory_order_relaxed);
        sched->Schedule(v, 1.0 + static_cast<double>(rng % 97));
      }
      producers_live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      LocalVid v;
      double priority;
      for (;;) {
        if (sched->GetNext(&v, &priority, c)) {
          pops[v].fetch_add(1, std::memory_order_relaxed);
        } else if (producers_live.load(std::memory_order_acquire) == 0) {
          // One more look: a last producer push may have landed between
          // our failed pop and the live-count read.
          if (!sched->GetNext(&v, &priority, c)) break;
          pops[v].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t total_pops = 0;
  for (size_t v = 0; v < kVertices; ++v) {
    const uint32_t s = schedules[v].load();
    const uint32_t q = pops[v].load();
    EXPECT_LE(q, s) << "vertex " << v << " popped more often than scheduled";
    if (s > 0) {
      EXPECT_GE(q, 1u) << "vertex " << v << " was scheduled but never popped";
    }
    total_pops += q;
  }
  EXPECT_GT(total_pops, 0u);
  EXPECT_TRUE(sched->Empty());
  EXPECT_EQ(sched->ApproxSize(), 0u);
  LocalVid v;
  double priority;
  EXPECT_FALSE(sched->GetNext(&v, &priority));
}

// Regression for the pre-sharding FIFO bug: Schedule's SetBit happened
// outside the queue mutex, so a Clear() between the bit and the push
// left the two permanently disagreeing and the vertex could never be
// scheduled again.  Hammer Schedule against Clear, then verify every
// vertex still schedules and pops exactly once.
TEST_P(SchedulerStressTest, ClearDuringConcurrentSchedulesLeavesNoZombie) {
  auto sched = Make();
  for (int round = 0; round < 50; ++round) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        WorkerAffinity::Scope affinity(p);
        uint64_t rng = round * 1000003 + p + 1;
        while (!stop.load(std::memory_order_relaxed)) {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          sched->Schedule(static_cast<LocalVid>(rng % 64), 1.0);
        }
      });
    }
    for (int i = 0; i < 20; ++i) {
      sched->Clear();
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : producers) t.join();
    sched->Clear();
    ASSERT_TRUE(sched->Empty());
    ASSERT_EQ(sched->ApproxSize(), 0u);

    // No zombie state: every vertex must still be schedulable and pop
    // exactly once.
    for (LocalVid v = 0; v < 64; ++v) sched->Schedule(v, 1.0);
    std::set<LocalVid> seen;
    LocalVid v;
    double priority;
    while (sched->GetNext(&v, &priority)) seen.insert(v);
    ASSERT_EQ(seen.size(), 64u) << "round " << round;
    sched->Clear();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerStressTest,
                         ::testing::Values("fifo", "sweep", "priority"));

// Priority-specific: after concurrent re-schedules of one vertex with
// rising priorities complete, the pop must yield the maximum (merge =
// max survives concurrency as long as all schedules precede the pop).
TEST(PrioritySchedulerStressTest, ConcurrentMergeKeepsMax) {
  auto sched = std::move(CreateScheduler("priority", 64, 8).value());
  for (int round = 0; round < 100; ++round) {
    std::vector<std::thread> threads;
    for (int p = 0; p < 4; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i <= 16; ++i) {
          sched->Schedule(7, 1.0 + p * 16 + i);
        }
      });
    }
    for (auto& t : threads) t.join();
    LocalVid v;
    double priority;
    ASSERT_TRUE(sched->GetNext(&v, &priority));
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(priority, 1.0 + 3 * 16 + 16);  // the global max
    ASSERT_FALSE(sched->GetNext(&v, &priority));
  }
}

// FIFO affinity: work scheduled by worker w lands on w's home shard and
// is popped in FIFO order by the same worker; a different worker still
// reaches it by stealing.
TEST(FifoAffinityTest, HomeShardDrainsInOrderAndStealingCovers) {
  FifoScheduler sched(1024, 4);
  ASSERT_EQ(sched.num_shards(), 4u);
  {
    WorkerAffinity::Scope affinity(2);
    for (LocalVid v = 100; v < 110; ++v) sched.Schedule(v, 1.0);
  }
  LocalVid v;
  double priority;
  // Home worker sees its own pushes in FIFO order.
  for (LocalVid expect = 100; expect < 105; ++expect) {
    ASSERT_TRUE(sched.GetNext(&v, &priority, 2));
    EXPECT_EQ(v, expect);
  }
  // A worker with an empty home shard steals the rest.
  for (LocalVid expect = 105; expect < 110; ++expect) {
    ASSERT_TRUE(sched.GetNext(&v, &priority, 3));
    EXPECT_EQ(v, expect);
  }
  EXPECT_FALSE(sched.GetNext(&v, &priority, 0));
}

// ---------------------------------------------------------------------
// Scope-lock plans
// ---------------------------------------------------------------------

using PlanGraph = LocalGraph<int, int>;

PlanParallelFor SerialFor() {
  return [](size_t n, const std::function<void(size_t, size_t)>& fn) {
    fn(0, n);
  };
}

// The compiled plan must equal the legacy per-update derivation:
// v merged into its sorted distinct neighbors, v exclusive, neighbors
// per model, ascending, deduplicated.
TEST(ScopeLockPlanTest, MatchesLegacyDerivationOnEveryVertex) {
  auto structure = gen::PowerLawWeb(300, 5, 0.8, 11);
  PlanGraph g = PlanGraph::FromStructure(structure);
  for (ConsistencyModel model :
       {ConsistencyModel::kVertexConsistency,
        ConsistencyModel::kEdgeConsistency,
        ConsistencyModel::kFullConsistency}) {
    auto plan = ScopeLockPlan::Compile(g, g.num_vertices(), model,
                                       SerialFor());
    ASSERT_TRUE(plan.compiled());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      // Legacy expectation, derived independently.
      std::vector<std::pair<LocalVid, bool>> expect;
      if (model == ConsistencyModel::kVertexConsistency) {
        expect.emplace_back(v, true);
      } else {
        expect.emplace_back(v, true);
        const bool excl = model == ConsistencyModel::kFullConsistency;
        for (VertexId n : g.neighbors(v)) expect.emplace_back(n, excl);
        std::sort(expect.begin(), expect.end());
      }
      auto scope = plan.scope(v);
      ASSERT_EQ(scope.size(), expect.size()) << "vertex " << v;
      for (size_t i = 0; i < scope.size(); ++i) {
        EXPECT_EQ(scope[i].vid, expect[i].first);
        EXPECT_EQ(scope[i].exclusive != 0, expect[i].second);
        if (i > 0) {
          EXPECT_LT(scope[i - 1].vid, scope[i].vid);  // canonical
        }
      }
    }
  }
}

// Parallel compilation produces the same plan as serial.
TEST(ScopeLockPlanTest, ParallelCompileMatchesSerial) {
  auto structure = gen::PowerLawWeb(500, 6, 0.8, 13);
  PlanGraph g = PlanGraph::FromStructure(structure);
  ExecutionSubstrate substrate;
  auto parallel = [&substrate](size_t n,
                               const std::function<void(size_t, size_t)>& fn) {
    substrate.RunBatch(4, n, fn);
  };
  auto serial_plan = ScopeLockPlan::Compile(
      g, g.num_vertices(), ConsistencyModel::kEdgeConsistency, SerialFor());
  auto parallel_plan = ScopeLockPlan::Compile(
      g, g.num_vertices(), ConsistencyModel::kEdgeConsistency, parallel);
  ASSERT_EQ(parallel_plan.num_entries(), serial_plan.num_entries());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = serial_plan.scope(v);
    auto b = parallel_plan.scope(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vid, b[i].vid);
      EXPECT_EQ(a[i].exclusive, b[i].exclusive);
    }
  }
}

// The acceptance bar: with a compiled plan, acquiring and releasing a
// scope performs zero heap allocations, under both edge and full
// consistency.
TEST(ScopeLockPlanTest, AcquireReleaseScopeIsAllocationFree) {
  auto structure = gen::Grid2D(24, 24);
  PlanGraph g = PlanGraph::FromStructure(structure);
  for (ConsistencyModel model : {ConsistencyModel::kEdgeConsistency,
                                 ConsistencyModel::kFullConsistency}) {
    ScopeLockTable locks(g.num_vertices());
    locks.CompilePlan(g, g.num_vertices(), model, SerialFor());
    // Warmup: settle any lazy lock-table state.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      locks.AcquireScope(g, v, model);
      locks.ReleaseScope(g, v, model);
    }
    const uint64_t before = alloc_counter::Count();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      locks.AcquireScope(g, v, model);
      locks.ReleaseScope(g, v, model);
    }
    const uint64_t after = alloc_counter::Count();
    EXPECT_EQ(after - before, 0u)
        << "model " << ConsistencyModelName(model);
  }
}

// ---------------------------------------------------------------------
// Callback lock table under concurrency
// ---------------------------------------------------------------------

// Four threads issue random read (70%) and write Acquire()s on four hot
// vertices and release random held locks, so most requests contend and
// callbacks fire on whichever thread releases.  Each callback checks
// reader/writer exclusion on entry.  A read that a thread issues while
// its own earlier write on that vertex has not fired arrived after a
// queued writer, so it must fire after that writer (FIFO: no reader
// overtakes a waiting writer).  After a drain every request has fired.
TEST(CallbackLockStressTest, ConcurrentReadersAndWritersKeepExclusionAndFifo) {
  constexpr size_t kHot = 4;
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 4000;
  CallbackLockTable locks(kHot);
  std::vector<std::atomic<int>> readers(kHot), writers(kHot);
  // fired[i]: request i's callback has run (at most one request per op).
  std::vector<std::atomic<bool>> fired(kThreads * kOpsPerThread);
  std::atomic<uint64_t> violations{0}, overtakes{0}, issued{0}, granted{0};
  std::mutex held_mutex;
  std::vector<std::pair<LocalVid, bool>> held;  // guarded by held_mutex

  auto release_one = [&](Rng* rng) {
    std::pair<LocalVid, bool> h;
    {
      std::lock_guard<std::mutex> lock(held_mutex);
      if (held.empty()) return false;
      const size_t i = rng == nullptr ? held.size() - 1
                                      : rng->UniformInt(held.size());
      h = held[i];
      held[i] = held.back();
      held.pop_back();
    }
    (h.second ? writers : readers)[h.first].fetch_sub(1);
    locks.Release(h.first, h.second);
    return true;
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      // Per vertex: index of this thread's last write request, or -1.
      std::vector<int64_t> last_write(kHot, -1);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        if (rng.Bernoulli(0.5) && release_one(&rng)) continue;
        const LocalVid v = static_cast<LocalVid>(rng.UniformInt(kHot));
        const bool write = rng.Bernoulli(0.3);
        const int64_t id = static_cast<int64_t>(t * kOpsPerThread + op);
        int64_t after = -1;  // a queued writer this read must follow
        if (!write && last_write[v] >= 0 && !fired[last_write[v]].load()) {
          after = last_write[v];
        }
        if (write) last_write[v] = id;
        issued.fetch_add(1);
        locks.Acquire(v, write, [&, v, write, id, after] {
          fired[id].store(true);
          if (write) {
            if (writers[v].fetch_add(1) != 0 || readers[v].load() != 0) {
              violations.fetch_add(1);
            }
          } else {
            readers[v].fetch_add(1);
            if (writers[v].load() != 0) violations.fetch_add(1);
            if (after >= 0 && !fired[after].load()) overtakes.fetch_add(1);
          }
          granted.fetch_add(1);
          std::lock_guard<std::mutex> lock(held_mutex);
          held.emplace_back(v, write);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  // Drain: each release may grant queued requests, which hold again.
  while (release_one(nullptr)) {
  }
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(overtakes.load(), 0u);
  EXPECT_EQ(granted.load(), issued.load());
  // Every issued request fired: no callback is left in a queue, so every
  // lock is free again and grants inline.
  for (LocalVid v = 0; v < kHot; ++v) {
    EXPECT_TRUE(locks.TryAcquire(v, true)) << "vertex " << v;
  }
}

// The same FIFO rule, deterministically: while a reader holds v and a
// writer waits, a later reader queues (TryAcquire fails too) and fires
// only after the writer released.
TEST(CallbackLockStressTest, ReaderQueuesBehindWaitingWriter) {
  CallbackLockTable locks(1);
  std::vector<int> order;
  ASSERT_TRUE(locks.TryAcquire(0, false));
  locks.Acquire(0, true, [&] { order.push_back(1); });
  locks.Acquire(0, false, [&] { order.push_back(2); });
  EXPECT_FALSE(locks.TryAcquire(0, false));
  EXPECT_TRUE(order.empty());
  locks.Release(0, false);
  EXPECT_EQ(order, std::vector<int>({1}));
  locks.Release(0, true);
  EXPECT_EQ(order, std::vector<int>({1, 2}));
  locks.Release(0, false);
  EXPECT_TRUE(locks.TryAcquire(0, true));
}

// The distributed lock manager's uncontended path: on machine 0 of two,
// requesting and releasing the scope of a vertex whose scope lies wholly
// on machine 0 performs zero heap allocations once its locks are free,
// under edge and full consistency.  The scope completes inline.
TEST(DistributedLockManagerTest, LocalScopeRequestReleaseIsAllocationFree) {
  using Graph = DistributedGraph<double, double>;
  constexpr uint32_t kSide = 16;
  auto structure = gen::Grid2D(kSide, kSide);
  auto global = LocalGraph<double, double>::FromStructure(structure);
  // Rows [0, kSide/2) on machine 0, the rest on machine 1.
  PartitionAssignment atom_of(structure.num_vertices);
  for (VertexId v = 0; v < structure.num_vertices; ++v) {
    atom_of[v] = v / kSide < kSide / 2 ? 0 : 1;
  }
  const ColorAssignment colors = GreedyColoring(structure);
  rpc::Runtime runtime(testutil::ClusterFor(rpc::TransportKind::kInProcess, 2));
  std::vector<Graph> graphs(2);
  std::atomic<bool> measured{false};
  runtime.Run([&](rpc::MachineContext& ctx) {
    Graph& graph = graphs[ctx.id];
    ASSERT_TRUE(graph
                    .InitFromGlobal(global, atom_of, colors, {0, 1}, ctx.id,
                                    &ctx.comm())
                    .ok());
    ctx.barrier().Wait(ctx.id);
    if (ctx.id == 1) {
      // Idle without touching the fabric (a barrier message would
      // allocate inside machine 0's measured window).
      while (!measured.load()) std::this_thread::yield();
      return;
    }
    for (ConsistencyModel model : {ConsistencyModel::kEdgeConsistency,
                                   ConsistencyModel::kFullConsistency}) {
      uint64_t ready = 0;
      DistributedLockManager<double, double> manager(
          ctx, &graph, model, [&ready](LocalVid, double) { ++ready; });
      manager.CompilePlans(SerialFor());
      std::vector<LocalVid> local_only;
      for (LocalVid l : graph.owned_vertices()) {
        if (graph.scope_machines(l).size() == 1) local_only.push_back(l);
      }
      ASSERT_GT(local_only.size(), kSide);
      const uint64_t before = alloc_counter::Count();
      for (LocalVid l : local_only) {
        manager.RequestScope(l, 1.0);
        manager.ReleaseScope(l);
      }
      const uint64_t after = alloc_counter::Count();
      EXPECT_EQ(after - before, 0u)
          << "model " << ConsistencyModelName(model);
      EXPECT_EQ(ready, local_only.size());
    }
    measured.store(true);
  });
}

// End-to-end: a sharded-scheduler engine with an explicit shard count
// still runs an update schedule to quiescence with correct semantics.
TEST(ShardedEngineSmokeTest, CountsEveryVertexOncePerSchedule) {
  auto structure = gen::Grid2D(16, 16);
  auto g = PlanGraph::FromStructure(structure);
  EngineOptions opts;
  opts.num_threads = 4;
  opts.scheduler = "fifo";
  opts.scheduler_shards = 4;
  auto engine = std::move(CreateEngine("shared_memory", &g, opts).value());
  std::atomic<uint64_t> executed{0};
  engine->SetUpdateFn([&executed](Context<PlanGraph>& ctx) {
    ctx.vertex_data()++;
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  engine->ScheduleAll();
  engine->Start();
  EXPECT_EQ(executed.load(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.vertex_data(v), 1) << "vertex " << v;
  }
}

}  // namespace
}  // namespace graphlab
