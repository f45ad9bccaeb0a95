// End-to-end job benchmark, child side: runs ONE seeded distributed job in
// this process and prints one JSON line describing it.
//
//   bench_e2e --child=<workload> --seed=S [--scratch=DIR]
//             [--trace-out=FILE [--trace-capacity=EVENTS]]
//
// run.py (same directory) is the parent: it starts one fresh child per
// job, reads the line from the pipe, takes peak RSS from wait4, and turns
// many jobs into medians.  Workloads (see README.md for why each exists):
//
//   pagerank_inproc  dynamic PageRank, chromatic, 4x1, in-process, 0 us
//   pagerank_tcp     the same job over the TCP loopback socket mesh
//   pagerank_ft_tcp  pagerank_tcp under fault::FaultTolerantRunner with a
//                    checkpoint at every sweep and machine 3 killed
//   bp_locking       10 sweeps of loopy BP on a 26-connected mesh, locking
//                    engine, 2x2, in-process at 100 us latency
//   als_tcp          10 sweeps of ALS (d=20), chromatic, 4x1, TCP loopback
//
// Timeline of a job: setup (generate inputs, colour, partition, connect
// the cluster, ingest) ends at the "ready" point, when every machine holds
// its partition; the job ends when every machine has its result.  Registry
// counters are read as deltas over exactly that window.
//
// With --trace-out every trace category is on, the update function passed
// to the engine is wrapped in a timer, the bench's own spans mark each
// setup step and the job, and the spans are written once at the end with
// trace::WriteChromeTrace for the parent to split into layers.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "graphlab/apps/als.h"
#include "graphlab/apps/loopy_bp.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/graph/partitioner.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/util/options.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace {

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string app;  // "pagerank" | "bp" | "als"
  std::string engine;
  bool tcp = false;
  bool fault_tolerant = false;
  size_t machines = 4;
  size_t threads = 1;  // engine workers per machine
  uint64_t latency_us = 0;  // modelled one-way latency (in-process only)
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"pagerank_inproc", "pagerank", "chromatic", false, false, 4, 1, 0},
      {"pagerank_tcp", "pagerank", "chromatic", true, false, 4, 1, 0},
      {"pagerank_ft_tcp", "pagerank", "chromatic", true, true, 4, 1, 0},
      {"bp_locking", "bp", "locking", false, false, 2, 2, 100},
      {"als_tcp", "als", "chromatic", true, false, 4, 1, 0},
  };
  return kWorkloads;
}

constexpr AtomId kAtoms = 16;

constexpr uint64_t kPageRankVertices = 2000;
constexpr double kPageRankTolerance = 1e-10;
constexpr double kPageRankMaxL1 = 1e-4;
constexpr uint64_t kFtKillBoundary = 20;
constexpr rpc::MachineId kFtVictim = 3;

constexpr uint32_t kMeshSide = 28;
constexpr uint32_t kBpIterations = 10;

constexpr uint64_t kAlsUsers = 20000;
constexpr uint64_t kAlsItems = 2000;
constexpr uint32_t kAlsRatingsPerUser = 20;
constexpr uint32_t kAlsRank = 20;
constexpr double kAlsLambda = 1.0;
constexpr uint64_t kAlsSweeps = 10;
constexpr double kAlsMaxTestRmse = 0.30;

/// Registry counters read per machine as deltas over the job window.
const char* const kCounters[] = {
    "rpc.bytes_sent",         "rpc.messages_sent",
    "engine.updates",         "sched.steals",
    "graph.delta_batches_sent", "graph.coalesced_merges",
};
constexpr size_t kNumCounters = sizeof(kCounters) / sizeof(kCounters[0]);

// ---------------------------------------------------------------------
// What one job measures
// ---------------------------------------------------------------------

struct Report {
  double generate_s = 0, color_s = 0, partition_s = 0, connect_s = 0,
         ingest_s = 0;
  uint64_t setup_start_ns = 0, ready_ns = 0, done_ns = 0;
  double worker_s = 0;  // sum over machines of workers x time in the job
  uint64_t sweeps = 0;
  double busy_s = 0;  // summed over machines
  uint64_t counters[kNumCounters] = {};
  fault::FtReport ft;
  size_t survivors = 0;  // machines whose FaultTolerantRunner::Run() is OK
  std::string run_error;  // why a machine that was not killed failed
  bool ok = false;
  std::string check;
};

/// Per-machine counter snapshots; each machine thread writes only its own
/// row, the main thread reads after Runtime::Run joined them.
struct CounterWindow {
  std::vector<std::vector<uint64_t>> base, end;

  explicit CounterWindow(size_t machines)
      : base(machines, std::vector<uint64_t>(kNumCounters)),
        end(machines, std::vector<uint64_t>(kNumCounters)) {}

  static void Read(metrics::MetricsRegistry& reg, std::vector<uint64_t>* out) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      (*out)[i] = reg.counter(kCounters[i])->Value();
    }
  }

  void SumInto(Report* r) const {
    for (size_t m = 0; m < base.size(); ++m) {
      for (size_t i = 0; i < kNumCounters; ++i) {
        r->counters[i] += end[m][i] - base[m][i];
      }
    }
  }
};

/// The timer around the update function the engine runs (traced runs only).
metrics::Histogram* g_update_ns = nullptr;

template <typename Graph>
UpdateFn<Graph> Instrumented(UpdateFn<Graph> fn) {
  if (g_update_ns == nullptr) return fn;
  return [fn = std::move(fn)](Context<Graph>& ctx) {
    metrics::ScopedTimer timer(g_update_ns);
    fn(ctx);
  };
}

/// Cluster shape of a workload.
rpc::ClusterOptions ClusterFor(const Workload& w) {
  rpc::ClusterOptions c;
  c.num_machines = w.machines;
  c.threads_per_machine = w.threads;
  if (w.tcp) {
    c.transport = rpc::TransportKind::kTcp;
    c.tcp_loopback_cluster = true;
  } else {
    c.comm.latency = std::chrono::microseconds(w.latency_us);
  }
  return c;
}

/// SumAllReduce instances matching the fabric: the simulated transport
/// shares one CommLayer (one instance serves every machine), the loopback
/// TCP cluster gives each machine its own.
class ClusterAllreduce {
 public:
  explicit ClusterAllreduce(rpc::Runtime* runtime) {
    if (runtime->transport() == rpc::TransportKind::kInProcess) {
      instances_.push_back(std::make_unique<SumAllReduce>(&runtime->comm(), 1));
      return;
    }
    for (rpc::MachineId m : runtime->local_machines()) {
      instances_.push_back(
          std::make_unique<SumAllReduce>(&runtime->comm(m), 1));
    }
  }
  SumAllReduce* at(rpc::MachineId m) {
    return instances_.size() == 1 ? instances_[0].get() : instances_[m].get();
  }

 private:
  std::vector<std::unique_ptr<SumAllReduce>> instances_;
};

/// Colouring, atoms and their placement: everything setup derives from
/// the generated graph before the cluster exists.
struct Layout {
  ColorAssignment colors;
  PartitionAssignment atom_of;
  AtomIndex meta;
  std::vector<rpc::MachineId> placement;
};

Layout MakeLayout(const Workload& w, const GraphStructure& structure,
                  uint64_t seed, Report* r) {
  Layout l;
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.color");
    Timer t;
    l.colors = GreedyColoring(structure);
    r->color_s = t.Seconds();
  }
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.partition");
    Timer t;
    // The mesh is cut into slabs of consecutive ids, the natural cut of a
    // lattice.  A seeded BFS cut moves the mesh's ghost traffic by +-20%
    // from seed to seed, which would hide any change in the engine.
    l.atom_of = w.app == "bp"
                    ? PartitionByName("block", structure, kAtoms, seed)
                    : RandomPartition(structure.num_vertices, kAtoms, seed);
    l.meta = BuildMetaIndex(structure, l.atom_of, l.colors, kAtoms);
    l.placement = PlaceAtoms(l.meta, w.machines);
    r->partition_s = t.Seconds();
  }
  return l;
}

/// Runs one job on the plain engines: ingest, ready point, Start() on every
/// machine, done point.  Owned vertex data is copied back into `global`.
template <typename V, typename E>
void RunJob(const Workload& w, const Layout& layout, LocalGraph<V, E>* global,
            UpdateFn<DistributedGraph<V, E>> update, EngineOptions eo,
            Report* r) {
  using Graph = DistributedGraph<V, E>;
  Timer connect;
  std::unique_ptr<rpc::Runtime> runtime;
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.connect");
    runtime = std::make_unique<rpc::Runtime>(ClusterFor(w));
  }
  r->connect_s = connect.Seconds();
  ClusterAllreduce allreduce(runtime.get());
  std::vector<Graph> graphs(w.machines);
  std::vector<double> ingest_s(w.machines, 0.0);
  std::vector<uint64_t> ready_ns(w.machines, 0), done_ns(w.machines, 0);
  std::vector<RunResult> results(w.machines);
  CounterWindow window(w.machines);
  update = Instrumented(std::move(update));

  runtime->Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    {
      GL_TRACE_SCOPE(trace::kEngine, "bench.ingest");
      Timer t;
      GL_CHECK_OK(graphs[me].InitFromGlobal(*global, layout.atom_of,
                                            layout.colors, layout.placement,
                                            me, &ctx.comm()));
      ingest_s[me] = t.Seconds();
    }
    ctx.barrier().Wait(me);
    CounterWindow::Read(ctx.metrics(), &window.base[me]);
    ctx.barrier().Wait(me);
    ready_ns[me] = Timer::NowNanos();
    {
      GL_TRACE_SCOPE(trace::kEngine, "bench.job");
      DistributedEngineDeps<V, E> deps;
      deps.allreduce = allreduce.at(me);
      auto engine = CreateEngine(w.engine, ctx, &graphs[me], eo, deps);
      GL_CHECK(engine.ok()) << engine.status().ToString();
      (*engine)->SetUpdateFn(update);
      (*engine)->ScheduleAll();
      results[me] = (*engine)->Start();
    }
    done_ns[me] = Timer::NowNanos();
    CounterWindow::Read(ctx.metrics(), &window.end[me]);
  });

  // Every machine is ready once the first one leaves the barrier.
  r->ready_ns = *std::min_element(ready_ns.begin(), ready_ns.end());
  for (size_t m = 0; m < w.machines; ++m) {
    r->ingest_s = std::max(r->ingest_s, ingest_s[m]);
    r->done_ns = std::max(r->done_ns, done_ns[m]);
    r->busy_s += results[m].busy_seconds;
    for (LocalVid l : graphs[m].owned_vertices()) {
      global->vertex_data(graphs[m].Gvid(l)) = graphs[m].vertex_data(l);
    }
  }
  for (uint64_t done : done_ns) {
    r->worker_s += w.threads * static_cast<double>(done - r->ready_ns) / 1e9;
  }
  r->sweeps = results[0].sweeps;
  window.SumInto(r);
}

/// PageRank under the fault-tolerant runner: checkpoint at every sweep
/// boundary, machine kFtVictim dies at boundary kFtKillBoundary and the
/// survivors recover from the last committed epoch.  The first
/// problem.build call on each machine is ingest (setup); the job starts
/// once every machine has finished it.
void RunFtJob(const Workload& w, const Layout& layout,
              apps::PageRankGraph* global, const std::string& snapshot_dir,
              Report* r) {
  using Graph = DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>;
  using Runner =
      fault::FaultTolerantRunner<apps::PageRankVertex, apps::PageRankEdge>;
  Timer connect;
  std::unique_ptr<rpc::Runtime> runtime;
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.connect");
    runtime = std::make_unique<rpc::Runtime>(ClusterFor(w));
  }
  r->connect_s = connect.Seconds();

  fault::FtOptions ft;
  // The kill is seen through socket EOF at once; the long silence deadline
  // only keeps a host stall from declaring a live machine dead.
  ft.heartbeat_interval_ms = 20;
  ft.heartbeat_timeout_ms = 2000;
  ft.snapshot_dir = snapshot_dir;
  ft.checkpoint_interval_seconds = 1e-9;  // every boundary

  std::vector<Graph> graphs(w.machines);
  std::vector<double> ingest_s(w.machines, 0.0);
  std::vector<uint64_t> ready_ns(w.machines, 0), done_ns(w.machines, 0);
  // One byte per machine: machine threads write their own entries
  // concurrently, which std::vector<bool>'s packed bits would race on.
  std::vector<uint8_t> survived(w.machines, 0);
  std::vector<std::string> errors(w.machines);
  std::vector<fault::FtReport> reports(w.machines);
  uint64_t boundaries = 0;  // machine 0's count across every attempt
  CounterWindow window(w.machines);
  const UpdateFn<Graph> update = Instrumented(
      apps::MakePageRankUpdateFn<Graph>(0.85, kPageRankTolerance));

  runtime->Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    Runner runner(ctx, ft);
    Runner::Problem problem;
    problem.meta = layout.meta;
    problem.build = [&, me](Graph* graph,
                            const std::vector<rpc::MachineId>& placement) {
      const bool first = ready_ns[me] == 0;
      Timer t;
      Status st = graph->InitFromGlobal(*global, layout.atom_of,
                                        layout.colors, placement, me,
                                        &ctx.comm());
      if (first) {
        ingest_s[me] = t.Seconds();
        CounterWindow::Read(ctx.metrics(), &window.base[me]);
        ready_ns[me] = Timer::NowNanos();
      }
      return st;
    };
    problem.update_fn = update;
    problem.engine_options.num_threads = w.threads;
    problem.on_boundary = [&, me](uint64_t boundary) -> Status {
      if (me == 0) ++boundaries;
      if (me == kFtVictim && boundary == kFtKillBoundary) {
        ctx.comm().InjectKill(me);
        return Status::Aborted("injected kill");
      }
      return Status::OK();
    };
    GL_TRACE_BEGIN(trace::kEngine, "bench.job");
    Expected<fault::FtReport> result = runner.Run(problem, &graphs[me]);
    GL_TRACE_END(trace::kEngine, "bench.job");
    done_ns[me] = Timer::NowNanos();
    CounterWindow::Read(ctx.metrics(), &window.end[me]);
    if (result.ok()) {
      survived[me] = 1;
      reports[me] = *result;
    } else if (me != kFtVictim) {
      errors[me] = "machine " + std::to_string(me) + ": " +
                   result.status().ToString();
    }
  });

  r->ft = reports[0];
  r->sweeps = boundaries;
  for (size_t m = 0; m < w.machines; ++m) {
    r->ingest_s = std::max(r->ingest_s, ingest_s[m]);
    r->ready_ns = std::max(r->ready_ns, ready_ns[m]);
  }
  // The killed machine's workers stop counting when its Run() returns.
  for (uint64_t done : done_ns) {
    if (done > r->ready_ns) {
      r->worker_s += w.threads * static_cast<double>(done - r->ready_ns) / 1e9;
    }
  }
  for (size_t m = 0; m < w.machines; ++m) {
    if (r->run_error.empty()) r->run_error = errors[m];
    if (!survived[m]) continue;
    ++r->survivors;
    r->done_ns = std::max(r->done_ns, done_ns[m]);
    r->busy_s += reports[m].result.busy_seconds;
    for (LocalVid l : graphs[m].owned_vertices()) {
      global->vertex_data(graphs[m].Gvid(l)) = graphs[m].vertex_data(l);
    }
  }
  window.SumInto(r);
}

// ---------------------------------------------------------------------
// The three applications: inputs, job, answer check
// ---------------------------------------------------------------------

uint64_t CounterValue(const Report& r, const char* name) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (std::string(kCounters[i]) == name) return r.counters[i];
  }
  return 0;
}

void RunPageRank(const Workload& w, uint64_t seed,
                 const std::string& scratch, Report* r) {
  apps::PageRankGraph global;
  GraphStructure structure;
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.generate");
    Timer t;
    structure = gen::PowerLawWeb(kPageRankVertices, 5, 0.8, seed);
    global = apps::BuildPageRankGraph(structure);
    r->generate_s = t.Seconds();
  }
  const Layout layout = MakeLayout(w, structure, seed, r);
  if (w.fault_tolerant) {
    const std::string dir =
        scratch + "/ft_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    RunFtJob(w, layout, &global, dir, r);
    std::filesystem::remove_all(dir);
  } else {
    using Graph = DistributedGraph<apps::PageRankVertex, apps::PageRankEdge>;
    EngineOptions eo;
    eo.num_threads = w.threads;
    RunJob(w, layout, &global,
           apps::MakePageRankUpdateFn<Graph>(0.85, kPageRankTolerance), eo,
           r);
  }

  const double l1 =
      apps::PageRankL1Error(global, apps::ExactPageRank(global));
  r->ok = l1 <= kPageRankMaxL1;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "pagerank L1 to exact %.3g (max %.0e)", l1,
                kPageRankMaxL1);
  r->check = buf;
  if (w.fault_tolerant) {
    const bool recovered = r->survivors == w.machines - 1 &&
                           r->ft.attempts == 2 && r->ft.recoveries == 1 &&
                           r->ft.restored_epoch >= 1;
    r->ok = r->ok && recovered;
    std::snprintf(buf, sizeof(buf),
                  "; survivors %zu attempts %llu recoveries %llu "
                  "restored_epoch %u",
                  r->survivors,
                  static_cast<unsigned long long>(r->ft.attempts),
                  static_cast<unsigned long long>(r->ft.recoveries),
                  r->ft.restored_epoch);
    r->check += buf;
    if (!r->run_error.empty()) r->check += "; " + r->run_error;
  }
}

void RunBp(const Workload& w, uint64_t seed, Report* r) {
  apps::BpGraph global;
  GraphStructure structure;
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.generate");
    Timer t;
    structure = gen::Mesh3D(kMeshSide, kMeshSide, kMeshSide, 26);
    global = apps::BuildMrf(structure, 2, 0.2, 1.2, seed, /*block=*/64);
    r->generate_s = t.Seconds();
  }
  const Layout layout = MakeLayout(w, structure, seed, r);
  using Graph = DistributedGraph<apps::BpVertex, apps::BpEdge>;
  EngineOptions eo;
  eo.num_threads = w.threads;
  RunJob(w, layout, &global,
         apps::MakeBpSweepUpdateFn<Graph>(apps::PottsPotential{2.0},
                                          kBpIterations),
         eo, r);

  const uint64_t expected = uint64_t{kBpIterations} * global.num_vertices();
  const uint64_t updates = CounterValue(*r, "engine.updates");
  uint64_t bad_beliefs = 0;
  for (VertexId v = 0; v < global.num_vertices(); ++v) {
    const std::vector<double>& b = global.vertex_data(v).belief;
    double sum = 0;
    bool finite = b.size() == 2;
    for (double x : b) {
      finite = finite && std::isfinite(x);
      sum += x;
    }
    if (!finite || std::fabs(sum - 1.0) > 1e-9) ++bad_beliefs;
  }
  r->ok = updates == expected && bad_beliefs == 0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "bp updates %llu (expect %llu), bad beliefs %llu",
                static_cast<unsigned long long>(updates),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(bad_beliefs));
  r->check = buf;
}

void RunAls(const Workload& w, uint64_t seed, Report* r) {
  apps::AlsGraph global;
  GraphStructure structure;
  {
    GL_TRACE_SCOPE(trace::kEngine, "bench.generate");
    Timer t;
    apps::AlsProblem p;
    p.num_users = kAlsUsers;
    p.num_items = kAlsItems;
    p.ratings_per_user = kAlsRatingsPerUser;
    p.seed = seed;
    global = apps::BuildAlsGraph(p, kAlsRank);
    structure = global.Structure();
    r->generate_s = t.Seconds();
  }
  const Layout layout = MakeLayout(w, structure, seed, r);
  using Graph = DistributedGraph<apps::AlsVertex, apps::AlsEdge>;
  EngineOptions eo;
  eo.num_threads = w.threads;
  eo.max_sweeps = kAlsSweeps;
  // Fixed work: every vertex solves once per sweep.  It reschedules itself
  // instead of its neighbours (what tolerance 0 does), which runs the same
  // one-solve-per-vertex-per-sweep sequence without one schedule message
  // per ghost neighbour per update.
  UpdateFn<Graph> solve = apps::MakeAlsUpdateFn<Graph>(
      kAlsLambda, std::numeric_limits<double>::infinity());
  RunJob(w, layout, &global,
         UpdateFn<Graph>([solve](Context<Graph>& ctx) {
           solve(ctx);
           ctx.ScheduleSelf(1.0);
         }),
         eo, r);

  const double rmse = apps::AlsRmse(global, /*test_edges=*/true);
  r->ok = std::isfinite(rmse) && rmse <= kAlsMaxTestRmse;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "als test RMSE %.4f (max %.2f)", rmse,
                kAlsMaxTestRmse);
  r->check = buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --child=<workload> --seed=S "
               "[--scratch=DIR] [--trace-out=FILE [--trace-capacity=N]]\n"
               "workloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr,
               "\nRun by run.py, which runs the jobs and reports the "
               "metrics.\n");
  return 2;
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  using namespace graphlab;
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  const std::string name = opts.GetString("child", "");
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr || !opts.Has("seed")) return Usage();
  const uint64_t seed = static_cast<uint64_t>(opts.GetInt("seed", 1));
  const std::string trace_out = opts.GetString("trace-out", "");

  metrics::Histogram update_ns;
  if (!trace_out.empty()) {
    trace::SetBufferCapacity(
        static_cast<size_t>(opts.GetInt("trace-capacity", 1 << 20)));
    trace::EnableCategories(trace::kAll);
    g_update_ns = &update_ns;
  }

  Report r;
  r.setup_start_ns = Timer::NowNanos();
  if (workload->app == "pagerank") {
    RunPageRank(*workload, seed, opts.GetString("scratch", "."), &r);
  } else if (workload->app == "bp") {
    RunBp(*workload, seed, &r);
  } else {
    RunAls(*workload, seed, &r);
  }

  bench::JsonObject out;
  out.Set("workload", workload->name)
      .Set("seed", seed)
      .Set("ok", r.ok)
      .Set("check", r.check)
      .Set("machines", static_cast<uint64_t>(workload->machines))
      .Set("workers", static_cast<uint64_t>(workload->machines *
                                            workload->threads))
      .Set("setup_s",
           static_cast<double>(r.ready_ns - r.setup_start_ns) / 1e9)
      .Set("job_s", static_cast<double>(r.done_ns - r.ready_ns) / 1e9)
      .Set("generate_s", r.generate_s)
      .Set("color_s", r.color_s)
      .Set("partition_s", r.partition_s)
      .Set("connect_s", r.connect_s)
      .Set("ingest_s", r.ingest_s)
      .Set("ready_us", static_cast<double>(r.ready_ns) / 1e3)
      .Set("done_us", static_cast<double>(r.done_ns) / 1e3)
      .Set("worker_s", r.worker_s)
      .Set("sweeps", r.sweeps)
      .Set("busy_s", r.busy_s);
  for (size_t i = 0; i < kNumCounters; ++i) {
    out.Set(kCounters[i], r.counters[i]);
  }
  if (workload->fault_tolerant) {
    out.Set("fault.attempts", r.ft.attempts)
        .Set("fault.recoveries", r.ft.recoveries)
        .Set("fault.checkpoints", r.ft.checkpoints_written)
        .Set("fault.full_checkpoints", r.ft.full_checkpoints)
        .Set("fault.checkpoint_s", r.ft.checkpoint_seconds)
        .Set("fault.checkpoint_bytes",
             r.ft.checkpoint_bytes_full + r.ft.checkpoint_bytes_delta)
        .Set("fault.recovery_s", r.ft.recovery_seconds);
  }
  if (!trace_out.empty()) {
    trace::EnableCategories(0);
    const metrics::HistogramData h = update_ns.Snapshot();
    out.Set("update_s", static_cast<double>(h.sum) / 1e9)
        .Set("update_us_p50", h.Percentile(50) / 1e3)
        .Set("update_us_p99", h.Percentile(99) / 1e3)
        .Set("trace_dropped", trace::DroppedEventCount());
    const Status st = trace::WriteChromeTrace(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::string line;
  out.Render(&line);
  std::printf("%s\n", line.c_str());
  return 0;
}
