// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// distributed_pagerank: the multi-process launcher proving the chromatic
// engine runs unmodified over the real TCP transport — and, with fault
// tolerance on, SURVIVES a worker being kill -9'd mid-run (Sec. 4.3).
//
// Every machine is one OS process.  The coordinator (machine 0) forks
// the worker processes, runs its own partition, gathers the converged
// ranks, recomputes the same problem on the simulated in-process
// backend, and reports the L1 distance between the two runs — the
// transport-parity acceptance gate (exit code 0 iff L1 < 1e-8).
//
//   # 4 machines over real TCP on localhost (forks 3 workers):
//   ./example_distributed_pagerank --transport=tcp --machines=4
//
//   # chaos mode: kill -9 the last worker 1500 ms into the run; the
//   # survivors detect the death over heartbeats/EOF, re-place its
//   # atoms, restore the last checkpoint epoch, and converge to the
//   # same fixed point as the unfailed simulated run (one command):
//   ./example_distributed_pagerank --transport=tcp --machines=4 --ft
//       --kill-worker-after-ms=1500 --checkpoint-interval=0.2
//
// FT flags: --ft (run under fault::FaultTolerantRunner)
//           --kill-worker-after-ms=N  (coordinator SIGKILLs the last
//             worker after N ms; implies --ft)
//           --kill-in-checkpoint-write=K (the last worker SIGKILLs
//             ITSELF inside the WRITE phase of its K-th checkpoint
//             journal, via the fault-injection hook — a deterministic
//             torn-write death at the worst possible moment.  Epoch K
//             never commits; survivors must fall back to epoch K-1.
//             Implies --ft)
//           --checkpoint-interval=SEC (fixed checkpoint cadence)
//           --mtbf=SEC (Young's-rule cadence; used when no fixed
//             interval is given)
//           --snapshot-dir=PATH (shared journal directory)
//           --tolerance=T (PageRank residual tolerance; FT parity wants
//             1e-13 so differently-scheduled fixed points agree)
//           --recovery-json=FILE (writes BENCH_recovery.json rows)
//
// Observability: --metrics-report (cluster-merged metrics table on
//             stdout + BENCH_cluster_metrics.json, collected over the
//             CommLayer from every machine's registry)
//           --trace-out=FILE (Chrome/Perfetto trace JSON; each worker
//             process writes FILE.m<id>, the coordinator writes FILE
//             and, over TCP, merges every process's file into one
//             offset-aligned cluster timeline at FILE.cluster.json)
//           --trace-categories=LIST (engine,sched,rpc,fault,snapshot,
//             health or "all"; default all)
//           --trace-buffer=N (per-thread event ring capacity; default
//             1M so per-message rpc events cannot evict the rare
//             fault-recovery spans on long runs)
//
// Live telemetry (the streaming counterpart to the post-run report):
//           --telemetry-report (background sampler on every machine +
//             push channel to machine 0; renders a live per-machine
//             rate table about once a second)
//           --telemetry-out=FILE (machine 0 appends one JSONL row per
//             received sample window: cumulative values + windowed
//             rates, plus row="health" lines for online detections)
//           --telemetry-interval-ms=N (sampler tick; default 100)
//           --straggle-machine=M --straggle-us=U (fault injection: M —
//             default the last machine — busy-spins U microseconds
//             after every vertex update, slowing it enough for the
//             online health monitor to flag it as a straggler)
//
// Placement: --partitioner=NAME (random | block | striped | bfs |
//             greedy | refined; "greedy" is the streaming LDG
//             edge-cut partitioner, "refined" adds
//             label-propagation refinement.  Deterministic, so every
//             process derives the identical layout.  Default random.)
//           --rebalance-at-boundary=B (force one live migration check
//             at update-boundary B; implies --ft)
//           --rebalance-every=N (periodic skew check every N
//             boundaries; implies --ft)
//           --rebalance-skew=S (max/mean signal skew that triggers a
//             migration on periodic checks; default 1.3)
//           --rebalance-signal=updates|bytes (which per-machine load
//             signal the skew is measured on: engine.updates deltas —
//             compute — or rpc.bytes_sent deltas — communication)
//
// Other flags: --machines=N --vertices=V --threads=T --port-base=P
//              --json=FILE --role/--machine-id (set when forking).

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphlab/apps/label_prop.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/allreduce.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/fault/injection.h"
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/partition.h"
#include "graphlab/graph/partitioner.h"
#include "graphlab/metrics/health.h"
#include "graphlab/metrics/metrics_service.h"
#include "graphlab/metrics/timeseries.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/rpc/tcp_transport.h"
#include "graphlab/util/logging.h"
#include "graphlab/util/options.h"
#include "graphlab/util/timer.h"
#include "bench/bench_json.h"

namespace {

using namespace graphlab;
using apps::PageRankEdge;
using apps::PageRankVertex;
using DGraph = DistributedGraph<PageRankVertex, PageRankEdge>;

constexpr rpc::HandlerId kRankGatherHandler = 40;

struct Config {
  std::string transport = "tcp";  // "tcp" | "sim"
  std::string role = "coordinator";
  size_t machines = 4;
  rpc::MachineId machine_id = 0;
  size_t vertices = 2000;
  size_t threads = 1;  // 1 => deterministic chromatic schedule
  uint16_t port_base = 0;
  std::string json = "BENCH_distributed_pagerank.json";
  double damping = 0.85;
  double tolerance = 1e-10;
  std::string partitioner = "random";

  // Online load rebalancing (live atom migration; implies ft).
  uint64_t rebalance_at_boundary = 0;
  uint64_t rebalance_every = 0;
  double rebalance_skew = 1.3;
  std::string rebalance_signal = "updates";

  // Fault tolerance.
  bool ft = false;
  uint64_t kill_worker_after_ms = 0;  // coordinator-side SIGKILL timer
  uint64_t kill_in_checkpoint_write = 0;  // victim dies in WRITE of ckpt K
  double checkpoint_interval = 0;
  double mtbf = 0;
  std::string snapshot_dir;
  std::string recovery_json = "BENCH_recovery.json";

  // Observability.
  bool metrics_report = false;
  std::string metrics_json = "BENCH_cluster_metrics.json";
  std::string trace_out;
  std::string trace_categories = "all";
  size_t trace_buffer = 1u << 20;

  // Live telemetry (sampler + push channel + health monitor).
  // `telemetry` is the internal enable the coordinator forwards to
  // workers so they run the sampler even when only machine 0 exports.
  bool telemetry = false;
  bool telemetry_report = false;
  std::string telemetry_out;
  uint64_t telemetry_interval_ms = 100;

  // Straggler fault injection: machine `straggle_machine` (default the
  // last one) busy-spins `straggle_us` after every vertex update.
  int64_t straggle_machine = -1;
  uint64_t straggle_us = 0;
};

bool TelemetryEnabled(const Config& cfg) {
  return cfg.telemetry || cfg.telemetry_report || !cfg.telemetry_out.empty();
}

rpc::MachineId StraggleVictim(const Config& cfg) {
  return cfg.straggle_machine >= 0
             ? static_cast<rpc::MachineId>(cfg.straggle_machine)
             : static_cast<rpc::MachineId>(cfg.machines - 1);
}

struct RunOutput {
  std::vector<double> ranks;       // gathered on machine 0 only
  uint64_t updates = 0;
  double seconds = 0;
  rpc::CommStats stats;            // machine 0's traffic
  std::vector<rpc::PeerCommStats> peer_stats;
  fault::FtReport ft_report;       // machine 0's, FT mode only
  // FT mode: machine N-1 (the chaos victim) is missing from machine 0's
  // membership when its Run() returned.
  bool last_machine_down = false;
  metrics::ClusterMetricsView cluster_metrics;  // merged on machine 0

  // Telemetry summary (machine 0, when the plane is on).
  uint64_t telemetry_rows = 0;      // JSONL rows written
  uint64_t telemetry_machines = 0;  // machines that ever reported
  uint64_t telemetry_samples = 0;   // samples ingested cluster-wide
  uint64_t health_stragglers = 0;
  uint64_t health_stalls = 0;
  uint64_t health_divergences = 0;
  // Machine 0's estimated peer clock offsets (remote - local, ns), the
  // coordinator's input for the offset-aligned cluster trace merge.
  std::map<uint32_t, int64_t> clock_offsets;
};

/// The PageRank update function, optionally slowed on the straggle
/// victim: the busy-spin models a machine with degraded compute (Sec. 6's
/// straggler discussion) without changing the fixed point, so parity
/// still holds while the health monitor must flag the machine.
UpdateFn<DGraph> MakeUpdateFn(const Config& cfg, rpc::MachineId me) {
  UpdateFn<DGraph> fn =
      apps::MakePageRankUpdateFn<DGraph>(cfg.damping, cfg.tolerance);
  if (cfg.straggle_us == 0 || me != StraggleVictim(cfg)) return fn;
  const uint64_t spin_ns = cfg.straggle_us * 1000;
  return [fn, spin_ns](Context<DGraph>& context) {
    fn(context);
    const uint64_t until = Timer::NowNanos() + spin_ns;
    while (Timer::NowNanos() < until) {
    }
  };
}

/// Machine 0's telemetry plane: the merged cluster series the push
/// channel feeds, the online health monitor that runs over it, and the
/// JSONL export stream.
struct TelemetryMaster {
  metrics::ClusterTimeSeries cluster;
  std::unique_ptr<metrics::HealthMonitor> health;
  std::mutex mutex;  // serializes JSONL writes and health passes
  std::FILE* jsonl = nullptr;
  uint64_t rows = 0;
  uint64_t master_ticks = 0;
  ~TelemetryMaster() {
    if (jsonl != nullptr) std::fclose(jsonl);
  }
};

void WriteTelemetryRow(TelemetryMaster* tele, const bench::JsonObject& row) {
  if (tele->jsonl == nullptr) return;
  std::string line;
  row.Render(&line);
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), tele->jsonl);
  ++tele->rows;
}

/// Process-wide observability setup: tag GL_LOG lines and trace events
/// with this process's machine id, and arm the tracer's category filter.
void SetupObservability(const Config& cfg) {
  SetLogMachineId(static_cast<int>(cfg.machine_id));
  if (!cfg.trace_out.empty()) {
    trace::SetProcessMachineId(static_cast<uint32_t>(cfg.machine_id));
    trace::SetBufferCapacity(cfg.trace_buffer);
    trace::EnableCategories(trace::ParseCategories(cfg.trace_categories));
  }
}

/// One trace file per process: the coordinator writes --trace-out
/// verbatim, worker processes suffix their machine id.
std::string TracePathFor(const Config& cfg) {
  if (cfg.machine_id == 0) return cfg.trace_out;
  return cfg.trace_out + ".m" + std::to_string(cfg.machine_id);
}

void FlushTrace(const Config& cfg) {
  if (cfg.trace_out.empty()) return;
  Status s = trace::WriteChromeTrace(TracePathFor(cfg));
  if (!s.ok()) {
    GL_LOG(ERROR) << "trace write failed: " << s.ToString();
  }
  trace::EnableCategories(0);  // later runs (e.g. the parity
                               // reference) stay out of the artifact
}

/// Deterministic inputs every process derives identically.
struct ProblemInputs {
  GraphStructure structure;
  LocalGraph<PageRankVertex, PageRankEdge> global;
  ColorAssignment colors;
  PartitionAssignment atom_of;
  AtomIndex meta;
  AtomId num_atoms = 0;
};

ProblemInputs BuildInputs(const Config& cfg) {
  ProblemInputs in;
  in.structure = gen::PowerLawWeb(cfg.vertices, 5, 0.8, 7);
  in.global = apps::BuildPageRankGraph(in.structure);
  in.colors = GreedyColoring(in.structure);
  // Over-partition (4 atoms per machine) so a dead machine's atoms can
  // spread across the survivors, per the two-phase scheme of Sec. 4.1.
  in.num_atoms = static_cast<AtomId>(4 * cfg.machines);
  // Layout by name (seed 3 throughout, so every process — coordinator,
  // forked workers, parity reference — derives the identical layout).
  if (cfg.partitioner == "refined") {
    StreamingPartitionOptions popts;
    popts.seed = 3;
    in.atom_of = apps::RefinePartitionLabelProp(
        in.structure, StreamingGreedyPartition(in.structure, in.num_atoms, popts),
        in.num_atoms);
  } else {
    in.atom_of = PartitionByName(cfg.partitioner, in.structure, in.num_atoms, 3);
  }
  in.meta = BuildMetaIndex(in.structure, in.atom_of, in.colors,
                           in.num_atoms);
  return in;
}

using RankBatch = std::vector<std::pair<VertexId, double>>;

/// Writes one machine's (gvid, rank) batch into machine 0's output.
void ApplyRankBatch(const RankBatch& batch, RunOutput* out,
                    std::atomic<size_t>* gathered) {
  size_t applied = 0;
  for (const auto& [gvid, rank] : batch) {
    if (gvid >= out->ranks.size()) {
      GL_LOG(ERROR) << "gathered rank for vertex " << gvid
                    << " outside the coordinator's graph";
      continue;
    }
    out->ranks[gvid] = rank;
    applied++;
  }
  gathered->fetch_add(applied, std::memory_order_acq_rel);
}

/// Machine 0's rank-gather sink for the other machines' batches, live
/// while the returned scope is.
rpc::HandlerScope RegisterRankGather(rpc::MachineContext& ctx,
                                     RunOutput* out,
                                     std::atomic<size_t>* gathered) {
  return ctx.comm().RegisterHandler(
      0, kRankGatherHandler, [out, gathered](rpc::MachineId, InArchive& ia) {
        RankBatch batch;
        ia >> batch;
        if (!ia.ok()) {
          GL_LOG(ERROR) << "corrupt rank gather batch";
          return;
        }
        ApplyRankBatch(batch, out, gathered);
      });
}

/// Ships this machine's owned ranks to machine 0, which applies its own
/// batch in place: a message to itself would travel no channel that the
/// flush round after the gather marks.
void GatherOwnedRanks(rpc::MachineContext& ctx, const DGraph& graph,
                      RunOutput* out, std::atomic<size_t>* gathered) {
  RankBatch batch;
  batch.reserve(graph.num_owned_vertices());
  for (LocalVid l : graph.owned_vertices()) {
    batch.emplace_back(graph.Gvid(l), graph.vertex_data(l).rank);
  }
  if (ctx.id == 0) {
    ApplyRankBatch(batch, out, gathered);
    return;
  }
  OutArchive oa;
  oa << batch;
  ctx.comm().Send(ctx.id, 0, kRankGatherHandler, std::move(oa));
}

/// Runs the SPMD PageRank program on `runtime`; machine 0 gathers all
/// converged ranks.  With cfg.ft the run goes through the fault-tolerant
/// runner: heartbeat failure detection, periodic checkpoints, and live
/// recovery of a dead machine's partition.
RunOutput RunCluster(rpc::Runtime& runtime, const Config& cfg) {
  ProblemInputs in = BuildInputs(cfg);
  auto full_placement = PlaceAtoms(in.meta, cfg.machines);

  // Per-fabric allreduce for the non-FT path (the FT runner owns its
  // own); one shared on the simulated backend, one per hosted machine
  // over TCP (remote registrations are empty).
  std::vector<std::unique_ptr<SumAllReduce>> allreduces;
  auto allreduce_for = [&](rpc::MachineId m) -> SumAllReduce* {
    if (runtime.transport() == rpc::TransportKind::kInProcess) {
      return allreduces[0].get();
    }
    for (size_t i = 0; i < runtime.local_machines().size(); ++i) {
      if (runtime.local_machines()[i] == m) return allreduces[i].get();
    }
    GL_LOG(FATAL) << "machine " << m << " not local";
    return nullptr;
  };
  if (!cfg.ft) {
    if (runtime.transport() == rpc::TransportKind::kInProcess) {
      allreduces.push_back(
          std::make_unique<SumAllReduce>(&runtime.comm(), 1));
    } else {
      for (rpc::MachineId m : runtime.local_machines()) {
        allreduces.push_back(
            std::make_unique<SumAllReduce>(&runtime.comm(m), 1));
      }
    }
  }

  RunOutput out;
  out.ranks.assign(cfg.vertices, 0.0);
  std::atomic<size_t> gathered{0};
  std::vector<DGraph> graphs(cfg.machines);
  const bool telemetry = TelemetryEnabled(cfg);
  TelemetryMaster tele;  // machine 0 only; shared here so the simulated
                         // backend's hosted machines see one master

  Timer timer;
  runtime.Run([&](rpc::MachineContext& ctx) {
    const rpc::MachineId me = ctx.id;
    DGraph& graph = graphs[me];
    rpc::HandlerScope rank_gather;
    if (me == 0) rank_gather = RegisterRankGather(ctx, &out, &gathered);
    // Cluster-wide metric merge: constructed before this program's first
    // barrier, so machine 0's snapshot handler exists before any worker
    // collects.
    std::unique_ptr<metrics::MetricsService> metrics_service;
    if (cfg.metrics_report) {
      metrics_service = std::make_unique<metrics::MetricsService>(
          &ctx.comm(), me, &ctx.comm().registry(me));
    }

    // ---- live telemetry plane: sampler -> push channel -> master ----
    std::unique_ptr<metrics::TelemetryChannel> channel;
    std::unique_ptr<metrics::TimeSeriesSampler> sampler;
    if (telemetry) {
      const uint64_t interval_ns = cfg.telemetry_interval_ms * 1000000ull;
      const uint64_t report_every =
          std::max<uint64_t>(1, 1000 / std::max<uint64_t>(
                                            1, cfg.telemetry_interval_ms));
      if (me == 0) {
        tele.health = std::make_unique<metrics::HealthMonitor>(
            metrics::HealthOptions{}, &ctx.comm().registry(0));
        if (!cfg.telemetry_out.empty()) {
          tele.jsonl = std::fopen(cfg.telemetry_out.c_str(), "w");
          if (tele.jsonl == nullptr) {
            GL_LOG(ERROR) << "cannot open --telemetry-out file "
                          << cfg.telemetry_out;
          }
        }
        channel = std::make_unique<metrics::TelemetryChannel>(
            &ctx.comm(), me,
            [&tele, &cfg, interval_ns,
             report_every](const metrics::TelemetrySample& s) {
              tele.cluster.Ingest(s);
              std::lock_guard<std::mutex> lock(tele.mutex);
              bench::JsonObject row;
              row.Set("schema_version", 1)
                  .Set("row", "sample")
                  .Set("machine", static_cast<uint64_t>(s.machine))
                  .Set("seq", s.seq)
                  .Set("t_ms", static_cast<double>(s.t_ns) / 1e6)
                  .Set("interval_ms",
                       static_cast<double>(s.interval_ns) / 1e6);
              for (const auto& [key, value] : s.values) row.Set(key, value);
              for (const auto& [key, value] : s.rates) row.Set(key, value);
              WriteTelemetryRow(&tele, row);
              // The master's own tick paces the monitor and the live
              // table: one health pass per cluster-wide window.
              if (s.machine != 0) return;
              ++tele.master_ticks;
              for (const metrics::HealthEvent& e :
                   tele.health->OnTick(tele.cluster, interval_ns)) {
                bench::JsonObject hrow;
                hrow.Set("schema_version", 1)
                    .Set("row", "health")
                    .Set("kind", e.KindName())
                    .Set("machine", static_cast<uint64_t>(e.machine))
                    .Set("detail", e.detail);
                WriteTelemetryRow(&tele, hrow);
              }
              if (cfg.telemetry_report &&
                  tele.master_ticks % report_every == 0) {
                std::printf("%s\n",
                            tele.cluster
                                .FormatLiveTable({"engine.updates.rate",
                                                  "rpc.bytes_sent.rate",
                                                  "lock.stall_ns.p99"})
                                .c_str());
                std::fflush(stdout);
              }
            });
      } else {
        channel = std::make_unique<metrics::TelemetryChannel>(&ctx.comm(),
                                                              me, nullptr);
      }
      // Master's push handler must exist before any worker publishes.
      ctx.barrier().Wait(me);
      metrics::TimeSeriesOptions topts;
      topts.interval_ms = cfg.telemetry_interval_ms;
      sampler = std::make_unique<metrics::TimeSeriesSampler>(
          &ctx.comm().registry(me), topts, static_cast<uint32_t>(me));
      metrics::MetricsRegistry* reg = &ctx.comm().registry(me);
      sampler->SetProbe([reg] {
        // Mirror the trace ring's eviction count into the registry so
        // truncation shows up in cluster telemetry, not just the file.
        reg->gauge("trace.dropped_events")
            ->Set(static_cast<int64_t>(trace::DroppedEventCount()));
      });
      metrics::TelemetryChannel* ch = channel.get();
      sampler->SetPushFn(
          [ch](const metrics::TelemetrySample& s) { ch->Publish(s); });
      sampler->Start();
    }

    if (cfg.ft) {
      fault::FtOptions ft;
      ft.snapshot_dir = cfg.snapshot_dir;
      ft.checkpoint_interval_seconds = cfg.checkpoint_interval;
      ft.mtbf_seconds = cfg.mtbf;
      ft.rebalance_at_boundary = cfg.rebalance_at_boundary;
      ft.rebalance_every_boundaries = cfg.rebalance_every;
      ft.rebalance_skew_threshold = cfg.rebalance_skew;
      ft.rebalance_signal = cfg.rebalance_signal;
      fault::FaultTolerantRunner<PageRankVertex, PageRankEdge> runner(ctx,
                                                                      ft);
      typename fault::FaultTolerantRunner<PageRankVertex,
                                          PageRankEdge>::Problem problem;
      problem.meta = in.meta;
      problem.build = [&, me](DGraph* g,
                              const std::vector<rpc::MachineId>& placement) {
        return g->InitFromGlobal(in.global, in.atom_of, in.colors,
                                 placement, me, &ctx.comm());
      };
      problem.update_fn = MakeUpdateFn(cfg, me);
      problem.engine_options.num_threads = cfg.threads;
      problem.engine_options.checkpoint_interval_seconds =
          cfg.checkpoint_interval;
      problem.engine_options.mtbf_seconds = cfg.mtbf;

      auto result = runner.Run(problem, &graph);
      if (!result.ok()) {
        // This machine died (the chaos kill): its process has nothing
        // further to contribute.
        GL_LOG(WARNING) << "machine " << me
                        << ": run aborted: " << result.status().ToString();
        return;
      }
      if (me == 0) {
        out.ft_report = *result;
        out.updates = result->result.updates;
        out.last_machine_down =
            !ctx.comm().membership().alive(cfg.machines - 1);
      }
    } else {
      GL_CHECK_OK(graph.InitFromGlobal(in.global, in.atom_of, in.colors,
                                       full_placement, me, &ctx.comm()));
      ctx.barrier().Wait(me);
      EngineOptions eo;
      eo.num_threads = cfg.threads;
      eo.consistency = ConsistencyModel::kEdgeConsistency;
      DistributedEngineDeps<PageRankVertex, PageRankEdge> deps;
      deps.allreduce = allreduce_for(me);
      auto engine =
          std::move(CreateEngine("chromatic", ctx, &graph, eo, deps).value());
      engine->SetUpdateFn(MakeUpdateFn(cfg, me));
      engine->ScheduleAll();
      RunResult r = engine->Start();
      if (me == 0) out.updates = r.updates;
    }

    if (metrics_service != nullptr) {
      // Collective across the (surviving) membership.  Each worker's
      // snapshot travels ahead of its ranks on its channel to machine 0,
      // so the barrier after the rank gather below also keeps every
      // worker process alive until machine 0 holds its snapshot.
      metrics::ClusterMetricsView view = metrics_service->Collect();
      if (me == 0) out.cluster_metrics = std::move(view);
    }

    // Ship converged owned ranks to machine 0, then flush: each machine's
    // round frame trails its ranks on the same FIFO channel, so once
    // machine 0's round completes it holds every rank (the rank handler
    // sends nothing).  After a recovery the surviving partitions cover
    // every vertex.
    GatherOwnedRanks(ctx, graph, &out, &gathered);
    ctx.flush().Run(me);
    // A worker's round ends once it holds machine 0's frame, possibly
    // before machine 0 has read the worker's batch off the socket.
    // Machine 0 enters this barrier only after its round, so no worker
    // process exits, closing its sockets, before its ranks are in.
    ctx.barrier().Wait(me);
    if (me == 0) {
      GL_CHECK_EQ(gathered.load(), cfg.vertices) << "rank gather incomplete";
      out.stats = ctx.comm().GetStats(0);
      out.peer_stats = ctx.comm().GetPeerStats(0);
    }

    if (telemetry) {
      // Final tick so even very short runs export at least one full
      // window per machine, then stop the sampler.  The barrier drains
      // the in-flight samples: barrier traffic is FIFO-ordered behind
      // each machine's last publish, so once it completes the master
      // has dispatched every sample and the counts below are complete.
      channel->Publish(sampler->SampleOnce());
      sampler->Stop();
      ctx.barrier().Wait(me);
      channel.reset();
      if (me == 0) {
        std::lock_guard<std::mutex> lock(tele.mutex);
        if (tele.jsonl != nullptr) {
          std::fclose(tele.jsonl);
          tele.jsonl = nullptr;
        }
        out.telemetry_rows = tele.rows;
        out.telemetry_machines = tele.cluster.machines().size();
        out.telemetry_samples = tele.cluster.samples_ingested();
        out.health_stragglers = tele.health->stragglers_flagged();
        out.health_stalls = tele.health->stalls_flagged();
        out.health_divergences = tele.health->divergences_flagged();
      }
    }

    if (!cfg.trace_out.empty()) {
      // Peer steady-clock offsets (clock-sync midpoint estimates,
      // rpc/clock_sync.h) land in this machine's trace metadata;
      // machine 0's set also drives the coordinator's offset-aligned
      // cluster merge.  The simulated backend shares one clock, so its
      // transport reports zero offsets.
      ctx.comm().SyncClocks();
      for (rpc::MachineId p = 0; p < cfg.machines; ++p) {
        if (p == me) continue;
        const int64_t offset_ns = ctx.comm().ClockOffsetNs(p);
        trace::SetPeerClockOffsetNs(static_cast<uint32_t>(p), offset_ns);
        if (me == 0) out.clock_offsets[static_cast<uint32_t>(p)] = offset_ns;
      }
    }
  });
  out.seconds = timer.Seconds();
  return out;
}

int RunWorker(const Config& cfg) {
  SetupObservability(cfg);
  if (cfg.kill_in_checkpoint_write > 0) {
    // Die by SIGKILL inside the WRITE phase of this machine's K-th
    // checkpoint journal.  "_m<id>.gl" matches both the full-journal
    // temp file (snap_<e>_m<id>.glsnap.tmp) and the delta WAL
    // (delta_<e>_m<id>.gldelta); the first K-1 checkpoint files pass
    // through untouched, so epoch K-1 commits and epoch K is the one
    // torn mid-write.
    fault::FaultInjection::Instance().ArmKillDuringWrite(
        "_m" + std::to_string(cfg.machine_id) + ".gl", /*byte_offset=*/1,
        /*skip_files=*/cfg.kill_in_checkpoint_write - 1);
  }
  rpc::ClusterOptions copts;
  copts.num_machines = cfg.machines;
  copts.threads_per_machine = cfg.threads;
  copts.transport = rpc::TransportKind::kTcp;
  copts.tcp.me = cfg.machine_id;
  copts.tcp.endpoints = rpc::LoopbackEndpoints(cfg.machines, cfg.port_base);
  {
    rpc::Runtime runtime(copts);
    RunCluster(runtime, cfg);
  }
  FlushTrace(cfg);
  return 0;
}

/// std::to_string(double) rounds to 6 decimals (1e-10 -> "0.000000");
/// flags carrying small doubles must round-trip exactly.
std::string DoubleFlag(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> WorkerArgs(const Config& cfg, size_t machine,
                                    uint16_t port_base,
                                    const std::string& exe) {
  std::vector<std::string> args = {
      exe,
      "--transport=tcp",
      "--role=worker",
      "--machines=" + std::to_string(cfg.machines),
      "--machine-id=" + std::to_string(machine),
      "--vertices=" + std::to_string(cfg.vertices),
      "--threads=" + std::to_string(cfg.threads),
      "--port-base=" + std::to_string(port_base),
      "--tolerance=" + DoubleFlag(cfg.tolerance),
      "--partitioner=" + cfg.partitioner,
  };
  if (cfg.metrics_report) args.push_back("--metrics-report=true");
  if (!cfg.trace_out.empty()) {
    args.push_back("--trace-out=" + cfg.trace_out);
    args.push_back("--trace-categories=" + cfg.trace_categories);
    args.push_back("--trace-buffer=" + std::to_string(cfg.trace_buffer));
  }
  if (TelemetryEnabled(cfg)) {
    // Workers run the sampler + push channel even when only machine 0
    // renders/export (the JSONL and live table stay coordinator-side).
    args.push_back("--telemetry=true");
    args.push_back("--telemetry-interval-ms=" +
                   std::to_string(cfg.telemetry_interval_ms));
  }
  if (cfg.straggle_us > 0) {
    args.push_back("--straggle-us=" + std::to_string(cfg.straggle_us));
    args.push_back("--straggle-machine=" +
                   std::to_string(StraggleVictim(cfg)));
  }
  if (cfg.ft) {
    args.push_back("--ft=true");
    args.push_back("--snapshot-dir=" + cfg.snapshot_dir);
    args.push_back("--checkpoint-interval=" +
                   DoubleFlag(cfg.checkpoint_interval));
    args.push_back("--mtbf=" + DoubleFlag(cfg.mtbf));
    args.push_back("--rebalance-at-boundary=" +
                   std::to_string(cfg.rebalance_at_boundary));
    args.push_back("--rebalance-every=" + std::to_string(cfg.rebalance_every));
    args.push_back("--rebalance-skew=" + DoubleFlag(cfg.rebalance_skew));
    args.push_back("--rebalance-signal=" + cfg.rebalance_signal);
    if (cfg.kill_in_checkpoint_write > 0 && machine == cfg.machines - 1) {
      args.push_back("--kill-in-checkpoint-write=" +
                     std::to_string(cfg.kill_in_checkpoint_write));
    }
  }
  return args;
}

// ---------------------------------------------------------------------
// Cluster trace merge: one offset-aligned timeline out of the
// per-process trace files.
// ---------------------------------------------------------------------

/// Extracts the contents of a trace file's "traceEvents" array (without
/// the brackets); empty when the file is missing or not a trace.
std::string ReadTraceEvents(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::string open = "\"traceEvents\":[";
  const size_t begin = text.find(open);
  if (begin == std::string::npos) return "";
  const size_t end = text.find("],\"displayTimeUnit\"", begin);
  if (end == std::string::npos) return "";
  return text.substr(begin + open.size(), end - begin - open.size());
}

/// Rewrites every `"ts":<number>` in an events fragment by `delta_us`:
/// the merge maps each worker's steady clock onto the coordinator's by
/// subtracting its estimated offset.
std::string ShiftTraceTimestamps(const std::string& events, double delta_us) {
  std::string out;
  out.reserve(events.size());
  const std::string key = "\"ts\":";
  size_t i = 0;
  while (i < events.size()) {
    const size_t p = events.find(key, i);
    if (p == std::string::npos) {
      out.append(events, i, std::string::npos);
      break;
    }
    const size_t v = p + key.size();
    out.append(events, i, v - i);
    size_t q = v;
    while (q < events.size() &&
           (std::isdigit(static_cast<unsigned char>(events[q])) ||
            events[q] == '.' || events[q] == '-')) {
      ++q;
    }
    const double ts = std::atof(events.substr(v, q - v).c_str());
    char num[40];
    std::snprintf(num, sizeof(num), "%.3f", ts + delta_us);
    out += num;
    i = q;
  }
  return out;
}

/// Merges the coordinator's trace file with every worker's FILE.m<id>
/// into FILE.cluster.json, shifting worker timestamps onto machine 0's
/// clock.  The paired rpc.flow send('s')/finish('f') events then draw
/// cross-machine message arrows on one consistent timeline; the applied
/// offsets are recorded in the merged file's metadata.
void MergeClusterTrace(const Config& cfg,
                       const std::map<uint32_t, int64_t>& offsets) {
  std::string merged = ReadTraceEvents(cfg.trace_out);
  size_t files = merged.empty() ? 0 : 1;
  for (size_t m = 1; m < cfg.machines; ++m) {
    std::string events =
        ReadTraceEvents(cfg.trace_out + ".m" + std::to_string(m));
    if (events.empty()) continue;
    const auto it = offsets.find(static_cast<uint32_t>(m));
    const double delta_us =
        it == offsets.end() ? 0.0 : -static_cast<double>(it->second) / 1e3;
    events = ShiftTraceTimestamps(events, delta_us);
    if (!merged.empty()) merged += ",";
    merged += events;
    ++files;
  }
  const std::string path = cfg.trace_out + ".cluster.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    GL_LOG(ERROR) << "cannot write merged cluster trace " << path;
    return;
  }
  std::string json = "{\"traceEvents\":[" + merged +
                     "],\"displayTimeUnit\":\"ms\",\"metadata\":{"
                     "\"merged_files\":" +
                     std::to_string(files) + ",\"clock_offsets_ns\":{";
  bool first = true;
  for (const auto& [machine, offset] : offsets) {
    if (!first) json += ",";
    first = false;
    json += "\"" + std::to_string(machine) + "\":" + std::to_string(offset);
  }
  json += "}}}\n";
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("# wrote %s (%zu trace files merged)\n", path.c_str(), files);
}

int RunCoordinator(Config cfg) {
  SetupObservability(cfg);
  const bool tcp = cfg.transport == "tcp";
  if (cfg.ft && !tcp) {
    std::fprintf(stderr,
                 "--ft requires --transport=tcp (per-machine fabrics; the "
                 "simulated backend is the unfailed reference)\n");
    return 2;
  }
  uint16_t port_base = cfg.port_base;
  if (tcp && port_base == 0) {
    // Derive a per-run base so parallel CI jobs do not collide.
    port_base = static_cast<uint16_t>(20000 + (::getpid() % 20000));
  }
  if (cfg.ft && cfg.snapshot_dir.empty()) {
    cfg.snapshot_dir =
        "glft_snapshots_" + std::to_string(::getpid());
  }

  std::vector<pid_t> children;
  if (tcp) {
    for (size_t m = 1; m < cfg.machines; ++m) {
      pid_t pid = ::fork();
      GL_CHECK_GE(pid, 0) << "fork failed";
      if (pid == 0) {
        char exe[4096];
        ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
        GL_CHECK_GT(n, 0);
        exe[n] = '\0';
        std::vector<std::string> args =
            WorkerArgs(cfg, m, port_base, exe);
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(exe, argv.data());
        std::perror("execv");
        ::_exit(127);
      }
      children.push_back(pid);
    }
  }

  // Chaos: kill -9 the LAST worker (machine N-1) after the configured
  // delay — a real abrupt process death, exactly what Sec. 4.3 claims
  // the snapshot mechanism survives.  In --kill-in-checkpoint-write
  // mode the victim SIGKILLs itself via the injection hook instead, so
  // no timer runs here, but its SIGKILL exit is equally expected.
  const bool chaos =
      cfg.kill_worker_after_ms > 0 || cfg.kill_in_checkpoint_write > 0;
  const pid_t victim = (chaos && !children.empty()) ? children.back() : -1;
  std::thread killer;
  Timer detection_timer;
  if (victim > 0 && cfg.kill_worker_after_ms > 0) {
    killer = std::thread([victim, &cfg] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg.kill_worker_after_ms));
      std::fprintf(stderr, "[chaos] kill -9 worker pid %d (machine %zu)\n",
                   victim, cfg.machines - 1);
      ::kill(victim, SIGKILL);
    });
  }

  // Run this process's machine(s).
  rpc::ClusterOptions copts;
  copts.num_machines = cfg.machines;
  copts.threads_per_machine = cfg.threads;
  if (tcp) {
    copts.transport = rpc::TransportKind::kTcp;
    copts.tcp.me = 0;
    copts.tcp.endpoints = rpc::LoopbackEndpoints(cfg.machines, port_base);
  } else {
    copts.comm.latency = std::chrono::microseconds(100);
  }
  RunOutput wire;
  {
    rpc::Runtime runtime(copts);
    wire = RunCluster(runtime, cfg);
  }
  if (killer.joinable()) killer.join();
  // The trace covers the wire run only; the parity reference below runs
  // with categories disabled so it stays out of the artifact.
  FlushTrace(cfg);

  int exit_code = 0;
  for (pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (pid == victim) {
      if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        std::fprintf(stderr,
                     "[chaos] victim %d was not killed as intended "
                     "(status %d) — run may not have exercised recovery\n",
                     pid, status);
      }
      continue;  // intentional death, not a failure
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "worker %d failed (status %d)\n", pid, status);
      exit_code = 1;
    }
  }

  // The workers have exited (their FILE.m<id> traces are on disk), so
  // the offset-aligned cluster timeline can be assembled.
  if (tcp && !cfg.trace_out.empty()) {
    MergeClusterTrace(cfg, wire.clock_offsets);
  }

  // Reference: the identical computation, unfailed, on the simulated
  // interconnect (the Sec. 4.3 "same fixed point as an unfailed run"
  // acceptance).
  rpc::ClusterOptions ref_opts;
  ref_opts.num_machines = cfg.machines;
  ref_opts.threads_per_machine = cfg.threads;
  ref_opts.comm.latency = std::chrono::microseconds(100);
  Config ref_cfg = cfg;
  ref_cfg.ft = false;
  ref_cfg.metrics_report = false;  // report covers the wire run
  ref_cfg.telemetry = false;       // so does the telemetry stream
  ref_cfg.telemetry_report = false;
  ref_cfg.telemetry_out.clear();
  ref_cfg.straggle_us = 0;  // the reference runs unthrottled
  RunOutput reference;
  {
    rpc::Runtime ref_runtime(ref_opts);
    reference = RunCluster(ref_runtime, ref_cfg);
  }

  double l1 = 0.0;
  for (size_t v = 0; v < cfg.vertices; ++v) {
    l1 += std::fabs(wire.ranks[v] - reference.ranks[v]);
  }
  const bool parity = l1 < 1e-8;
  // A chaos run recovered when the survivors finished without the
  // victim and still reached parity — also when the kill landed in the
  // startup fence, before any attempt could count a recovery.  A victim
  // that outlived the run proves nothing.
  const bool recovered = chaos ? wire.last_machine_down && parity
                               : wire.ft_report.recoveries > 0;

  std::printf("backend=%s machines=%zu vertices=%zu threads=%zu ft=%d\n",
              cfg.transport.c_str(), cfg.machines, cfg.vertices,
              cfg.threads, cfg.ft ? 1 : 0);
  std::printf("updates=%llu seconds=%.3f bytes_sent(m0)=%llu\n",
              static_cast<unsigned long long>(wire.updates), wire.seconds,
              static_cast<unsigned long long>(wire.stats.bytes_sent));
  if (cfg.ft) {
    std::printf(
        "ft: attempts=%llu recoveries=%llu restored_epoch=%u "
        "checkpoints=%llu (full=%llu delta=%llu) "
        "ckpt_bytes(full=%llu delta=%llu) corrupt_journals=%llu "
        "ckpt_seconds=%.3f recovery_seconds=%.3f "
        "rebalances=%llu rebalance_seconds=%.3f\n",
        static_cast<unsigned long long>(wire.ft_report.attempts),
        static_cast<unsigned long long>(wire.ft_report.recoveries),
        wire.ft_report.restored_epoch,
        static_cast<unsigned long long>(wire.ft_report.checkpoints_written),
        static_cast<unsigned long long>(wire.ft_report.full_checkpoints),
        static_cast<unsigned long long>(wire.ft_report.delta_checkpoints),
        static_cast<unsigned long long>(wire.ft_report.checkpoint_bytes_full),
        static_cast<unsigned long long>(
            wire.ft_report.checkpoint_bytes_delta),
        static_cast<unsigned long long>(wire.ft_report.corrupt_journals),
        wire.ft_report.checkpoint_seconds,
        wire.ft_report.recovery_seconds,
        static_cast<unsigned long long>(wire.ft_report.rebalances),
        wire.ft_report.rebalance_seconds);
  }
  std::printf("L1(%s, inproc reference) = %.3e -> %s\n",
              cfg.transport.c_str(), l1, parity ? "PARITY" : "MISMATCH");
  if (TelemetryEnabled(cfg)) {
    std::printf(
        "telemetry: machines=%llu samples=%llu jsonl_rows=%llu "
        "stragglers=%llu stalls=%llu divergences=%llu\n",
        static_cast<unsigned long long>(wire.telemetry_machines),
        static_cast<unsigned long long>(wire.telemetry_samples),
        static_cast<unsigned long long>(wire.telemetry_rows),
        static_cast<unsigned long long>(wire.health_stragglers),
        static_cast<unsigned long long>(wire.health_stalls),
        static_cast<unsigned long long>(wire.health_divergences));
  }

  if (cfg.metrics_report) {
    // Human table on stdout, machine-readable rows in
    // BENCH_cluster_metrics.json (one row per merged metric).
    std::printf("%s", wire.cluster_metrics.FormatTable().c_str());
    bench::JsonWriter mj("cluster_metrics");
    mj.meta()
        .Set("transport", cfg.transport)
        .Set("machines", static_cast<uint64_t>(cfg.machines))
        .Set("reporting_machines",
             static_cast<uint64_t>(wire.cluster_metrics.machines.size()))
        .Set("merged", wire.cluster_metrics.merged)
        .Set("ft", cfg.ft);
    for (const metrics::ClusterMetric& m : wire.cluster_metrics.metrics) {
      bench::JsonObject& row = mj.AddRow();
      row.Set("name", m.name)
          .Set("kind", metrics::MetricKindName(m.kind))
          .Set("total", m.total)
          .Set("mean", m.mean)
          .Set("max", m.max)
          .Set("skew", m.skew);
      if (m.kind == metrics::MetricKind::kHistogram) {
        row.Set("count", m.merged_hist.count)
            .Set("p50", m.merged_hist.Percentile(50))
            .Set("p90", m.merged_hist.Percentile(90))
            .Set("p99", m.merged_hist.Percentile(99));
      }
    }
    mj.WriteFile(cfg.metrics_json);
  }

  bench::JsonWriter json("distributed_pagerank");
  json.meta()
      .Set("transport", cfg.transport)
      .Set("machines", static_cast<uint64_t>(cfg.machines))
      .Set("vertices", static_cast<uint64_t>(cfg.vertices))
      .Set("threads", static_cast<uint64_t>(cfg.threads))
      .Set("updates", wire.updates)
      .Set("seconds", wire.seconds)
      .Set("l1_vs_inproc", l1)
      .Set("parity", parity);
  if (TelemetryEnabled(cfg)) {
    json.meta()
        .Set("telemetry_machines", wire.telemetry_machines)
        .Set("telemetry_samples", wire.telemetry_samples)
        .Set("telemetry_rows", wire.telemetry_rows)
        .Set("health_stragglers", wire.health_stragglers)
        .Set("health_stalls", wire.health_stalls)
        .Set("health_divergences", wire.health_divergences);
  }
  bench::AddCommStatsRow(&json, cfg.transport + "/m0", wire.stats);
  bench::AddPeerStatsRows(&json, cfg.transport + "/m0", wire.peer_stats);
  bench::AddCommStatsRow(&json, "inproc-reference/m0", reference.stats);
  json.WriteFile(cfg.json);

  if (cfg.ft) {
    // BENCH_recovery.json: checkpoint overhead + recovery latency rows,
    // the artifact the chaos CI job validates and uploads.
    bench::JsonWriter recovery("recovery");
    recovery.meta()
        .Set("machines", static_cast<uint64_t>(cfg.machines))
        .Set("vertices", static_cast<uint64_t>(cfg.vertices))
        .Set("kill_worker_after_ms", cfg.kill_worker_after_ms)
        .Set("parity", parity)
        .Set("recovered", recovered);
    recovery.AddRow()
        .Set("row", "checkpoint")
        .Set("checkpoints_written", wire.ft_report.checkpoints_written)
        .Set("full_checkpoints", wire.ft_report.full_checkpoints)
        .Set("delta_checkpoints", wire.ft_report.delta_checkpoints)
        .Set("checkpoint_bytes_full", wire.ft_report.checkpoint_bytes_full)
        .Set("checkpoint_bytes_delta", wire.ft_report.checkpoint_bytes_delta)
        .Set("checkpoint_seconds", wire.ft_report.checkpoint_seconds)
        .Set("interval_seconds",
             wire.ft_report.checkpoint_interval_seconds)
        .Set("overhead_fraction",
             wire.seconds > 0
                 ? wire.ft_report.checkpoint_seconds / wire.seconds
                 : 0.0);
    recovery.AddRow()
        .Set("row", "recovery")
        .Set("attempts", wire.ft_report.attempts)
        .Set("recoveries", wire.ft_report.recoveries)
        .Set("restored_epoch",
             static_cast<uint64_t>(wire.ft_report.restored_epoch))
        .Set("corrupt_journals", wire.ft_report.corrupt_journals)
        .Set("recovery_seconds", wire.ft_report.recovery_seconds)
        .Set("rebalances", wire.ft_report.rebalances)
        .Set("rebalance_seconds", wire.ft_report.rebalance_seconds)
        .Set("total_seconds", wire.seconds);

    // Full-vs-incremental checkpoint cost at equal state: a controlled
    // single-machine measurement on the same graph — full snapshot,
    // dirty ~8% of the vertices, delta snapshot — so the
    // checkpoint_delta/checkpoint_full byte ratio is deterministic (the
    // cluster run's delta sizes depend on kill timing).  These are the
    // rows the CI <25%-bytes acceptance gate reads.
    {
      const std::string mdir = cfg.snapshot_dir + "_measure";
      const ProblemInputs min = BuildInputs(cfg);  // same deterministic graph
      uint64_t full_bytes = 0, delta_bytes = 0;
      double full_seconds = 0, delta_seconds = 0, dirty_fraction = 0;
      rpc::ClusterOptions mopts;
      mopts.num_machines = 1;
      mopts.threads_per_machine = 1;
      {
        rpc::Runtime mruntime(mopts);
        mruntime.Run([&](rpc::MachineContext& mctx) {
          DGraph g;
          std::vector<rpc::MachineId> all_here(min.num_atoms, 0);
          GL_CHECK_OK(g.InitFromGlobal(min.global, min.atom_of, min.colors,
                                       all_here, 0, &mctx.comm()));
          SnapshotManager<PageRankVertex, PageRankEdge> snap(mctx, &g, mdir);
          Timer tf;
          GL_CHECK_OK(snap.WriteSyncSnapshot(1));
          full_seconds = tf.Seconds();
          full_bytes = snap.last_checkpoint_bytes();
          for (LocalVid l : g.owned_vertices()) {
            if (g.Gvid(l) % 13 != 0) continue;  // ~8% of vertices
            g.vertex_data(l).rank += 1e-3;
            g.MarkVertexModified(l);
          }
          dirty_fraction = snap.DirtyFraction();
          Timer td;
          GL_CHECK_OK(snap.WriteDeltaSnapshot(2));
          delta_seconds = td.Seconds();
          delta_bytes = snap.last_checkpoint_bytes();
        });
      }
      std::error_code mec;
      std::filesystem::remove_all(mdir, mec);
      recovery.AddRow()
          .Set("row", "checkpoint_full")
          .Set("bytes", full_bytes)
          .Set("seconds", full_seconds)
          .Set("dirty_fraction", 1.0);
      recovery.AddRow()
          .Set("row", "checkpoint_delta")
          .Set("bytes", delta_bytes)
          .Set("seconds", delta_seconds)
          .Set("dirty_fraction", dirty_fraction);
      std::printf(
          "checkpoint bytes: full=%llu delta=%llu (dirty_fraction=%.4f, "
          "ratio=%.4f)\n",
          static_cast<unsigned long long>(full_bytes),
          static_cast<unsigned long long>(delta_bytes), dirty_fraction,
          full_bytes > 0
              ? static_cast<double>(delta_bytes) / static_cast<double>(
                                                       full_bytes)
              : 0.0);
    }
    recovery.WriteFile(cfg.recovery_json);

    // The chaos run must actually have recovered (a kill that landed
    // after convergence proves nothing).
    if (chaos && !recovered) {
      std::fprintf(stderr,
                   wire.last_machine_down
                       ? "[chaos] the survivors did not reach parity\n"
                       : "[chaos] the victim outlived the run — increase "
                         "--vertices or lower --kill-worker-after-ms\n");
      exit_code = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(cfg.snapshot_dir, ec);
  }

  if (!parity) exit_code = 1;
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--transport=tcp|sim] [--machines=N] [--vertices=V]\n"
          "  core:          --threads=T --port-base=P --json=FILE\n"
          "                 --partitioner=random|block|striped|bfs|greedy|"
          "refined\n"
          "  fault tol.:    --ft --kill-worker-after-ms=N\n"
          "                 --kill-in-checkpoint-write=K "
          "--checkpoint-interval=SEC\n"
          "                 --mtbf=SEC --snapshot-dir=PATH --tolerance=T\n"
          "  rebalancing:   --rebalance-at-boundary=B --rebalance-every=N\n"
          "                 --rebalance-skew=S "
          "--rebalance-signal=updates|bytes\n"
          "  observability: --metrics-report --metrics-json=FILE\n"
          "                 --trace-out=FILE --trace-categories=LIST "
          "--trace-buffer=N\n"
          "                   (the coordinator writes FILE, each worker\n"
          "                    FILE.m<id>, and over TCP the coordinator\n"
          "                    merges all of them — worker timestamps\n"
          "                    shifted by the estimated clock offsets —\n"
          "                    into FILE.cluster.json)\n"
          "  telemetry:     --telemetry-report --telemetry-out=FILE.jsonl\n"
          "                 --telemetry-interval-ms=N\n"
          "  chaos:         --straggle-machine=M --straggle-us=U\n"
          "                   (busy-spin U us per update on machine M,\n"
          "                    default the last machine, so the health\n"
          "                    monitor must flag it as a straggler)\n",
          argv[0]);
      return 0;
    }
  }
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  Config cfg;
  cfg.transport = opts.GetString("transport", cfg.transport);
  cfg.role = opts.GetString("role", cfg.role);
  cfg.machines = static_cast<size_t>(opts.GetInt("machines", cfg.machines));
  cfg.machine_id =
      static_cast<rpc::MachineId>(opts.GetInt("machine-id", 0));
  cfg.vertices = static_cast<size_t>(opts.GetInt("vertices", cfg.vertices));
  cfg.threads = static_cast<size_t>(opts.GetInt("threads", cfg.threads));
  cfg.port_base =
      static_cast<uint16_t>(opts.GetInt("port-base", cfg.port_base));
  cfg.json = opts.GetString("json", cfg.json);
  cfg.recovery_json = opts.GetString("recovery-json", cfg.recovery_json);
  cfg.kill_worker_after_ms = static_cast<uint64_t>(
      opts.GetInt("kill-worker-after-ms", 0));
  cfg.kill_in_checkpoint_write = static_cast<uint64_t>(
      opts.GetInt("kill-in-checkpoint-write", 0));
  cfg.partitioner = opts.GetString("partitioner", cfg.partitioner);
  cfg.rebalance_at_boundary = static_cast<uint64_t>(
      opts.GetInt("rebalance-at-boundary", 0));
  cfg.rebalance_every =
      static_cast<uint64_t>(opts.GetInt("rebalance-every", 0));
  cfg.rebalance_skew =
      opts.GetDouble("rebalance-skew", cfg.rebalance_skew);
  cfg.rebalance_signal =
      opts.GetString("rebalance-signal", cfg.rebalance_signal);
  cfg.ft = opts.GetBool("ft", false) || cfg.kill_worker_after_ms > 0 ||
           cfg.kill_in_checkpoint_write > 0 ||
           cfg.rebalance_at_boundary > 0 || cfg.rebalance_every > 0;
  cfg.checkpoint_interval =
      opts.GetDouble("checkpoint-interval", cfg.ft ? 0.2 : 0.0);
  cfg.mtbf = opts.GetDouble("mtbf", 0.0);
  cfg.snapshot_dir = opts.GetString("snapshot-dir", cfg.snapshot_dir);
  // FT parity compares two differently-scheduled runs; they agree at the
  // fixed point only under a tight residual tolerance.
  cfg.tolerance = opts.GetDouble("tolerance", cfg.ft ? 1e-13 : 1e-10);
  cfg.metrics_report = opts.GetBool("metrics-report", false);
  cfg.metrics_json = opts.GetString("metrics-json", cfg.metrics_json);
  cfg.trace_out = opts.GetString("trace-out", cfg.trace_out);
  cfg.trace_categories =
      opts.GetString("trace-categories", cfg.trace_categories);
  cfg.trace_buffer = static_cast<size_t>(opts.GetInt(
      "trace-buffer", static_cast<int64_t>(cfg.trace_buffer)));
  cfg.telemetry = opts.GetBool("telemetry", false);
  cfg.telemetry_report = opts.GetBool("telemetry-report", false);
  cfg.telemetry_out = opts.GetString("telemetry-out", cfg.telemetry_out);
  cfg.telemetry_interval_ms = static_cast<uint64_t>(opts.GetInt(
      "telemetry-interval-ms",
      static_cast<int64_t>(cfg.telemetry_interval_ms)));
  cfg.straggle_machine =
      opts.GetInt("straggle-machine", cfg.straggle_machine);
  cfg.straggle_us =
      static_cast<uint64_t>(opts.GetInt("straggle-us", 0));
  GL_CHECK_GE(cfg.machines, 1u);

  if (cfg.role == "worker") return RunWorker(cfg);
  return RunCoordinator(cfg);
}
