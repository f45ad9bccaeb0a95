// Measures what the GAS abstraction costs over a handwritten update
// function.
//
//  E1  PageRank: classic update fn vs compiled GAS program — per-update
//      CPU cost and total update count to convergence.  PageRank's gather
//      is one multiply-add per in-edge, so this is the worst case for GAS
//      dispatch overhead.
//  E2  Loopy BP (K states): the gather folds K-vector message products,
//      so dispatch overhead is a smaller share of each update.
//
// Usage: ./bench_gas_overhead [--vertices=20000] [--threads=2]
//                             [--engine=shared_memory] [--out=FILE]
//                             [--help]
//
// Emits BENCH_gas.json (the gas-overhead perf trajectory artifact the
// bench-smoke CI job validates and uploads).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "bench_json.h"
#include "graphlab/apps/loopy_bp.h"
#include "graphlab/apps/pagerank.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/util/options.h"

namespace graphlab {
namespace {

/// Machine-readable mirror of the console tables (BENCH_gas.json).
bench::JsonWriter* g_json = nullptr;

void PrintRow(const std::string& experiment, const char* variant,
              const RunResult& run) {
  const double us_per_update =
      run.updates == 0 ? 0.0 : 1e6 * run.busy_seconds / run.updates;
  std::printf("%-22s %10llu %9.3f %12.3f\n", variant,
              static_cast<unsigned long long>(run.updates), run.seconds,
              us_per_update);
  g_json->AddRow()
      .Set("experiment", experiment)
      .Set("variant", variant)
      .Set("updates", run.updates)
      .Set("wall_s", run.seconds)
      .Set("us_per_update", us_per_update);
}

void PrintTableHeader() {
  std::printf("%-22s %10s %9s %12s\n", "variant", "updates", "wall_s",
              "us/update");
}

void E1PageRank(uint64_t n, size_t threads, const std::string& engine) {
  bench::PrintHeader("GAS overhead, PageRank (engine=" + engine + ")");
  auto web = gen::PowerLawWeb(n, 8, 0.85, 1);
  EngineOptions eo;
  eo.num_threads = threads;
  PrintTableHeader();

  {
    auto g = apps::BuildPageRankGraph(web);
    auto r = apps::SolvePageRank(&g, engine, eo, 0.85, 1e-6);
    GL_CHECK_OK(r.status());
    PrintRow("pagerank", "classic update fn", r.value());
  }
  {
    auto g = apps::BuildPageRankGraph(web);
    auto r = apps::SolveGasPageRank(&g, engine, eo, 0.85, 1e-6);
    GL_CHECK_OK(r.status());
    PrintRow("pagerank", "gas program", r.value());
  }
}

void E2LoopyBp(uint64_t side, size_t threads, const std::string& engine) {
  bench::PrintHeader("GAS overhead, loopy BP on a " +
                     std::to_string(side) + "x" + std::to_string(side) +
                     " grid, 5 states (engine=" + engine + ")");
  auto structure = gen::Grid2D(side, side);
  EngineOptions eo;
  eo.num_threads = threads;
  apps::PottsPotential psi{1.5};
  PrintTableHeader();

  {
    auto g = apps::BuildMrf(structure, 5, 0.15, 1.2, 7);
    auto r = apps::SolveBp(&g, engine, eo, psi, 1e-5);
    GL_CHECK_OK(r.status());
    PrintRow("loopy_bp", "classic update fn", r.value());
  }
  {
    auto g = apps::BuildMrf(structure, 5, 0.15, 1.2, 7);
    auto r = apps::SolveGasBp(&g, engine, eo, psi, 1e-5);
    GL_CHECK_OK(r.status());
    PrintRow("loopy_bp", "gas program", r.value());
  }
}

}  // namespace
}  // namespace graphlab

int main(int argc, char** argv) {
  graphlab::OptionMap opts;
  opts.ParseArgs(argc, argv);
  if (opts.Has("help")) {
    std::printf(
        "GAS-vs-handwritten overhead bench.\n"
        "  --vertices=N   PageRank graph size (default 20000)\n"
        "  --threads=T    engine workers      (default 2)\n"
        "  --engine=NAME  strategy: %s        (default shared_memory)\n"
        "  --out=FILE     JSON path           (default BENCH_gas.json)\n",
        graphlab::JoinNames(graphlab::ListLocalEngineNames()).c_str());
    return 0;
  }
  const uint64_t n = opts.GetInt("vertices", 20000);
  const size_t threads = opts.GetInt("threads", 2);
  const std::string engine = opts.GetString("engine", "shared_memory");

  graphlab::bench::JsonWriter json("gas");
  json.meta().Set("vertices", n).Set("threads", threads).Set("engine",
                                                             engine);
  graphlab::g_json = &json;
  graphlab::E1PageRank(n, threads, engine);
  graphlab::E2LoopyBp(60, threads, engine);
  json.WriteFile(opts.GetString("out", ""));
  return 0;
}
