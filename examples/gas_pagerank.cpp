// GAS PageRank: the vertex-program API end to end on one machine.
//
// Demonstrates writing a gather-apply-scatter program (the library's
// apps::PageRankProgram), compiling it onto an engine picked by name, and
// reading the compiled program's gather/scatter counters.  Runs the same
// workload two ways — classic handwritten update function and GAS
// program — and reports the cost and accuracy of each, so the GAS
// abstraction's overhead is visible in one screen of output.
//
// Usage: ./example_gas_pagerank [--vertices=20000] [--engine=shared_memory]
//                               [--scheduler=fifo] [--tolerance=1e-6]

#include <cstdio>
#include <string>

#include "graphlab/apps/pagerank.h"
#include "graphlab/graphlab.h"

using namespace graphlab;  // NOLINT — example brevity

namespace {

void PrintUsage() {
  std::printf(
      "GAS PageRank demo (single machine).\n"
      "  --vertices=N     web graph size          (default 20000)\n"
      "  --engine=NAME    execution strategy: %s  (default shared_memory)\n"
      "  --scheduler=NAME task ordering: %s       (default engine's)\n"
      "  --tolerance=T    residual threshold      (default 1e-6)\n",
      JoinNames(ListLocalEngineNames()).c_str(),
      JoinedSchedulerNames().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  OptionMap opts;
  opts.ParseArgs(argc, argv);
  if (opts.Has("help")) {
    PrintUsage();
    return 0;
  }
  const uint64_t n = opts.GetInt("vertices", 20000);
  const std::string engine_kind = opts.GetString("engine", "shared_memory");
  const std::string scheduler = opts.GetString("scheduler", "");
  const double tolerance = opts.GetDouble("tolerance", 1e-6);

  GraphStructure web = gen::PowerLawWeb(n, 8, 0.85, /*seed=*/1);
  auto reference = apps::BuildPageRankGraph(web);
  auto exact = apps::ExactPageRank(reference);
  std::printf("web graph: %zu vertices, %zu edges; engine=%s\n",
              reference.num_vertices(), reference.num_edges(),
              engine_kind.c_str());
  std::printf("%-22s %10s %9s %12s %10s\n", "variant", "updates", "wall_s",
              "us/update", "L1_error");

  EngineOptions eo;
  eo.num_threads = 2;
  eo.scheduler = scheduler;

  auto report = [&](const char* variant, const apps::PageRankGraph& g,
                    const RunResult& r) {
    std::printf("%-22s %10llu %9.3f %12.3f %10.2e\n", variant,
                static_cast<unsigned long long>(r.updates), r.seconds,
                r.updates == 0 ? 0.0 : 1e6 * r.busy_seconds / r.updates,
                apps::PageRankL1Error(g, exact));
  };

  // 1. The classic handwritten update function (Alg. 1).
  {
    auto g = apps::BuildPageRankGraph(web);
    auto r = apps::SolvePageRank(&g, engine_kind, eo, 0.85, tolerance);
    if (!r.ok()) {
      std::printf("cannot run: %s\n", r.status().ToString().c_str());
      PrintUsage();
      return 1;
    }
    report("classic update fn", g, r.value());
  }

  // 2. The same math as a compiled vertex program.
  {
    auto g = apps::BuildPageRankGraph(web);
    GasStats stats;
    auto r = apps::SolveGasPageRank(&g, engine_kind, eo, 0.85, tolerance,
                                    &stats);
    GL_CHECK_OK(r.status());
    report("gas program", g, r.value());
    std::printf("  gas: %llu edges gathered, %llu edges scattered\n",
                static_cast<unsigned long long>(stats.edges_gathered),
                static_cast<unsigned long long>(stats.edges_scattered));
  }
  return 0;
}
