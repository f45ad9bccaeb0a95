// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// CompileVertexProgram: lowers a gather-apply-scatter vertex program into
// an ordinary update function, so GAS programs run unmodified through
// every CreateEngine() strategy (shared_memory, bsp, chromatic, locking,
// bulk_sync) under that engine's consistency model.  The compiled
// function executes entirely inside the scope the engine locked, so the
// engine's consistency guarantees carry over phase by phase: gather's
// neighbor reads are the shared reads of edge consistency, apply's
// center write is the exclusive write, scatter's edge writes stay inside
// the scope.
//
// There is one gather path: every update folds its declared gather edges
// fresh, which the flat columnar path below makes a streamed read.  Ghost
// replicas, kept coherent by the graph's data versioning (Sec. 4.1), are
// the only cached state.

#ifndef GRAPHLAB_VERTEX_PROGRAM_GAS_COMPILER_H_
#define GRAPHLAB_VERTEX_PROGRAM_GAS_COMPILER_H_

#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>

#include "graphlab/engine/iengine.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/util/logging.h"
#include "graphlab/vertex_program/gas_context.h"
#include "graphlab/vertex_program/ivertex_program.h"

namespace graphlab {

/// The duck-typed program requirements (see ivertex_program.h for the
/// semantics).  Deriving from IVertexProgram satisfies everything except
/// gather() and apply().
template <typename P>
concept GasVertexProgram = requires(
    P p, GasContext<typename P::graph_type, typename P::gather_type>& ctx,
    typename P::gather_type acc, LocalEid e) {
  requires std::default_initializable<typename P::gather_type>;
  requires std::copy_constructible<P>;
  { p.gather_edges(ctx) } -> std::same_as<EdgeDirection>;
  { p.gather(ctx, e) } -> std::convertible_to<typename P::gather_type>;
  p.apply(ctx, acc);
  { p.scatter_edges(ctx) } -> std::same_as<EdgeDirection>;
  p.scatter(ctx, e);
  acc += acc;
};

/// Opt-in flat gather kernel: a program additionally provides
///
///   gather_type FlatGather(const vertex_data_type& neighbor,
///                          const edge_data_type& edge) const;
///
/// computing the same value its gather() computes from the non-central
/// endpoint's vertex data and the edge's data alone (no context).  On a
/// graph whose properties are contiguous columns the compiler then lowers
/// the gather fold to a tight loop over the columns — branch-light (no
/// phase/consistency checks per read), allocation-free, and plain enough
/// for the auto-vectorizer (bench/columnar_kernels.cc carries the
/// -fopt-info-vec evidence).  Fold order is identical to the generic path
/// (in-edges then out-edges, CSR order), so results are bit-identical.
template <typename P>
concept FlatGatherProgram =
    GasVertexProgram<P> &&
    requires(const P p,
             const typename P::graph_type::vertex_data_type& neighbor,
             const typename P::graph_type::edge_data_type& edge) {
      { p.FlatGather(neighbor, edge) }
          -> std::convertible_to<typename P::gather_type>;
    };

/// Graphs whose property storage the flat path can stream: contiguous
/// property and endpoint columns behind span accessors.
template <typename G>
concept ContiguousPropertyGraph = requires(const G& g) {
  g.vertex_data_span();
  g.edge_data_span();
  g.edge_source_span();
  g.edge_target_span();
};

/// Counters for one compiled program (per machine on distributed runs).
struct GasStats {
  uint64_t updates = 0;          // compiled update executions
  uint64_t edges_gathered = 0;   // per-edge gather() calls
  uint64_t edges_scattered = 0;  // per-edge scatter() calls
};

namespace detail {

template <GasVertexProgram Program>
struct GasState {
  using Graph = typename Program::graph_type;

  GasState(Program proto, Graph* g) : prototype(std::move(proto)), graph(g) {}

  Program prototype;
  Graph* graph;
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> edges_gathered{0};
  std::atomic<uint64_t> edges_scattered{0};
};

/// One compiled GAS update: gather -> apply -> scatter.  Runs inside the
/// engine-locked scope.
template <GasVertexProgram Program>
void RunGasUpdate(GasState<Program>& st,
                  Context<typename Program::graph_type>& ctx) {
  using Graph = typename Program::graph_type;
  using GatherT = typename Program::gather_type;
  constexpr auto kRelaxed = std::memory_order_relaxed;

  Program program = st.prototype;  // per-update copy: apply->scatter state
  GasContext<Graph, GatherT> gas(&ctx);

  // -- gather ---------------------------------------------------------
  gas.BeginPhase(GasPhase::kGather);
  GL_TRACE_BEGIN(trace::kGas, "gas.gather");
  const EdgeDirection gather_dir = program.gather_edges(gas);
  GatherT total{};
  uint64_t folded = 0;
  if constexpr (FlatGatherProgram<Program> && ContiguousPropertyGraph<Graph>) {
    // Flat fast path: stream the property columns directly.  Same fold
    // order and arithmetic as the generic path below, minus the per-read
    // context dispatch — bit-identical results, vectorizable inner loop
    // (see FlatGatherFold in bench/columnar_kernels.h for the standalone
    // kernel this mirrors).
    const auto* const vdata = st.graph->vertex_data_span().data();
    const auto* const edata = st.graph->edge_data_span().data();
    const auto* const esrc = st.graph->edge_source_span().data();
    const auto* const edst = st.graph->edge_target_span().data();
    if (CoversInEdges(gather_dir)) {
      const auto in = ctx.in_edges();
      for (auto e : in) {
        total += program.FlatGather(vdata[esrc[e]], edata[e]);
      }
      folded += in.size();
    }
    if (CoversOutEdges(gather_dir)) {
      const auto out = ctx.out_edges();
      for (auto e : out) {
        total += program.FlatGather(vdata[edst[e]], edata[e]);
      }
      folded += out.size();
    }
  } else {
    if (CoversInEdges(gather_dir)) {
      for (LocalEid e : ctx.in_edges()) {
        total += program.gather(gas, e);
        folded++;
      }
    }
    if (CoversOutEdges(gather_dir)) {
      for (LocalEid e : ctx.out_edges()) {
        total += program.gather(gas, e);
        folded++;
      }
    }
  }
  st.edges_gathered.fetch_add(folded, kRelaxed);
  GL_TRACE_END(trace::kGas, "gas.gather");

  // -- apply ----------------------------------------------------------
  gas.BeginPhase(GasPhase::kApply);
  GL_TRACE_BEGIN(trace::kGas, "gas.apply");
  program.apply(gas, total);
  GL_TRACE_END(trace::kGas, "gas.apply");

  // -- scatter --------------------------------------------------------
  gas.BeginPhase(GasPhase::kScatter);
  GL_TRACE_BEGIN(trace::kGas, "gas.scatter");
  const EdgeDirection scatter_dir = program.scatter_edges(gas);
  uint64_t scattered = 0;
  if (CoversOutEdges(scatter_dir)) {
    for (LocalEid e : ctx.out_edges()) {
      program.scatter(gas, e);
      scattered++;
    }
  }
  if (CoversInEdges(scatter_dir)) {
    for (LocalEid e : ctx.in_edges()) {
      program.scatter(gas, e);
      scattered++;
    }
  }
  st.edges_scattered.fetch_add(scattered, kRelaxed);
  GL_TRACE_END(trace::kGas, "gas.scatter");
  st.updates.fetch_add(1, kRelaxed);
}

}  // namespace detail

/// Handle to a compiled program: hand update_fn() to any engine, read
/// stats() afterwards.  Copies share the underlying state; the update
/// function keeps the state alive on its own, so the handle may be
/// dropped before the engine runs.
template <GasVertexProgram Program>
class CompiledVertexProgram {
 public:
  using graph_type = typename Program::graph_type;
  using gather_type = typename Program::gather_type;

  /// True when this compilation lowered the gather fold to the flat
  /// column-streaming path (program provides FlatGather AND the graph
  /// stores properties as contiguous columns).
  static constexpr bool kUsesFlatGather =
      FlatGatherProgram<Program> && ContiguousPropertyGraph<graph_type>;

  explicit CompiledVertexProgram(std::shared_ptr<detail::GasState<Program>> s)
      : state_(std::move(s)) {}

  bool uses_flat_gather() const { return kUsesFlatGather; }

  /// The ordinary update function every IEngine accepts.
  UpdateFn<graph_type> update_fn() const {
    auto state = state_;
    return [state](Context<graph_type>& ctx) {
      detail::RunGasUpdate(*state, ctx);
    };
  }

  GasStats stats() const {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    GasStats s;
    s.updates = state_->updates.load(kRelaxed);
    s.edges_gathered = state_->edges_gathered.load(kRelaxed);
    s.edges_scattered = state_->edges_scattered.load(kRelaxed);
    return s;
  }

 private:
  std::shared_ptr<detail::GasState<Program>> state_;
};

/// Compiles `prototype` against a (finalized / initialized) graph.  One
/// compiled program per machine on distributed runs — stats are
/// machine-local, like the graph.
template <GasVertexProgram Program>
CompiledVertexProgram<Program> CompileVertexProgram(
    typename Program::graph_type* graph, Program prototype = Program{}) {
  GL_CHECK(graph != nullptr);
  return CompiledVertexProgram<Program>(
      std::make_shared<detail::GasState<Program>>(std::move(prototype),
                                                  graph));
}

}  // namespace graphlab

#endif  // GRAPHLAB_VERTEX_PROGRAM_GAS_COMPILER_H_
