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
// Delta caching (EngineOptions::gather_cache): each vertex caches its
// accumulated gather total.  A hit skips the whole gather fold; the cache
// is kept truthful three ways:
//
//   1. Scatter-side maintenance — PostDelta(v, d) folds a neighbor's
//      change straight into v's cached total; ClearGatherCache(v) drops
//      it.  Both exempt v from (2).
//   2. Compiler invalidation — after scatter, any neighbor the program
//      did NOT handle whose cached gather read something this update
//      wrote (the central vertex, a shared edge) has its slot cleared.
//      The slot remembers the direction its gather covered, so e.g. a
//      changed central vertex only invalidates in-neighbors that gather
//      over out-edges.
//   3. Coherence invalidation — on DistributedGraph, the versioned ghost
//      push (ApplyDataPush) reports every replica it overwrote through
//      SetCoherenceListener; the compiler clears the slots of local
//      vertices whose cached gather read that replica.  Slot epochs close
//      the race with an in-flight gather on a worker thread: a deposit
//      that started before the invalidation is discarded.
//
// Caching contract for programs: with caching on, (a) gather must be a
// function of edge and neighbor data only — never of the central
// vertex's own data.  The compiler cannot observe such a dependency
// (apply rewrites the center after the total is deposited), so a
// center-reading gather would be reused stale.  And (b) a scatter that
// writes the same edge *fields* its own gather reads must call
// ClearGatherCache(lvid()) — mechanism (2) protects neighbors, not the
// center's own slot, because invalidating it on every same-edge write
// would defeat caching for programs like BP whose gather and scatter
// touch disjoint fields (msg in vs. msg out) of the same edges.  All
// other staleness is handled by (1)-(3) automatically.

#ifndef GRAPHLAB_VERTEX_PROGRAM_GAS_COMPILER_H_
#define GRAPHLAB_VERTEX_PROGRAM_GAS_COMPILER_H_

#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "graphlab/engine/iengine.h"
#include "graphlab/metrics/metrics.h"
#include "graphlab/metrics/trace_event.h"
#include "graphlab/util/logging.h"
#include "graphlab/vertex_program/gas_context.h"
#include "graphlab/vertex_program/gather_cache.h"
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
  uint64_t full_gathers = 0;     // gathers that walked the edges
  uint64_t cache_hits = 0;       // gathers answered by the delta cache
  uint64_t edges_gathered = 0;   // per-edge gather() calls
  uint64_t edges_scattered = 0;  // per-edge scatter() calls
  GatherCacheStats cache;        // delta-cache internals

  /// Fraction of gathers the cache absorbed.
  double cache_hit_rate() const {
    const uint64_t total = full_gathers + cache_hits;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

namespace detail {

template <GasVertexProgram Program>
struct GasState {
  using Graph = typename Program::graph_type;
  using GatherT = typename Program::gather_type;

  GasState(Program proto, Graph* g, bool enable_cache, size_t num_slots)
      : prototype(std::move(proto)), graph(g) {
    if (enable_cache) cache = std::make_unique<GatherCache<GatherT>>(num_slots);
  }

  Program prototype;
  Graph* graph;
  std::unique_ptr<GatherCache<GatherT>> cache;  // null = caching off
  // Hit/full-gather counts are not tracked here: with caching on they
  // are exactly the cache's hits / (deposits + stale_deposits), and
  // with caching off every update gathers fresh — GasStats derives
  // them, keeping one source of truth and the hot path free of
  // redundant atomics.
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> edges_gathered{0};
  std::atomic<uint64_t> edges_scattered{0};

  // Registry-backed mirrors (cluster aggregation reads these through the
  // machine's MetricsRegistry); null when no registry was resolved.
  metrics::Counter* cache_hits_metric = nullptr;
  metrics::Counter* full_gathers_metric = nullptr;
};

/// Clears every cached gather that read entity data reachable from
/// `l` — used when a ghost-coherence push overwrote l's replica data.
template <GasVertexProgram Program>
void InvalidateGathersAdjacentTo(GasState<Program>& st, LocalVid l) {
  for (LocalEid e : st.graph->out_edges(l)) {
    // The changed vertex is the source: its out-neighbors read it
    // through one of *their* in-edges.
    st.cache->InvalidateIfCovers(st.graph->edge_target(e),
                                 /*reached_via_in_edge=*/true);
  }
  for (LocalEid e : st.graph->in_edges(l)) {
    st.cache->InvalidateIfCovers(st.graph->edge_source(e),
                                 /*reached_via_in_edge=*/false);
  }
}

/// One compiled GAS update: gather (or cache hit) -> apply -> scatter ->
/// dependency-aware invalidation.  Runs inside the engine-locked scope.
template <GasVertexProgram Program>
void RunGasUpdate(GasState<Program>& st,
                  Context<typename Program::graph_type>& ctx) {
  using Graph = typename Program::graph_type;
  using GatherT = typename Program::gather_type;
  constexpr auto kRelaxed = std::memory_order_relaxed;

  const LocalVid v = ctx.lvid();
  Program program = st.prototype;  // per-update copy: apply->scatter state
  // Per-thread ledger scratch: a GAS update allocates nothing after the
  // first few updates warmed these up.
  thread_local std::vector<LocalEid> written_scratch;
  thread_local std::vector<LocalVid> handled_scratch;
  GasContext<Graph, GatherT> gas(&ctx, st.cache.get(), &written_scratch,
                                 &handled_scratch);

  // -- gather ---------------------------------------------------------
  gas.BeginPhase(GasPhase::kGather);
  GL_TRACE_BEGIN(trace::kGas, "gas.gather");
  const EdgeDirection gather_dir = program.gather_edges(gas);
  GatherT total{};
  bool hit = false;
  uint64_t miss_epoch = 0;
  if (st.cache) hit = st.cache->TryGet(v, gather_dir, &total, &miss_epoch);
  if (hit) {
    if (st.cache_hits_metric != nullptr) st.cache_hits_metric->Inc();
  } else {
    if (st.full_gathers_metric != nullptr) st.full_gathers_metric->Inc();
    uint64_t folded = 0;
    if constexpr (FlatGatherProgram<Program> &&
                  ContiguousPropertyGraph<Graph>) {
      // Flat fast path: stream the property columns directly.  Same fold
      // order and arithmetic as the generic path below, minus the
      // per-read context dispatch — bit-identical results, vectorizable
      // inner loop (see FlatGatherFold in bench/columnar_kernels.h for
      // the standalone kernel this mirrors).
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
    if (st.cache) st.cache->Deposit(v, total, gather_dir, miss_epoch);
  }
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

  // -- invalidate what this update made stale -------------------------
  // A neighbor's cached gather is stale iff it read an entity this
  // update wrote (the center, or the connecting edge) and the scatter
  // did not already account for the change via PostDelta/Clear.
  if (st.cache) {
    gas.FinalizeLedger();
    for (LocalEid e : ctx.out_edges()) {
      const LocalVid n = ctx.edge_target(e);
      if (gas.handled(n)) continue;
      if (!gas.center_written() && !gas.edge_written(e)) continue;
      st.cache->InvalidateIfCovers(n, /*reached_via_in_edge=*/true);
    }
    for (LocalEid e : ctx.in_edges()) {
      const LocalVid n = ctx.edge_source(e);
      if (gas.handled(n)) continue;
      if (!gas.center_written() && !gas.edge_written(e)) continue;
      st.cache->InvalidateIfCovers(n, /*reached_via_in_edge=*/false);
    }
  }
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

  bool caching_enabled() const { return state_->cache != nullptr; }

  /// Direct cache access for tests; null when caching is off.
  GatherCache<gather_type>* cache() { return state_->cache.get(); }

  GasStats stats() const {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    GasStats s;
    s.updates = state_->updates.load(kRelaxed);
    s.edges_gathered = state_->edges_gathered.load(kRelaxed);
    s.edges_scattered = state_->edges_scattered.load(kRelaxed);
    if (state_->cache) {
      s.cache = state_->cache->stats();
      s.cache_hits = s.cache.hits;
      s.full_gathers = s.cache.deposits + s.cache.stale_deposits;
    } else {
      s.cache_hits = 0;
      s.full_gathers = s.updates;
    }
    return s;
  }

 private:
  std::shared_ptr<detail::GasState<Program>> state_;
};

/// Compiles `prototype` against a (finalized / initialized) graph.  Reads
/// EngineOptions::gather_cache; everything else in the options is the
/// engine's business.  One compiled program per machine on distributed
/// runs — stats and cache are machine-local, like the graph.
///
/// On graphs with versioned ghost coherence this installs the graph's
/// coherence listener (replacing any previous one) so remote writes
/// invalidate dependent cached gathers; the listener shares ownership of
/// the program state and stays installed for the graph's lifetime.
template <GasVertexProgram Program>
CompiledVertexProgram<Program> CompileVertexProgram(
    typename Program::graph_type* graph, const EngineOptions& options,
    Program prototype = Program{}) {
  using Graph = typename Program::graph_type;
  GL_CHECK(graph != nullptr);

  size_t num_slots = 0;
  if constexpr (requires { graph->num_local_vertices(); }) {
    num_slots = graph->num_local_vertices();
  } else {
    num_slots = graph->num_vertices();
  }

  auto state = std::make_shared<detail::GasState<Program>>(
      std::move(prototype), graph, options.gather_cache, num_slots);

  // Same resolution rule as EngineBase: an explicit EngineOptions::metrics
  // namespace wins, otherwise the process-global registry.  Cluster
  // aggregation then reports the cache's effectiveness per machine.
  metrics::MetricsRegistry* reg =
      options.metrics != nullptr ? options.metrics : metrics::Default();
  state->cache_hits_metric = reg->counter("gas.cache_hits");
  state->full_gathers_metric = reg->counter("gas.full_gathers");

  if constexpr (requires {
                  graph->SetCoherenceListener(
                      std::function<void(LocalVid)>{},
                      std::function<void(LocalEid)>{});
                }) {
    if (options.gather_cache) {
      graph->SetCoherenceListener(
          [state](LocalVid l) {
            detail::InvalidateGathersAdjacentTo(*state, l);
          },
          [state](LocalEid e) {
            // A pushed edge is read by its source through an out-edge
            // and by its target through an in-edge.
            Graph* g = state->graph;
            state->cache->InvalidateIfCovers(g->edge_source(e),
                                             /*reached_via_in_edge=*/false);
            state->cache->InvalidateIfCovers(g->edge_target(e),
                                             /*reached_via_in_edge=*/true);
          });
    } else {
      // Recompiling without caching must drop a predecessor program's
      // listener, or ghost pushes keep walking (and pinning) its dead
      // cache for the graph's lifetime.
      graph->SetCoherenceListener({}, {});
    }
  }
  return CompiledVertexProgram<Program>(std::move(state));
}

}  // namespace graphlab

#endif  // GRAPHLAB_VERTEX_PROGRAM_GAS_COMPILER_H_
