// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Chrome-trace event tracing for the runtime's timeline view.
//
// Per-thread ring buffers collect begin/end/instant events emitted from
// engine phase boundaries (color-steps, supersteps, gather/apply/scatter),
// scheduler steals, transport sends and dispatches, and the
// fault state machine (heartbeat miss -> rendezvous -> drain -> rebuild ->
// restore -> resume).  WriteChromeTrace() merges the buffers into Chrome
// `chrome://tracing` / Perfetto JSON ("trace event format", JSON object
// flavor) — open the file at https://ui.perfetto.dev.
//
// Overhead discipline, layered:
//   * Compile-time: building with -DGRAPHLAB_TRACING=0 (CMake option
//     GRAPHLAB_TRACING=OFF) expands every GL_TRACE_* macro to nothing —
//     bit-identical fast paths.
//   * Runtime: tracing is off by default; an emitted event first checks
//     the enabled-category bitmask (one relaxed load + branch) and only
//     then pays the buffer append (one uncontended per-thread mutex).
//
// Event names and argument names must be string literals (the buffer
// stores the pointers, not copies).  `pid` in the emitted JSON is the
// machine id (per-thread override falling back to the process default —
// exact in multi-process TCP deployments, where one process is one
// machine).

#ifndef GRAPHLAB_METRICS_TRACE_EVENT_H_
#define GRAPHLAB_METRICS_TRACE_EVENT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "graphlab/util/status.h"

// Compile-time kill switch: -DGRAPHLAB_TRACING=0 removes every trace
// statement from the build.
#ifndef GRAPHLAB_TRACING
#define GRAPHLAB_TRACING 1
#endif

namespace graphlab {
namespace trace {

/// Event categories; the runtime filter is a bitmask of these.
enum Category : uint32_t {
  kEngine = 1u << 0,    // color-steps, supersteps, sweeps, drains
  kSched = 1u << 1,     // scheduler steals
  kRpc = 1u << 2,       // transport send/dispatch
  // 1u << 3 is unassigned.
  kFault = 1u << 4,     // heartbeats, recovery state machine, checkpoints
  kSnapshot = 1u << 5,  // snapshot journal writes
  kHealth = 1u << 6,    // online health monitor detections
  kAll = ~0u,
};

const char* CategoryName(Category c);

/// Parses a comma-separated category list ("engine,rpc,fault"); "all" (or
/// "*") enables everything, unknown names are ignored with a warning.
uint32_t ParseCategories(const std::string& spec);

/// Enables emission for the given category mask (0 disables).  Cheap to
/// call at any time; emitted events are dropped while their category bit
/// is clear.
void EnableCategories(uint32_t mask);
uint32_t EnabledCategories();

inline bool Enabled(Category c);

/// Ring capacity per thread, in events.  Set before the first event on
/// each thread (buffers size themselves at first emission).
void SetBufferCapacity(size_t events);

/// The machine id stamped as `pid` on events emitted by threads without
/// an explicit MachineScope.  One process == one machine over TCP, so the
/// multi-process launcher sets this once at startup.
void SetProcessMachineId(uint32_t machine);

/// Per-thread machine-id override for in-process clusters (simulated
/// transport), where one process hosts many machines.
class MachineScope {
 public:
  explicit MachineScope(uint32_t machine);
  ~MachineScope();
  MachineScope(const MachineScope&) = delete;
  MachineScope& operator=(const MachineScope&) = delete;

 private:
  uint32_t previous_;
  bool had_previous_;
};

/// Drops every buffered event (all threads).  Between benchmark phases.
void Clear();

/// Merges all thread buffers and writes Chrome trace JSON to `path`.
/// Safe to call while threads are still emitting (buffers are locked one
/// at a time); the result is a consistent point-in-time cut.  The file's
/// top-level "metadata" object records the ring-eviction count
/// (dropped_events) and any clock offsets registered below, so a
/// truncated or multi-machine timeline is self-describing.
Status WriteChromeTrace(const std::string& path);

/// Number of events currently buffered across all threads (tests).
size_t BufferedEventCount();

/// Events evicted from the per-thread rings by wrap since the last
/// Clear(), across all threads.  Callers mirror this into the
/// trace.dropped_events metric so truncation shows up in cluster
/// telemetry, not just in the trace file itself.
uint64_t DroppedEventCount();

/// Records the estimated clock offset of a peer machine's steady clock
/// relative to this process (remote - local, nanoseconds), emitted into
/// the trace "metadata" so the coordinator's cluster merge can align
/// worker timelines.
void SetPeerClockOffsetNs(uint32_t machine, int64_t offset_ns);

// ---------------------------------------------------------------------
// Emission (internal; use the GL_TRACE_* macros)
// ---------------------------------------------------------------------

namespace internal {

extern std::atomic<uint32_t> g_enabled_categories;

/// `name`/`arg_name` must be string literals.
void Emit(Category cat, char phase, const char* name, const char* arg_name,
          uint64_t arg_value);

/// Flow-event emission ('s' at the producer, 'f' at the consumer) with a
/// cluster-unique flow id, drawn in Chrome/Perfetto as an arrow between
/// the two machines' timelines.  `name` must be a string literal.
void EmitFlow(Category cat, char phase, const char* name, uint64_t flow_id);

/// RAII begin/end pair.  Latches the enabled check at construction so the
/// end event always pairs the begin even if the filter changes mid-span.
class ScopedEvent {
 public:
  ScopedEvent(Category cat, const char* name, const char* arg_name = nullptr,
              uint64_t arg_value = 0)
      : cat_(cat), name_(name), emitted_(Enabled(cat)) {
    if (emitted_) Emit(cat, 'B', name, arg_name, arg_value);
  }
  ~ScopedEvent() {
    if (emitted_) Emit(cat_, 'E', name_, nullptr, 0);
  }
  ScopedEvent(const ScopedEvent&) = delete;
  ScopedEvent& operator=(const ScopedEvent&) = delete;

 private:
  Category cat_;
  const char* name_;
  bool emitted_;
};

}  // namespace internal

inline bool Enabled(Category c) {
  return (internal::g_enabled_categories.load(std::memory_order_relaxed) &
          static_cast<uint32_t>(c)) != 0;
}

}  // namespace trace
}  // namespace graphlab

#if GRAPHLAB_TRACING

#define GL_TRACE_TOKEN_PASTE2(a, b) a##b
#define GL_TRACE_TOKEN_PASTE(a, b) GL_TRACE_TOKEN_PASTE2(a, b)

/// Paired begin/end span covering the enclosing scope.
#define GL_TRACE_SCOPE(cat, name)                                           \
  ::graphlab::trace::internal::ScopedEvent GL_TRACE_TOKEN_PASTE(            \
      gl_trace_scope_, __LINE__)(cat, name)

/// Span with one integer argument on the begin event.
#define GL_TRACE_SCOPE1(cat, name, arg_name, arg_value)                     \
  ::graphlab::trace::internal::ScopedEvent GL_TRACE_TOKEN_PASTE(            \
      gl_trace_scope_, __LINE__)(cat, name, arg_name,                       \
                                 static_cast<uint64_t>(arg_value))

/// Unpaired begin/end for spans that cross scope boundaries.
#define GL_TRACE_BEGIN(cat, name)                                           \
  do {                                                                      \
    if (::graphlab::trace::Enabled(cat))                                    \
      ::graphlab::trace::internal::Emit(cat, 'B', name, nullptr, 0);        \
  } while (0)
#define GL_TRACE_END(cat, name)                                             \
  do {                                                                      \
    if (::graphlab::trace::Enabled(cat))                                    \
      ::graphlab::trace::internal::Emit(cat, 'E', name, nullptr, 0);        \
  } while (0)

/// Point-in-time marker.
#define GL_TRACE_INSTANT(cat, name)                                         \
  do {                                                                      \
    if (::graphlab::trace::Enabled(cat))                                    \
      ::graphlab::trace::internal::Emit(cat, 'i', name, nullptr, 0);        \
  } while (0)
#define GL_TRACE_INSTANT1(cat, name, arg_name, arg_value)                   \
  do {                                                                      \
    if (::graphlab::trace::Enabled(cat))                                    \
      ::graphlab::trace::internal::Emit(cat, 'i', name, arg_name,           \
                                        static_cast<uint64_t>(arg_value));  \
  } while (0)

/// Causal flow: SEND at the origin ('s'), FINISH at the consumer ('f',
/// bound to the enclosing slice).  `id` must be cluster-unique — the
/// transports derive it from (origin_machine, origin_seq).
#define GL_TRACE_FLOW_SEND(cat, name, id)                                   \
  do {                                                                      \
    if (::graphlab::trace::Enabled(cat))                                    \
      ::graphlab::trace::internal::EmitFlow(cat, 's', name,                 \
                                            static_cast<uint64_t>(id));     \
  } while (0)
#define GL_TRACE_FLOW_FINISH(cat, name, id)                                 \
  do {                                                                      \
    if (::graphlab::trace::Enabled(cat))                                    \
      ::graphlab::trace::internal::EmitFlow(cat, 'f', name,                 \
                                            static_cast<uint64_t>(id));     \
  } while (0)

#else  // !GRAPHLAB_TRACING

#define GL_TRACE_SCOPE(cat, name) \
  do {                            \
  } while (0)
#define GL_TRACE_SCOPE1(cat, name, arg_name, arg_value) \
  do {                                                  \
  } while (0)
#define GL_TRACE_BEGIN(cat, name) \
  do {                            \
  } while (0)
#define GL_TRACE_END(cat, name) \
  do {                          \
  } while (0)
#define GL_TRACE_INSTANT(cat, name) \
  do {                              \
  } while (0)
#define GL_TRACE_INSTANT1(cat, name, arg_name, arg_value) \
  do {                                                    \
  } while (0)
#define GL_TRACE_FLOW_SEND(cat, name, id) \
  do {                                    \
  } while (0)
#define GL_TRACE_FLOW_FINISH(cat, name, id) \
  do {                                      \
  } while (0)

#endif  // GRAPHLAB_TRACING

#endif  // GRAPHLAB_METRICS_TRACE_EVENT_H_
