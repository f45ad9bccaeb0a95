#include "graphlab/metrics/trace_event.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "graphlab/util/logging.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace trace {

namespace internal {
std::atomic<uint32_t> g_enabled_categories{0};
}  // namespace internal

namespace {

struct Event {
  uint64_t ts_ns = 0;
  const char* name = nullptr;
  const char* arg_name = nullptr;
  uint64_t arg_value = 0;
  uint64_t flow_id = 0;  // nonzero on flow phases ('s'/'f')
  uint32_t machine = 0;
  char phase = 'i';
  uint8_t category = 0;
};

std::atomic<size_t> g_buffer_capacity{1u << 16};
std::atomic<uint32_t> g_process_machine{0};

struct TlsMachine {
  uint32_t machine = 0;
  bool overridden = false;
};
thread_local TlsMachine tls_machine;

uint32_t CurrentMachine() {
  return tls_machine.overridden
             ? tls_machine.machine
             : g_process_machine.load(std::memory_order_relaxed);
}

/// One thread's ring.  The owning thread appends under `mutex` (always
/// uncontended except while a dump is cutting the buffer); the buffer is
/// kept alive past thread exit by the registry's shared_ptr.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> ring;
  size_t head = 0;      // next write slot
  uint64_t total = 0;   // events ever emitted (>= ring size => wrapped)
  uint32_t tid = 0;
  std::string thread_name;

  void Emit(const Event& e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (ring.empty()) {
      ring.resize(std::max<size_t>(
          16, g_buffer_capacity.load(std::memory_order_relaxed)));
    }
    if (thread_name.empty() && !CurrentThreadName().empty()) {
      thread_name = CurrentThreadName();
    }
    ring[head] = e;
    head = (head + 1) % ring.size();
    ++total;
  }
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
};

BufferRegistry& Registry() {
  static BufferRegistry* reg = new BufferRegistry();
  return *reg;
}

/// Peer clock offsets registered for the trace metadata.
struct ClockOffsets {
  std::mutex mutex;
  std::map<uint32_t, int64_t> offsets_ns;
};

ClockOffsets& Offsets() {
  static ClockOffsets* offsets = new ClockOffsets();
  return *offsets;
}

ThreadBuffer& LocalBuffer() {
  // The shared_ptr holder keeps the buffer registered (and its events
  // dumpable) after the thread exits.
  thread_local std::shared_ptr<ThreadBuffer> holder = [] {
    auto buf = std::make_shared<ThreadBuffer>();
    BufferRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buf->tid = reg.next_tid++;
    reg.buffers.push_back(buf);
    return buf;
  }();
  return *holder;
}

/// Minimal JSON string escaping for event/thread names.
void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

const char* CategoryName(Category c) {
  switch (c) {
    case kEngine: return "engine";
    case kSched: return "sched";
    case kRpc: return "rpc";
    case kFault: return "fault";
    case kSnapshot: return "snapshot";
    case kHealth: return "health";
    default: return "other";
  }
}

uint32_t ParseCategories(const std::string& spec) {
  uint32_t mask = 0;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    if (token == "all" || token == "*") return kAll;
    if (token == "engine") mask |= kEngine;
    else if (token == "sched") mask |= kSched;
    else if (token == "rpc") mask |= kRpc;
    else if (token == "fault") mask |= kFault;
    else if (token == "snapshot") mask |= kSnapshot;
    else if (token == "health") mask |= kHealth;
    else GL_LOG(WARNING) << "unknown trace category '" << token << "'";
  }
  return mask;
}

void EnableCategories(uint32_t mask) {
  internal::g_enabled_categories.store(mask, std::memory_order_relaxed);
}

uint32_t EnabledCategories() {
  return internal::g_enabled_categories.load(std::memory_order_relaxed);
}

void SetBufferCapacity(size_t events) {
  g_buffer_capacity.store(std::max<size_t>(16, events),
                          std::memory_order_relaxed);
}

void SetProcessMachineId(uint32_t machine) {
  g_process_machine.store(machine, std::memory_order_relaxed);
}

MachineScope::MachineScope(uint32_t machine)
    : previous_(tls_machine.machine), had_previous_(tls_machine.overridden) {
  tls_machine.machine = machine;
  tls_machine.overridden = true;
}

MachineScope::~MachineScope() {
  tls_machine.machine = previous_;
  tls_machine.overridden = had_previous_;
}

void Clear() {
  BufferRegistry& reg = Registry();
  std::lock_guard<std::mutex> reg_lock(reg.mutex);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    buf->ring.clear();
    buf->head = 0;
    buf->total = 0;
  }
}

size_t BufferedEventCount() {
  size_t n = 0;
  BufferRegistry& reg = Registry();
  std::lock_guard<std::mutex> reg_lock(reg.mutex);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    n += static_cast<size_t>(
        std::min<uint64_t>(buf->total, buf->ring.size()));
  }
  return n;
}

uint64_t DroppedEventCount() {
  uint64_t dropped = 0;
  BufferRegistry& reg = Registry();
  std::lock_guard<std::mutex> reg_lock(reg.mutex);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    if (buf->total > buf->ring.size()) {
      dropped += buf->total - buf->ring.size();
    }
  }
  return dropped;
}

void SetPeerClockOffsetNs(uint32_t machine, int64_t offset_ns) {
  ClockOffsets& offsets = Offsets();
  std::lock_guard<std::mutex> lock(offsets.mutex);
  offsets.offsets_ns[machine] = offset_ns;
}

namespace internal {

void Emit(Category cat, char phase, const char* name, const char* arg_name,
          uint64_t arg_value) {
  Event e;
  e.ts_ns = Timer::NowNanos();
  e.name = name;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  e.machine = CurrentMachine();
  e.phase = phase;
  const uint32_t cat_bits = static_cast<uint32_t>(cat);
  e.category =
      cat_bits == 0 ? 0 : static_cast<uint8_t>(std::countr_zero(cat_bits));
  LocalBuffer().Emit(e);
}

void EmitFlow(Category cat, char phase, const char* name, uint64_t flow_id) {
  Event e;
  e.ts_ns = Timer::NowNanos();
  e.name = name;
  e.flow_id = flow_id;
  e.machine = CurrentMachine();
  e.phase = phase;
  const uint32_t cat_bits = static_cast<uint32_t>(cat);
  e.category =
      cat_bits == 0 ? 0 : static_cast<uint8_t>(std::countr_zero(cat_bits));
  LocalBuffer().Emit(e);
}

}  // namespace internal

Status WriteChromeTrace(const std::string& path) {
  struct Named {
    Event event;
    uint32_t tid;
  };
  std::vector<Named> events;
  std::vector<std::pair<uint32_t, std::string>> thread_names;
  uint64_t dropped_events = 0;
  {
    BufferRegistry& reg = Registry();
    std::lock_guard<std::mutex> reg_lock(reg.mutex);
    for (auto& buf : reg.buffers) {
      std::lock_guard<std::mutex> lock(buf->mutex);
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(buf->total, buf->ring.size()));
      // Oldest-first: when wrapped the oldest live slot is `head`.
      const size_t start = buf->total > buf->ring.size() ? buf->head : 0;
      for (size_t i = 0; i < n; ++i) {
        events.push_back(
            {buf->ring[(start + i) % buf->ring.size()], buf->tid});
      }
      if (buf->total > buf->ring.size()) {
        dropped_events += buf->total - buf->ring.size();
      }
      if (!buf->thread_name.empty()) {
        thread_names.emplace_back(buf->tid, buf->thread_name);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Named& a, const Named& b) {
                     return a.event.ts_ns < b.event.ts_ns;
                   });

  std::string json;
  json.reserve(events.size() * 96 + 256);
  json += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : thread_names) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    json += std::to_string(tid);
    json += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(&json, name.c_str());
    json += "\"}}";
  }
  char buf[64];
  for (const Named& n : events) {
    const Event& e = n.event;
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"";
    AppendJsonEscaped(&json, e.name);
    json += "\",\"cat\":\"";
    json += CategoryName(static_cast<Category>(1u << e.category));
    json += "\",\"ph\":\"";
    json.push_back(e.phase);
    json += "\",\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.ts_ns) / 1e3);
    json += buf;
    json += ",\"pid\":";
    json += std::to_string(e.machine);
    json += ",\"tid\":";
    json += std::to_string(n.tid);
    if (e.phase == 'i') json += ",\"s\":\"t\"";
    if (e.phase == 's' || e.phase == 'f') {
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                    static_cast<unsigned long long>(e.flow_id));
      json += buf;
      // Bind the finish to the enclosing slice (the dispatch span).
      if (e.phase == 'f') json += ",\"bp\":\"e\"";
    }
    if (e.arg_name != nullptr) {
      json += ",\"args\":{\"";
      AppendJsonEscaped(&json, e.arg_name);
      json += "\":";
      json += std::to_string(e.arg_value);
      json += "}";
    }
    json += "}";
  }
  json += "],\"displayTimeUnit\":\"ms\",\"metadata\":{\"dropped_events\":";
  json += std::to_string(dropped_events);
  {
    ClockOffsets& offsets = Offsets();
    std::lock_guard<std::mutex> lock(offsets.mutex);
    json += ",\"clock_offsets_ns\":{";
    bool first_offset = true;
    for (const auto& [machine, offset_ns] : offsets.offsets_ns) {
      if (!first_offset) json += ",";
      first_offset = false;
      json += "\"" + std::to_string(machine) +
              "\":" + std::to_string(offset_ns);
    }
    json += "}";
  }
  json += "}}";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace trace
}  // namespace graphlab
