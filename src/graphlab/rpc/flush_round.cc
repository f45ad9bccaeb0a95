#include "graphlab/rpc/flush_round.h"

#include <algorithm>

#include "graphlab/metrics/metrics.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

void FlushRound::Deliver(MachineId self, MachineId src, InArchive& ia) {
  Slot& s = *slots_[self];
  std::lock_guard<std::mutex> lock(s.mutex);
  const size_t frame_bytes = ia.remaining();
  const uint64_t generation = ia.ReadValue<uint64_t>();
  const char* problem = nullptr;
  std::vector<uint64_t> values;
  if (!ia.ok()) {
    problem = "torn generation";
  } else if (generation != s.next_from[src]) {
    problem = "out-of-sequence generation";
  } else if (!ia.AtEnd()) {
    problem = s.decoder ? s.decoder(src, ia, &values)
                        : "payload with no decoder installed";
  }
  if (problem != nullptr) {
    GL_LOG(ERROR) << "machine " << self << ": flush frame from " << src
                  << " (generation " << generation << ", " << frame_bytes
                  << " bytes): " << problem << "; dropping frame";
    if (s.dropped != nullptr) s.dropped->Inc();
    return;
  }
  const size_t parity = generation & 1;
  if (s.staged_generation[parity] != generation) {
    s.staged[parity].clear();
    s.staged_generation[parity] = generation;
  }
  s.staged[parity].insert(s.staged[parity].end(), values.begin(),
                          values.end());
  ++s.next_from[src];
  s.cv.notify_all();
}

FlushRound::FlushRound(CommLayer* comm, HandlerId handler)
    : comm_(comm), handler_(handler) {
  const size_t n = comm_->num_machines();
  slots_.reserve(n);
  for (MachineId m = 0; m < n; ++m) {
    auto slot = std::make_unique<Slot>();
    slot->next_from.assign(n, 0);
    if (comm_->transport().IsLocal(m)) {
      slot->dropped = comm_->registry(m).counter("rpc.flush_dropped");
    }
    slots_.push_back(std::move(slot));
  }
  for (MachineId m = 0; m < n; ++m) {
    handler_scopes_.push_back(comm_->RegisterHandler(
        m, handler_,
        [this, m](MachineId src, InArchive& ia) { Deliver(m, src, ia); }));
  }
  // A death may be the frame a wait is missing; every waiter re-checks.
  membership_subscription_ =
      comm_->membership().Subscribe([this](MachineId, uint64_t) {
        for (auto& slot : slots_) {
          std::lock_guard<std::mutex> lock(slot->mutex);
          slot->cv.notify_all();
        }
      });
}

bool FlushRound::Run(MachineId m, std::vector<OutArchive> payloads,
                     std::vector<uint64_t>* received,
                     const std::function<bool()>& stop) {
  const size_t n = comm_->num_machines();
  GL_CHECK_LT(m, n);
  GL_CHECK(payloads.empty() || payloads.size() == n);
  Slot& s = *slots_[m];
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    generation = s.next_send++;
  }

  Membership& members = comm_->membership();
  const std::vector<uint8_t> alive = members.alive_bitmap();
  std::vector<MachineId> peers;
  for (MachineId p = 0; p < n; ++p) {
    if (p == m || !alive[p]) continue;
    peers.push_back(p);
    OutArchive frame;
    frame << generation;
    if (!payloads.empty()) {
      frame.WriteBytes(payloads[p].buffer().data(), payloads[p].size());
    }
    comm_->Send(m, p, handler_, std::move(frame));
  }

  std::unique_lock<std::mutex> lock(s.mutex);
  bool delivered = false;
  s.cv.wait(lock, [&] {
    if (s.cancelled) return true;
    delivered = true;
    for (MachineId p : peers) {
      delivered = delivered && s.next_from[p] > generation;
    }
    if (delivered || !members.alive(m) || (stop && stop())) return true;
    for (MachineId p : peers) {
      if (!members.alive(p)) return true;
    }
    return false;
  });
  const size_t parity = generation & 1;
  if (received != nullptr && s.staged_generation[parity] == generation) {
    received->insert(received->end(), s.staged[parity].begin(),
                     s.staged[parity].end());
  }
  s.staged[parity].clear();
  return delivered;
}

void FlushRound::Wake(MachineId m) {
  Slot& s = *slots_.at(m);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.cv.notify_all();
}

void FlushRound::Cancel(MachineId m) {
  Slot& s = *slots_.at(m);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.cancelled = true;
  s.cv.notify_all();
}

void FlushRound::SetDecoder(MachineId m, Decoder decoder) {
  Slot& s = *slots_.at(m);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.decoder = std::move(decoder);
}

uint64_t FlushRound::generation(MachineId m) {
  Slot& s = *slots_.at(m);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.next_send;
}

void FlushRound::Realign(MachineId m, uint64_t generation) {
  Slot& s = *slots_.at(m);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.next_send = generation;
  // A peer that realigned first may already have sent `generation`:
  // keep what it delivered, forget everything older.
  for (uint64_t& next : s.next_from) next = std::max(next, generation);
  for (size_t parity = 0; parity < 2; ++parity) {
    if (s.staged_generation[parity] < generation) s.staged[parity].clear();
  }
  s.cancelled = false;
}

}  // namespace rpc
}  // namespace graphlab
