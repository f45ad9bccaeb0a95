// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Non-blocking callback readers-writer locks (Sec. 4.2.2).
//
// "To implement the pipelining system, regular readers-writer locks cannot
// be used since they would halt the pipeline thread on contention.  We
// therefore implemented a non-blocking variation of the readers-writer
// lock that operates through callbacks."
//
// One lock per owned vertex.  Acquire() never blocks: if the lock is free
// (respecting FIFO fairness) the callback runs inline; otherwise the
// request queues and the callback runs later from whichever thread
// releases the conflicting hold.  FIFO granting avoids writer starvation
// and preserves the canonical-order deadlock-freedom argument.
//
// Each lock is one atomic word: a writer bit, a waiters bit and a reader
// count.  While no waiter is queued, acquire and release are a single
// compare-and-swap on that word: no mutex, no allocation.  The waiters bit
// is set and cleared only under the vertex's slow-path mutex, together
// with its waiter queue (allocated on the vertex's first contention), so
// the bit is set exactly while the queue is non-empty.  A fast-path
// operation never succeeds while it is set, which sends every newcomer
// behind the queue: FIFO order and writer non-starvation hold as with a
// plain mutex-guarded queue.

#ifndef GRAPHLAB_ENGINE_LOCKING_LOCK_TABLE_H_
#define GRAPHLAB_ENGINE_LOCKING_LOCK_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "graphlab/graph/types.h"
#include "graphlab/util/logging.h"

namespace graphlab {

class CallbackLockTable {
 public:
  using Callback = std::function<void()>;

  explicit CallbackLockTable(size_t num_vertices)
      : words_(num_vertices), waiters_(num_vertices) {}

  /// Grants v inline when it is immediately available (no queued waiter
  /// and the mode is compatible — the same condition under which
  /// Acquire() would fire its callback inline); returns false without
  /// queuing otherwise.
  bool TryAcquire(LocalVid v, bool write) {
    GL_CHECK_LT(v, words_.size());
    std::atomic<uint32_t>& word = words_[v];
    uint32_t w = word.load(std::memory_order_relaxed);
    while ((w & kWaiters) == 0 && Compatible(w, write)) {
      if (word.compare_exchange_weak(w, w + Unit(write),
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Requests vertex v in read or write mode; `cb` fires exactly once when
  /// the lock is held.  May fire inline.
  void Acquire(LocalVid v, bool write, Callback cb) {
    if (TryAcquire(v, write) || !Enqueue(v, write, &cb)) cb();
  }

  /// Releases a previously granted hold; pending compatible requests are
  /// granted in FIFO order and their callbacks run on this thread.
  void Release(LocalVid v, bool write) {
    GL_CHECK_LT(v, words_.size());
    std::atomic<uint32_t>& word = words_[v];
    const uint32_t unit = Unit(write);
    uint32_t w = word.load(std::memory_order_relaxed);
    // Fast path: no waiter queued, so dropping the hold grants nobody.
    auto release_unqueued = [&] {
      while ((w & kWaiters) == 0) {
        CheckHeld(w, v, write);
        if (word.compare_exchange_weak(w, w - unit, std::memory_order_release,
                                       std::memory_order_relaxed)) {
          return true;
        }
      }
      return false;
    };
    if (release_unqueued()) return;
    // Slow path.  While the waiters bit is set only holders of this
    // mutex change the word, so it is stable between the steps below.
    std::vector<Callback> to_run;
    {
      std::lock_guard<std::mutex> lock(MutexFor(v));
      w = word.load(std::memory_order_relaxed);
      if (release_unqueued()) return;  // another release drained the queue
      CheckHeld(w, v, write);
      w -= unit;
      WaiterQueue& queue = *waiters_[v];
      while (queue.head < queue.items.size() &&
             Compatible(w, queue.items[queue.head].write)) {
        Pending& p = queue.items[queue.head++];
        w += Unit(p.write);
        to_run.push_back(std::move(p.cb));
      }
      if (queue.head == queue.items.size()) {
        queue.items.clear();  // keeps capacity for the next contention
        queue.head = 0;
        w &= ~kWaiters;
      }
      word.store(w, std::memory_order_release);
    }
    for (Callback& cb : to_run) cb();
  }

  /// Whether v is currently held in `write` mode (any reader for
  /// !write).  A snapshot: it can change as soon as it returns.
  bool Held(LocalVid v, bool write) const {
    const uint32_t w = words_[v].load(std::memory_order_acquire);
    return write ? (w & kWriter) != 0 : (w & kReaders) != 0;
  }

 private:
  static constexpr uint32_t kWriter = 1u << 31;
  static constexpr uint32_t kWaiters = 1u << 30;
  static constexpr uint32_t kReaders = kWaiters - 1;

  struct Pending {
    bool write;
    Callback cb;
  };
  /// FIFO of queued requests: items[head..] wait, items[..head] have been
  /// granted and are dropped once the queue drains.
  struct WaiterQueue {
    std::vector<Pending> items;
    size_t head = 0;
  };

  /// Slow-path acquire: under v's mutex, either grants v (returns false;
  /// the caller runs `cb`) or appends `cb` to v's waiter queue, setting
  /// the waiters bit if it is the first waiter (returns true).
  bool Enqueue(LocalVid v, bool write, Callback* cb) {
    std::lock_guard<std::mutex> lock(MutexFor(v));
    std::atomic<uint32_t>& word = words_[v];
    uint32_t w = word.load(std::memory_order_relaxed);
    while ((w & kWaiters) == 0) {
      const bool grant = Compatible(w, write);
      if (word.compare_exchange_weak(w, grant ? w + Unit(write) : w | kWaiters,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
        if (grant) return false;
        break;
      }
    }
    std::unique_ptr<WaiterQueue>& queue = waiters_[v];
    if (queue == nullptr) queue = std::make_unique<WaiterQueue>();
    queue->items.push_back(Pending{write, std::move(*cb)});
    return true;
  }

  /// Word delta of one hold.  Writer and reader counts never overlap in
  /// a granted word, so adding and subtracting the unit is exact.
  static uint32_t Unit(bool write) { return write ? kWriter : 1u; }
  static bool Compatible(uint32_t w, bool write) {
    if (write) return (w & (kWriter | kReaders)) == 0;
    return (w & kWriter) == 0 && (w & kReaders) != kReaders;
  }
  static void CheckHeld(uint32_t w, LocalVid v, bool write) {
    if (write) {
      GL_CHECK((w & kWriter) != 0) << "write-release without hold, vertex "
                                   << v;
    } else {
      GL_CHECK_GT(w & kReaders, 0u) << "read-release without hold " << v;
    }
  }

  std::mutex& MutexFor(LocalVid v) const { return shards_[v % kShards]; }

  static constexpr size_t kShards = 64;
  std::vector<std::atomic<uint32_t>> words_;
  /// Slow-path mutexes, one per v % kShards: each guards the waiter
  /// queues of its vertices and every change of their waiters bits.
  mutable std::mutex shards_[kShards];
  std::vector<std::unique_ptr<WaiterQueue>> waiters_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_ENGINE_LOCKING_LOCK_TABLE_H_
