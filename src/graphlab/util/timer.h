// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Wall-clock timers used by the engines and the benchmark harnesses.

#ifndef GRAPHLAB_UTIL_TIMER_H_
#define GRAPHLAB_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <ctime>

namespace graphlab {

/// A restartable wall-clock stopwatch.
class Timer {
 public:
  Timer() { Start(); }

  /// Resets the epoch to now.
  void Start() { start_ = Clock::now(); }

  /// Seconds elapsed since the last Start().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since the last Start().
  double Millis() const { return Seconds() * 1e3; }

  /// Microseconds elapsed since the last Start().
  double Micros() const { return Seconds() * 1e6; }

  /// Nanoseconds of CPU time consumed by the calling thread.  Used for the
  /// engines' busy-time accounting: on an oversubscribed host, wall time
  /// inside a task includes preemption by other simulated machines'
  /// threads, which would corrupt the modeled cluster wall-clock.
  ///
  /// Unlike NowNanos() this is a real syscall, not a vDSO read: about
  /// 0.3-0.4 us per call on an idle 4-vCPU x86 VM (NowNanos() takes
  /// 0.03-0.05 us) and near 1 us under load, more than a PageRank update.
  /// Read it once per batch of updates, never per update: the synchronous
  /// engines bracket each RunBatch chunk with one pair, the asynchronous
  /// engines each worker thread's whole run.
  static uint64_t ThreadCpuNanos() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
  }

  /// A monotonically increasing nanosecond timestamp (process-wide clock).
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_UTIL_TIMER_H_
