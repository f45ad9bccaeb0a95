// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Per-peer clock-offset estimation from request/response round trips.
//
// Every machine timestamps trace events on its own steady clock;
// merging worker traces into one cluster timeline needs the pairwise
// offsets.  The estimator uses the classic midpoint (Cristian) method
// over the clock-sync round trips of ITransport::SyncClocks():
//
//   local sends a probe at t_send, the peer stamps its clock remote_ts
//   while handling it, local receives the reply at t_recv.  Assuming
//   the remote stamp was taken at the RTT midpoint,
//
//     offset = remote_ts - (t_send + t_recv) / 2
//
//   with error bounded by RTT/2 (the stamp could have been taken
//   anywhere between send and receive).  Keeping the MINIMUM-RTT
//   observation both tightens the bound and filters congestion /
//   injected-stall outliers: a delayed exchange has a larger RTT and
//   never replaces a cleaner sample.
//
// Header-only and transport-independent so the unit tests can drive it
// with synthetic latency schedules; TcpTransport feeds it from
// clock-probe replies, the in-process transport's machines share one
// clock (offset identically 0).

#ifndef GRAPHLAB_RPC_CLOCK_SYNC_H_
#define GRAPHLAB_RPC_CLOCK_SYNC_H_

#include <cstdint>

namespace graphlab {
namespace rpc {

class ClockOffsetEstimator {
 public:
  /// One completed exchange: local clock at send and receive, remote
  /// clock stamped in between.  Observations with t_recv < t_send
  /// (clock misuse) are ignored.
  void AddObservation(uint64_t t_send_ns, uint64_t t_recv_ns,
                      uint64_t remote_ts_ns) {
    if (t_recv_ns < t_send_ns) return;
    const uint64_t rtt = t_recv_ns - t_send_ns;
    if (observations_ > 0 && rtt >= min_rtt_ns_) {
      ++observations_;
      return;  // a noisier sample never replaces a cleaner one
    }
    const int64_t midpoint =
        static_cast<int64_t>(t_send_ns) + static_cast<int64_t>(rtt / 2);
    offset_ns_ = static_cast<int64_t>(remote_ts_ns) - midpoint;
    min_rtt_ns_ = rtt;
    ++observations_;
  }

  bool valid() const { return observations_ > 0; }

  /// Estimated remote_clock - local_clock in nanoseconds (0 until the
  /// first observation).  Map a remote timestamp onto the local
  /// timeline as t_local = t_remote - offset_ns().
  int64_t offset_ns() const { return offset_ns_; }

  /// RTT of the observation the estimate came from; the estimate's
  /// error is bounded by half of it.
  uint64_t min_rtt_ns() const { return min_rtt_ns_; }
  uint64_t error_bound_ns() const { return min_rtt_ns_ / 2; }

  uint64_t observations() const { return observations_; }

 private:
  int64_t offset_ns_ = 0;
  uint64_t min_rtt_ns_ = 0;
  uint64_t observations_ = 0;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_CLOCK_SYNC_H_
