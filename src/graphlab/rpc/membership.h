// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Membership: one fabric's view of which machines are alive.
//
// The paper's cloud deployment (Sec. 4.3) assumes machines fail; this
// object is the runtime's source of truth about who is still part of the
// cluster.  Every CommLayer owns one.  Machines start alive and can only
// transition to dead (MarkDown) — a failed machine rejoins by being
// reloaded as part of a future cluster, never by resurrection, which keeps
// every consumer's "count >= num_alive()" release rules monotone.
//
// Deaths are observed independently per machine (socket errors, missed
// heartbeats), so views across machines converge only eventually; the
// recovery rendezvous (fault/recovery.h) forces convergence by
// broadcasting the coordinator's bitmap, which survivors Adopt().
//
// Subscribers (the rpc::AllReduce rounds, TerminationDetector, the fault
// runner) are notified after each transition, outside the state lock but
// serialized with each other; callbacks must not block — they run on
// transport threads (the TCP event loop or a receive thread, heartbeat,
// connector), never inside a handler or a Send(), and stalling those
// delays failure detection cluster-wide.
//
// Subscribe returns an rpc::Subscription, and the subscription lasts
// exactly as long as that object: its owner declares it as its last
// member, like the HandlerScopes of its RPC handlers (rpc/comm_layer.h).
// Destroying it removes the callback and waits out a notification in
// progress, so the callback never runs on a freed owner.  A callback
// must not destroy a Subscription of this membership.

#ifndef GRAPHLAB_RPC_MEMBERSHIP_H_
#define GRAPHLAB_RPC_MEMBERSHIP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graphlab/rpc/message.h"

namespace graphlab {
namespace rpc {

/// One membership subscription (see the header).  Move-only; an empty
/// subscription (default constructed or moved from) owns nothing.
class [[nodiscard]] Subscription {
 public:
  Subscription() = default;
  Subscription(Subscription&& other) noexcept = default;
  Subscription& operator=(Subscription&& other) noexcept;
  ~Subscription();

  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

 private:
  friend class Membership;
  struct Subscribers;
  Subscription(std::shared_ptr<Subscribers> subscribers, size_t token)
      : subscribers_(std::move(subscribers)), token_(token) {}
  void Release();

  std::shared_ptr<Subscribers> subscribers_;
  size_t token_ = 0;
};

class Membership {
 public:
  /// (machine that died, membership epoch after the transition).
  using Subscriber = std::function<void(MachineId down, uint64_t epoch)>;

  explicit Membership(size_t num_machines);

  size_t num_machines() const { return alive_.size(); }
  size_t num_alive() const {
    return num_alive_.load(std::memory_order_acquire);
  }
  bool alive(MachineId m) const;

  /// Bumps on every death; consumers snapshot it to detect "membership
  /// changed while I was waiting".
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Alive machine ids, ascending.
  std::vector<MachineId> alive_machines() const;
  /// 1 byte per machine (1 = alive) — the wire form the recovery
  /// rendezvous broadcasts.
  std::vector<uint8_t> alive_bitmap() const;

  /// Marks `m` dead.  Returns true when this call made the transition
  /// (false if already dead).  Fires subscribers on transition.
  bool MarkDown(MachineId m);

  /// Applies every death present in `bitmap` (coordinator's view) that
  /// this view has not observed yet — the convergence step of recovery.
  void Adopt(const std::vector<uint8_t>& bitmap);

  /// Calls `fn` after every later transition, until the returned
  /// subscription is destroyed.
  Subscription Subscribe(Subscriber fn);

 private:
  void Notify(MachineId down);

  mutable std::mutex mutex_;
  std::vector<uint8_t> alive_;
  std::atomic<size_t> num_alive_;
  std::atomic<uint64_t> epoch_{0};

  // Shared with the subscriptions, which may outlive this object.
  std::shared_ptr<Subscription::Subscribers> subscribers_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_MEMBERSHIP_H_
