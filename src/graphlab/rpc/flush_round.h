// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// FlushRound: the one channel flush of the runtime (Sec. 4.3's
// Chandy-Lamport argument: FIFO channels plus one marker per channel).
//
// Protocol.  In round g every machine sends every live peer exactly one
// frame to the round's handler:
//
//   u64 generation | payload
//
// and then waits for every live peer's frame of generation g.  The
// generation counts this fabric's rounds: 0 at Runtime construction, +1
// per round, realigned by the recovery rendezvous.  The payload is
// optional and per peer (the chromatic engine ships its schedule
// forwards, an owned-gvid column); most rounds send a bare generation.
//
// Why one round flushes: every ordered machine pair is a FIFO channel
// and each machine runs all handlers on one dispatch thread (README,
// "Distributed runtime & wire format").  A peer's round frame is
// therefore handled only after every message that peer sent before it,
// so once all live peers' frames of generation g are in, every message
// they sent before entering round g has been handled here, after one
// one-way hop per channel.  A machine's messages to itself travel no
// channel the round marks and are not covered.  This holds under one
// precondition: no handler that runs during the round sends a
// data message (a handler's send could trail its machine's frame).  Each
// call site argues that precondition for the handlers that can run there.
//
// Receive side.  A frame is accepted only when its generation is exactly
// one past the last one seen from its source, and its payload (if any)
// passes the decoder installed for the destination machine; anything
// else — a torn generation, a stale frame of an aborted attempt, a
// payload with no decoder, hostile TCP input — is logged, counted in the
// receiver's "rpc.flush_dropped" counter and dropped whole, so it can
// never stand in for a peer's real frame.  A fast peer can be one round
// ahead: decoded payload values are staged by generation parity and
// handed to the caller only after the wait for their own generation.
//
// A wait that cannot complete ends with false instead of hanging: when a
// peer that was live at entry dies, when this machine dies, or when the
// caller's stop predicate holds (re-checked on Wake).  A cancelled
// machine (the fault runner's abort bundle; cleared by Realign) ends
// every wait at once with false.  A machine that ends a wait early
// still sent its frames, so peers that keep walking the round sequence
// stay aligned with it.
//
// One instance serves a whole fabric (each machine touches its own slot)
// and lives as long as the Runtime, so its handler exists before any
// program runs.  Its handler scopes and membership subscription are its
// last members (rpc/comm_layer.h): a frame that lands after it is gone is
// dropped and counted in "rpc.unhandled".

#ifndef GRAPHLAB_RPC_FLUSH_ROUND_H_
#define GRAPHLAB_RPC_FLUSH_ROUND_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "graphlab/rpc/comm_layer.h"

namespace graphlab {
namespace metrics {
class Counter;
}  // namespace metrics
namespace rpc {

class FlushRound {
 public:
  /// Decodes one accepted-generation frame's payload (everything after
  /// the generation) from `src`: appends the decoded values to *out and
  /// returns nullptr, or returns why the whole frame must be dropped.
  /// Runs on the destination's dispatch thread under its slot lock.
  using Decoder = std::function<const char*(
      MachineId src, InArchive& payload, std::vector<uint64_t>* out)>;

  FlushRound(CommLayer* comm, HandlerId handler);

  FlushRound(const FlushRound&) = delete;
  FlushRound& operator=(const FlushRound&) = delete;

  /// Collective: machine m sends every live peer its next generation's
  /// frame, carrying `payloads[peer]` when given (an empty vector sends
  /// bare generations), then waits for every live peer's frame of the
  /// same generation.  Appends the values decoded from those frames to
  /// *received when non-null.  True when every peer live at entry
  /// delivered its frame; false when the wait ended without them, or
  /// when m is cancelled (see the header).
  bool Run(MachineId m, std::vector<OutArchive> payloads = {},
           std::vector<uint64_t>* received = nullptr,
           const std::function<bool()>& stop = nullptr);

  /// Re-evaluates machine m's wait (after its stop predicate changed).
  void Wake(MachineId m);

  /// Makes machine m's rounds end at once with false, still sending
  /// their frames, until Realign(m, ...).  Wakes a wait in progress.
  void Cancel(MachineId m);

  /// Installs (or, with nullptr, removes) machine m's payload decoder.
  /// Once this returns, no delivery runs the previous decoder.
  void SetDecoder(MachineId m, Decoder decoder);

  /// The generation machine m's next round sends.
  uint64_t generation(MachineId m);

  /// Sets machine m's next sent generation to `generation` and its next
  /// expected one from every peer to at least `generation`, forgets
  /// payloads staged for older generations and clears the cancel flag.
  /// Every machine realigns to the same value, which no machine has sent
  /// yet; frames a faster peer sent after its own realign are kept.  Only
  /// call while m is in no round.
  void Realign(MachineId m, uint64_t generation);

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t next_send = 0;
    std::vector<uint64_t> next_from;  // next expected generation per source
    // Decoded payload values by generation parity; staged_generation
    // says which generation a parity slot currently holds.
    std::vector<uint64_t> staged[2];
    uint64_t staged_generation[2] = {0, 0};
    bool cancelled = false;
    Decoder decoder;
    metrics::Counter* dropped = nullptr;  // hosted machines only
  };

  /// Accepts one frame whole or drops it whole (dispatch thread).
  void Deliver(MachineId self, MachineId src, InArchive& ia);

  CommLayer* comm_;
  const HandlerId handler_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<HandlerScope> handler_scopes_;
  Subscription membership_subscription_;
};

}  // namespace rpc
}  // namespace graphlab

#endif  // GRAPHLAB_RPC_FLUSH_ROUND_H_
