// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Shared helpers for transport-parameterized distributed tests: build a
// cluster over either interconnect backend (simulated in-process, or a
// real TCP loopback socket mesh hosted in this process on ephemeral
// ports — hermetic under parallel ctest), and manage the per-fabric
// component instances the two shapes need.

#ifndef TESTS_TRANSPORT_PARAM_H_
#define TESTS_TRANSPORT_PARAM_H_

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "graphlab/engine/allreduce.h"
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/inproc_transport.h"
#include "graphlab/rpc/runtime.h"
#include "graphlab/rpc/transport.h"

namespace graphlab {
namespace testutil {

/// Cluster options for `machines` over the given backend.  TCP runs as a
/// loopback socket mesh inside this test process.
inline rpc::ClusterOptions ClusterFor(rpc::TransportKind kind,
                                      size_t machines,
                                      uint64_t latency_us = 0) {
  rpc::ClusterOptions o;
  o.num_machines = machines;
  o.comm.latency = std::chrono::microseconds(latency_us);
  o.transport = kind;
  o.tcp_loopback_cluster = (kind == rpc::TransportKind::kTcp);
  return o;
}

/// A single simulated fabric of `machines` at zero latency (the tests
/// that drive a CommLayer directly, without a Runtime).
inline std::unique_ptr<rpc::CommLayer> InProcessComm(
    size_t machines, rpc::CommOptions options = {}) {
  return std::make_unique<rpc::CommLayer>(
      std::make_unique<rpc::InProcessTransport>(machines, options));
}

inline rpc::CommOptions ZeroLatency() {
  rpc::CommOptions o;
  o.latency = std::chrono::microseconds(0);
  return o;
}

/// Polls `done` until it holds or `timeout` passes; returns its last
/// value.  Tests that send through a bare CommLayer wait on their own
/// delivery counters with it.
inline bool WaitUntil(const std::function<bool()>& done,
                      std::chrono::milliseconds timeout =
                          std::chrono::milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return done();
}

/// SumAllReduce instances matching the runtime's fabric shape: one shared
/// instance on the simulated fabric (all machines' slots live on the one
/// CommLayer), one instance per machine over TCP (each machine registers
/// on its own CommLayer; registrations for remote machines are empty).
class ClusterAllreduce {
 public:
  ClusterAllreduce(rpc::Runtime* runtime, size_t width) {
    if (runtime->transport() == rpc::TransportKind::kInProcess) {
      shared_ = std::make_unique<SumAllReduce>(&runtime->comm(), width);
    } else {
      for (rpc::MachineId m : runtime->local_machines()) {
        per_machine_[m] =
            std::make_unique<SumAllReduce>(&runtime->comm(m), width);
      }
    }
  }

  SumAllReduce& at(rpc::MachineId m) {
    return shared_ ? *shared_ : *per_machine_.at(m);
  }

 private:
  std::unique_ptr<SumAllReduce> shared_;
  std::map<rpc::MachineId, std::unique_ptr<SumAllReduce>> per_machine_;
};

/// gtest parameter pretty-printer: "inproc" / "tcp".
inline std::string KindParamName(
    const ::testing::TestParamInfo<rpc::TransportKind>& info) {
  return rpc::TransportKindName(info.param);
}

inline const rpc::TransportKind kAllTransports[] = {
    rpc::TransportKind::kInProcess, rpc::TransportKind::kTcp};

}  // namespace testutil
}  // namespace graphlab

#endif  // TESTS_TRANSPORT_PARAM_H_
