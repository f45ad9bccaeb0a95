#include "graphlab/rpc/runtime.h"

#include <thread>

#include "graphlab/metrics/trace_event.h"
#include "graphlab/rpc/inproc_transport.h"
#include "graphlab/rpc/tcp_transport.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

size_t MachineContext::num_machines() const {
  return runtime->num_machines();
}
CommLayer& MachineContext::comm() const { return runtime->comm(id); }
Barrier& MachineContext::barrier() const { return runtime->barrier(id); }
FlushRound& MachineContext::flush() const { return runtime->flush(id); }
TerminationDetector& MachineContext::termination() const {
  return runtime->termination(id);
}
metrics::MetricsRegistry& MachineContext::metrics() const {
  return runtime->metrics(id);
}
const ClusterOptions& MachineContext::options() const {
  return runtime->options();
}

Runtime::Runtime(ClusterOptions options) : options_(options) {
  GL_CHECK_GE(options_.num_machines, 1u);
  GL_CHECK_GE(options_.threads_per_machine, 1u);

  if (options_.transport == TransportKind::kInProcess) {
    mode_ = Mode::kSharedFabric;
    comms_.push_back(std::make_unique<CommLayer>(
        std::make_unique<InProcessTransport>(options_.num_machines,
                                             options_.comm)));
    for (MachineId m = 0; m < options_.num_machines; ++m) {
      local_machines_.push_back(m);
    }
  } else if (options_.tcp_loopback_cluster) {
    mode_ = Mode::kLoopbackCluster;
    auto cluster = MakeLoopbackTcpCluster(options_.num_machines);
    GL_CHECK(cluster.ok()) << cluster.status().ToString();
    for (size_t i = 0; i < options_.num_machines; ++i) {
      comms_.push_back(std::make_unique<CommLayer>(
          std::make_unique<TcpTransport>((*cluster)[i])));
      local_machines_.push_back(static_cast<MachineId>(i));
    }
  } else {
    mode_ = Mode::kMultiProcess;
    GL_CHECK_EQ(options_.tcp.endpoints.size(), options_.num_machines)
        << "ClusterOptions::tcp.endpoints must list every machine";
    GL_CHECK_LT(options_.tcp.me, options_.num_machines);
    comms_.push_back(std::make_unique<CommLayer>(
        std::make_unique<TcpTransport>(options_.tcp)));
    local_machines_.push_back(options_.tcp.me);
  }

  // One barrier / flush round / termination detector per fabric,
  // registered before any transport starts delivering.
  for (auto& comm : comms_) {
    barriers_.push_back(std::make_unique<Barrier>(comm.get()));
    flushes_.push_back(
        std::make_unique<FlushRound>(comm.get(), kFlushRoundHandler));
    terminations_.push_back(std::make_unique<TerminationDetector>(comm.get()));
  }
  for (auto& comm : comms_) comm->Start();
}

Runtime::~Runtime() {
  for (auto& comm : comms_) comm->Stop();
}

size_t Runtime::FabricIndex(MachineId m) const {
  GL_CHECK_LT(m, options_.num_machines);
  switch (mode_) {
    case Mode::kSharedFabric:
      return 0;
    case Mode::kLoopbackCluster:
      return m;
    case Mode::kMultiProcess:
      GL_CHECK_EQ(m, options_.tcp.me)
          << "machine " << m << " lives in another process";
      return 0;
  }
  return 0;
}

CommLayer& Runtime::comm() {
  GL_CHECK(comms_.size() == 1 && mode_ != Mode::kLoopbackCluster)
      << "Runtime::comm() is ambiguous with per-machine fabrics; use "
         "comm(machine)";
  return *comms_[0];
}
Barrier& Runtime::barrier() {
  GL_CHECK(mode_ == Mode::kSharedFabric);
  return *barriers_[0];
}
TerminationDetector& Runtime::termination() {
  GL_CHECK(mode_ == Mode::kSharedFabric);
  return *terminations_[0];
}

void Runtime::Run(const std::function<void(MachineContext&)>& program) {
  std::vector<std::thread> threads;
  threads.reserve(local_machines_.size());
  for (MachineId m : local_machines_) {
    threads.emplace_back([this, m, &program] {
      // Tag the program thread so GL_LOG lines and trace events from
      // multi-machine in-process runs are attributable to a machine.
      SetThreadLogMachineId(static_cast<int>(m));
      SetThreadName("machine-" + std::to_string(m));
      trace::MachineScope trace_machine(static_cast<uint32_t>(m));
      MachineContext ctx;
      ctx.id = m;
      ctx.runtime = this;
      program(ctx);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace rpc
}  // namespace graphlab
