#include "graphlab/rpc/comm_layer.h"

#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

CommLayer::CommLayer(std::unique_ptr<ITransport> transport)
    : transport_(std::move(transport)),
      membership_(transport_->num_machines()) {
  GL_CHECK(transport_ != nullptr);
  handlers_.reserve(transport_->num_machines());
  for (size_t i = 0; i < transport_->num_machines(); ++i) {
    handlers_.push_back(std::make_unique<MachineHandlers>());
  }
  transport_->SetDeliverySink(
      [this](MachineId dst, MachineId src, HandlerId id, InArchive& ia) {
        Deliver(dst, src, id, ia);
      });
  // Every transport-observed peer death becomes a membership transition,
  // which in turn re-evaluates the release rules of barrier / allreduce /
  // termination and notifies the fault subsystem's subscribers.
  transport_->SetPeerDownListener(
      [this](MachineId peer) { membership_.MarkDown(peer); });
  // And the reverse: a death learned at the membership level — e.g.
  // adopted from the recovery coordinator's bitmap for a peer this
  // machine never heard from (its connection died pre-hello, so no EOF
  // and no heartbeat deadline ever fires) — must reach the transport
  // too, or it would keep sending to and dispatching from the dead peer.
  // The cycle terminates: MarkPeerDown is idempotent and MarkDown only
  // notifies on a fresh transition.
  membership_.Subscribe(
      [this](MachineId peer, uint64_t) { transport_->MarkPeerDown(peer); });
}

CommLayer::~CommLayer() { Stop(); }

void CommLayer::RegisterHandler(MachineId machine, HandlerId id,
                                Handler handler) {
  GL_CHECK_LT(machine, num_machines());
  MachineHandlers& m = *handlers_[machine];
  std::lock_guard<std::mutex> lock(m.mutex);
  m.handlers[id] = std::make_shared<const Handler>(std::move(handler));
}

void CommLayer::Start() { transport_->Start(); }

void CommLayer::Stop() { transport_->Stop(); }

void CommLayer::Deliver(MachineId dst, MachineId src, HandlerId id,
                        InArchive& ia) {
  std::shared_ptr<const Handler> handler;
  MachineHandlers& m = *handlers_[dst];
  {
    std::lock_guard<std::mutex> lock(m.mutex);
    auto it = m.handlers.find(id);
    if (it != m.handlers.end()) handler = it->second;
  }
  if (handler == nullptr) {
    GL_LOG(ERROR) << "machine " << dst << ": no handler for id " << id
                  << " (from " << src << ")";
    return;
  }
  (*handler)(src, ia);
  if (!ia.ok()) {
    GL_LOG(ERROR) << "machine " << dst << ": handler " << id
                  << " over-read its payload from " << src << ": "
                  << ia.status().ToString();
  }
}

CommStats CommLayer::GetTotalStats() const {
  CommStats total;
  for (MachineId i = 0; i < num_machines(); ++i) {
    CommStats st = GetStats(i);
    total.messages_sent += st.messages_sent;
    total.bytes_sent += st.bytes_sent;
    total.messages_received += st.messages_received;
    total.bytes_received += st.bytes_received;
  }
  return total;
}

}  // namespace rpc
}  // namespace graphlab
