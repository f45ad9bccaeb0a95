#include "graphlab/rpc/comm_layer.h"

#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "graphlab/metrics/metrics.h"
#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {
namespace {

// The calling thread's DispatchThreadMark.
thread_local const ITransport* dispatch_transport = nullptr;
thread_local MachineId dispatch_machine = 0;

}  // namespace

namespace internal {

/// One machine's handlers.  Shared by the CommLayer and every scope that
/// registered here, so a scope may outlive the layer.
struct HandlerTable {
  const ITransport* transport = nullptr;
  MachineId machine = 0;
  metrics::Counter* unhandled = nullptr;  // hosted machines only

  // Signalled whenever a registration's last reference goes: the entry's
  // own, or a finished delivery's once the entry was removed.
  std::mutex retire_mutex;
  std::condition_variable retired;

  std::mutex mutex;
  std::unordered_map<HandlerId, std::shared_ptr<const Registration>> live;
};

/// A registered handler.  The table entry holds one reference; each
/// delivery holds another while it runs the handler.
struct Registration {
  Registration(HandlerTable* t, CommLayer::Handler h)
      : table(t), handler(std::move(h)) {}
  ~Registration() {
    handler = nullptr;  // its captures go before the waiter is released
    std::lock_guard<std::mutex> lock(table->retire_mutex);
    table->retired.notify_all();
  }

  HandlerTable* table;
  CommLayer::Handler handler;
};

}  // namespace internal

DispatchThreadMark::DispatchThreadMark(const ITransport* transport,
                                       MachineId m)
    : saved_transport_(dispatch_transport),
      saved_machine_(dispatch_machine) {
  dispatch_transport = transport;
  dispatch_machine = m;
}

DispatchThreadMark::~DispatchThreadMark() {
  dispatch_transport = saved_transport_;
  dispatch_machine = saved_machine_;
}

bool DispatchThreadMark::IsCurrent(const ITransport* transport,
                                   MachineId m) {
  return dispatch_transport == transport && dispatch_machine == m;
}

HandlerScope::HandlerScope(
    std::shared_ptr<internal::HandlerTable> table, HandlerId id,
    std::weak_ptr<const internal::Registration> registration)
    : table_(std::move(table)), id_(id),
      registration_(std::move(registration)) {}

HandlerScope& HandlerScope::operator=(HandlerScope&& other) noexcept {
  if (this != &other) {
    Release();
    table_ = std::move(other.table_);
    id_ = other.id_;
    registration_ = std::move(other.registration_);
  }
  return *this;
}

HandlerScope::~HandlerScope() { Release(); }

void HandlerScope::Release() {
  if (table_ == nullptr) return;
  internal::HandlerTable& table = *table_;
  std::shared_ptr<const internal::Registration> removed;
  {
    std::lock_guard<std::mutex> lock(table.mutex);
    auto it = table.live.find(id_);
    if (it != table.live.end() && it->second == registration_.lock()) {
      removed = std::move(it->second);
      table.live.erase(it);
    }
  }
  removed.reset();  // outside the table lock: may run ~Registration
  // Every delivery runs on the machine's one dispatch thread, so on that
  // thread none of ours can be running but the caller.
  if (!DispatchThreadMark::IsCurrent(table.transport, table.machine)) {
    std::unique_lock<std::mutex> lock(table.retire_mutex);
    table.retired.wait(lock, [&] { return registration_.expired(); });
  }
  table_.reset();
  registration_.reset();
}

CommLayer::CommLayer(std::unique_ptr<ITransport> transport)
    : transport_(std::move(transport)),
      membership_(transport_->num_machines()) {
  GL_CHECK(transport_ != nullptr);
  handlers_.reserve(transport_->num_machines());
  for (MachineId m = 0; m < transport_->num_machines(); ++m) {
    auto table = std::make_shared<internal::HandlerTable>();
    table->transport = transport_.get();
    table->machine = m;
    if (transport_->IsLocal(m)) {
      table->unhandled = transport_->registry(m).counter("rpc.unhandled");
    }
    handlers_.push_back(std::move(table));
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
  peer_down_subscription_ = membership_.Subscribe(
      [this](MachineId peer, uint64_t) { transport_->MarkPeerDown(peer); });
}

CommLayer::~CommLayer() { Stop(); }

HandlerScope CommLayer::RegisterHandler(MachineId machine, HandlerId id,
                                        Handler handler) {
  GL_CHECK_LT(machine, num_machines());
  if (!transport_->IsLocal(machine)) return HandlerScope();
  const std::shared_ptr<internal::HandlerTable>& table = handlers_[machine];
  auto registration = std::make_shared<const internal::Registration>(
      table.get(), std::move(handler));
  std::shared_ptr<const internal::Registration> replaced;  // freed unlocked
  {
    std::lock_guard<std::mutex> lock(table->mutex);
    std::shared_ptr<const internal::Registration>& entry = table->live[id];
    replaced = std::move(entry);
    entry = registration;
  }
  return HandlerScope(table, id, registration);
}

void CommLayer::Start() { transport_->Start(); }

void CommLayer::Stop() { transport_->Stop(); }

void CommLayer::Deliver(MachineId dst, MachineId src, HandlerId id,
                        InArchive& ia) {
  // The copy is the delivery's in-flight reference (see HandlerScope).
  std::shared_ptr<const internal::Registration> registration;
  internal::HandlerTable& table = *handlers_[dst];
  {
    std::lock_guard<std::mutex> lock(table.mutex);
    auto it = table.live.find(id);
    if (it != table.live.end()) registration = it->second;
  }
  if (registration == nullptr) {
    GL_LOG(ERROR) << "machine " << dst << ": no handler for id " << id
                  << " (from " << src << ")";
    if (table.unhandled != nullptr) table.unhandled->Inc();
    return;
  }
  registration->handler(src, ia);
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
