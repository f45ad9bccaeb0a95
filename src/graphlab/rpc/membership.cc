#include "graphlab/rpc/membership.h"

#include "graphlab/util/logging.h"

namespace graphlab {
namespace rpc {

Membership::Membership(size_t num_machines)
    : alive_(num_machines, 1),
      num_alive_(num_machines),
      subscribers_(std::make_shared<Subscription::Subscribers>()) {
  GL_CHECK_GE(num_machines, 1u);
}

bool Membership::alive(MachineId m) const {
  std::lock_guard<std::mutex> lock(mutex_);
  GL_CHECK_LT(m, alive_.size());
  return alive_[m] != 0;
}

std::vector<MachineId> Membership::alive_machines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MachineId> out;
  out.reserve(alive_.size());
  for (MachineId m = 0; m < alive_.size(); ++m) {
    if (alive_[m]) out.push_back(m);
  }
  return out;
}

std::vector<uint8_t> Membership::alive_bitmap() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return alive_;
}

bool Membership::MarkDown(MachineId m) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GL_CHECK_LT(m, alive_.size());
    if (!alive_[m]) return false;
    alive_[m] = 0;
    num_alive_.fetch_sub(1, std::memory_order_acq_rel);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  GL_LOG(WARNING) << "membership: machine " << m << " marked down ("
                  << num_alive() << "/" << num_machines() << " alive)";
  Notify(m);
  return true;
}

void Membership::Adopt(const std::vector<uint8_t>& bitmap) {
  GL_CHECK_EQ(bitmap.size(), alive_.size());
  for (MachineId m = 0; m < bitmap.size(); ++m) {
    if (!bitmap[m]) MarkDown(m);
  }
}

struct Subscription::Subscribers {
  // Held through every notification, so a subscription's removal waits
  // out a callback in progress.
  std::mutex mutex;
  std::vector<std::pair<size_t, Membership::Subscriber>> list;
  size_t next_token = 1;
};

Subscription& Subscription::operator=(Subscription&& other) noexcept {
  if (this != &other) {
    Release();
    subscribers_ = std::move(other.subscribers_);
    token_ = other.token_;
  }
  return *this;
}

Subscription::~Subscription() { Release(); }

void Subscription::Release() {
  if (subscribers_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(subscribers_->mutex);
    auto& list = subscribers_->list;
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].first == token_) {
        list.erase(list.begin() + i);
        break;
      }
    }
  }
  subscribers_.reset();
}

Subscription Membership::Subscribe(Subscriber fn) {
  std::lock_guard<std::mutex> lock(subscribers_->mutex);
  const size_t token = subscribers_->next_token++;
  subscribers_->list.emplace_back(token, std::move(fn));
  return Subscription(subscribers_, token);
}

void Membership::Notify(MachineId down) {
  std::lock_guard<std::mutex> lock(subscribers_->mutex);
  const uint64_t e = epoch();
  for (auto& [token, fn] : subscribers_->list) fn(down, e);
}

}  // namespace rpc
}  // namespace graphlab
