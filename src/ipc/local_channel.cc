#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "src/ipc/channel.h"
#include "src/testing/failpoint.h"

namespace softmem {

namespace {

// Shared state of one direction (a queue) plus liveness of both ends.
struct Core {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> to_a;
  std::deque<Message> to_b;
  bool a_open = true;
  bool b_open = true;
};

class LocalEndpoint : public MessageChannel {
 public:
  LocalEndpoint(std::shared_ptr<Core> core, bool is_a)
      : core_(std::move(core)), is_a_(is_a) {}

  ~LocalEndpoint() override { Close(); }

  Status Send(const Message& m) override {
    if (SOFTMEM_FAULT_FIRED("ipc.send.drop")) {
      return Status::Ok();  // message silently lost on the wire
    }
    SOFTMEM_INJECT_FAULT("ipc.send.fail");
    std::lock_guard<std::mutex> lock(core_->mu);
    const bool peer_open = is_a_ ? core_->b_open : core_->a_open;
    if (!peer_open) {
      return UnavailableError("peer closed");
    }
    (is_a_ ? core_->to_b : core_->to_a).push_back(m);
    core_->cv.notify_all();
    return Status::Ok();
  }

  Result<Message> Recv(int timeout_ms) override {
    if (SOFTMEM_FAULT_FIRED("ipc.recv.timeout")) {
      return NotFoundError("injected fault: ipc.recv.timeout");
    }
    std::unique_lock<std::mutex> lock(core_->mu);
    if (!WaitLocked(lock, timeout_ms)) {
      return NotFoundError("recv timeout");
    }
    auto& queue = is_a_ ? core_->to_a : core_->to_b;
    if (!queue.empty()) {
      Message m = std::move(queue.front());
      queue.pop_front();
      return m;
    }
    return UnavailableError("channel closed");
  }

  Status WaitReadable(int timeout_ms) override {
    std::unique_lock<std::mutex> lock(core_->mu);
    return WaitLocked(lock, timeout_ms) ? Status::Ok()
                                        : NotFoundError("recv timeout");
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(core_->mu);
    (is_a_ ? core_->a_open : core_->b_open) = false;
    core_->cv.notify_all();
  }

 private:
  // Waits on the core's condition variable until a message is queued for
  // this end or either end is closed. False on timeout.
  bool WaitLocked(std::unique_lock<std::mutex>& lock, int timeout_ms) {
    auto ready = [&]() {
      const auto& queue = is_a_ ? core_->to_a : core_->to_b;
      return !queue.empty() || !core_->a_open || !core_->b_open;
    };
    if (timeout_ms < 0) {
      core_->cv.wait(lock, ready);
      return true;
    }
    return core_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              ready);
  }

  std::shared_ptr<Core> core_;
  bool is_a_;
};

}  // namespace

std::pair<std::unique_ptr<MessageChannel>, std::unique_ptr<MessageChannel>>
CreateLocalChannelPair() {
  auto core = std::make_shared<Core>();
  return {std::make_unique<LocalEndpoint>(core, true),
          std::make_unique<LocalEndpoint>(core, false)};
}

}  // namespace softmem
