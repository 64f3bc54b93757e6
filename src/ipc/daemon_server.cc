#include "src/ipc/daemon_server.h"

#include <chrono>

#include "src/common/logging.h"
#include "src/smd/stats_text.h"

namespace softmem {

// One connected client: reader thread + worker thread + reclaim-sink glue.
class DaemonServer::Session : public ReclaimSink {
 public:
  Session(SoftMemoryDaemon* daemon, std::unique_ptr<MessageChannel> channel,
          const DaemonServerOptions& options)
      : daemon_(daemon), channel_(std::move(channel)), options_(options) {
    worker_ = std::thread([this] { WorkerLoop(); });
    reader_ = std::thread([this] { ReaderLoop(); });
  }

  ~Session() override {
    Shutdown();
    if (reader_.joinable()) {
      reader_.join();
    }
    if (worker_.joinable()) {
      worker_.join();
    }
  }

  void Shutdown() {
    channel_->Close();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
  }

  bool finished() const { return finished_.load(); }

  // ReclaimSink: called by the daemon (under the daemon's lock) when this
  // client must give pages back.
  size_t DemandReclaim(size_t pages) override {
    std::unique_lock<std::mutex> lock(mu_);
    demand_result_ = 0;
    demand_done_ = false;
    const uint64_t seq = ++demand_seq_;
    Message demand;
    demand.type = MsgType::kReclaimDemand;
    demand.seq = seq;
    demand.pages = pages;
    lock.unlock();
    if (!channel_->Send(demand).ok()) {
      return 0;
    }
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(options_.demand_timeout_ms),
                 [this, seq] {
                   return stopping_ || (demand_done_ && demand_seq_ == seq);
                 });
    return demand_done_ ? demand_result_ : 0;
  }

  // ReclaimSink: this client's standing denial would now be admitted.
  void BudgetAvailable() override {
    Message notice;
    notice.type = MsgType::kBudgetAvailable;
    channel_->Send(notice);
  }

 private:
  void ReaderLoop() {
    for (;;) {
      auto m = channel_->Recv(-1);
      if (!m.ok()) {
        break;  // peer gone or channel closed
      }
      switch (m->type) {
        case MsgType::kReclaimResult: {
          std::lock_guard<std::mutex> lock(mu_);
          if (m->seq == demand_seq_) {
            demand_result_ = m->pages;
            demand_done_ = true;
            cv_.notify_all();
          }
          break;
        }
        case MsgType::kGoodbye:
          goto done;
        default: {
          // Everything that touches the daemon goes through the worker so
          // this thread stays free to route reclaim results.
          std::lock_guard<std::mutex> lock(mu_);
          inbox_.push_back(*std::move(m));
          cv_.notify_all();
          break;
        }
      }
    }
  done:
    // EOF / ECONNRESET / kGoodbye all end the session the same way: flag the
    // worker down. Deregistration happens on the worker's exit path — the
    // worker is the only thread that mutates registered_/pid_, so checking
    // them here would race a kRegister still queued in the inbox (a client
    // that registers and dies instantly would leak its budget forever).
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
  }

  void WorkerLoop() {
    for (;;) {
      Message m;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !inbox_.empty(); });
        if (stopping_) {
          // Do NOT drain the inbox: the peer is gone, so acting on queued
          // messages can only create state nobody will ever tear down
          // (registering a dead client strands its budget).
          break;
        }
        m = std::move(inbox_.front());
        inbox_.pop_front();
      }
      Dispatch(m);
    }
    // Session teardown: a vanished client must not strand its budget. The
    // expected_sink guard makes this a no-op if a reattaching successor
    // already adopted our process id.
    if (registered_) {
      daemon_->DeregisterProcess(pid_, /*expected_sink=*/this);
      registered_ = false;
    }
    finished_.store(true);
  }

  void Dispatch(const Message& m) {
    switch (m.type) {
      case MsgType::kRegister: {
        if (registered_) {
          // One process identity per connection; a second register would
          // strand the first budget on disconnect.
          Message err;
          err.type = MsgType::kError;
          err.seq = m.seq;
          err.status = static_cast<uint32_t>(StatusCode::kFailedPrecondition);
          err.text = "already registered on this connection";
          channel_->Send(err);
          break;
        }
        auto pid = daemon_->RegisterProcess(
            m.text, this, m.tenant.empty() ? "default" : m.tenant,
            static_cast<CritClass>(m.tclass));
        Message ack;
        ack.seq = m.seq;
        if (pid.ok()) {
          pid_ = *pid;
          registered_ = true;
          ack.type = MsgType::kRegisterAck;
          ack.pid = *pid;
          ack.pages = daemon_->GetBudget(*pid).value_or(0);
        } else {
          ack.type = MsgType::kError;
          ack.status = static_cast<uint32_t>(pid.status().code());
          ack.text = pid.status().message();
        }
        channel_->Send(ack);
        break;
      }
      case MsgType::kRequestBudget: {
        Message reply;
        reply.type = MsgType::kBudgetReply;
        reply.seq = m.seq;
        if (!registered_) {
          reply.status =
              static_cast<uint32_t>(StatusCode::kFailedPrecondition);
          reply.text = "not registered";
        } else {
          bool stands = false;
          auto granted = daemon_->HandleBudgetRequest(pid_, m.pages, &stands);
          if (granted.ok()) {
            reply.pages = *granted;
          } else {
            reply.status = static_cast<uint32_t>(granted.status().code());
            reply.text = granted.status().message();
            // A standing denial echoes the request: the client stops asking
            // until kBudgetAvailable.
            reply.pages = stands ? m.pages : 0;
          }
        }
        channel_->Send(reply);
        break;
      }
      case MsgType::kReleaseBudget:
        if (registered_) {
          daemon_->HandleBudgetRelease(pid_, m.pages);
        }
        break;
      case MsgType::kUsageReport:
      case MsgType::kHeartbeat:
        // A heartbeat is a usage report from an idle client: same payload,
        // same handling, and either one refreshes the budget lease.
        if (registered_) {
          daemon_->HandleUsageReport(pid_, m.pages, m.bytes, m.idle);
        }
        break;
      case MsgType::kReattach: {
        Message ack;
        ack.seq = m.seq;
        if (registered_ && m.pid != pid_) {
          // This connection already speaks for a process; adopting a second
          // identity would strand the first budget on disconnect.
          ack.type = MsgType::kError;
          ack.status = static_cast<uint32_t>(StatusCode::kFailedPrecondition);
          ack.text = "already registered on this connection";
        } else {
          auto pid = daemon_->ReattachProcess(
              m.text, m.pid, m.pages, this,
              m.tenant.empty() ? "default" : m.tenant,
              static_cast<CritClass>(m.tclass));
          if (pid.ok()) {
            pid_ = *pid;
            registered_ = true;
            ack.type = MsgType::kRegisterAck;
            ack.pid = *pid;
            ack.pages = daemon_->GetBudget(*pid).value_or(0);
          } else {
            ack.type = MsgType::kError;
            ack.status = static_cast<uint32_t>(pid.status().code());
            ack.text = pid.status().message();
          }
        }
        channel_->Send(ack);
        break;
      }
      case MsgType::kStatsQuery: {
        // Allowed without registration: monitoring tools just connect and
        // ask (softmemctl). text selects the view: "tenants" renders the
        // QoS aggregate, anything else the per-process default.
        const SmdStats stats = daemon_->GetStats();
        Message reply;
        reply.type = MsgType::kStatsReply;
        reply.seq = m.seq;
        reply.pages = stats.free_pages;
        reply.bytes = stats.capacity_pages * kPageSize;
        reply.text = m.text == "tenants" ? FormatSmdTenantStats(stats)
                                         : FormatSmdStats(stats);
        channel_->Send(reply);
        break;
      }
      default:
        SOFTMEM_LOG(Warning) << "smd server: unexpected "
                             << MsgTypeName(m.type);
        break;
    }
  }

  SoftMemoryDaemon* daemon_;
  std::unique_ptr<MessageChannel> channel_;
  const DaemonServerOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> inbox_;
  bool stopping_ = false;
  uint64_t demand_seq_ = 0;
  size_t demand_result_ = 0;
  bool demand_done_ = false;

  ProcessId pid_ = 0;
  bool registered_ = false;
  std::atomic<bool> finished_{false};

  std::thread reader_;
  std::thread worker_;
};

DaemonServer::DaemonServer(SoftMemoryDaemon* daemon,
                           DaemonServerOptions options)
    : daemon_(daemon), options_(options) {}

DaemonServer::~DaemonServer() { Stop(); }

void DaemonServer::AddClient(std::unique_ptr<MessageChannel> channel) {
  std::lock_guard<std::mutex> lock(mu_);
  ReapFinishedLocked();
  sessions_.push_back(
      std::make_unique<Session>(daemon_, std::move(channel), options_));
}

void DaemonServer::ServeListener(UnixSocketListener* listener) {
  listener_ = listener;
  accept_thread_ = std::thread([this] {
    while (!stopping_.load()) {
      auto channel = listener_->Accept(/*timeout_ms=*/200);
      if (channel.ok()) {
        AddClient(std::move(channel).value());
      } else if (channel.status().code() == StatusCode::kUnavailable) {
        break;
      }
    }
  });
}

void DaemonServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (listener_ != nullptr) {
    listener_->Shutdown();
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    s->Shutdown();
  }
  sessions.clear();  // joins
}

size_t DaemonServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& s : sessions_) {
    if (!s->finished()) {
      ++n;
    }
  }
  return n;
}

void DaemonServer::ReapFinishedLocked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished()) {
      it = sessions_.erase(it);  // joins the session's threads
    } else {
      ++it;
    }
  }
}

}  // namespace softmem
