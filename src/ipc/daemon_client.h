// DaemonClient — the process side of the SMA <-> SMD protocol.
//
// Implements SmdChannel so a SoftMemoryAllocator can request budget through
// it. The client owns the channel and multiplexes it:
//
//  * While an RPC is in flight, the requesting thread pumps the channel;
//    if a kReclaimDemand arrives before the reply (the daemon may be
//    reclaiming from *us* on behalf of someone else), it is serviced inline
//    against the attached allocator, then the pump keeps waiting.
//  * When idle, an optional background poller thread services demands,
//    sends lease-refresh heartbeats, and drives reconnection. It sleeps in
//    MessageChannel::WaitReadable without io_mu_, so it wakes on traffic
//    and never holds the channel while nothing arrives.
//
// Creation is a handshake: Register() sends kRegister and waits for the ack
// carrying our daemon-assigned process id and initial budget grant. Wire the
// pieces as:
//
//   auto client = DaemonClient::Register(std::move(channel), "redis");
//   options.initial_budget_pages = (*client)->initial_budget_pages();
//   auto sma = SoftMemoryAllocator::Create(options, client->get());
//   (*client)->AttachAllocator(sma->get());
//   (*client)->StartPoller();
//
// Crash resilience: Connect() takes a *factory* instead of a channel, which
// lets the client rebuild the transport after the daemon dies. When the
// channel breaks, the client enters **degraded mode** — budget requests are
// denied locally without blocking, releases keep adjusting the local ledger —
// while the poller redials with exponential backoff and replays identity and
// budget through a kReattach handshake. A restarted daemon thus rebuilds its
// table from live clients; nobody's memory is torn down.
//
// Standing denials: once the daemon denies a request and says the denial
// stands, RequestBudget denies that request and any larger one locally —
// no io_mu_, no send, no daemon pass — until the daemon's kBudgetAvailable
// notice, a grant, a reconnect or reattach, or one heartbeat interval (the
// bound on a lost notice). A smaller request still goes to the daemon.
// Only a client whose poller runs lets a denial stand, since only the
// poller hears the notice between RPCs.

#ifndef SOFTMEM_SRC_IPC_DAEMON_CLIENT_H_
#define SOFTMEM_SRC_IPC_DAEMON_CLIENT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/ipc/channel.h"
#include "src/ipc/messages.h"
#include "src/sma/smd_channel.h"

namespace softmem {

class SoftMemoryAllocator;

// Dials a fresh transport to the daemon (e.g. ConnectUnixSocket(path)).
using ChannelFactory =
    std::function<Result<std::unique_ptr<MessageChannel>>()>;

struct DaemonClientOptions {
  // How long an RPC waits for its reply before giving up.
  int rpc_timeout_ms = 10000;
  // Idle lease refresh: the poller sends a kHeartbeat (carrying the last
  // usage report) when nothing else has been sent for this long, so an idle
  // client survives SmdOptions::lease_ttl. A standing denial lapses after
  // the same interval even without a notice. 0 disables heartbeats, and
  // with them standing denials.
  int heartbeat_interval_ms = 1000;
  // Degraded-mode redial cadence: exponential backoff between reconnect
  // attempts, starting at `initial` and capped at `max`.
  int reconnect_backoff_initial_ms = 50;
  int reconnect_backoff_max_ms = 2000;
  // QoS identity presented at registration (and re-presented on reattach):
  // the tenant whose nested budget this process is charged under, and its
  // criticality class (kWireClassLatencyCritical | kWireClassBatch). An
  // empty tenant lands in the daemon's "default" tenant.
  std::string tenant;
  uint8_t tenant_class = kWireClassBatch;
};

class DaemonClient : public SmdChannel {
 public:
  // Connects (protocol-wise) to the daemon over `channel`. No factory: if
  // the transport later breaks, the client degrades permanently.
  static Result<std::unique_ptr<DaemonClient>> Register(
      std::unique_ptr<MessageChannel> channel, const std::string& name,
      DaemonClientOptions options = {});

  // Like Register, but the client keeps `factory` and uses it to redial and
  // kReattach after the daemon restarts. The initial connection comes from
  // the same factory.
  static Result<std::unique_ptr<DaemonClient>> Connect(
      ChannelFactory factory, const std::string& name,
      DaemonClientOptions options = {});

  ~DaemonClient() override;

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  // The allocator that reclaim demands are executed against. Must be set
  // before any demand can be honoured (demands before attachment yield 0).
  void AttachAllocator(SoftMemoryAllocator* sma);

  // Starts the idle-demand / heartbeat / reconnect poller thread.
  void StartPoller();

  // Daemon-assigned identity and the budget granted at registration.
  uint64_t process_id() const { return pid_.load(std::memory_order_relaxed); }
  size_t initial_budget_pages() const { return initial_budget_pages_; }

  // SmdChannel implementation (called by the SMA).
  Result<size_t> RequestBudget(size_t pages) override;
  void ReleaseBudget(size_t pages) override;
  void ReportUsage(size_t soft_pages, size_t traditional_bytes) override;
  void ReportUsage(const UsageReport& usage) override;
  bool connected() const override {
    return !degraded_.load(std::memory_order_relaxed);
  }
  size_t local_denials() const override { return local_denials_.load(); }

  // Fetches a formatted statistics snapshot from the daemon. `view` selects
  // the rendering: "tenants" for the per-tenant QoS table, empty for the
  // per-process default. Fails (without blocking) in degraded mode.
  Result<std::string> QueryStats(const std::string& view = "");

  // One immediate reconnect + kReattach attempt (the poller's redial path,
  // public so tests drive recovery deterministically instead of sleeping).
  // Ok when the client is connected again (or never was degraded).
  Status TryReconnectNow();

  // Observability (tests and telemetry).
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  size_t demands_served() const { return demands_served_.load(); }
  size_t reconnects() const { return reconnects_.load(); }
  // True while a daemon denial stands (RequestBudget answers locally).
  bool denial_standing() const {
    return denied_at_ns_.load(std::memory_order_relaxed) != 0;
  }
  // The client-side budget ledger: initial grant + grants - releases -
  // reclaim results. This is the figure a kReattach claims after a daemon
  // restart.
  size_t ledger_budget_pages() const { return ledger_budget_.load(); }

 private:
  DaemonClient(std::unique_ptr<MessageChannel> channel,
               DaemonClientOptions options)
      : channel_(std::move(channel)), options_(options) {}

  // Shared Register/Connect handshake tail.
  static Result<std::unique_ptr<DaemonClient>> FinishHandshake(
      std::unique_ptr<DaemonClient> client, const std::string& name);

  void HandleDemand(const Message& demand);

  // Handles a daemon-initiated message received by any pump: services a
  // kReclaimDemand, lifts the standing denial on kBudgetAvailable. Returns
  // false for anything else. Caller must hold io_mu_.
  bool HandleDaemonInitiatedLocked(const Message& m);

  // Lifts the standing denial, if any.
  void ClearStandingDenial() {
    denied_at_ns_.store(0, std::memory_order_relaxed);
  }

  // True while a standing denial answers a request for `pages` without the
  // daemon: one at least as large as the denied request.
  bool DenialStandsNow(size_t pages) const;
  void PollerLoop();

  // One connected-mode poller step under io_mu_: receives what is pending
  // (Recv(0)), then sends a heartbeat if one is due. Returns how long the
  // poller may wait for traffic before the next heartbeat is due (-1 when
  // heartbeats are off). Caller must hold io_mu_.
  int PollOnceLocked();

  // Marks the transport dead and closes it. Caller must hold io_mu_.
  void EnterDegradedLocked(const char* why);

  // Sends kReattach on the current channel_ and applies the ack: pid_,
  // ledger, counters. On success *overshoot_pages is how many pages the
  // daemon refused of our claim — the caller must shrink the SMA by that
  // many *after dropping io_mu_* (the SMA's reclaim path reports usage back
  // through us, and lock order is SMA -> client). Caller must hold io_mu_.
  Status ReattachOnChannelLocked(size_t* overshoot_pages);

  // Applies the post-reattach shrink outside io_mu_.
  void ShrinkAfterReattach(size_t overshoot_pages);

  // Shared so the poller can wait on its own copy without io_mu_: a
  // TryReconnectNow that swaps channel_ meanwhile cannot free it.
  std::shared_ptr<MessageChannel> channel_;
  const DaemonClientOptions options_;
  ChannelFactory factory_;  // null for Register()-built clients
  std::string name_;

  // Serializes use of the channel: a thread holding io_mu_ owns both
  // directions until it releases it.
  std::recursive_mutex io_mu_;
  uint64_t next_seq_ = 1;
  Nanos last_send_ns_ = 0;  // heartbeat pacing; guarded by io_mu_
  uint64_t notices_ = 0;    // kBudgetAvailable received; guarded by io_mu_

  SoftMemoryAllocator* sma_ = nullptr;
  std::atomic<uint64_t> pid_{0};
  size_t initial_budget_pages_ = 0;

  std::atomic<bool> degraded_{false};
  std::atomic<Nanos> degraded_since_ns_{0};
  std::atomic<size_t> ledger_budget_{0};
  std::atomic<size_t> last_soft_pages_{0};
  std::atomic<size_t> last_traditional_bytes_{0};
  std::atomic<size_t> last_idle_pages_{0};
  std::atomic<size_t> reconnects_{0};
  // When the standing denial began (0 = none), and the request it denied.
  // Set and cleared under io_mu_; RequestBudget reads them without. A read
  // that mixes an old and a new value costs at most one extra RPC or one
  // extra local denial.
  std::atomic<Nanos> denied_at_ns_{0};
  std::atomic<size_t> denied_pages_{0};
  std::atomic<size_t> local_denials_{0};

  std::thread poller_;
  std::atomic<bool> poller_started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> demands_served_{0};
};

}  // namespace softmem

#endif  // SOFTMEM_SRC_IPC_DAEMON_CLIENT_H_
