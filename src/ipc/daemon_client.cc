#include "src/ipc/daemon_client.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/telemetry/metrics.h"

namespace softmem {

namespace {

// Budget-RPC round-trip latency. The clock reads are gated on the arming
// flag via ScopedLatencyTimer; the daemon round-trip itself is slow-path.
telemetry::Histogram* RpcRttHist() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "softmem_ipc_rpc_rtt_ns", "Budget RPC round-trip latency.",
          telemetry::Histogram::LatencyBoundsNs());
  return h;
}

telemetry::Counter* RpcRetries() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "softmem_ipc_rpc_retries_total",
          "Extra receive rounds within one budget RPC (stale replies and "
          "interleaved reclaim demands).");
  return c;
}

telemetry::Counter* DemandsServed() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "softmem_ipc_demands_served_total",
          "Reclaim demands executed on behalf of the daemon.");
  return c;
}

telemetry::Counter* Reconnects() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "softmem_ipc_reconnects_total",
          "Successful daemon redial + kReattach recoveries.");
  return c;
}

telemetry::Counter* DegradedDenials() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "softmem_ipc_degraded_denials_total",
          "Budget requests denied locally because the daemon was "
          "unreachable.");
  return c;
}

telemetry::Counter* LocalDenials() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "softmem_ipc_local_denials_total",
          "Budget requests denied locally because the daemon's last denial "
          "still stood (no kBudgetAvailable yet).");
  return c;
}

telemetry::Counter* DegradedNs() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "softmem_ipc_degraded_ns_total",
          "Cumulative wall time spent in degraded mode (counted when the "
          "client recovers).");
  return c;
}

}  // namespace

Result<std::unique_ptr<DaemonClient>> DaemonClient::FinishHandshake(
    std::unique_ptr<DaemonClient> client, const std::string& name) {
  client->name_ = name;
  Message reg;
  reg.type = MsgType::kRegister;
  reg.seq = client->next_seq_++;
  reg.text = name;
  reg.tenant = client->options_.tenant;
  reg.tclass = client->options_.tenant_class;
  SOFTMEM_RETURN_IF_ERROR(client->channel_->Send(reg));
  auto ack = client->channel_->Recv(client->options_.rpc_timeout_ms);
  if (!ack.ok()) {
    return ack.status();
  }
  if (ack->type == MsgType::kError) {
    return Status(ack->status_code(), ack->text);
  }
  if (ack->type != MsgType::kRegisterAck) {
    return InternalError("unexpected handshake reply");
  }
  client->pid_.store(ack->pid);
  client->initial_budget_pages_ = ack->pages;
  client->ledger_budget_.store(ack->pages);
  client->last_send_ns_ = MonotonicClock::Get()->Now();
  return client;
}

Result<std::unique_ptr<DaemonClient>> DaemonClient::Register(
    std::unique_ptr<MessageChannel> channel, const std::string& name,
    DaemonClientOptions options) {
  auto client = std::unique_ptr<DaemonClient>(
      new DaemonClient(std::move(channel), options));
  return FinishHandshake(std::move(client), name);
}

Result<std::unique_ptr<DaemonClient>> DaemonClient::Connect(
    ChannelFactory factory, const std::string& name,
    DaemonClientOptions options) {
  if (!factory) {
    return InvalidArgumentError("null channel factory");
  }
  auto channel = factory();
  if (!channel.ok()) {
    return channel.status();
  }
  auto client = std::unique_ptr<DaemonClient>(
      new DaemonClient(std::move(channel).value(), options));
  client->factory_ = std::move(factory);
  return FinishHandshake(std::move(client), name);
}

DaemonClient::~DaemonClient() {
  stopping_.store(true);
  {
    std::lock_guard<std::recursive_mutex> lock(io_mu_);
    if (!degraded_.load()) {
      Message bye;
      bye.type = MsgType::kGoodbye;
      channel_->Send(bye);
    }
    channel_->Close();
  }
  if (poller_.joinable()) {
    poller_.join();
  }
}

void DaemonClient::AttachAllocator(SoftMemoryAllocator* sma) { sma_ = sma; }

void DaemonClient::StartPoller() {
  if (!poller_.joinable()) {
    poller_started_.store(true);
    poller_ = std::thread([this] { PollerLoop(); });
  }
}

void DaemonClient::EnterDegradedLocked(const char* why) {
  if (degraded_.exchange(true)) {
    return;
  }
  degraded_since_ns_.store(MonotonicClock::Get()->Now());
  channel_->Close();
  SOFTMEM_LOG(Warning) << "daemon client: entering degraded mode (" << why
                       << "); budget requests will be denied locally";
}

void DaemonClient::HandleDemand(const Message& demand) {
  size_t given = 0;
  if (sma_ != nullptr) {
    given = sma_->HandleReclaimDemand(demand.pages);
  }
  size_t ledger = ledger_budget_.load();
  while (!ledger_budget_.compare_exchange_weak(
      ledger, ledger - std::min(given, ledger))) {
  }
  demands_served_.fetch_add(1);
  DemandsServed()->Inc();
  Message result;
  result.type = MsgType::kReclaimResult;
  result.seq = demand.seq;
  result.pages = given;
  channel_->Send(result);
}

bool DaemonClient::HandleDaemonInitiatedLocked(const Message& m) {
  switch (m.type) {
    case MsgType::kReclaimDemand:
      HandleDemand(m);
      return true;
    case MsgType::kBudgetAvailable:
      ++notices_;
      ClearStandingDenial();
      return true;
    default:
      return false;
  }
}

bool DaemonClient::DenialStandsNow(size_t pages) const {
  const Nanos since = denied_at_ns_.load(std::memory_order_acquire);
  // A smaller request than the denied one may still be admitted: ask.
  if (since == 0 || pages < denied_pages_.load(std::memory_order_relaxed)) {
    return false;
  }
  // The lapse bounds a lost notice to one RPC per heartbeat interval.
  const Nanos lapse =
      static_cast<Nanos>(options_.heartbeat_interval_ms) * kNanosPerMilli;
  return MonotonicClock::Get()->Now() - since < lapse;
}

Status DaemonClient::ReattachOnChannelLocked(size_t* overshoot_pages) {
  *overshoot_pages = 0;
  const size_t claimed = ledger_budget_.load();
  Message rea;
  rea.type = MsgType::kReattach;
  rea.seq = next_seq_++;
  rea.pid = pid_.load();
  rea.pages = claimed;
  rea.bytes = last_traditional_bytes_.load();
  rea.text = name_;
  rea.tenant = options_.tenant;
  rea.tclass = options_.tenant_class;
  SOFTMEM_RETURN_IF_ERROR(channel_->Send(rea));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.rpc_timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      return UnavailableError("reattach timeout");
    }
    auto m = channel_->Recv(static_cast<int>(left));
    if (!m.ok()) {
      return m.status().code() == StatusCode::kNotFound
                 ? UnavailableError("reattach timeout")
                 : m.status();
    }
    if (HandleDaemonInitiatedLocked(*m)) {
      continue;
    }
    if (m->type == MsgType::kError) {
      return Status(m->status_code(), m->text);
    }
    if (m->type != MsgType::kRegisterAck || m->seq != rea.seq) {
      continue;  // stale traffic from the previous incarnation
    }
    pid_.store(m->pid);
    const size_t accepted = m->pages;
    // The ledger follows the daemon's decision; if it clamped our claim the
    // caller walks the SMA down by the difference (outside locks as needed).
    ledger_budget_.store(accepted);
    // The daemon forgot any standing denial: ask afresh.
    ClearStandingDenial();
    if (accepted < claimed) {
      *overshoot_pages = claimed - accepted;
    }
    // Fresh usage so a rebuilt daemon table converges immediately.
    Message usage;
    usage.type = MsgType::kUsageReport;
    usage.pages = last_soft_pages_.load();
    usage.bytes = last_traditional_bytes_.load();
    usage.idle = last_idle_pages_.load();
    channel_->Send(usage);
    last_send_ns_ = MonotonicClock::Get()->Now();
    return Status::Ok();
  }
}

void DaemonClient::ShrinkAfterReattach(size_t overshoot_pages) {
  if (overshoot_pages == 0) {
    return;
  }
  size_t got = 0;
  if (sma_ != nullptr) {
    got = sma_->HandleReclaimDemand(overshoot_pages);
  }
  if (got < overshoot_pages) {
    SOFTMEM_LOG(Warning) << "daemon client: daemon clamped reattach claim by "
                         << overshoot_pages << " pages but the allocator "
                         << "could only give back " << got;
  }
}

Status DaemonClient::TryReconnectNow() {
  if (!degraded_.load()) {
    return Status::Ok();
  }
  if (!factory_) {
    return FailedPreconditionError(
        "no channel factory: this client cannot reconnect");
  }
  auto fresh = factory_();
  if (!fresh.ok()) {
    return fresh.status();
  }
  size_t overshoot = 0;
  {
    std::lock_guard<std::recursive_mutex> lock(io_mu_);
    if (!degraded_.load()) {
      return Status::Ok();  // another thread already recovered
    }
    channel_ = std::move(fresh).value();
    Status s = ReattachOnChannelLocked(&overshoot);
    if (!s.ok()) {
      channel_->Close();
      return s;
    }
    degraded_.store(false);
    reconnects_.fetch_add(1);
    Reconnects()->Inc();
    const Nanos since = degraded_since_ns_.exchange(0);
    if (since != 0) {
      const Nanos now = MonotonicClock::Get()->Now();
      if (now > since) {
        DegradedNs()->Inc(static_cast<uint64_t>(now - since));
      }
    }
    SOFTMEM_LOG(Info) << "daemon client: reattached as pid " << pid_.load()
                      << " with " << ledger_budget_.load()
                      << " budget pages accepted";
  }
  ShrinkAfterReattach(overshoot);
  return Status::Ok();
}

Result<size_t> DaemonClient::RequestBudget(size_t pages) {
  if (degraded_.load(std::memory_order_relaxed)) {
    // Never block on a dead daemon: deny locally, let the poller redial.
    DegradedDenials()->Inc();
    return DeniedError("soft memory daemon unreachable (degraded mode)");
  }
  auto deny_locally = [this] {
    local_denials_.fetch_add(1, std::memory_order_relaxed);
    LocalDenials()->Inc();
    return DeniedError("soft memory daemon denial stands");
  };
  // Asking again before memory frees would only make the daemon run a pass
  // that recovers nothing and deny again.
  if (DenialStandsNow(pages)) {
    return deny_locally();
  }
  std::lock_guard<std::recursive_mutex> lock(io_mu_);
  // The RPC ahead of us on io_mu_ may just have been denied.
  if (DenialStandsNow(pages)) {
    return deny_locally();
  }
  telemetry::ScopedLatencyTimer rtt(RpcRttHist());
  const uint64_t notices_before = notices_;
  Message req;
  req.type = MsgType::kRequestBudget;
  req.seq = next_seq_++;
  req.pages = pages;
  if (Status s = channel_->Send(req); !s.ok()) {
    EnterDegradedLocked("send failed");
    DegradedDenials()->Inc();
    return DeniedError("soft memory daemon unreachable (degraded mode)");
  }
  last_send_ns_ = MonotonicClock::Get()->Now();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.rpc_timeout_ms);
  bool reattached_once = false;
  for (bool first = true;; first = false) {
    if (!first) {
      RpcRetries()->Inc();
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      return UnavailableError("daemon rpc timeout");
    }
    auto m = channel_->Recv(static_cast<int>(left));
    if (!m.ok()) {
      if (m.status().code() == StatusCode::kNotFound) {
        return UnavailableError("daemon rpc timeout");
      }
      // Transport failure mid-RPC: the daemon is gone. Degrade and deny
      // rather than bubbling a confusing channel error into the SMA.
      EnterDegradedLocked("recv failed mid-rpc");
      DegradedDenials()->Inc();
      return DeniedError("soft memory daemon unreachable (degraded mode)");
    }
    switch (m->type) {
      case MsgType::kBudgetReply:
        if (m->seq != req.seq) {
          continue;  // stale reply (should not happen); keep waiting
        }
        if (m->status_code() == StatusCode::kNotFound && !reattached_once) {
          // The daemon no longer knows us: our lease expired while the
          // transport stayed up (e.g. heartbeats disabled and the client
          // idled past the TTL). Reattach on the live channel and retry.
          reattached_once = true;
          size_t overshoot = 0;
          if (ReattachOnChannelLocked(&overshoot).ok()) {
            ShrinkAfterReattach(overshoot);
            req.seq = next_seq_++;
            if (channel_->Send(req).ok()) {
              continue;
            }
          }
          EnterDegradedLocked("reattach after lease expiry failed");
          DegradedDenials()->Inc();
          return DeniedError(
              "soft memory daemon unreachable (degraded mode)");
        }
        if (m->status_code() != StatusCode::kOk) {
          // The denial stands if the daemon says so (pages != 0), no notice
          // overtook the reply, and the poller is there to hear the next.
          const bool stands = m->status_code() == StatusCode::kDenied &&
                              m->pages != 0 && notices_ == notices_before &&
                              poller_started_.load() &&
                              options_.heartbeat_interval_ms > 0;
          denied_pages_.store(pages, std::memory_order_relaxed);
          denied_at_ns_.store(
              stands ? std::max<Nanos>(MonotonicClock::Get()->Now(), 1) : 0,
              std::memory_order_release);
          return Status(m->status_code(), m->text);
        }
        ClearStandingDenial();
        ledger_budget_.fetch_add(m->pages);
        return static_cast<size_t>(m->pages);
      default:
        // A reclaim demand may arrive while we wait — another process's
        // request ranked us as a target. It is serviced inline (the SMA
        // lock is recursive, and our own in-flight request is excluded
        // from targeting by the daemon).
        if (!HandleDaemonInitiatedLocked(*m)) {
          SOFTMEM_LOG(Warning) << "daemon client: unexpected "
                               << MsgTypeName(m->type);
        }
        break;
    }
  }
}

Result<std::string> DaemonClient::QueryStats(const std::string& view) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return UnavailableError("soft memory daemon unreachable (degraded mode)");
  }
  std::lock_guard<std::recursive_mutex> lock(io_mu_);
  Message req;
  req.type = MsgType::kStatsQuery;
  req.seq = next_seq_++;
  req.text = view;
  if (Status s = channel_->Send(req); !s.ok()) {
    EnterDegradedLocked("send failed");
    return UnavailableError("soft memory daemon unreachable (degraded mode)");
  }
  last_send_ns_ = MonotonicClock::Get()->Now();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.rpc_timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      return UnavailableError("daemon rpc timeout");
    }
    auto m = channel_->Recv(static_cast<int>(left));
    if (!m.ok()) {
      if (m.status().code() == StatusCode::kNotFound) {
        return UnavailableError("daemon rpc timeout");
      }
      EnterDegradedLocked("recv failed mid-rpc");
      return UnavailableError(
          "soft memory daemon unreachable (degraded mode)");
    }
    switch (m->type) {
      case MsgType::kStatsReply:
        if (m->seq != req.seq) {
          continue;
        }
        return m->text;
      default:
        // Same inline servicing as RequestBudget: a demand may arrive ahead
        // of our reply when another process's request targets us.
        if (!HandleDaemonInitiatedLocked(*m)) {
          SOFTMEM_LOG(Warning) << "daemon client: unexpected "
                               << MsgTypeName(m->type);
        }
        break;
    }
  }
}

void DaemonClient::ReleaseBudget(size_t pages) {
  // The ledger shrinks even while degraded so a later kReattach claims only
  // what we still hold.
  size_t ledger = ledger_budget_.load();
  while (!ledger_budget_.compare_exchange_weak(
      ledger, ledger - std::min(pages, ledger))) {
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::recursive_mutex> lock(io_mu_);
  Message m;
  m.type = MsgType::kReleaseBudget;
  m.pages = pages;
  if (channel_->Send(m).ok()) {
    last_send_ns_ = MonotonicClock::Get()->Now();
  }
}

void DaemonClient::ReportUsage(size_t soft_pages, size_t traditional_bytes) {
  UsageReport usage;
  usage.soft_pages = soft_pages;
  usage.traditional_bytes = traditional_bytes;
  // Preserve the last idleness figure: the two-argument form comes from
  // callers that simply do not track idleness, not from it going away.
  usage.idle_soft_pages = last_idle_pages_.load();
  ReportUsage(usage);
}

void DaemonClient::ReportUsage(const UsageReport& usage) {
  last_soft_pages_.store(usage.soft_pages);
  last_traditional_bytes_.store(usage.traditional_bytes);
  last_idle_pages_.store(usage.idle_soft_pages);
  if (degraded_.load(std::memory_order_relaxed)) {
    return;  // replayed by the kReattach handshake on recovery
  }
  std::lock_guard<std::recursive_mutex> lock(io_mu_);
  Message m;
  m.type = MsgType::kUsageReport;
  m.pages = usage.soft_pages;
  m.bytes = usage.traditional_bytes;
  m.idle = usage.idle_soft_pages;
  if (channel_->Send(m).ok()) {
    last_send_ns_ = MonotonicClock::Get()->Now();
  }
}

int DaemonClient::PollOnceLocked() {
  // An RPC thread may have consumed the traffic that woke us: kNotFound
  // here is the normal outcome of losing that race, not a timeout.
  auto m = channel_->Recv(0);
  if (m.ok()) {
    if (!HandleDaemonInitiatedLocked(*m)) {
      SOFTMEM_LOG(Warning) << "daemon client poller: unexpected "
                           << MsgTypeName(m->type);
    }
  } else if (m.status().code() != StatusCode::kNotFound) {
    // Hard transport error (EOF/reset): the daemon died. Degrade and go
    // redial instead of silently abandoning the connection.
    EnterDegradedLocked("poller saw transport failure");
    return 0;
  }
  if (options_.heartbeat_interval_ms <= 0) {
    return -1;
  }
  // Refresh the budget lease if we have been quiet for a full interval.
  const Nanos interval =
      static_cast<Nanos>(options_.heartbeat_interval_ms) * kNanosPerMilli;
  const Nanos now = MonotonicClock::Get()->Now();
  if (now - last_send_ns_ >= interval) {
    Message hb;
    hb.type = MsgType::kHeartbeat;
    hb.pages = last_soft_pages_.load();
    hb.bytes = last_traditional_bytes_.load();
    hb.idle = last_idle_pages_.load();
    if (!channel_->Send(hb).ok()) {
      EnterDegradedLocked("heartbeat send failed");
      return 0;
    }
    last_send_ns_ = now;
  }
  // Round up so the wake-up lands at or after the due time.
  const Nanos until_due = last_send_ns_ + interval - now;
  return static_cast<int>((until_due + kNanosPerMilli - 1) / kNanosPerMilli);
}

void DaemonClient::PollerLoop() {
  int backoff_ms = options_.reconnect_backoff_initial_ms;
  while (!stopping_.load()) {
    if (degraded_.load()) {
      if (!factory_) {
        return;  // nothing to redial: degraded is terminal for this client
      }
      if (TryReconnectNow().ok()) {
        backoff_ms = options_.reconnect_backoff_initial_ms;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
      continue;
    }
    backoff_ms = options_.reconnect_backoff_initial_ms;
    std::shared_ptr<MessageChannel> channel;
    int wait_ms = 0;
    {
      std::lock_guard<std::recursive_mutex> lock(io_mu_);
      if (stopping_.load() || degraded_.load()) {
        continue;
      }
      wait_ms = PollOnceLocked();
      channel = channel_;
    }
    // Wait for traffic without io_mu_, so RPC threads never queue behind
    // an idle poller. Closing or swapping channel_ wakes this wait: the
    // old channel is closed first, and the copy keeps it alive meanwhile.
    if (wait_ms != 0) {
      channel->WaitReadable(wait_ms);
    }
  }
}

}  // namespace softmem
