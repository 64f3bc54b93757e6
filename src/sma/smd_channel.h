// Channel from a process's SMA to the machine-wide Soft Memory Daemon.
//
// The SMA asks for budget through this interface; implementations are
//  * NullSmdChannel        — no daemon; the SMA lives on a fixed budget,
//  * runtime::SimMachine   — in-process daemon, synchronous calls,
//  * ipc::DaemonClient     — real daemon over a Unix socket.
//
// Reclaim demands flow the *other* way (daemon -> process); transports
// deliver them by invoking SoftMemoryAllocator::HandleReclaimDemand.

#ifndef SOFTMEM_SRC_SMA_SMD_CHANNEL_H_
#define SOFTMEM_SRC_SMA_SMD_CHANNEL_H_

#include <cstddef>

#include "src/common/status.h"

namespace softmem {

// One usage report from an SMA to the daemon. `idle_soft_pages` is the
// committed soft pages whose backing memory has gone cold per the access
// monitor's last completed sweep (0 when monitoring is off) — the daemon's
// idle-aware weight policy prefers reclaiming from processes holding cold
// soft memory.
struct UsageReport {
  size_t soft_pages = 0;
  size_t traditional_bytes = 0;
  size_t idle_soft_pages = 0;
};

class SmdChannel {
 public:
  virtual ~SmdChannel() = default;

  // Asks the daemon to raise this process's soft budget by `pages`.
  // Returns the pages actually granted (the daemon may reclaim from other
  // processes to satisfy this). An error of kDenied means the daemon could
  // not free enough memory and refused the request (§3.3).
  virtual Result<size_t> RequestBudget(size_t pages) = 0;

  // Returns `pages` of unused budget to the daemon (e.g. after the SMA gave
  // up memory voluntarily). Best effort.
  virtual void ReleaseBudget(size_t pages) = 0;

  // Reports current usage so the daemon's reclamation-weight policy sees
  // fresh numbers. `soft_pages`: committed soft pages. `traditional_bytes`:
  // the process's ordinary heap footprint.
  virtual void ReportUsage(size_t soft_pages, size_t traditional_bytes) = 0;

  // Structured form carrying the idleness figure too. The default forwards
  // to the two-argument overload so existing channel implementations (and
  // test fakes) keep working unchanged; transports that speak the full
  // protocol (DaemonClient, SimMachine) override this one.
  virtual void ReportUsage(const UsageReport& usage) {
    ReportUsage(usage.soft_pages, usage.traditional_bytes);
  }

  // False while the transport to the daemon is down (DaemonClient degraded
  // mode). The SMA fast-denies budget requests instead of paying an RPC that
  // cannot succeed. In-process channels are always connected.
  virtual bool connected() const { return true; }

  // Budget requests this channel denied without asking the daemon, because
  // an earlier denial still stands (DaemonClient). In-process channels ask
  // every time.
  virtual size_t local_denials() const { return 0; }
};

// Stand-alone mode: whatever budget the SMA was created with is all it gets.
class NullSmdChannel : public SmdChannel {
 public:
  using SmdChannel::ReportUsage;
  Result<size_t> RequestBudget(size_t) override {
    return DeniedError("no soft memory daemon connected");
  }
  void ReleaseBudget(size_t) override {}
  void ReportUsage(size_t, size_t) override {}
};

}  // namespace softmem

#endif  // SOFTMEM_SRC_SMA_SMD_CHANNEL_H_
