// The Soft Memory Daemon (SMD, §3.3) — machine-wide arbiter of soft memory.
//
// The daemon tracks each process's soft budget and usage. It grants budget
// requests from spare capacity when possible; under pressure it selects a
// *capped* number of reclamation targets in descending reclamation weight —
// biased towards processes in a flexible state (unused budget), which can
// give memory back without disturbance — demands pages back from them, and
// denies the triggering request if the quota cannot be met. It over-reclaims
// by a configurable factor so one reclamation pass amortizes over several
// future requests (§4).
//
// The class is transport-agnostic: each registered process supplies a
// ReclaimSink through which the daemon issues reclamation demands. The
// in-process runtime wires sinks directly to SoftMemoryAllocator instances;
// the Unix-socket server wires them to client connections.
//
// Thread-safe; one lock serializes daemon state. Reclaim demands are issued
// while holding the lock, which serializes reclamation machine-wide exactly
// like the paper's single daemon process.

#ifndef SOFTMEM_SRC_SMD_SOFT_MEMORY_DAEMON_H_
#define SOFTMEM_SRC_SMD_SOFT_MEMORY_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/smd/tenant_tree.h"
#include "src/smd/weight_policy.h"
#include "src/telemetry/event_journal.h"
#include "src/telemetry/metrics.h"

namespace softmem {

using ProcessId = uint64_t;

// How the daemon reaches into a process to take memory back.
class ReclaimSink {
 public:
  virtual ~ReclaimSink() = default;
  // Demand that the process relinquish `pages` pages of soft memory.
  // Returns the pages actually given up (0 if the process cannot comply).
  virtual size_t DemandReclaim(size_t pages) = 0;
  // A standing denial of this process's budget request would now be
  // admitted (see HandleBudgetRequest). Called under the daemon's lock, at
  // most once per standing denial; must not call back into the daemon.
  // In-process sinks ignore it: their requests never stand.
  virtual void BudgetAvailable() {}
};

struct SmdOptions {
  // Machine-wide soft memory capacity.
  size_t capacity_pages = 256 * 1024;  // 1 GiB

  // Cap on the number of processes disturbed per reclamation (§3.3: "selects
  // a capped number of processes ... or hits the cap").
  size_t max_reclaim_targets = 3;

  // Demand this fraction *extra* beyond the immediate need, "which may
  // exceed the immediate soft memory request, in order to amortize
  // reclamation costs" (§4). 0.25 = reclaim 25% more than needed.
  double over_reclaim_factor = 0.25;

  // Budget handed to a process at registration, before any request.
  size_t initial_grant_pages = 0;

  // Per-process ceiling on granted budget (0 = uncapped). This is the
  // scheduler-style "soft memory budget on top of the traditional memory
  // limit" (§1); SetProcessCap overrides it per process.
  size_t default_process_cap_pages = 0;

  // Proactive mode: when ProactiveReclaimTick() finds fewer than this many
  // free pages, it reclaims ahead of demand so the next burst is served
  // without a synchronous pass. 0 disables. (The paper's design is purely
  // reactive — §3.3 "soft memory is a reactive abstraction" — this is the
  // obvious extension; the amortization bench quantifies the benefit.)
  size_t low_watermark_pages = 0;

  // Budget lease TTL. A registered process must refresh its lease within
  // this window — any message it sends refreshes it; kHeartbeat exists so
  // idle clients can — or the next ExpireLeasesTick() deregisters it and
  // returns its budget to the free pool. A crashed client (or one wedged
  // past usefulness) can therefore never strand budget for longer than one
  // TTL plus one tick. 0 disables leases (budgets live until deregistration
  // or transport EOF, the pre-lease behavior).
  Nanos lease_ttl_ns = 0;

  // Time source for lease bookkeeping and reclamation-pass traces. Null =
  // the process-wide monotonic clock; tests inject a SimClock so expiry is
  // a pure function of explicit Advance() calls, never of wall time.
  const Clock* clock = nullptr;

  // Multi-tenant QoS (DESIGN §14). Tenants listed here get their configured
  // class, weight, and nested budget cap; tenants that register without
  // configuration default to batch / weight 1 / uncapped. Processes that
  // never name a tenant land in "default".
  std::vector<TenantSpec> tenants;

  // Fraction of machine capacity held in reserve for latency-critical
  // tenants (softmemd --lc-reserve). Batch grants may not shrink the free
  // pool below this reserve; LC grants may dip into it, so an LC burst is
  // served from headroom instead of a synchronous reclamation pass. 0
  // disables the reserve.
  double lc_reserve_fraction = 0.0;

  // Per reclamation pass, at most this fraction of a victim tenant's claim
  // may be taken on behalf of a *same-class* requester from another tenant
  // — one tenant's demand never bulldozes a peer. Cross-class takings (an
  // LC request draining batch tenants) are bounded by the class ordering
  // itself, not this cap.
  double tenant_isolation_fraction = 0.5;

  // Registry for this daemon's metric series (nullptr = private counters;
  // GetStats still works). See SmaOptions::metrics for the sharing caveat.
  telemetry::MetricsRegistry* metrics = nullptr;
  std::string metrics_instance = "smd";

  // Bound on retained reclamation-pass records (see reclaim_journal()).
  size_t reclaim_journal_capacity = 256;
};

// Per-process view for introspection.
struct SmdProcessStats {
  ProcessId id = 0;
  std::string name;
  std::string tenant;
  CritClass cls = CritClass::kBatch;
  size_t budget_pages = 0;
  size_t used_soft_pages = 0;
  size_t traditional_pages = 0;
  size_t idle_soft_pages = 0;  // cold soft pages per the SMA's access monitor
  double weight = 0.0;
  size_t times_targeted = 0;      // how often picked as a reclamation target
  size_t pages_reclaimed = 0;     // total pages taken from this process
  size_t requests_granted = 0;
  size_t requests_denied = 0;
  Nanos lease_age_ns = 0;  // time since the last lease refresh
};

// Per-tenant aggregate for the TENANTS stats view and telemetry.
struct SmdTenantStats {
  std::string name;
  CritClass cls = CritClass::kBatch;
  double weight = 1.0;
  size_t cap_pages = 0;    // 0 = uncapped
  size_t claim_pages = 0;  // sum of member budgets
  size_t processes = 0;
  size_t requests_granted = 0;
  size_t requests_denied = 0;
  size_t pages_reclaimed = 0;  // taken from this tenant's members
};

struct SmdStats {
  size_t capacity_pages = 0;
  size_t assigned_pages = 0;  // sum of budgets
  size_t free_pages = 0;
  size_t lc_reserve_pages = 0;  // capacity held back from batch grants
  size_t total_requests = 0;
  size_t granted_requests = 0;
  size_t denied_requests = 0;
  size_t reclamations = 0;        // passes that disturbed at least one process
  size_t reclaimed_pages = 0;
  size_t proactive_reclaims = 0;  // watermark-triggered passes
  size_t lease_expirations = 0;   // processes reaped by ExpireLeasesTick
  size_t reattaches = 0;          // kReattach recoveries accepted
  size_t usage_clamps = 0;        // reports with idle > soft, clamped at ingest
  size_t lc_reserve_denials = 0;  // batch requests blocked only by the reserve
  size_t standing_denials = 0;    // processes waiting for a kBudgetAvailable
  size_t budget_notices = 0;      // standing denials lifted by a notice
  // Denials of an LC request while batch tenants still held granted budget —
  // the starvation invariant the fairness suite asserts stays 0 when
  // max_reclaim_targets covers the machine and sinks comply.
  size_t lc_denials_with_batch_headroom = 0;
  std::vector<SmdProcessStats> processes;
  std::vector<SmdTenantStats> tenants;
};

class SoftMemoryDaemon {
 public:
  // `policy` may be null (defaults to PaperWeightPolicy).
  explicit SoftMemoryDaemon(const SmdOptions& options,
                            std::unique_ptr<ReclamationWeightPolicy> policy =
                                nullptr);
  ~SoftMemoryDaemon();

  SoftMemoryDaemon(const SoftMemoryDaemon&) = delete;
  SoftMemoryDaemon& operator=(const SoftMemoryDaemon&) = delete;

  // Registers a process. `sink` must stay valid until deregistration; it may
  // be null for processes that never hold reclaimable memory (pure
  // requesters). Returns the new process id and grants
  // options.initial_grant_pages if capacity (and the tenant's nested budget)
  // allows. `tenant` names the budget-tree node the process is charged
  // under; `cls` is the process's criticality class — overridden by the
  // tenant's configured class when the tenant appears in options.tenants.
  Result<ProcessId> RegisterProcess(std::string name, ReclaimSink* sink,
                                    std::string tenant = "default",
                                    CritClass cls = CritClass::kBatch);

  // Removes the process and returns its budget to the free pool. Used both
  // for orderly exits and when a transport detects a dead peer — the paper's
  // point is precisely that the *memory* outlives the requests.
  //
  // `expected_sink` guards against stale sessions: when non-null, the entry
  // is only removed if its current sink matches. A session whose identity
  // was adopted by a reattaching successor (see ReattachProcess) then
  // deregisters as a no-op instead of destroying the successor's budget.
  Status DeregisterProcess(ProcessId id, ReclaimSink* expected_sink = nullptr);

  // Crash recovery: a client re-presents its identity after the daemon
  // restarted (table lost) or its lease expired (entry reaped). If
  // `prior_id` still has a table entry, the daemon ledger is authoritative:
  // the entry is adopted — sink replaced, lease refreshed, existing budget
  // kept, the claim ignored. Otherwise a fresh entry is created under
  // `prior_id` (or a new id when prior_id is 0 or already unusable) with the
  // claimed budget restored, clamped to free capacity; the caller must read
  // the accepted budget back via GetBudget and shrink to it if clamped.
  Result<ProcessId> ReattachProcess(std::string name, ProcessId prior_id,
                                    size_t claimed_budget_pages,
                                    ReclaimSink* sink,
                                    std::string tenant = "default",
                                    CritClass cls = CritClass::kBatch);

  // Reaps every process whose lease aged past options.lease_ttl_ns,
  // returning its budget to the free pool. Processes with a reclamation
  // demand in flight are spared (they are demonstrably being serviced).
  // Returns the number of processes reaped. No-op when leases are disabled.
  // Call periodically (the softmemd main loop does).
  size_t ExpireLeasesTick();

  // A process asks for `pages` more budget. Returns pages granted (the full
  // request) or kDenied if reclamation could not free enough (§3.3: partial
  // grants are not made; the request is denied).
  //
  // Standing denials: a caller that passes `denial_stands` can deliver
  // ReclaimSink::BudgetAvailable to the process. On a denial the daemon
  // would repeat (cap, tenant cap, no free memory after a pass that
  // recovered nothing; not a partial pass or an injected fault) it then
  // sets *denial_stands, remembers the request, and calls BudgetAvailable
  // once freed memory, a release or a raised cap would admit it — so the
  // process need not ask again before then. The process's next request
  // replaces the record.
  Result<size_t> HandleBudgetRequest(ProcessId id, size_t pages,
                                     bool* denial_stands = nullptr);

  // A process voluntarily returns unused budget.
  Status HandleBudgetRelease(ProcessId id, size_t pages);

  // Fresh usage numbers for the weight policy. `idle_soft_pages` is the
  // reporter's cold-soft-page figure (access monitor; 0 when not monitoring)
  // — idle-aware policies use it, others ignore it.
  Status HandleUsageReport(ProcessId id, size_t soft_pages,
                           size_t traditional_bytes,
                           size_t idle_soft_pages = 0);

  // Sets this process's budget ceiling (0 = uncapped). Requests that would
  // push the budget past the cap are denied without disturbing anyone.
  Status SetProcessCap(ProcessId id, size_t cap_pages);

  // Proactive reclamation: if free capacity has fallen below the configured
  // low watermark, reclaim enough to restore it. Returns pages recovered.
  // Call periodically (the softmemd main loop does).
  size_t ProactiveReclaimTick();

  SmdStats GetStats() const;
  size_t free_pages() const;

  // Bounded ring of structured traces, one per machine-wide reclamation
  // pass (need/quota, targets in visit order, pages recovered, duration).
  const telemetry::SmdReclaimJournal& reclaim_journal() const {
    return reclaim_journal_;
  }

  // Budget currently granted to `id`.
  Result<size_t> GetBudget(ProcessId id) const;

 private:
  struct Process {
    std::string name;
    std::string tenant;
    CritClass cls = CritClass::kBatch;
    TenantTree::NodeId node = 0;  // this process's leaf in the budget tree
    ReclaimSink* sink = nullptr;
    size_t cap_pages = 0;  // 0 = uncapped
    size_t budget_pages = 0;
    size_t used_soft_pages = 0;
    size_t traditional_pages = 0;
    size_t idle_soft_pages = 0;
    size_t times_targeted = 0;
    size_t pages_reclaimed = 0;
    size_t requests_granted = 0;
    size_t requests_denied = 0;
    Nanos last_seen = 0;            // lease refresh timestamp
    size_t standing_pages = 0;      // request of a standing denial (0 = none)
    bool demand_in_flight = false;  // mid-DemandReclaim: spare from expiry
  };

  // Scoped lock with same-thread re-entry: an in-process ReclaimSink runs
  // under mu_ and may legitimately call back into the daemon (an SMA's
  // reclamation reports fresh usage synchronously; lease tests expire from
  // inside a demand). An owner check routes such re-entrant acquisitions to
  // a depth counter instead of deadlocking — the one place the old
  // recursive_mutex semantics survive, mirroring the SMA's CentralLock.
  class DaemonLock {
   public:
    explicit DaemonLock(const SoftMemoryDaemon* d) : d_(d) {
      if (d_->mu_owner_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id()) {
        outermost_ = false;
        ++d_->mu_depth_;
      } else {
        d_->mu_.lock();
        d_->mu_owner_.store(std::this_thread::get_id(),
                            std::memory_order_relaxed);
        d_->mu_depth_ = 1;
        outermost_ = true;
      }
    }
    ~DaemonLock() {
      if (outermost_) {
        d_->mu_owner_.store(std::thread::id{}, std::memory_order_relaxed);
        d_->mu_.unlock();
      } else {
        --d_->mu_depth_;
      }
    }
    DaemonLock(const DaemonLock&) = delete;
    DaemonLock& operator=(const DaemonLock&) = delete;

   private:
    const SoftMemoryDaemon* d_;
    bool outermost_;
  };

  // Per-tenant QoS state. The tree node persists for the daemon's lifetime
  // (cheap, and keeps cumulative counters stable across member churn).
  struct Tenant {
    TenantTree::NodeId node = 0;
    CritClass cls = CritClass::kBatch;
    double weight = 1.0;
    bool configured = false;  // came from options.tenants (class is pinned)
    size_t requests_granted = 0;
    size_t requests_denied = 0;
    size_t pages_reclaimed = 0;
  };

  size_t FreePagesLocked() const {
    return options_.capacity_pages - assigned_pages_;
  }

  // Pages the reserve keeps out of batch hands (0 when disabled).
  size_t LcReservePagesLocked() const;

  // Free pages available to a requester of class `cls`: batch requesters
  // see the pool minus the LC reserve, LC requesters see all of it.
  size_t UsableFreePagesLocked(CritClass cls) const;

  Nanos NowLocked() const { return clock_->Now(); }

  // Why a request for `pages` more budget would not be admitted right now.
  // HandleBudgetRequest and the standing-denial notices share this one
  // predicate, so a notice is sent exactly when a request would be granted
  // without a pass.
  enum class Admission { kAdmit, kProcessCap, kTenantCap, kNoFreeMemory };
  Admission AdmitLocked(const Process& p, size_t pages) const;

  // Forgets `p`'s standing denial, if any.
  void ClearStandingLocked(Process& p);

  // Sends BudgetAvailable to every process whose standing denial would now
  // be admitted. Call wherever free memory or a cap can rise.
  void NoticeStandingDenialsLocked();

  double WeightLocked(const Process& p) const;

  // Finds (or lazily creates) the tenant entry for `name`, applying any
  // configured spec the first time.
  Tenant& TenantLocked(const std::string& name);

  // Moves `grant` pages of budget onto process `p`'s leaf, updating the flat
  // ledger. The caller has already verified headroom.
  void GrantLocked(Process& p, size_t grant);

  // Runs one reclamation pass trying to free `need` pages of budget
  // (plus the over-reclamation margin), never touching `requester`.
  // Victim selection is class-aware: batch tenants drain first (weighted
  // max-min across tenants within a class), LC tenants are touched only for
  // LC or proactive requesters, and same-class cross-tenant takings are
  // capped at tenant_isolation_fraction of the victim tenant's claim.
  // Returns pages recovered into the free pool.
  size_t ReclaimLocked(size_t need, ProcessId requester,
                       bool proactive = false);

  // Binds the counter pointers and (with a registry) registers the series
  // plus the render-time collector. See the SMA's identical scheme.
  void InitTelemetry();
  void CollectTelemetry(std::vector<telemetry::Sample>* out) const;

  const SmdOptions options_;
  std::unique_ptr<ReclamationWeightPolicy> policy_;
  const Clock* clock_;  // options_.clock or the process monotonic clock

  // Plain mutex; mu_owner_/mu_depth_ implement the same-thread re-entry
  // path (see DaemonLock). mu_depth_ is only touched by the owning thread.
  mutable std::mutex mu_;
  mutable std::atomic<std::thread::id> mu_owner_{};
  mutable int mu_depth_ = 0;
  std::map<ProcessId, Process> processes_;
  std::map<std::string, Tenant> tenants_;
  TenantTree tree_;
  ProcessId next_id_ = 1;
  size_t assigned_pages_ = 0;  // mirrors tree_.claim(kRoot); flat fast path

  // Cumulative counters (see SmdStats): registry-owned series when a
  // registry is configured, private storage otherwise — one source of truth
  // either way.
  struct CounterSet {
    telemetry::Counter requests, granted, denied, reclamations,
        reclaimed_pages, proactive, lease_expirations, reattaches,
        usage_clamps, lc_reserve_denials, lc_denials_with_batch_headroom,
        budget_notices;
  };
  CounterSet own_counters_;
  telemetry::Counter* total_requests_ = nullptr;
  telemetry::Counter* granted_requests_ = nullptr;
  telemetry::Counter* denied_requests_ = nullptr;
  telemetry::Counter* reclamations_ = nullptr;
  telemetry::Counter* reclaimed_pages_ = nullptr;
  telemetry::Counter* proactive_reclaims_ = nullptr;
  telemetry::Counter* lease_expirations_ = nullptr;
  telemetry::Counter* reattaches_ = nullptr;
  telemetry::Counter* usage_clamps_ = nullptr;
  telemetry::Counter* lc_reserve_denials_ = nullptr;
  telemetry::Counter* lc_denials_with_batch_headroom_ = nullptr;
  telemetry::Counter* budget_notices_ = nullptr;
  size_t standing_denials_ = 0;  // processes with standing_pages != 0

  telemetry::Histogram* pass_duration_hist_ = nullptr;
  telemetry::Histogram* pass_pages_hist_ = nullptr;
  telemetry::Histogram* lease_age_at_expiry_hist_ = nullptr;

  telemetry::SmdReclaimJournal reclaim_journal_;
  uint64_t collector_id_ = 0;
};

}  // namespace softmem

#endif  // SOFTMEM_SRC_SMD_SOFT_MEMORY_DAEMON_H_
