#include "src/smd/soft_memory_daemon.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/testing/failpoint.h"

namespace softmem {

SoftMemoryDaemon::SoftMemoryDaemon(
    const SmdOptions& options, std::unique_ptr<ReclamationWeightPolicy> policy)
    : options_(options),
      policy_(policy != nullptr ? std::move(policy)
                                : std::make_unique<PaperWeightPolicy>()),
      clock_(options.clock != nullptr ? options.clock : MonotonicClock::Get()),
      tree_(options.capacity_pages),
      reclaim_journal_(options.reclaim_journal_capacity) {
  InitTelemetry();
  // Materialize configured tenants up front so caps and classes apply from
  // the first registration and the TENANTS view lists them even when empty.
  for (const TenantSpec& spec : options_.tenants) {
    TenantLocked(spec.name);
  }
}

SoftMemoryDaemon::~SoftMemoryDaemon() {
  if (options_.metrics != nullptr && collector_id_ != 0) {
    options_.metrics->RemoveCollector(collector_id_);
  }
}

void SoftMemoryDaemon::InitTelemetry() {
  telemetry::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) {
    total_requests_ = &own_counters_.requests;
    granted_requests_ = &own_counters_.granted;
    denied_requests_ = &own_counters_.denied;
    reclamations_ = &own_counters_.reclamations;
    reclaimed_pages_ = &own_counters_.reclaimed_pages;
    proactive_reclaims_ = &own_counters_.proactive;
    lease_expirations_ = &own_counters_.lease_expirations;
    reattaches_ = &own_counters_.reattaches;
    usage_clamps_ = &own_counters_.usage_clamps;
    lc_reserve_denials_ = &own_counters_.lc_reserve_denials;
    lc_denials_with_batch_headroom_ =
        &own_counters_.lc_denials_with_batch_headroom;
    budget_notices_ = &own_counters_.budget_notices;
    return;
  }
  const telemetry::Labels labels = {{"instance", options_.metrics_instance}};
  auto counter = [&](const char* name, const char* help,
                     telemetry::Counter* fallback) {
    telemetry::Counter* c = reg->GetCounter(name, help, labels);
    return c != nullptr ? c : fallback;
  };
  total_requests_ =
      counter("softmem_smd_requests_total", "Budget requests received.",
              &own_counters_.requests);
  granted_requests_ =
      counter("softmem_smd_requests_granted_total", "Budget requests granted.",
              &own_counters_.granted);
  denied_requests_ =
      counter("softmem_smd_requests_denied_total", "Budget requests denied.",
              &own_counters_.denied);
  reclamations_ = counter("softmem_smd_reclamations_total",
                          "Reclamation passes that disturbed a process.",
                          &own_counters_.reclamations);
  reclaimed_pages_ =
      counter("softmem_smd_reclaimed_pages_total",
              "Pages pulled back into the free pool.",
              &own_counters_.reclaimed_pages);
  proactive_reclaims_ =
      counter("softmem_smd_proactive_reclaims_total",
              "Watermark-triggered reclamation passes.",
              &own_counters_.proactive);
  lease_expirations_ =
      counter("softmem_smd_lease_expirations_total",
              "Processes reaped because their budget lease aged past the TTL.",
              &own_counters_.lease_expirations);
  reattaches_ =
      counter("softmem_smd_reattaches_total",
              "kReattach recoveries accepted after a restart or expiry.",
              &own_counters_.reattaches);
  usage_clamps_ =
      counter("softmem_smd_usage_clamps_total",
              "Usage reports whose idle count exceeded soft pages, clamped.",
              &own_counters_.usage_clamps);
  lc_reserve_denials_ =
      counter("softmem_smd_lc_reserve_denials_total",
              "Batch requests denied only to preserve the LC reserve.",
              &own_counters_.lc_reserve_denials);
  lc_denials_with_batch_headroom_ = counter(
      "softmem_smd_lc_denials_with_batch_headroom_total",
      "LC requests denied while batch tenants still held granted budget.",
      &own_counters_.lc_denials_with_batch_headroom);
  budget_notices_ =
      counter("softmem_smd_budget_notices_total",
              "kBudgetAvailable notices: standing denials lifted because "
              "the request would now be admitted.",
              &own_counters_.budget_notices);
  pass_duration_hist_ = reg->GetHistogram(
      "softmem_smd_reclaim_pass_duration_ns",
      "Latency of one machine-wide reclamation pass.",
      telemetry::Histogram::LatencyBoundsNs(), labels);
  pass_pages_hist_ = reg->GetHistogram(
      "softmem_smd_reclaim_pass_pages",
      "Pages recovered per reclamation pass.",
      telemetry::Histogram::PageCountBounds(), labels);
  lease_age_at_expiry_hist_ = reg->GetHistogram(
      "softmem_smd_lease_age_at_expiry_ns",
      "How stale a lease had grown when ExpireLeasesTick reaped it.",
      telemetry::Histogram::LatencyBoundsNs(), labels);
  collector_id_ = reg->AddCollector(
      [this](std::vector<telemetry::Sample>* out) { CollectTelemetry(out); });
}

void SoftMemoryDaemon::CollectTelemetry(
    std::vector<telemetry::Sample>* out) const {
  const std::string& inst = options_.metrics_instance;
  const SmdStats s = GetStats();
  auto gauge = [&](const char* name, const char* help, double v) {
    telemetry::Sample smp;
    smp.name = name;
    smp.help = help;
    smp.kind = telemetry::MetricKind::kGauge;
    smp.labels = {{"instance", inst}};
    smp.value = v;
    out->push_back(std::move(smp));
  };
  gauge("softmem_smd_capacity_pages", "Machine-wide soft memory capacity.",
        static_cast<double>(s.capacity_pages));
  gauge("softmem_smd_assigned_pages", "Sum of granted budgets.",
        static_cast<double>(s.assigned_pages));
  gauge("softmem_smd_free_pages", "Unassigned soft capacity.",
        static_cast<double>(s.free_pages));
  gauge("softmem_smd_processes", "Registered processes.",
        static_cast<double>(s.processes.size()));
  gauge("softmem_smd_lc_reserve_pages",
        "Capacity held back from batch grants for LC tenants.",
        static_cast<double>(s.lc_reserve_pages));
  for (const SmdTenantStats& t : s.tenants) {
    telemetry::Labels tl = {{"instance", inst},
                            {"tenant", t.name},
                            {"class", CritClassName(t.cls)}};
    auto tenant_sample = [&](const char* name, const char* help,
                             telemetry::MetricKind kind, double v) {
      telemetry::Sample smp;
      smp.name = name;
      smp.help = help;
      smp.kind = kind;
      smp.labels = tl;
      smp.value = v;
      out->push_back(std::move(smp));
    };
    using telemetry::MetricKind;
    tenant_sample("softmem_smd_tenant_claim_pages",
                  "Sum of budgets granted to one tenant's members.",
                  MetricKind::kGauge, static_cast<double>(t.claim_pages));
    tenant_sample("softmem_smd_tenant_processes",
                  "Registered member processes of one tenant.",
                  MetricKind::kGauge, static_cast<double>(t.processes));
    tenant_sample("softmem_smd_tenant_requests_granted_total",
                  "Budget requests granted to this tenant's members.",
                  MetricKind::kCounter,
                  static_cast<double>(t.requests_granted));
    tenant_sample("softmem_smd_tenant_requests_denied_total",
                  "Budget requests denied to this tenant's members.",
                  MetricKind::kCounter,
                  static_cast<double>(t.requests_denied));
    tenant_sample("softmem_smd_tenant_pages_reclaimed_total",
                  "Pages taken back from this tenant's members.",
                  MetricKind::kCounter,
                  static_cast<double>(t.pages_reclaimed));
  }
  for (const SmdProcessStats& p : s.processes) {
    telemetry::Labels l = {{"instance", inst},
                           {"pid", std::to_string(p.id)},
                           {"process", p.name}};
    auto proc_sample = [&](const char* name, const char* help,
                           telemetry::MetricKind kind, double v) {
      telemetry::Sample smp;
      smp.name = name;
      smp.help = help;
      smp.kind = kind;
      smp.labels = l;
      smp.value = v;
      out->push_back(std::move(smp));
    };
    using telemetry::MetricKind;
    proc_sample("softmem_smd_process_budget_pages",
                "Soft budget granted to one process.", MetricKind::kGauge,
                static_cast<double>(p.budget_pages));
    proc_sample("softmem_smd_process_soft_pages",
                "Soft pages a process last reported in use.",
                MetricKind::kGauge, static_cast<double>(p.used_soft_pages));
    proc_sample("softmem_smd_process_traditional_pages",
                "Traditional memory a process last reported.",
                MetricKind::kGauge, static_cast<double>(p.traditional_pages));
    proc_sample("softmem_smd_process_weight",
                "Current reclamation weight (higher reclaims first).",
                MetricKind::kGauge, p.weight);
    proc_sample("softmem_smd_process_lease_age_ns",
                "Time since this process last refreshed its budget lease.",
                MetricKind::kGauge, static_cast<double>(p.lease_age_ns));
    proc_sample("softmem_smd_process_times_targeted_total",
                "How often this process was selected as a reclamation target.",
                MetricKind::kCounter, static_cast<double>(p.times_targeted));
    proc_sample("softmem_smd_process_pages_reclaimed_total",
                "Pages taken back from this process.", MetricKind::kCounter,
                static_cast<double>(p.pages_reclaimed));
    proc_sample("softmem_smd_process_requests_granted_total",
                "Budget requests granted to this process.",
                MetricKind::kCounter, static_cast<double>(p.requests_granted));
    proc_sample("softmem_smd_process_requests_denied_total",
                "Budget requests denied to this process.",
                MetricKind::kCounter, static_cast<double>(p.requests_denied));
  }
}

size_t SoftMemoryDaemon::LcReservePagesLocked() const {
  if (options_.lc_reserve_fraction <= 0.0) {
    return 0;
  }
  const double frac = std::min(options_.lc_reserve_fraction, 1.0);
  return static_cast<size_t>(frac *
                             static_cast<double>(options_.capacity_pages));
}

size_t SoftMemoryDaemon::UsableFreePagesLocked(CritClass cls) const {
  const size_t free = FreePagesLocked();
  if (cls == CritClass::kLatencyCritical) {
    return free;
  }
  const size_t reserve = LcReservePagesLocked();
  return free > reserve ? free - reserve : 0;
}

SoftMemoryDaemon::Admission SoftMemoryDaemon::AdmitLocked(const Process& p,
                                                          size_t pages) const {
  if (p.cap_pages != 0 && p.budget_pages + pages > p.cap_pages) {
    return Admission::kProcessCap;
  }
  for (TenantTree::NodeId cur = p.node; cur != TenantTree::kRoot;
       cur = tree_.parent(cur)) {
    const size_t cap = tree_.cap(cur);
    if (cap != 0 && cap - std::min(cap, tree_.claim(cur)) < pages) {
      return Admission::kTenantCap;
    }
  }
  if (UsableFreePagesLocked(p.cls) < pages) {
    return Admission::kNoFreeMemory;
  }
  return Admission::kAdmit;
}

void SoftMemoryDaemon::ClearStandingLocked(Process& p) {
  if (p.standing_pages != 0) {
    p.standing_pages = 0;
    --standing_denials_;
  }
}

void SoftMemoryDaemon::NoticeStandingDenialsLocked() {
  if (standing_denials_ == 0) {
    return;
  }
  std::vector<ReclaimSink*> ready;
  for (auto& [pid, p] : processes_) {
    if (p.standing_pages != 0 &&
        AdmitLocked(p, p.standing_pages) == Admission::kAdmit) {
      ClearStandingLocked(p);
      ready.push_back(p.sink);
    }
  }
  for (ReclaimSink* sink : ready) {
    budget_notices_->Inc();
    sink->BudgetAvailable();
  }
}

SoftMemoryDaemon::Tenant& SoftMemoryDaemon::TenantLocked(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) {
    return it->second;
  }
  Tenant t;
  for (const TenantSpec& spec : options_.tenants) {
    if (spec.name == name) {
      t.cls = spec.cls;
      t.weight = spec.weight > 0.0 ? spec.weight : 1.0;
      t.configured = true;
      break;
    }
  }
  size_t cap = 0;
  if (t.configured) {
    for (const TenantSpec& spec : options_.tenants) {
      if (spec.name == name) {
        cap = spec.cap_pages;
        break;
      }
    }
  }
  t.node = tree_.AddChild(TenantTree::kRoot, name, cap);
  return tenants_.emplace(name, std::move(t)).first->second;
}

void SoftMemoryDaemon::GrantLocked(Process& p, size_t grant) {
  if (grant == 0) {
    return;
  }
  if (!tree_.Charge(p.node, grant)) {
    // Callers verify headroom before granting; a failure here means the
    // flat ledger and the tree diverged.
    SOFTMEM_LOG(Error) << "smd: budget tree rejected a verified grant of "
                       << grant << " pages";
    return;
  }
  p.budget_pages += grant;
  assigned_pages_ += grant;
}

Result<ProcessId> SoftMemoryDaemon::RegisterProcess(std::string name,
                                                    ReclaimSink* sink,
                                                    std::string tenant,
                                                    CritClass cls) {
  DaemonLock lock(this);
  if (tenant.empty()) {
    tenant = "default";
  }
  Tenant& t = TenantLocked(tenant);
  if (t.configured) {
    cls = t.cls;  // configuration pins the class for every member
  } else {
    t.cls = cls;
  }
  const ProcessId id = next_id_++;
  Process p;
  p.name = std::move(name);
  p.tenant = tenant;
  p.cls = cls;
  p.node = tree_.AddChild(t.node, p.name);
  p.sink = sink;
  p.cap_pages = options_.default_process_cap_pages;
  p.last_seen = NowLocked();
  const size_t grant =
      std::min({options_.initial_grant_pages, UsableFreePagesLocked(cls),
                tree_.Headroom(p.node)});
  auto [it, inserted] = processes_.emplace(id, std::move(p));
  GrantLocked(it->second, grant);
  SOFTMEM_LOG(Info) << "smd: registered process " << id << " ('"
                    << it->second.name << "', tenant '" << tenant << "', "
                    << CritClassName(cls) << "), initial grant " << grant
                    << " pages";
  return id;
}

Status SoftMemoryDaemon::DeregisterProcess(ProcessId id,
                                           ReclaimSink* expected_sink) {
  DaemonLock lock(this);
  auto it = processes_.find(id);
  if (it == processes_.end()) {
    return NotFoundError("unknown process");
  }
  if (expected_sink != nullptr && it->second.sink != expected_sink) {
    // The id was adopted by a reattaching successor after this caller's
    // session went stale: removing it now would destroy the successor's
    // budget. Treat the stale deregistration as already satisfied.
    return Status::Ok();
  }
  assigned_pages_ -= it->second.budget_pages;
  (void)tree_.RemoveLeaf(it->second.node);
  ClearStandingLocked(it->second);
  processes_.erase(it);
  SOFTMEM_LOG(Info) << "smd: deregistered process " << id;
  NoticeStandingDenialsLocked();
  return Status::Ok();
}

Result<ProcessId> SoftMemoryDaemon::ReattachProcess(std::string name,
                                                    ProcessId prior_id,
                                                    size_t claimed_budget_pages,
                                                    ReclaimSink* sink,
                                                    std::string tenant,
                                                    CritClass cls) {
  DaemonLock lock(this);
  if (tenant.empty()) {
    tenant = "default";
  }
  auto it = prior_id != 0 ? processes_.find(prior_id) : processes_.end();
  if (it != processes_.end()) {
    // Reattach racing expiry (entry still alive) or a duplicate kReattach:
    // the ledger is authoritative. Adopt the entry — the stale session's
    // eventual deregistration is deflected by the expected_sink guard.
    Process& p = it->second;
    p.name = std::move(name);
    p.sink = sink;
    p.last_seen = NowLocked();
    ClearStandingLocked(p);  // the reattached client asks afresh
    reattaches_->Inc();
    SOFTMEM_LOG(Info) << "smd: process " << prior_id
                      << " reattached to live entry (budget "
                      << p.budget_pages << " pages kept, claim of "
                      << claimed_budget_pages << " ignored)";
    return prior_id;
  }
  // The table lost this process (daemon restart, or its lease expired).
  // Rebuild the entry from the client's claim, clamped to what the pool —
  // and the tenant's nested budget — can actually cover; the caller reads
  // the accepted budget back and shrinks. Recovery ignores the LC reserve:
  // the pages were already the client's before the restart.
  Tenant& t = TenantLocked(tenant);
  if (t.configured) {
    cls = t.cls;
  } else {
    t.cls = cls;
  }
  const ProcessId id = prior_id != 0 ? prior_id : next_id_++;
  // Never mint this id for someone else later (a restarted daemon's
  // next_id_ restarts at 1; surviving clients carry higher prior ids).
  next_id_ = std::max(next_id_, id + 1);
  Process p;
  p.name = std::move(name);
  p.tenant = tenant;
  p.cls = cls;
  p.node = tree_.AddChild(t.node, p.name);
  p.sink = sink;
  p.cap_pages = options_.default_process_cap_pages;
  p.last_seen = NowLocked();
  const size_t accepted = std::min(
      {claimed_budget_pages, FreePagesLocked(), tree_.Headroom(p.node)});
  auto [pit, inserted] = processes_.emplace(id, std::move(p));
  GrantLocked(pit->second, accepted);
  reattaches_->Inc();
  SOFTMEM_LOG(Info) << "smd: process " << id << " ('" << pit->second.name
                    << "') reattached, accepted " << accepted << " of "
                    << claimed_budget_pages << " claimed pages";
  return id;
}

size_t SoftMemoryDaemon::ExpireLeasesTick() {
  DaemonLock lock(this);
  if (options_.lease_ttl_ns <= 0) {
    return 0;
  }
  const Nanos now = NowLocked();
  size_t reaped = 0;
  for (auto it = processes_.begin(); it != processes_.end();) {
    Process& p = it->second;
    const Nanos age = now - p.last_seen;
    if (p.demand_in_flight || age <= options_.lease_ttl_ns) {
      ++it;
      continue;
    }
    assigned_pages_ -= p.budget_pages;
    (void)tree_.RemoveLeaf(p.node);
    ClearStandingLocked(p);
    lease_expirations_->Inc();
    if (lease_age_at_expiry_hist_ != nullptr && age > 0) {
      lease_age_at_expiry_hist_->Observe(static_cast<uint64_t>(age));
    }
    SOFTMEM_LOG(Warning) << "smd: lease expired for process " << it->first
                         << " ('" << p.name << "') after "
                         << age / 1000000 << " ms; reclaimed "
                         << p.budget_pages << " budget pages";
    it = processes_.erase(it);
    ++reaped;
  }
  if (reaped > 0) {
    NoticeStandingDenialsLocked();
  }
  return reaped;
}

double SoftMemoryDaemon::WeightLocked(const Process& p) const {
  ProcessUsage usage;
  usage.soft_pages = p.used_soft_pages;
  usage.budget_pages = p.budget_pages;
  usage.traditional_pages = p.traditional_pages;
  usage.idle_soft_pages = p.idle_soft_pages;
  return policy_->Weight(usage);
}

Result<size_t> SoftMemoryDaemon::HandleBudgetRequest(ProcessId id,
                                                     size_t pages,
                                                     bool* denial_stands) {
  DaemonLock lock(this);
  if (denial_stands != nullptr) {
    *denial_stands = false;
  }
  auto it = processes_.find(id);
  if (it == processes_.end()) {
    return NotFoundError("unknown process");
  }
  it->second.last_seen = NowLocked();
  if (pages == 0) {
    return InvalidArgumentError("zero-page request");
  }
  total_requests_->Inc();
  ClearStandingLocked(it->second);
  // Failpoint: the daemon denies the grant outright (simulated machine-wide
  // pressure). Counted like any other denial so stats stay conserved; it
  // does not stand, since a retry would not be denied the same way.
  if (SOFTMEM_FAULT_FIRED("smd.grant.deny")) {
    denied_requests_->Inc();
    ++it->second.requests_denied;
    return DeniedError("injected fault: smd.grant.deny");
  }
  const std::string tenant_name = it->second.tenant;
  const CritClass cls = it->second.cls;
  auto deny = [&](Process& p, const char* why, bool repeatable) -> Status {
    denied_requests_->Inc();
    ++p.requests_denied;
    auto tit = tenants_.find(p.tenant);
    if (tit != tenants_.end()) {
      ++tit->second.requests_denied;
    }
    if (repeatable && denial_stands != nullptr && p.sink != nullptr) {
      if (p.standing_pages == 0) {
        ++standing_denials_;
      }
      p.standing_pages = pages;
      *denial_stands = true;
    }
    return DeniedError(why);
  };
  Admission admission = AdmitLocked(it->second, pages);
  // The process cap and the tenant's nested budget are hard ceilings: pages
  // freed from *other* tenants cannot raise them, so deny before disturbing
  // anyone. (Members of the same tenant can release voluntarily instead.)
  if (admission == Admission::kProcessCap) {
    return deny(it->second, "request exceeds this process's soft budget cap",
                /*repeatable=*/true);
  }
  if (admission == Admission::kTenantCap) {
    return deny(it->second, "request exceeds the tenant's nested budget cap",
                /*repeatable=*/true);
  }
  const bool pass = admission == Admission::kNoFreeMemory;
  size_t recovered = 0;
  if (pass) {
    // Memory pressure: run a reclamation pass before deciding. Batch
    // requesters must also restore the LC reserve they would dip into.
    const size_t need = pages - UsableFreePagesLocked(cls);
    recovered = ReclaimLocked(need, id);
    // A sink may have re-entered the daemon and mutated the table (an
    // in-process expiry tick, even this requester's own removal): re-find.
    it = processes_.find(id);
    if (it == processes_.end()) {
      return NotFoundError("process vanished during reclamation");
    }
    // The pass only lowers claims, so the caps still hold: this is the
    // free-memory test again.
    admission = AdmitLocked(it->second, pages);
  }
  if (admission != Admission::kAdmit) {
    // §3.3: if the page quota cannot be reached, the triggering request is
    // denied (never partially granted) — this caps the number of processes
    // disturbed per request.
    if (cls == CritClass::kBatch && FreePagesLocked() >= pages) {
      // Only the reserve stood in the way: QoS working as intended.
      lc_reserve_denials_->Inc();
    }
    if (cls == CritClass::kLatencyCritical) {
      // The starvation signal: an LC request failed while batch tenants
      // still held granted budget the pass should have drained.
      for (const auto& [opid, op] : processes_) {
        if (opid != id && op.cls == CritClass::kBatch &&
            op.budget_pages > 0) {
          lc_denials_with_batch_headroom_->Inc();
          break;
        }
      }
    }
    SOFTMEM_LOG(Info) << "smd: denied " << pages << "-page request from "
                      << id << " (tenant '" << tenant_name << "', "
                      << CritClassName(cls) << ")";
    // Only a pass that recovered nothing is one the next request would
    // repeat: a partial pass was cut short (target count, isolation share,
    // demand timeout, partial compliance) and the next may free more.
    Status denied = deny(it->second, "machine soft memory exhausted",
                         /*repeatable=*/recovered == 0);
    // What the pass did recover may still admit a smaller standing request.
    NoticeStandingDenialsLocked();
    return denied;
  }
  GrantLocked(it->second, pages);
  granted_requests_->Inc();
  ++it->second.requests_granted;
  ++TenantLocked(tenant_name).requests_granted;
  if (pass) {
    // The over-reclaimed leftover may admit a standing request.
    NoticeStandingDenialsLocked();
  }
  return pages;
}

Status SoftMemoryDaemon::HandleBudgetRelease(ProcessId id, size_t pages) {
  DaemonLock lock(this);
  auto it = processes_.find(id);
  if (it == processes_.end()) {
    return NotFoundError("unknown process");
  }
  it->second.last_seen = NowLocked();
  const size_t give = std::min(pages, it->second.budget_pages);
  it->second.budget_pages -= give;
  assigned_pages_ -= give;
  tree_.Release(it->second.node, give);
  NoticeStandingDenialsLocked();
  return Status::Ok();
}

Status SoftMemoryDaemon::HandleUsageReport(ProcessId id, size_t soft_pages,
                                           size_t traditional_bytes,
                                           size_t idle_soft_pages) {
  DaemonLock lock(this);
  auto it = processes_.find(id);
  if (it == processes_.end()) {
    return NotFoundError("unknown process");
  }
  it->second.last_seen = NowLocked();
  it->second.used_soft_pages = soft_pages;
  it->second.traditional_pages = PagesForBytes(traditional_bytes);
  // Never trust idle > soft: the figure feeds the weight ranking, so a
  // buggy or hostile client could otherwise inflate its idleness and
  // deflect reclaim onto neighbors. Clamp and count the occurrence.
  if (idle_soft_pages > soft_pages) {
    usage_clamps_->Inc();
  }
  it->second.idle_soft_pages = std::min(idle_soft_pages, soft_pages);
  return Status::Ok();
}

size_t SoftMemoryDaemon::ReclaimLocked(size_t need, ProcessId requester,
                                       bool proactive) {
  telemetry::ReclaimPassTrace trace;
  trace.start = NowLocked();
  trace.need_pages = need;
  trace.proactive = proactive;
  // Over-reclaim to amortize the cost of a pass over future requests (§4).
  const size_t quota =
      need + static_cast<size_t>(
                 std::ceil(options_.over_reclaim_factor *
                           static_cast<double>(need)));
  trace.quota_pages = quota;

  // Requester context for QoS decisions. A proactive pass (requester 0, or
  // an already-vanished requester) serves the whole machine: every class is
  // eligible and no cross-tenant isolation cap applies.
  CritClass req_cls = CritClass::kLatencyCritical;
  std::string req_tenant;
  bool have_requester = false;
  {
    auto rit = processes_.find(requester);
    if (rit != processes_.end()) {
      req_cls = rit->second.cls;
      req_tenant = rit->second.tenant;
      have_requester = true;
    }
  }

  // Rank candidates and keep the top K — the cap on how many processes one
  // request may disturb. Class ordering dominates (batch tenants drain
  // before any LC tenant is touched; a batch requester may never victimize
  // an LC process at all), then weighted max-min across tenants within a
  // class (take from the tenant with the largest claim/weight first), then
  // descending process weight within a tenant.
  struct Cand {
    ProcessId pid = 0;
    CritClass cls = CritClass::kBatch;
    double tenant_share = 0.0;
    double weight = 0.0;
    bool flexible = false;
  };
  std::vector<Cand> ranked;
  for (const auto& [pid, p] : processes_) {
    if (pid == requester || p.budget_pages == 0) {
      continue;
    }
    if (p.cls == CritClass::kLatencyCritical &&
        req_cls == CritClass::kBatch) {
      continue;  // batch demand never reclaims from a latency-critical tenant
    }
    Cand c;
    c.pid = pid;
    c.cls = p.cls;
    const auto tit = tenants_.find(p.tenant);
    const double tw =
        tit != tenants_.end() && tit->second.weight > 0.0 ? tit->second.weight
                                                          : 1.0;
    const size_t tclaim =
        tit != tenants_.end() ? tree_.claim(tit->second.node) : p.budget_pages;
    c.tenant_share = static_cast<double>(tclaim) / tw;
    c.weight = WeightLocked(p);
    c.flexible = p.budget_pages > p.used_soft_pages;
    ranked.push_back(c);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Cand& a, const Cand& b) {
                     if (a.cls != b.cls) {
                       // kBatch > kLatencyCritical numerically: batch first.
                       return static_cast<uint8_t>(a.cls) >
                              static_cast<uint8_t>(b.cls);
                     }
                     if (a.tenant_share != b.tenant_share) {
                       return a.tenant_share > b.tenant_share;
                     }
                     return a.weight > b.weight;
                   });
  if (ranked.size() > options_.max_reclaim_targets) {
    ranked.resize(options_.max_reclaim_targets);
  }

  // Bias towards flexible targets: a process whose budget exceeds its
  // reported soft usage can give pages back with little or no disturbance
  // (§4: "only when the SMD cannot find a better option, it will return to
  // the first target and trigger reclamation"). Visit flexible targets
  // first *within each class segment* — flexibility never promotes an LC
  // process ahead of a batch one.
  std::vector<ProcessId> order;
  order.reserve(ranked.size());
  for (const CritClass seg :
       {CritClass::kBatch, CritClass::kLatencyCritical}) {
    for (const Cand& c : ranked) {
      if (c.cls == seg && c.flexible) {
        order.push_back(c.pid);
      }
    }
    for (const Cand& c : ranked) {
      if (c.cls == seg && !c.flexible) {
        order.push_back(c.pid);
      }
    }
  }

  // Per-pass isolation allowance: one tenant's demand may take at most
  // tenant_isolation_fraction of a *same-class* peer tenant's claim (as of
  // pass start). Cross-class drainage (LC emptying batch) is uncapped —
  // the class ordering is the policy there.
  std::map<std::string, size_t> same_class_allowance;
  if (have_requester && options_.tenant_isolation_fraction < 1.0) {
    const double frac = std::max(options_.tenant_isolation_fraction, 0.0);
    for (const Cand& c : ranked) {
      const Process& p = processes_.at(c.pid);
      if (p.cls != req_cls || p.tenant == req_tenant) {
        continue;
      }
      if (same_class_allowance.count(p.tenant) != 0) {
        continue;
      }
      const auto tit = tenants_.find(p.tenant);
      const size_t tclaim =
          tit != tenants_.end() ? tree_.claim(tit->second.node)
                                : p.budget_pages;
      same_class_allowance[p.tenant] = static_cast<size_t>(
          std::ceil(frac * static_cast<double>(tclaim)));
    }
  }

  size_t recovered = 0;
  bool disturbed = false;
  for (ProcessId pid : order) {
    if (recovered >= quota) {
      break;
    }
    auto target = processes_.find(pid);
    if (target == processes_.end()) {
      // Erased by a re-entrant call (e.g. an in-process sink running the
      // expiry tick) since the candidate list was built.
      continue;
    }
    size_t demand = std::min(quota - recovered, target->second.budget_pages);
    auto allowance = same_class_allowance.find(target->second.tenant);
    if (allowance != same_class_allowance.end()) {
      demand = std::min(demand, allowance->second);
    }
    if (demand == 0) {
      continue;
    }
    size_t got = 0;
    ReclaimSink* sink = target->second.sink;
    if (sink != nullptr) {
      // The sink is demonstrably alive while servicing this demand: spare it
      // from a concurrent (re-entrant) expiry pass, and count a successful
      // response as a lease refresh.
      target->second.demand_in_flight = true;
      got = sink->DemandReclaim(demand);
      // DemandReclaim may re-enter the daemon and invalidate `target`.
      target = processes_.find(pid);
      if (target == processes_.end()) {
        continue;
      }
      target->second.demand_in_flight = false;
      target->second.last_seen = NowLocked();
    }
    Process& p = target->second;
    got = std::min(got, p.budget_pages);  // a sink cannot give up more than
                                          // the ledger says it holds
    trace.targets.push_back(
        telemetry::ReclaimPassTrace::Target{pid, p.name, demand, got});
    if (got > 0) {
      p.budget_pages -= got;
      assigned_pages_ -= got;
      tree_.Release(p.node, got);
      p.times_targeted += 1;
      p.pages_reclaimed += got;
      auto tit = tenants_.find(p.tenant);
      if (tit != tenants_.end()) {
        tit->second.pages_reclaimed += got;
      }
      if (allowance != same_class_allowance.end()) {
        // An over-compliant sink may hand back more than demanded; saturate
        // rather than underflow the allowance.
        allowance->second -= std::min(allowance->second, got);
      }
      recovered += got;
      disturbed = true;
      SOFTMEM_LOG(Info) << "smd: reclaimed " << got << " pages from process "
                        << pid << " ('" << p.name << "')";
    }
  }
  if (disturbed) {
    reclamations_->Inc();
    reclaimed_pages_->Inc(recovered);
  }
  trace.recovered_pages = recovered;
  trace.total_ns = NowLocked() - trace.start;
  reclaim_journal_.Append(trace);
  if (pass_duration_hist_ != nullptr) {
    pass_duration_hist_->Observe(static_cast<uint64_t>(trace.total_ns));
    pass_pages_hist_->Observe(recovered);
  }
  return recovered;
}

Status SoftMemoryDaemon::SetProcessCap(ProcessId id, size_t cap_pages) {
  DaemonLock lock(this);
  auto it = processes_.find(id);
  if (it == processes_.end()) {
    return NotFoundError("unknown process");
  }
  it->second.cap_pages = cap_pages;
  NoticeStandingDenialsLocked();
  return Status::Ok();
}

size_t SoftMemoryDaemon::ProactiveReclaimTick() {
  DaemonLock lock(this);
  if (options_.low_watermark_pages == 0 ||
      FreePagesLocked() >= options_.low_watermark_pages) {
    return 0;
  }
  const size_t need = options_.low_watermark_pages - FreePagesLocked();
  // Exclude nobody: there is no requester; the watermark speaks for future
  // ones. ProcessId 0 is never assigned (ids start at 1).
  const size_t got = ReclaimLocked(need, /*requester=*/0, /*proactive=*/true);
  if (got > 0) {
    proactive_reclaims_->Inc();
    NoticeStandingDenialsLocked();
  }
  return got;
}

SmdStats SoftMemoryDaemon::GetStats() const {
  DaemonLock lock(this);
  SmdStats s;
  s.capacity_pages = options_.capacity_pages;
  s.assigned_pages = assigned_pages_;
  s.free_pages = FreePagesLocked();
  s.lc_reserve_pages = LcReservePagesLocked();
  s.total_requests = total_requests_->Value();
  s.granted_requests = granted_requests_->Value();
  s.denied_requests = denied_requests_->Value();
  s.reclamations = reclamations_->Value();
  s.reclaimed_pages = reclaimed_pages_->Value();
  s.proactive_reclaims = proactive_reclaims_->Value();
  s.lease_expirations = lease_expirations_->Value();
  s.reattaches = reattaches_->Value();
  s.usage_clamps = usage_clamps_->Value();
  s.lc_reserve_denials = lc_reserve_denials_->Value();
  s.lc_denials_with_batch_headroom =
      lc_denials_with_batch_headroom_->Value();
  s.standing_denials = standing_denials_;
  s.budget_notices = budget_notices_->Value();
  for (const auto& [tname, t] : tenants_) {
    SmdTenantStats ts;
    ts.name = tname;
    ts.cls = t.cls;
    ts.weight = t.weight;
    ts.cap_pages = tree_.cap(t.node);
    ts.claim_pages = tree_.claim(t.node);
    ts.requests_granted = t.requests_granted;
    ts.requests_denied = t.requests_denied;
    ts.pages_reclaimed = t.pages_reclaimed;
    for (const auto& [pid, p] : processes_) {
      if (p.tenant == tname) {
        ++ts.processes;
      }
    }
    s.tenants.push_back(std::move(ts));
  }
  const Nanos now = NowLocked();
  for (const auto& [pid, p] : processes_) {
    SmdProcessStats ps;
    ps.id = pid;
    ps.name = p.name;
    ps.tenant = p.tenant;
    ps.cls = p.cls;
    ps.budget_pages = p.budget_pages;
    ps.used_soft_pages = p.used_soft_pages;
    ps.traditional_pages = p.traditional_pages;
    ps.idle_soft_pages = p.idle_soft_pages;
    ps.weight = WeightLocked(p);
    ps.times_targeted = p.times_targeted;
    ps.pages_reclaimed = p.pages_reclaimed;
    ps.requests_granted = p.requests_granted;
    ps.requests_denied = p.requests_denied;
    ps.lease_age_ns = now > p.last_seen ? now - p.last_seen : 0;
    s.processes.push_back(std::move(ps));
  }
  return s;
}

Result<size_t> SoftMemoryDaemon::GetBudget(ProcessId id) const {
  DaemonLock lock(this);
  auto it = processes_.find(id);
  if (it == processes_.end()) {
    return NotFoundError("unknown process");
  }
  return it->second.budget_pages;
}

size_t SoftMemoryDaemon::free_pages() const {
  DaemonLock lock(this);
  return FreePagesLocked();
}

}  // namespace softmem
