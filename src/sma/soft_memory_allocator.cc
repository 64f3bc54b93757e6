#include "src/sma/soft_memory_allocator.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/sma/transfer_cache.h"
#include "src/testing/failpoint.h"

namespace softmem {
namespace {

// Distinguishes allocator instances that reuse a freed instance's address
// (thread-local caches key on the pointer; see thread_cache.h).
std::atomic<uint64_t> g_instance_generation{1};

// page_descr_ encoding: valid-slab bit | size_class << 16 | context id.
constexpr uint32_t kDescrSlabBit = 1u << 24;

// Spreads threads across transfer-stack shards so concurrent flushes of the
// same (context, class) mostly CAS on different heads.
size_t TransferShardHint() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % TransferCache::kShards;
  return shard;
}

}  // namespace

Result<std::unique_ptr<SoftMemoryAllocator>> SoftMemoryAllocator::Create(
    const SmaOptions& options, SmdChannel* channel) {
  std::unique_ptr<PageSource> source;
  if (options.use_mmap) {
    SOFTMEM_ASSIGN_OR_RETURN(MmapPageSource * raw,
                             MmapPageSource::Create(options.region_pages));
    source.reset(raw);
  } else {
    source = std::make_unique<SimPageSource>(options.region_pages);
  }
  return CreateWithSource(options, channel, std::move(source));
}

Result<std::unique_ptr<SoftMemoryAllocator>>
SoftMemoryAllocator::CreateWithSource(const SmaOptions& options,
                                      SmdChannel* channel,
                                      std::unique_ptr<PageSource> source) {
  if (source == nullptr || source->page_count() == 0) {
    return InvalidArgumentError("page source must be non-empty");
  }
  SOFTMEM_ASSIGN_OR_RETURN(SideTables tables,
                           SideTables::Map(source->page_count()));
  auto sma = std::unique_ptr<SoftMemoryAllocator>(new SoftMemoryAllocator(
      options, channel, std::move(source), std::move(tables)));
  if (options.access_monitor.enabled) {
    SOFTMEM_RETURN_IF_ERROR(sma->SetAccessMonitorEnabled(true));
  }
  // The implicit default context (id 0) backs the bare soft_malloc API.
  ContextOptions default_opts;
  default_opts.name = "default";
  default_opts.priority = 0;
  default_opts.mode = ReclaimMode::kOldestFirst;
  auto ctx = sma->CreateContext(default_opts);
  if (!ctx.ok()) {
    return ctx.status();
  }
  assert(*ctx == kDefaultContext);
  return sma;
}

Result<SoftMemoryAllocator::SideTables> SoftMemoryAllocator::SideTables::Map(
    size_t region_pages) {
  SideTables t;
  SOFTMEM_ASSIGN_OR_RETURN(t.metas,
                           LazyZeroArray<PageMeta>::Create(region_pages));
  SOFTMEM_ASSIGN_OR_RETURN(
      t.page_descr, LazyZeroArray<std::atomic<uint32_t>>::Create(region_pages));
  SOFTMEM_ASSIGN_OR_RETURN(
      t.ctx_flags, LazyZeroArray<std::atomic<uint8_t>>::Create(kMaxContexts));
  SOFTMEM_ASSIGN_OR_RETURN(
      t.ctx_gate, LazyZeroArray<std::atomic<uint32_t>>::Create(kMaxContexts));
  SOFTMEM_ASSIGN_OR_RETURN(
      t.xfer, LazyZeroArray<std::atomic<TransferCache*>>::Create(kMaxContexts));
  return t;
}

SoftMemoryAllocator::SoftMemoryAllocator(const SmaOptions& options,
                                         SmdChannel* channel,
                                         std::unique_ptr<PageSource> source,
                                         SideTables tables)
    : options_(options),
      channel_(channel != nullptr ? channel : &null_channel_),
      instance_generation_(
          g_instance_generation.fetch_add(1, std::memory_order_relaxed)),
      pool_(std::move(source)),
      metas_(std::move(tables.metas)),
      budget_pages_(options.initial_budget_pages),
      page_descr_(std::move(tables.page_descr)),
      ctx_flags_(std::move(tables.ctx_flags)),
      xfer_(std::move(tables.xfer)),
      ctx_gate_(std::move(tables.ctx_gate)),
      scheme_min_idle_ns_(options.access_monitor.idle_threshold_ns),
      reclaim_journal_(options.reclaim_journal_capacity) {
  region_base_ = reinterpret_cast<uintptr_t>(pool_.PageAddress(0));
  region_bytes_ = pool_.total_pages() * kPageSize;
  InitTelemetry();
  tcache_internal::OnAllocatorCreated(this, instance_generation_);
}

SoftMemoryAllocator::~SoftMemoryAllocator() {
  // The collector captures `this`: it must be gone before any member is.
  if (options_.metrics != nullptr && collector_id_ != 0) {
    options_.metrics->RemoveCollector(collector_id_);
  }
  // Threads still holding caches for this instance detect its death (or an
  // address reuse, via the generation) and drop them without flushing.
  tcache_internal::OnAllocatorDestroyed(this);
  for (size_t id = 0; id < kMaxContexts; ++id) {
    delete xfer_[id].load(std::memory_order_relaxed);
  }
  delete monitor_.load(std::memory_order_relaxed);
}

// ---- Telemetry --------------------------------------------------------------

void SoftMemoryAllocator::InitTelemetry() {
  telemetry::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) {
    // No registry: counters are private members; GetStats/stats_text still
    // read them through the same pointers.
    total_allocs_ = &own_counters_.allocs;
    total_frees_ = &own_counters_.frees;
    budget_requests_ = &own_counters_.budget_requests;
    budget_request_failures_ = &own_counters_.budget_failures;
    degraded_denials_ = &own_counters_.degraded_denials;
    reclaim_demands_ = &own_counters_.reclaim_demands;
    reclaimed_pages_ = &own_counters_.reclaimed_pages;
    reclaim_callbacks_ = &own_counters_.reclaim_callbacks;
    self_reclaims_ = &own_counters_.self_reclaims;
    cache_revocations_ = &own_counters_.cache_revocations;
    cache_hits_ = &own_counters_.cache_hits;
    cache_misses_ = &own_counters_.cache_misses;
    transfer_hits_ = &own_counters_.transfer_hits;
    transfer_flushes_ = &own_counters_.transfer_flushes;
    pin_grace_timeouts_ = &own_counters_.pin_grace_timeouts;
    pages_committed_ = &own_counters_.pages_committed;
    pages_decommitted_ = &own_counters_.pages_decommitted;
    monitor_ticks_ = &own_counters_.monitor_ticks;
    monitor_pages_ = &own_counters_.monitor_pages;
    monitor_ns_ = &own_counters_.monitor_ns;
    scheme_cold_drops_ = &own_counters_.scheme_cold_drops;
    scheme_hot_drops_ = &own_counters_.scheme_hot_drops;
    return;
  }
  const telemetry::Labels labels = {{"instance", options_.metrics_instance}};
  // GetCounter returns nullptr on a kind clash with a pre-existing series;
  // fall back to the private member so the hot path never checks for null.
  auto counter = [&](const char* name, const char* help,
                     telemetry::Counter* fallback) {
    telemetry::Counter* c = reg->GetCounter(name, help, labels);
    return c != nullptr ? c : fallback;
  };
  total_allocs_ = counter("softmem_sma_allocs_total",
                          "Soft allocations served (soft_malloc successes).",
                          &own_counters_.allocs);
  total_frees_ = counter("softmem_sma_frees_total",
                         "Soft allocations released (soft_free calls).",
                         &own_counters_.frees);
  budget_requests_ =
      counter("softmem_sma_budget_requests_total",
              "Budget RPC round-trips to the daemon.",
              &own_counters_.budget_requests);
  budget_request_failures_ =
      counter("softmem_sma_budget_request_failures_total",
              "Budget RPCs denied or failed.", &own_counters_.budget_failures);
  degraded_denials_ =
      counter("softmem_sma_degraded_denials_total",
              "Budget requests denied locally while the daemon channel was "
              "down (no RPC attempted).",
              &own_counters_.degraded_denials);
  reclaim_demands_ =
      counter("softmem_sma_reclaim_demands_total",
              "Reclamation demands executed.", &own_counters_.reclaim_demands);
  reclaimed_pages_ =
      counter("softmem_sma_reclaimed_pages_total",
              "Pages relinquished to the daemon.",
              &own_counters_.reclaimed_pages);
  reclaim_callbacks_ =
      counter("softmem_sma_reclaim_callbacks_total",
              "SDS reclaim callbacks invoked.",
              &own_counters_.reclaim_callbacks);
  self_reclaims_ =
      counter("softmem_sma_self_reclaims_total",
              "Self-reclamation passes after a budget denial.",
              &own_counters_.self_reclaims);
  cache_revocations_ =
      counter("softmem_sma_cache_revocations_total",
              "Magazine revocation waves (epoch bumps).",
              &own_counters_.cache_revocations);
  cache_hits_ = counter("softmem_sma_cache_hits_total",
                        "Allocations served from a thread-local magazine.",
                        &own_counters_.cache_hits);
  cache_misses_ =
      counter("softmem_sma_cache_misses_total",
              "Magazine misses (central refill taken).",
              &own_counters_.cache_misses);
  transfer_hits_ =
      counter("softmem_sma_transfer_hits_total",
              "Magazine refills served by the lock-free transfer stacks.",
              &own_counters_.transfer_hits);
  transfer_flushes_ =
      counter("softmem_sma_transfer_flushes_total",
              "Magazine overflow chains parked on the transfer stacks.",
              &own_counters_.transfer_flushes);
  pin_grace_timeouts_ =
      counter("softmem_sma_pin_grace_timeouts_total",
              "Victim contexts skipped because a reader outlived the pin "
              "grace period.",
              &own_counters_.pin_grace_timeouts);
  pages_committed_ =
      counter("softmem_sma_pages_committed_total",
              "Fresh page commits against the budget.",
              &own_counters_.pages_committed);
  pages_decommitted_ =
      counter("softmem_sma_pages_decommitted_total",
              "Pages decommitted (reclamation and voluntary trims).",
              &own_counters_.pages_decommitted);
  monitor_ticks_ =
      counter("softmem_sma_monitor_ticks_total",
              "Access-monitor sampling ticks executed.",
              &own_counters_.monitor_ticks);
  monitor_pages_ =
      counter("softmem_sma_monitor_pages_sampled_total",
              "Pages examined by the access-monitor sampler.",
              &own_counters_.monitor_pages);
  monitor_ns_ =
      counter("softmem_sma_monitor_sample_ns_total",
              "Cumulative wall time spent in the sampler (overhead).",
              &own_counters_.monitor_ns);
  scheme_cold_drops_ =
      counter("softmem_sma_scheme_cold_drops_total",
              "Allocations dropped by the cold-first scheme pass.",
              &own_counters_.scheme_cold_drops);
  scheme_hot_drops_ =
      counter("softmem_sma_scheme_hot_drops_total",
              "Allocations dropped by the oldest-first fallback while the "
              "access monitor was on (hot memory given up).",
              &own_counters_.scheme_hot_drops);

  reclaim_duration_hist_ = reg->GetHistogram(
      "softmem_sma_reclaim_duration_ns",
      "End-to-end latency of one reclamation demand.",
      telemetry::Histogram::LatencyBoundsNs(), labels);
  reclaim_pages_hist_ = reg->GetHistogram(
      "softmem_sma_reclaim_pages",
      "Pages produced per reclamation demand.",
      telemetry::Histogram::PageCountBounds(), labels);
  auto phase_hist = [&](const char* phase) {
    telemetry::Labels l = labels;
    l.emplace_back("phase", phase);
    return reg->GetHistogram("softmem_sma_reclaim_phase_duration_ns",
                             "Per-phase latency within a reclamation demand.",
                             telemetry::Histogram::LatencyBoundsNs(), l);
  };
  phase_revoke_hist_ = phase_hist("revoke");
  phase_slack_hist_ = phase_hist("slack");
  phase_pool_hist_ = phase_hist("pool");
  phase_sds_hist_ = phase_hist("sds");

  collector_id_ = reg->AddCollector(
      [this](std::vector<telemetry::Sample>* out) { CollectTelemetry(out); });
}

void SoftMemoryAllocator::CollectTelemetry(
    std::vector<telemetry::Sample>* out) const {
  const std::string& inst = options_.metrics_instance;
  const SmaStats s = GetStats();
  auto gauge = [&](const char* name, const char* help, double v) {
    telemetry::Sample smp;
    smp.name = name;
    smp.help = help;
    smp.kind = telemetry::MetricKind::kGauge;
    smp.labels = {{"instance", inst}};
    smp.value = v;
    out->push_back(std::move(smp));
  };
  gauge("softmem_sma_budget_pages", "Current soft budget.",
        static_cast<double>(s.budget_pages));
  gauge("softmem_sma_committed_pages", "Physical pages currently held.",
        static_cast<double>(s.committed_pages));
  gauge("softmem_sma_pooled_pages", "Committed but unassigned pages.",
        static_cast<double>(s.pooled_pages));
  gauge("softmem_sma_in_use_pages", "Committed pages assigned to heaps.",
        static_cast<double>(s.in_use_pages));
  gauge("softmem_sma_contexts", "Live SDS contexts.",
        static_cast<double>(s.context_count));
  gauge("softmem_sma_live_allocations", "Live soft allocations.",
        static_cast<double>(s.live_allocations));
  gauge("softmem_sma_allocated_bytes", "Sum of live slot sizes.",
        static_cast<double>(s.allocated_bytes));
  gauge("softmem_sma_access_monitor_enabled",
        "1 while DAMON-style access monitoring is on.",
        s.access_monitor_enabled ? 1.0 : 0.0);
  gauge("softmem_sma_monitor_idle_pages",
        "Cold pages at the last completed sampling sweep.",
        static_cast<double>(s.monitor_idle_pages));
  gauge("softmem_sma_scheme_min_idle_ns",
        "Scheme threshold: pages idle at least this long count as cold.",
        static_cast<double>(scheme_min_idle()));

  CentralLock lock(this);
  for (ContextId id = 0; id < contexts_.size(); ++id) {
    const Context* c = contexts_[id].get();
    if (!c->alive) {
      continue;
    }
    telemetry::Labels l = {
        {"context",
         c->options.name.empty() ? "ctx" + std::to_string(id)
                                 : c->options.name},
        {"instance", inst}};
    auto ctx_sample = [&](const char* name, const char* help,
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
    ctx_sample("softmem_sma_context_live_allocations",
               "Live allocations of one SDS context.", MetricKind::kGauge,
               static_cast<double>(c->heap.live_allocations));
    ctx_sample("softmem_sma_context_allocated_bytes",
               "Live bytes of one SDS context.", MetricKind::kGauge,
               static_cast<double>(c->heap.allocated_bytes));
    ctx_sample("softmem_sma_context_owned_pages",
               "Pages owned by one SDS context.", MetricKind::kGauge,
               static_cast<double>(c->heap.owned_pages));
    ctx_sample("softmem_sma_context_priority",
               "Reclamation priority (lower reclaims first).",
               MetricKind::kGauge, static_cast<double>(c->options.priority));
    ctx_sample("softmem_sma_context_reclaimed_allocations_total",
               "Allocations revoked from one SDS context.",
               MetricKind::kCounter,
               static_cast<double>(c->reclaimed_allocations));
    ctx_sample("softmem_sma_context_reclaimed_bytes_total",
               "Bytes revoked from one SDS context.", MetricKind::kCounter,
               static_cast<double>(c->reclaimed_bytes));
    ctx_sample("softmem_sma_context_hot_bytes",
               "Bytes on pages seen hot at the last sampling sweep.",
               MetricKind::kGauge, static_cast<double>(c->hot_bytes));
    ctx_sample("softmem_sma_context_cold_bytes",
               "Bytes on pages idle past the scheme threshold at the last "
               "sampling sweep.",
               MetricKind::kGauge, static_cast<double>(c->cold_bytes));
  }
}

// ---- Contexts --------------------------------------------------------------

Result<ContextId> SoftMemoryAllocator::CreateContext(
    const ContextOptions& options) {
  CentralLock lock(this);
  if (contexts_.size() >= kMaxContexts - 1) {
    return ResourceExhaustedError("too many contexts");
  }
  auto ctx = std::make_unique<Context>();
  ctx->options = options;
  ctx->alive = true;
  contexts_.push_back(std::move(ctx));
  const auto id = static_cast<ContextId>(contexts_.size() - 1);
  // kOldestFirst allocations must enter the central age registry, so only
  // the other modes may be served from per-thread magazines.
  const bool cacheable = options.mode != ReclaimMode::kOldestFirst;
  if (cacheable && options_.thread_cache && options_.transfer_cache) {
    xfer_[id].store(new TransferCache(static_cast<char*>(pool_.PageAddress(0))),
                    std::memory_order_release);
  }
  ctx_flags_[id].store(
      static_cast<uint8_t>(kCtxAlive | (cacheable ? kCtxCacheable : 0)),
      std::memory_order_release);
  return id;
}

Status SoftMemoryAllocator::DestroyContext(ContextId id) {
  CentralLock lock(this);
  if (id == kDefaultContext) {
    return InvalidArgumentError("the default context cannot be destroyed");
  }
  if (id >= contexts_.size() || !contexts_[id]->alive) {
    return NotFoundError("no such context");
  }
  // Stop fast-path traffic for the context, then drain its epoch readers:
  // with the gate closed no new pin can publish (pinners retry and see the
  // dead flags), and current readers get one grace period to finish.
  // Destruction proceeds after that regardless — destroying a context other
  // threads still read remains an application error, but the window is now
  // bounded and readers retire their pins without crashing.
  ctx_flags_[id].store(0, std::memory_order_release);
  ctx_gate_[id].fetch_add(1, std::memory_order_acq_rel);
  reclaim_epoch_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!OwnThreadPinsContext(id)) {
    WaitForPinGraceLocked(id);
  }
  // Pull the context's magazines and transfer stacks back so every slot is
  // accounted centrally before the heap is torn down.
  PurgeContextFromCachesLocked(id);

  Context* c = contexts_[id].get();
  Heap& h = c->heap;

  // Tracked pointers into this context's allocations become null, not
  // dangling (§7).
  for (auto it = tracked_ptrs_.begin(); it != tracked_ptrs_.end();) {
    if (metas_[pool_.PageIndexOf(it->first)].context == id) {
      *static_cast<void**>(it->second) = nullptr;
      it = tracked_ptrs_.erase(it);
    } else {
      ++it;
    }
  }
  tracked_count_.store(tracked_ptrs_.size(), std::memory_order_relaxed);

  // Return every owned page to the global pool. Slab pages live on exactly
  // one of the partial/full/empty lists; large runs on the large list.
  auto release_list = [&](uint32_t* head) {
    while (*head != kNoPage) {
      const uint32_t page = *head;
      ListRemove(head, page);
      metas_[page] = PageMeta{};
      ClearPageDescrLocked(page);
      pool_.Release(PageRun{page, 1});
    }
  };
  for (size_t cls = 0; cls < kNumSizeClasses; ++cls) {
    release_list(&h.partial_head[cls]);
  }
  release_list(&h.full_head);
  release_list(&h.empty_head);
  while (h.large_head != kNoPage) {
    const uint32_t page = h.large_head;
    ListRemove(&h.large_head, page);
    const LargeInfo info = large_info_.at(page);
    for (uint32_t i = 0; i < info.run_pages; ++i) {
      metas_[page + i] = PageMeta{};
    }
    large_info_.erase(page);
    pool_.Release(PageRun{page, info.run_pages});
  }

  total_frees_->Inc(h.live_allocations);
  c->alive = false;
  c->heap = Heap{};
  c->order.clear();
  c->live_seq.clear();
  c->custom_reclaim = nullptr;
  c->pin_count = 0;
  c->hot_bytes = 0;
  c->cold_bytes = 0;
  sweep_hot_cold_.erase(id);
  ctx_gate_[id].fetch_add(1, std::memory_order_release);  // reopen
  return Status::Ok();
}

Status SoftMemoryAllocator::SetCustomReclaim(ContextId id, CustomReclaimFn fn) {
  CentralLock lock(this);
  if (id >= contexts_.size() || !contexts_[id]->alive) {
    return NotFoundError("no such context");
  }
  contexts_[id]->custom_reclaim = std::move(fn);
  contexts_[id]->options.mode = ReclaimMode::kCustom;
  // The context just became cacheable (kOldestFirst -> kCustom): give it
  // transfer stacks before fast-path traffic starts.
  if (options_.thread_cache && options_.transfer_cache &&
      xfer_[id].load(std::memory_order_relaxed) == nullptr) {
    xfer_[id].store(new TransferCache(static_cast<char*>(pool_.PageAddress(0))),
                    std::memory_order_release);
  }
  ctx_flags_[id].store(kCtxAlive | kCtxCacheable, std::memory_order_release);
  return Status::Ok();
}

Status SoftMemoryAllocator::PinContextCentral(ContextId id) {
  CentralLock lock(this);
  if (id >= contexts_.size() || !contexts_[id]->alive) {
    return NotFoundError("no such context");
  }
  ++contexts_[id]->pin_count;
  return Status::Ok();
}

Status SoftMemoryAllocator::UnpinContextCentral(ContextId id) {
  CentralLock lock(this);
  if (id >= contexts_.size() || !contexts_[id]->alive) {
    return NotFoundError("no such context");
  }
  if (contexts_[id]->pin_count == 0) {
    return FailedPreconditionError("context is not pinned");
  }
  --contexts_[id]->pin_count;
  return Status::Ok();
}

Status SoftMemoryAllocator::PinContext(ContextId id) {
  // Re-entrant pins (reclaim callbacks run under mu_) keep the central
  // counter: the reclaiming thread could never wait out its own entry.
  if (HoldsCentralLock()) {
    return PinContextCentral(id);
  }
  ThreadCache* tc = GetThreadCache(this);
  ThreadCache::PinEntry* free_entry = nullptr;
  for (auto& e : tc->pins_) {
    if (e.epoch.load(std::memory_order_relaxed) != 0) {
      if (e.ctx.load(std::memory_order_relaxed) == id) {
        ++e.depth;  // nested pin: reuse the published entry
        return Status::Ok();
      }
    } else if (free_entry == nullptr) {
      free_entry = &e;
    }
  }
  if (free_entry == nullptr) {
    // More than kPinEntries distinct contexts pinned by one thread: fall
    // back to the central counter (correct, merely slower).
    return PinContextCentral(id);
  }
  for (;;) {
    if ((ctx_flags_[id].load(std::memory_order_acquire) & kCtxAlive) == 0) {
      return NotFoundError("no such context");
    }
    // Publish, then check the gate (Dekker via the seq_cst fences here and
    // in BeginVictimContextLocked): either the reclaimer's scan sees this
    // entry and waits, or this thread sees the gate closed and retracts
    // before any soft memory is touched under the pin.
    free_entry->ctx.store(id, std::memory_order_relaxed);
    free_entry->depth = 1;
    free_entry->epoch.store(reclaim_epoch_.load(std::memory_order_relaxed),
                            std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if ((ctx_gate_[id].load(std::memory_order_relaxed) & 1) == 0) {
      return Status::Ok();
    }
    // Unlink in progress: retract, wait for the gate to reopen, retry (the
    // flags recheck turns a destruction into kNotFound).
    free_entry->epoch.store(0, std::memory_order_release);
    while ((ctx_gate_[id].load(std::memory_order_acquire) & 1) != 0) {
      std::this_thread::yield();
    }
  }
}

Status SoftMemoryAllocator::UnpinContext(ContextId id) {
  if (HoldsCentralLock()) {
    return UnpinContextCentral(id);
  }
  ThreadCache* tc = GetThreadCache(this);
  for (auto& e : tc->pins_) {
    if (e.epoch.load(std::memory_order_relaxed) != 0 &&
        e.ctx.load(std::memory_order_relaxed) == id) {
      if (--e.depth == 0) {
        e.epoch.store(0, std::memory_order_release);
      }
      return Status::Ok();
    }
  }
  // No published entry on this thread: an overflow pin or an error. The
  // central path preserves the kNotFound / kFailedPrecondition contract.
  return UnpinContextCentral(id);
}

bool SoftMemoryAllocator::OwnThreadPinsContext(ContextId id) {
  ThreadCache* tc = GetThreadCache(this);
  for (auto& e : tc->pins_) {
    if (e.epoch.load(std::memory_order_relaxed) != 0 &&
        e.ctx.load(std::memory_order_relaxed) == id) {
      return true;
    }
  }
  return false;
}

bool SoftMemoryAllocator::WaitForPinGraceLocked(ContextId id) {
  const Clock* clock = MonotonicClock::Get();
  const Nanos deadline =
      clock->Now() + static_cast<Nanos>(options_.pin_grace_timeout_us) * 1000;
  const std::thread::id self = std::this_thread::get_id();
  for (;;) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> reg(caches_mu_);
      for (ThreadCache* tc : caches_) {
        if (tc->owner_tid_ == self) {
          continue;  // the caller handles its own pins
        }
        for (auto& e : tc->pins_) {
          // The predicate is presence-based on purpose: an entry stamped
          // with the *new* epoch may belong to a reader that legitimately
          // saw the gate still open, so filtering by epoch would be unsound.
          // Acquire on epoch orders the ctx read behind the publish.
          if (e.epoch.load(std::memory_order_acquire) != 0 &&
              e.ctx.load(std::memory_order_relaxed) == id) {
            busy = true;
            break;
          }
        }
        if (busy) {
          break;
        }
      }
    }
    if (!busy) {
      return true;
    }
    if (clock->Now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
}

bool SoftMemoryAllocator::BeginVictimContextLocked(ContextId id) {
  if (contexts_[id]->pin_count > 0) {
    return false;  // centrally pinned (re-entrant or overflow): skip
  }
  if (OwnThreadPinsContext(id)) {
    return false;  // waiting on our own pin would deadlock: skip
  }
  ctx_gate_[id].fetch_add(1, std::memory_order_acq_rel);  // close (odd)
  reclaim_epoch_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!WaitForPinGraceLocked(id)) {
    pin_grace_timeouts_->Inc();
    ctx_gate_[id].fetch_add(1, std::memory_order_release);  // reopen
    return false;  // a reader outlived the grace period: skip (§7)
  }
  return true;  // gate stays closed across the unlink window
}

void SoftMemoryAllocator::EndVictimContext(ContextId id) {
  ctx_gate_[id].fetch_add(1, std::memory_order_release);  // reopen (even)
}

Status SoftMemoryAllocator::SetPriority(ContextId id, size_t priority) {
  CentralLock lock(this);
  if (id >= contexts_.size() || !contexts_[id]->alive) {
    return NotFoundError("no such context");
  }
  contexts_[id]->options.priority = priority;
  return Status::Ok();
}

// ---- Intrusive page lists ---------------------------------------------------

void SoftMemoryAllocator::ListPush(uint32_t* head, uint32_t page) {
  PageMeta& m = metas_[page];
  m.prev = kNoPage;
  m.next = *head;
  if (*head != kNoPage) {
    metas_[*head].prev = page;
  }
  *head = page;
}

void SoftMemoryAllocator::ListRemove(uint32_t* head, uint32_t page) {
  PageMeta& m = metas_[page];
  assert(m.state != PageState::kUnowned && "unowned pages carry no links");
  if (m.prev != kNoPage) {
    metas_[m.prev].next = m.next;
  } else {
    *head = m.next;
  }
  if (m.next != kNoPage) {
    metas_[m.next].prev = m.prev;
  }
  m.prev = kNoPage;
  m.next = kNoPage;
}

void* SoftMemoryAllocator::SlotAddress(uint32_t page, int size_class,
                                       uint16_t slot) const {
  return static_cast<char*>(pool_.PageAddress(page)) +
         static_cast<size_t>(slot) * SizeClassBytes(size_class);
}

void SoftMemoryAllocator::SetPageDescrLocked(uint32_t page, int cls,
                                             ContextId ctx) {
  page_descr_[page].store(
      kDescrSlabBit | (static_cast<uint32_t>(cls) << 16) | ctx,
      std::memory_order_release);
  // The page just changed hands: heat from its previous owner must not leak
  // into the new context's hot/cold split.
  if (AccessMonitor* m = monitor_.load(std::memory_order_relaxed)) {
    m->ResetPage(page);
  }
}

void SoftMemoryAllocator::ClearPageDescrLocked(uint32_t page) {
  page_descr_[page].store(0, std::memory_order_release);
}

// ---- Access monitoring (DESIGN §12) -----------------------------------------

const Clock* SoftMemoryAllocator::time_source() const {
  return options_.clock != nullptr ? options_.clock : MonotonicClock::Get();
}

size_t SoftMemoryAllocator::SampleAccessTick() {
  if (!monitor_enabled_.load(std::memory_order_acquire)) {
    return 0;
  }
  CentralLock lock(this);
  return SampleAccessTickLocked();
}

size_t SoftMemoryAllocator::SampleAccessTickLocked() {
  AccessMonitor* m = monitor_.load(std::memory_order_relaxed);
  if (m == nullptr || !monitor_enabled_.load(std::memory_order_relaxed)) {
    return 0;
  }
  // Failpoint: one sampling tick is dropped (schedule-seeded). Reclamation
  // correctness must never depend on the sampler making progress.
  if (SOFTMEM_FAULT_FIRED("sma.monitor.sample")) {
    return 0;
  }
  // Overhead is charged in real time even when recency runs on an injected
  // simulated clock.
  const Nanos t0 = MonotonicClock::Get()->Now();
  size_t visited = 0;
  const bool wrapped = m->SampleTick([&](const AccessMonitor::SampleVisit& v) {
    ++visited;
    const PageMeta& meta = metas_[v.page];
    if (meta.state == PageState::kUnowned) {
      return;  // unassigned page: no context to charge
    }
    const ContextId owner = meta.context;
    if (owner >= contexts_.size() || !contexts_[owner]->alive) {
      return;
    }
    auto& hc = sweep_hot_cold_[owner];
    if (v.idle_ns >= scheme_min_idle_ns_) {
      hc.second += kPageSize;
      ++sweep_idle_pages_;
    } else {
      hc.first += kPageSize;
    }
  });
  if (wrapped) {
    // Sweep complete: publish a consistent whole-region split. Contexts not
    // in the accumulator (e.g. created mid-sweep) read as all-zero until
    // the next sweep covers them.
    for (const auto& c : contexts_) {
      if (c->alive) {
        c->hot_bytes = 0;
        c->cold_bytes = 0;
      }
    }
    for (const auto& [id, hc] : sweep_hot_cold_) {
      if (id < contexts_.size() && contexts_[id]->alive) {
        contexts_[id]->hot_bytes = hc.first;
        contexts_[id]->cold_bytes = hc.second;
      }
    }
    idle_pages_published_ = sweep_idle_pages_;
    sweep_hot_cold_.clear();
    sweep_idle_pages_ = 0;
  }
  monitor_ticks_->Inc();
  monitor_pages_->Inc(visited);
  monitor_ns_->Inc(
      static_cast<size_t>(MonotonicClock::Get()->Now() - t0));
  return visited;
}

Status SoftMemoryAllocator::SetAccessMonitorEnabled(bool enabled) {
  CentralLock lock(this);
  if (enabled && monitor_.load(std::memory_order_relaxed) == nullptr) {
    // First enable: build the side arrays. They are never torn down (a
    // disable only flips the flag), so RecordAccess can read the pointer
    // with a plain acquire and no reclamation protocol of its own.
    SOFTMEM_ASSIGN_OR_RETURN(
        std::unique_ptr<AccessMonitor> m,
        AccessMonitor::Create(pool_.total_pages(), options_.access_monitor,
                              time_source()));
    monitor_.store(m.release(), std::memory_order_release);
  }
  monitor_enabled_.store(enabled, std::memory_order_release);
  if (!enabled) {
    // Stale heat must not bias victim order while monitoring is off.
    for (const auto& c : contexts_) {
      if (c->alive) {
        c->hot_bytes = 0;
        c->cold_bytes = 0;
      }
    }
    sweep_hot_cold_.clear();
    sweep_idle_pages_ = 0;
    idle_pages_published_ = 0;
  }
  return Status::Ok();
}

void SoftMemoryAllocator::SetSchemeMinIdle(Nanos min_idle_ns) {
  CentralLock lock(this);
  scheme_min_idle_ns_ = min_idle_ns;
}

Nanos SoftMemoryAllocator::scheme_min_idle() const {
  CentralLock lock(this);
  return scheme_min_idle_ns_;
}

// ---- Allocation -------------------------------------------------------------

void* SoftMemoryAllocator::SoftMalloc(ContextId ctx_id, size_t size) {
  if (size == 0) {
    size = 1;
  }
  // Magazine fast path: small sizes in cacheable contexts, except when
  // called re-entrantly from a reclaim callback (those allocations must see
  // — and be seen by — the central state immediately).
  if (options_.thread_cache && size <= kMaxSmallSize && !HoldsCentralLock()) {
    const uint8_t flags = ctx_flags_[ctx_id].load(std::memory_order_acquire);
    if ((flags & (kCtxAlive | kCtxCacheable)) == (kCtxAlive | kCtxCacheable)) {
      void* p = CacheAlloc(ctx_id, SizeClassFor(size));
      if (p != nullptr) {
        total_allocs_->Inc();
        RecordAccess(p);
      }
      return p;
    }
  }
  CentralLock lock(this);
  if (ctx_id >= contexts_.size() || !contexts_[ctx_id]->alive) {
    return nullptr;
  }
  void* ptr = nullptr;
  if (size <= kMaxSmallSize) {
    ptr = AllocSmallLocked(ctx_id, SizeClassFor(size));
  } else {
    ptr = AllocLargeLocked(ctx_id, size);
  }
  if (ptr == nullptr) {
    return nullptr;
  }
  total_allocs_->Inc();
  Context* c = contexts_[ctx_id].get();
  if (c->options.mode == ReclaimMode::kOldestFirst) {
    const uint64_t seq = c->next_seq++;
    c->live_seq[ptr] = seq;
    c->order.emplace_back(ptr, seq);
    // Compact the order deque when it is mostly stale entries.
    if (c->order.size() > 1024 && c->live_seq.size() * 2 < c->order.size()) {
      std::deque<std::pair<void*, uint64_t>> fresh;
      for (const auto& [p, s] : c->order) {
        auto it = c->live_seq.find(p);
        if (it != c->live_seq.end() && it->second == s) {
          fresh.emplace_back(p, s);
        }
      }
      c->order.swap(fresh);
    }
  }
  // A fresh allocation is by definition hot: recording it here also sets
  // the pending access bit that keeps a reclaim pass running right now from
  // re-dropping memory a callback just re-allocated.
  RecordAccess(ptr);
  return ptr;
}

void* SoftMemoryAllocator::CacheAlloc(ContextId ctx_id, int cls) {
  ThreadCache* tc = GetThreadCache(this);
  {
    std::lock_guard<std::mutex> l(tc->mu_);
    if (tc->seen_epoch_ == cache_epoch_.load(std::memory_order_acquire)) {
      auto it = tc->bins_.find(ctx_id);
      if (it != tc->bins_.end()) {
        auto& slots =
            it->second.by_class[static_cast<size_t>(cls)].slots;
        if (!slots.empty()) {
          void* p = slots.back();
          slots.pop_back();
          cache_hits_->Inc();
          return p;
        }
      }
    }
  }

  cache_misses_->Inc();
  // Miss: try the context's lock-free transfer stacks before the central
  // heap — a popped chain refills the magazine without ever taking mu_.
  if (options_.transfer_cache) {
    TransferCache* x = xfer_[ctx_id].load(std::memory_order_acquire);
    if (x != nullptr) {
      void* batch[ThreadCache::kMaxSlotsPerBin];
      const size_t want = ThreadCache::BinCapacity(cls) / 2 + 1;
      const size_t hint = TransferShardHint();
      size_t got = 0;
      for (size_t i = 0; i < TransferCache::kShards && got == 0; ++i) {
        got = x->Pop(cls, hint + i, batch, want);
      }
      if (got > 0) {
        transfer_hits_->Inc();
        if (got > 1) {
          std::lock_guard<std::mutex> l(tc->mu_);
          auto& slots =
              tc->bins_[ctx_id].by_class[static_cast<size_t>(cls)].slots;
          slots.insert(slots.end(), batch, batch + got - 1);
        }
        return batch[got - 1];
      }
    }
  }
  // Stacks dry (or a reclamation wave passed): refill a half magazine under
  // the central lock. The thread-cache lock is NOT held across the central
  // batch allocation — AcquirePagesLocked may revoke every cache, including
  // this one — and the deposit happens under the central lock so context
  // destruction cannot interleave.
  CentralLock lock(this);
  {
    std::lock_guard<std::mutex> l(tc->mu_);
    const uint64_t epoch = cache_epoch_.load(std::memory_order_relaxed);
    if (tc->seen_epoch_ != epoch) {
      for (auto& entry : tc->bins_) {
        for (auto& bin : entry.second.by_class) {
          for (void* p : bin.slots) {
            FreeLocked(p, /*count_op=*/false);
          }
          bin.slots.clear();
        }
      }
      tc->seen_epoch_ = epoch;
    }
  }
  if (ctx_id >= contexts_.size() || !contexts_[ctx_id]->alive) {
    return nullptr;
  }
  void* batch[ThreadCache::kMaxSlotsPerBin];
  const size_t want = ThreadCache::BinCapacity(cls) / 2;
  const size_t got = AllocSmallBatchLocked(ctx_id, cls, want, batch);
  if (got == 0) {
    return nullptr;
  }
  if (got > 1) {
    std::lock_guard<std::mutex> l(tc->mu_);
    auto& slots = tc->bins_[ctx_id].by_class[static_cast<size_t>(cls)].slots;
    slots.insert(slots.end(), batch, batch + got - 1);
  }
  return batch[got - 1];
}

size_t SoftMemoryAllocator::AllocSmallBatchLocked(ContextId ctx, int cls,
                                                  size_t want, void** out) {
  size_t got = 0;
  while (got < want) {
    void* p = AllocSmallLocked(ctx, cls);
    if (p == nullptr) {
      break;
    }
    out[got++] = p;
  }
  return got;
}

void* SoftMemoryAllocator::AllocSmallLocked(ContextId ctx_id, int size_class) {
  Context* c = contexts_[ctx_id].get();
  Heap& h = c->heap;
  const size_t cls_bytes = SizeClassBytes(size_class);
  const auto slots_total = static_cast<uint16_t>(SlotsPerPage(size_class));

  uint32_t page = h.partial_head[static_cast<size_t>(size_class)];
  if (page == kNoPage) {
    auto taken = TakeSlabPageLocked(ctx_id);
    if (!taken.ok()) {
      return nullptr;
    }
    page = *taken;
    PageMeta& m = metas_[page];
    m.state = PageState::kSlab;
    m.size_class = static_cast<uint8_t>(size_class);
    m.context = ctx_id;
    m.used_slots = 0;
    m.free_head = kNoSlot;
    m.uninit_slots = slots_total;
    SetPageDescrLocked(page, size_class, ctx_id);
    ListPush(&h.partial_head[static_cast<size_t>(size_class)], page);
  }

  PageMeta& m = metas_[page];
  char* base = static_cast<char*>(pool_.PageAddress(page));
  uint16_t slot;
  if (m.free_head != kNoSlot) {
    slot = m.free_head;
    uint16_t next;
    std::memcpy(&next, base + static_cast<size_t>(slot) * cls_bytes,
                sizeof(next));
    m.free_head = next;
  } else {
    assert(m.uninit_slots > 0);
    slot = static_cast<uint16_t>(slots_total - m.uninit_slots);
    --m.uninit_slots;
  }
  ++m.used_slots;
  if (m.used_slots == slots_total) {
    ListRemove(&h.partial_head[static_cast<size_t>(size_class)], page);
    ListPush(&h.full_head, page);
  }
  h.allocated_bytes += cls_bytes;
  ++h.live_allocations;
  return base + static_cast<size_t>(slot) * cls_bytes;
}

void* SoftMemoryAllocator::AllocLargeLocked(ContextId ctx_id, size_t size) {
  Context* c = contexts_[ctx_id].get();
  Heap& h = c->heap;
  const size_t pages = PagesForBytes(size);
  auto run = AcquirePagesLocked(ctx_id, pages);
  if (!run.ok()) {
    return nullptr;
  }
  const auto head = static_cast<uint32_t>(run->start);
  PageMeta& hm = metas_[head];
  hm.state = PageState::kLargeHead;
  hm.context = ctx_id;
  for (size_t i = 1; i < pages; ++i) {
    PageMeta& tm = metas_[head + i];
    tm.state = PageState::kLargeTail;
    tm.context = ctx_id;
    tm.next = head;  // tails point at their head
  }
  if (AccessMonitor* m = monitor_.load(std::memory_order_relaxed)) {
    for (size_t i = 0; i < pages; ++i) {
      m->ResetPage(head + static_cast<uint32_t>(i));
    }
  }
  ListPush(&h.large_head, head);
  large_info_[head] = LargeInfo{static_cast<uint32_t>(pages), size};
  h.owned_pages += pages;
  h.allocated_bytes += size;
  ++h.live_allocations;
  return pool_.PageAddress(head);
}

void* SoftMemoryAllocator::SoftCalloc(ContextId ctx, size_t n, size_t size) {
  if (n != 0 && size > SIZE_MAX / n) {
    return nullptr;  // overflow
  }
  void* p = SoftMalloc(ctx, n * size);
  if (p != nullptr) {
    std::memset(p, 0, n * size);
  }
  return p;
}

void* SoftMemoryAllocator::SoftRealloc(void* ptr, size_t new_size) {
  if (ptr == nullptr) {
    return SoftMalloc(kDefaultContext, new_size);
  }
  if (new_size == 0) {
    SoftFree(ptr);
    return nullptr;
  }
  CentralLock lock(this);
  const size_t page = pool_.PageIndexOf(ptr);
  const PageMeta& m = metas_[page];
  if (m.state != PageState::kSlab && m.state != PageState::kLargeHead) {
    SOFTMEM_LOG(Error) << "SoftRealloc of non-live pointer " << ptr;
    return nullptr;
  }
  const ContextId ctx = m.context;
  // Current usable capacity of the slot/run.
  const size_t usable =
      m.state == PageState::kSlab
          ? SizeClassBytes(m.size_class)
          : large_info_.at(static_cast<uint32_t>(page)).run_pages * kPageSize;
  // Grow/shrink in place when the backing slot already fits: for small
  // allocations this also avoids churning the reclamation registry.
  if (new_size <= usable &&
      (m.state != PageState::kSlab ||
       new_size > (m.size_class > 0
                       ? SizeClassBytes(m.size_class - 1)
                       : 0))) {
    if (m.state == PageState::kLargeHead) {
      // Keep the recorded size truthful and return now-unused tail pages to
      // the pool so they are immediately reusable (and reclaimable).
      Heap& h = contexts_[ctx]->heap;
      LargeInfo& info = large_info_.at(static_cast<uint32_t>(page));
      const auto new_pages = static_cast<uint32_t>(PagesForBytes(new_size));
      if (new_pages < info.run_pages) {
        const uint32_t tail = info.run_pages - new_pages;
        for (uint32_t i = new_pages; i < info.run_pages; ++i) {
          metas_[page + i] = PageMeta{};
        }
        pool_.Release(PageRun{page + new_pages, tail});
        // Mutation check for the invariant harness: arming this failpoint
        // re-plants the PR 1 shrink accounting bug (tail pages released to
        // the pool but still counted as heap-owned, stale allocated_bytes).
        // The fault-stress suite asserts the invariant checker catches it.
        if (SOFTMEM_FAULT_FIRED("bug.realloc.leak_tail")) {
          info.run_pages = new_pages;
          return ptr;
        }
        h.owned_pages -= tail;
        info.run_pages = new_pages;
      }
      h.allocated_bytes -= info.bytes;
      h.allocated_bytes += new_size;
      info.bytes = new_size;
    }
    return ptr;
  }
  void* fresh = SoftMalloc(ctx, new_size);
  if (fresh == nullptr) {
    return nullptr;  // original stays valid
  }
  const size_t old_payload = m.state == PageState::kSlab
                                 ? SizeClassBytes(m.size_class)
                                 : large_info_.at(static_cast<uint32_t>(page))
                                       .bytes;
  std::memcpy(fresh, ptr, std::min(old_payload, new_size));
  FreeLocked(ptr);
  return fresh;
}

void SoftMemoryAllocator::SoftFree(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  if (TryCacheFree(ptr)) {
    return;
  }
  CentralLock lock(this);
  FreeLocked(ptr);
}

bool SoftMemoryAllocator::TryCacheFree(void* ptr) {
  // Re-entrant frees (reclaim callbacks) and tracked-pointer users must go
  // through the central path: the former so reclamation sees the memory
  // immediately, the latter so SoftPtr holders are nulled.
  if (!options_.thread_cache || HoldsCentralLock() ||
      tracked_count_.load(std::memory_order_relaxed) != 0) {
    return false;
  }
  const size_t page = pool_.PageIndexOf(ptr);
  const uint32_t d = page_descr_[page].load(std::memory_order_acquire);
  if ((d & kDescrSlabBit) == 0) {
    return false;  // large allocation (or not a live slab page)
  }
  const auto ctx = static_cast<ContextId>(d & 0xFFFF);
  const int cls = static_cast<int>((d >> 16) & 0xFF);
  const uint8_t flags = ctx_flags_[ctx].load(std::memory_order_acquire);
  if ((flags & (kCtxAlive | kCtxCacheable)) != (kCtxAlive | kCtxCacheable)) {
    return false;
  }
  ThreadCache* tc = GetThreadCache(this);
  void* overflow[ThreadCache::kMaxSlotsPerBin];
  size_t n_overflow = 0;
  bool pushed = false;
  std::vector<void*> stale;  // whole cache, if a reclamation wave passed
  {
    std::lock_guard<std::mutex> l(tc->mu_);
    if (tc->seen_epoch_ != cache_epoch_.load(std::memory_order_acquire)) {
      for (auto& entry : tc->bins_) {
        for (auto& bin : entry.second.by_class) {
          stale.insert(stale.end(), bin.slots.begin(), bin.slots.end());
          bin.slots.clear();
        }
      }
      tc->seen_epoch_ = cache_epoch_.load(std::memory_order_acquire);
    } else {
      auto& slots = tc->bins_[ctx].by_class[static_cast<size_t>(cls)].slots;
      slots.push_back(ptr);
      pushed = true;
      const size_t cap = ThreadCache::BinCapacity(cls);
      if (slots.size() > cap) {
        // Keep the hot (recently pushed) half; hand the cold front back.
        n_overflow = cap / 2;
        std::copy(slots.begin(),
                  slots.begin() + static_cast<ptrdiff_t>(n_overflow),
                  overflow);
        slots.erase(slots.begin(),
                    slots.begin() + static_cast<ptrdiff_t>(n_overflow));
      }
    }
  }
  if (!pushed) {
    // A reclamation wave passed: the push did not happen (the magazines were
    // flushed instead). Return the flushed slots and the user's pointer
    // centrally; only the latter counts as an operation.
    CentralLock lock(this);
    for (void* p : stale) {
      FreeLocked(p, /*count_op=*/false);
    }
    FreeLocked(ptr);
    return true;
  }
  if (n_overflow > 0) {
    // Cold half of a full magazine: park it on the context's lock-free
    // transfer stack; only a full (or absent) stack pays the central path.
    TransferCache* x = options_.transfer_cache
                           ? xfer_[ctx].load(std::memory_order_acquire)
                           : nullptr;
    if (x != nullptr &&
        x->Push(cls, TransferShardHint(), overflow, n_overflow)) {
      transfer_flushes_->Inc();
    } else {
      CentralLock lock(this);
      for (size_t i = 0; i < n_overflow; ++i) {
        FreeLocked(overflow[i], /*count_op=*/false);
      }
    }
  }
  total_frees_->Inc();
  return true;
}

void SoftMemoryAllocator::TrackPointer(void* alloc, void* holder) {
  CentralLock lock(this);
  tracked_ptrs_.emplace(alloc, holder);
  tracked_count_.store(tracked_ptrs_.size(), std::memory_order_relaxed);
}

void SoftMemoryAllocator::UntrackPointer(void* alloc, void* holder) {
  CentralLock lock(this);
  auto [begin, end] = tracked_ptrs_.equal_range(alloc);
  for (auto it = begin; it != end; ++it) {
    if (it->second == holder) {
      tracked_ptrs_.erase(it);
      tracked_count_.store(tracked_ptrs_.size(), std::memory_order_relaxed);
      return;
    }
  }
}

void SoftMemoryAllocator::InvalidateTrackedLocked(void* alloc) {
  auto [begin, end] = tracked_ptrs_.equal_range(alloc);
  for (auto it = begin; it != end; ++it) {
    *static_cast<void**>(it->second) = nullptr;
  }
  tracked_ptrs_.erase(begin, end);
  tracked_count_.store(tracked_ptrs_.size(), std::memory_order_relaxed);
}

void SoftMemoryAllocator::FreeLocked(void* ptr, bool count_op) {
  const size_t page = pool_.PageIndexOf(ptr);
  PageMeta& m = metas_[page];
  if (m.state != PageState::kSlab && m.state != PageState::kLargeHead) {
    // Double free or use of a pointer whose allocation was reclaimed (§7:
    // pointers into reclaimed memory become invalid). Unlike free(3) this
    // is detectable with the side metadata, so fail loudly but safely.
    SOFTMEM_LOG(Error) << "SoftFree of non-live pointer " << ptr
                       << " (reclaimed or double-freed?) — ignored";
    assert(false && "SoftFree of non-live pointer");
    return;
  }
  if (!tracked_ptrs_.empty()) {
    InvalidateTrackedLocked(ptr);
  }
  Context* c = contexts_[m.context].get();
  Heap& h = c->heap;

  if (m.state == PageState::kSlab) {
    const int cls = m.size_class;
    const size_t cls_bytes = SizeClassBytes(cls);
    const auto slots_total = static_cast<uint16_t>(SlotsPerPage(cls));
    char* base = static_cast<char*>(pool_.PageAddress(page));
    const auto offset =
        static_cast<size_t>(static_cast<char*>(ptr) - base);
    assert(offset % cls_bytes == 0 && "pointer does not start an allocation");
    const auto slot = static_cast<uint16_t>(offset / cls_bytes);

    uint16_t next = m.free_head;
    std::memcpy(ptr, &next, sizeof(next));
    m.free_head = slot;
    const bool was_full = (m.used_slots == slots_total);
    --m.used_slots;
    if (was_full) {
      ListRemove(&h.full_head, static_cast<uint32_t>(page));
      ListPush(&h.partial_head[static_cast<size_t>(cls)],
               static_cast<uint32_t>(page));
    }
    if (m.used_slots == 0) {
      ListRemove(&h.partial_head[static_cast<size_t>(cls)],
                 static_cast<uint32_t>(page));
      if (h.empty_count < options_.heap_retain_empty_pages) {
        ListPush(&h.empty_head, static_cast<uint32_t>(page));
        ++h.empty_count;
      } else {
        metas_[page] = PageMeta{};
        ClearPageDescrLocked(static_cast<uint32_t>(page));
        --h.owned_pages;
        pool_.Release(PageRun{page, 1});
      }
    }
    h.allocated_bytes -= cls_bytes;
    --h.live_allocations;
  } else {
    const LargeInfo info = large_info_.at(static_cast<uint32_t>(page));
    ListRemove(&h.large_head, static_cast<uint32_t>(page));
    for (uint32_t i = 0; i < info.run_pages; ++i) {
      metas_[page + i] = PageMeta{};
    }
    large_info_.erase(static_cast<uint32_t>(page));
    h.owned_pages -= info.run_pages;
    h.allocated_bytes -= info.bytes;
    --h.live_allocations;
    pool_.Release(PageRun{page, info.run_pages});
  }

  if (c->options.mode == ReclaimMode::kOldestFirst) {
    c->live_seq.erase(ptr);
  }
  if (count_op) {
    total_frees_->Inc();
  }
}

size_t SoftMemoryAllocator::AllocationSize(const void* ptr) const {
  CentralLock lock(this);
  const size_t page = pool_.PageIndexOf(ptr);
  const PageMeta& m = metas_[page];
  if (m.state == PageState::kSlab) {
    return SizeClassBytes(m.size_class);
  }
  if (m.state == PageState::kLargeHead) {
    return large_info_.at(static_cast<uint32_t>(page)).bytes;
  }
  return 0;
}

bool SoftMemoryAllocator::Owns(const void* ptr) const {
  CentralLock lock(this);
  const char* base = static_cast<const char*>(pool_.PageAddress(0));
  const char* p = static_cast<const char*>(ptr);
  if (p < base || p >= base + pool_.total_pages() * kPageSize) {
    return false;
  }
  const PageMeta& m = metas_[pool_.PageIndexOf(ptr)];
  return m.state == PageState::kSlab || m.state == PageState::kLargeHead ||
         m.state == PageState::kLargeTail;
}

// ---- Magazine revocation ----------------------------------------------------

void SoftMemoryAllocator::RevokeThreadCachesLocked(bool bump_epoch) {
  if (!options_.thread_cache) {
    return;
  }
  uint64_t epoch = cache_epoch_.load(std::memory_order_relaxed);
  if (bump_epoch) {
    epoch = cache_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    cache_revocations_->Inc();
  }
  std::lock_guard<std::mutex> reg(caches_mu_);
  for (ThreadCache* tc : caches_) {
    std::lock_guard<std::mutex> l(tc->mu_);
    for (auto& entry : tc->bins_) {
      for (auto& bin : entry.second.by_class) {
        for (void* p : bin.slots) {
          FreeLocked(p, /*count_op=*/false);
        }
        bin.slots.clear();
      }
    }
    if (bump_epoch) {
      tc->seen_epoch_ = epoch;
    }
  }
  // Slots parked on the lock-free transfer stacks are checked out exactly
  // like magazine slots: drain them too so they count as free pages.
  DrainTransferStacksLocked(kMaxContexts);
}

void SoftMemoryAllocator::DrainTransferStacksLocked(size_t ctx) {
  if (!options_.transfer_cache) {
    return;
  }
  auto drain = [&](size_t id) {
    TransferCache* x = xfer_[id].load(std::memory_order_acquire);
    if (x != nullptr) {
      x->DrainAll([&](void* p) { FreeLocked(p, /*count_op=*/false); });
    }
  };
  if (ctx < kMaxContexts) {
    drain(ctx);
    return;
  }
  for (size_t id = 0; id < contexts_.size(); ++id) {
    drain(id);
  }
}

void SoftMemoryAllocator::PurgeContextFromCachesLocked(ContextId ctx) {
  if (!options_.thread_cache) {
    return;
  }
  std::lock_guard<std::mutex> reg(caches_mu_);
  for (ThreadCache* tc : caches_) {
    std::lock_guard<std::mutex> l(tc->mu_);
    auto it = tc->bins_.find(ctx);
    if (it == tc->bins_.end()) {
      continue;
    }
    for (auto& bin : it->second.by_class) {
      for (void* p : bin.slots) {
        FreeLocked(p, /*count_op=*/false);
      }
    }
    tc->bins_.erase(it);
  }
  DrainTransferStacksLocked(ctx);
}

void SoftMemoryAllocator::RegisterThreadCache(ThreadCache* cache) {
  std::lock_guard<std::mutex> reg(caches_mu_);
  caches_.push_back(cache);
}

void SoftMemoryAllocator::FlushThreadCacheAtExit(ThreadCache* cache) {
  std::vector<void*> slots;
  {
    std::lock_guard<std::mutex> l(cache->mu_);
    for (auto& entry : cache->bins_) {
      for (auto& bin : entry.second.by_class) {
        slots.insert(slots.end(), bin.slots.begin(), bin.slots.end());
        bin.slots.clear();
      }
    }
  }
  if (!slots.empty()) {
    CentralLock lock(this);
    for (void* p : slots) {
      FreeLocked(p, /*count_op=*/false);
    }
  }
  std::lock_guard<std::mutex> reg(caches_mu_);
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache),
                caches_.end());
}

// ---- Page acquisition -------------------------------------------------------

Result<uint32_t> SoftMemoryAllocator::TakeSlabPageLocked(ContextId ctx_id) {
  Context* c = contexts_[ctx_id].get();
  Heap& h = c->heap;
  if (h.empty_head != kNoPage) {
    const uint32_t page = h.empty_head;
    ListRemove(&h.empty_head, page);
    --h.empty_count;
    return page;
  }
  SOFTMEM_ASSIGN_OR_RETURN(PageRun run, AcquirePagesLocked(ctx_id, 1));
  ++h.owned_pages;
  return static_cast<uint32_t>(run.start);
}

Result<PageRun> SoftMemoryAllocator::AcquirePagesLocked(ContextId ctx_id,
                                                        size_t count) {
  // 1) Pool hit: committed pages we already own — no budget movement.
  if (auto pooled = pool_.AcquirePooled(count); pooled.ok()) {
    return pooled;
  }
  // 2) Fresh commit requires budget headroom.
  if (pool_.committed_pages() + count > budget_pages_) {
    const size_t want = std::max(count, options_.budget_chunk_pages);
    budget_requests_->Inc();
    // Failpoint: the budget RPC fails before reaching the daemon (transport
    // died, daemon crashed). The allocation must degrade exactly like a
    // denial: revoke caches, optionally self-reclaim, else fail cleanly.
    const Status injected = SOFTMEM_FAULT_STATUS("sma.budget.request");
    // Drop our lock across the daemon round-trip: the daemon may
    // concurrently be demanding reclamation *from us* on behalf of another
    // process, and holding mu_ here while the daemon holds its own lock
    // would deadlock (ABBA). Correctness is restored by re-checking all
    // conditions after relocking. (If a reclaim callback allocates — a
    // discouraged pattern — the lock is held recursively and stays held;
    // that path is only reachable single-threaded.)
    Result<size_t> granted = injected.ok() ? Result<size_t>(size_t{0})
                                           : Result<size_t>(injected);
    if (injected.ok() && !channel_->connected()) {
      // Degraded mode: the daemon transport is down. Deny locally instead of
      // paying an RPC (and its timeout) that cannot succeed — the allocation
      // still gets the full fallback ladder below (caches, self-reclaim).
      degraded_denials_->Inc();
      granted = DeniedError("soft memory daemon unreachable (degraded mode)");
    }
    if (granted.ok()) {
      const bool outermost = (mu_depth_ == 1);
      if (outermost) {
        mu_owner_.store(std::thread::id{}, std::memory_order_relaxed);
        mu_.unlock();
      }
      granted = channel_->RequestBudget(want);
      if (outermost) {
        mu_.lock();
        mu_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
      }
    }
    if (granted.ok()) {
      budget_pages_ += *granted;
    } else {
      budget_request_failures_->Inc();
    }
    // Re-check after the unlocked window: another thread may have used or
    // freed pages meanwhile.
    if (auto pooled = pool_.AcquirePooled(count); pooled.ok()) {
      return pooled;
    }
    if (pool_.committed_pages() + count > budget_pages_) {
      // Freed slots may be parked in per-thread magazines; revoke them
      // before disturbing live data (or failing the allocation).
      RevokeThreadCachesLocked(/*bump_epoch=*/true);
      if (auto pooled = pool_.AcquirePooled(count); pooled.ok()) {
        return pooled;
      }
    }
    if (pool_.committed_pages() + count > budget_pages_ &&
        options_.allow_self_reclaim) {
      // Make room under the existing budget by revoking this process's own
      // lower-priority soft memory (never the allocating context's).
      self_reclaims_->Inc();
      std::vector<ContextId> order;
      for (ContextId id = 0; id < contexts_.size(); ++id) {
        if (contexts_[id]->alive && id != ctx_id) {
          order.push_back(id);
        }
      }
      SortVictimOrderLocked(&order);
      for (ContextId id : order) {
        if (pool_.pooled_pages() >= count) {
          break;
        }
        if (!BeginVictimContextLocked(id)) {
          continue;
        }
        ReclaimFromContextLocked(contexts_[id].get(),
                                 count - pool_.pooled_pages());
        EndVictimContext(id);
      }
      if (auto pooled = pool_.AcquirePooled(count); pooled.ok()) {
        return pooled;
      }
    }
    if (pool_.committed_pages() + count > budget_pages_) {
      return DeniedError("soft budget exhausted and daemon denied more");
    }
  }
  auto fresh = pool_.AcquireFresh(count);
  if (fresh.ok()) {
    pages_committed_->Inc(count);
  }
  return fresh;
}

// ---- Reclamation ------------------------------------------------------------

void SoftMemoryAllocator::HarvestEmptyPagesLocked(Context* c) {
  Heap& h = c->heap;
  while (h.empty_head != kNoPage) {
    const uint32_t page = h.empty_head;
    ListRemove(&h.empty_head, page);
    --h.empty_count;
    metas_[page] = PageMeta{};
    ClearPageDescrLocked(page);
    --h.owned_pages;
    pool_.Release(PageRun{page, 1});
  }
}

size_t SoftMemoryAllocator::ReclaimOldestFirstLocked(Context* c,
                                                     size_t target_bytes) {
  size_t freed = 0;
  while (freed < target_bytes && !c->order.empty()) {
    auto [ptr, seq] = c->order.front();
    c->order.pop_front();
    auto it = c->live_seq.find(ptr);
    if (it == c->live_seq.end() || it->second != seq) {
      continue;  // stale entry: the allocation was freed (and maybe reused)
    }
    const size_t page_idx = pool_.PageIndexOf(ptr);
    const PageState st = metas_[page_idx].state;
    assert(st == PageState::kSlab || st == PageState::kLargeHead);
    const size_t size = st == PageState::kSlab
                            ? SizeClassBytes(metas_[page_idx].size_class)
                            : large_info_.at(static_cast<uint32_t>(page_idx)).bytes;
    if (c->options.callback) {
      reclaim_callbacks_->Inc();
      c->options.callback(ptr, size);
    }
    FreeLocked(ptr);
    ++c->reclaimed_allocations;
    c->reclaimed_bytes += size;
    freed += size;
  }
  return freed;
}

size_t SoftMemoryAllocator::ReclaimColdFirstLocked(Context* c,
                                                   size_t target_bytes,
                                                   bool allow_hot_fallback) {
  AccessMonitor* m = monitor_.load(std::memory_order_relaxed);
  if (m == nullptr || !monitor_enabled_.load(std::memory_order_relaxed)) {
    return allow_hot_fallback ? ReclaimOldestFirstLocked(c, target_bytes) : 0;
  }
  const Nanos now = time_source()->Now();
  // Snapshot the cold candidates first: reclaim callbacks may re-enter
  // SoftMalloc, which appends to (and can compact) the order deque mid-walk.
  // Each candidate is re-validated against live_seq before it is dropped.
  std::vector<std::pair<void*, uint64_t>> cold;
  for (const auto& [ptr, seq] : c->order) {
    auto it = c->live_seq.find(ptr);
    if (it == c->live_seq.end() || it->second != seq) {
      continue;  // stale entry
    }
    const auto page = static_cast<uint32_t>(pool_.PageIndexOf(ptr));
    if (m->idle_ns(page, now) >= scheme_min_idle_ns_) {
      cold.emplace_back(ptr, seq);
    }
  }
  size_t freed = 0;
  for (const auto& [ptr, seq] : cold) {
    if (freed >= target_bytes) {
      break;
    }
    auto it = c->live_seq.find(ptr);
    if (it == c->live_seq.end() || it->second != seq) {
      continue;  // freed (or reused) since the snapshot
    }
    const size_t page_idx = pool_.PageIndexOf(ptr);
    const PageState st = metas_[page_idx].state;
    assert(st == PageState::kSlab || st == PageState::kLargeHead);
    const size_t size =
        st == PageState::kSlab
            ? SizeClassBytes(metas_[page_idx].size_class)
            : large_info_.at(static_cast<uint32_t>(page_idx)).bytes;
    if (c->options.callback) {
      reclaim_callbacks_->Inc();
      c->options.callback(ptr, size);
    }
    FreeLocked(ptr);
    ++c->reclaimed_allocations;
    c->reclaimed_bytes += size;
    freed += size;
    ++pass_cold_drops_;
    scheme_cold_drops_->Inc();
  }
  // The cold pass came up short: age order takes the remainder. Hot memory
  // is given up — counted separately so operators can see it happen. The
  // demand loop suppresses this fallback on its cold-only pass so every
  // victim context surrenders its cold pages before any surrenders hot.
  if (allow_hot_fallback && freed < target_bytes) {
    const size_t before = c->reclaimed_allocations;
    freed += ReclaimOldestFirstLocked(c, target_bytes - freed);
    const size_t hot = c->reclaimed_allocations - before;
    pass_hot_drops_ += hot;
    scheme_hot_drops_->Inc(hot);
  }
  return freed;
}

void SoftMemoryAllocator::SortVictimOrderLocked(
    std::vector<ContextId>* ids) const {
  const bool by_heat = monitor_enabled_.load(std::memory_order_relaxed) &&
                       monitor_.load(std::memory_order_relaxed) != nullptr;
  auto cold_fraction = [this](ContextId id) {
    const Context* c = contexts_[id].get();
    const size_t total = c->hot_bytes + c->cold_bytes;
    return total == 0 ? 0.0 : static_cast<double>(c->cold_bytes) / total;
  };
  std::stable_sort(ids->begin(), ids->end(), [&](ContextId a, ContextId b) {
    const size_t pa = contexts_[a]->options.priority;
    const size_t pb = contexts_[b]->options.priority;
    if (pa != pb) {
      return pa < pb;  // lower priority always reclaims first
    }
    // Within a priority class the colder context goes first (no effect while
    // monitoring is off: every fraction is 0 and stable_sort keeps id order).
    return by_heat && cold_fraction(a) > cold_fraction(b);
  });
}

// Frees allocations of `c` until the global pool gained `want_pool_pages`
// pages or the context has nothing left to give. Returns pages gained.
size_t SoftMemoryAllocator::ReclaimFromContextLocked(Context* c,
                                                     size_t want_pool_pages,
                                                     bool cold_only) {
  const size_t start_pool = pool_.pooled_pages();
  auto gained = [&]() {
    const size_t now = pool_.pooled_pages();
    return now > start_pool ? now - start_pool : 0;
  };
  for (;;) {
    HarvestEmptyPagesLocked(c);
    if (gained() >= want_pool_pages) {
      break;
    }
    const size_t target_bytes = (want_pool_pages - gained()) * kPageSize;
    size_t freed = 0;
    if (c->custom_reclaim) {
      if (cold_only) {
        break;  // custom protocols carry no heat signal; second pass only
      }
      freed = c->custom_reclaim(target_bytes);
    } else if (c->options.mode == ReclaimMode::kOldestFirst) {
      if (monitor_enabled_.load(std::memory_order_relaxed)) {
        freed = ReclaimColdFirstLocked(c, target_bytes,
                                       /*allow_hot_fallback=*/!cold_only);
      } else if (!cold_only) {
        freed = ReclaimOldestFirstLocked(c, target_bytes);
      }
    }
    if (freed == 0) {
      HarvestEmptyPagesLocked(c);
      break;  // context exhausted (or mode kNone / kCustom without fn)
    }
  }
  return gained();
}

size_t SoftMemoryAllocator::HandleReclaimDemand(size_t pages) {
  // The demand trace is always recorded: reclamation is orders of magnitude
  // slower than the handful of clock reads that time its phases.
  const Clock* clock = MonotonicClock::Get();
  telemetry::ReclaimDemandTrace trace;
  trace.start = clock->Now();
  trace.demanded_pages = pages;
  const uint64_t callbacks_before = reclaim_callbacks_->Value();

  CentralLock lock(this);
  reclaim_demands_->Inc();
  pass_cold_drops_ = 0;
  pass_hot_drops_ = 0;
  // Refresh the heat signal before victims are picked: one bounded tick
  // costs microseconds against a reclaim wave and keeps idleness advancing
  // even when the process serves no reads. No-op while monitoring is off.
  SampleAccessTickLocked();
  // Revoke outstanding magazines first (epoch bump + synchronous drain):
  // slots parked in thread caches must count as free pages below, and
  // caches that refill during the wave self-flush on their next op.
  RevokeThreadCachesLocked(/*bump_epoch=*/true);
  Nanos phase_end = clock->Now();
  trace.revoke_ns = phase_end - trace.start;
  size_t produced = 0;

  // Tier 0a: budget slack — budget we hold but have not committed. Giving it
  // up costs nothing physically.
  const size_t committed = pool_.committed_pages();
  const size_t slack = budget_pages_ > committed ? budget_pages_ - committed : 0;
  const size_t slack_take = std::min(slack, pages);
  budget_pages_ -= slack_take;
  produced += slack_take;
  trace.slack_pages = slack_take;
  trace.slack_ns = clock->Now() - phase_end;
  phase_end += trace.slack_ns;

  // Tier 0b: pooled free pages — decommit without disturbing any SDS.
  if (produced < pages) {
    const size_t d = pool_.DecommitPooled(pages - produced);
    budget_pages_ -= d;
    produced += d;
    pages_decommitted_->Inc(d);
    trace.pooled_pages = d;
  }
  trace.pool_ns = clock->Now() - phase_end;
  phase_end += trace.pool_ns;

  // Tiers 1+2: SDS contexts in ascending priority; each frees its own
  // allocations (callback per drop) until whole pages come free.
  if (produced < pages) {
    std::vector<ContextId> order;
    for (ContextId id = 0; id < contexts_.size(); ++id) {
      if (contexts_[id]->alive) {
        order.push_back(id);
      }
    }
    SortVictimOrderLocked(&order);
    // With the monitor on the walk is two passes: first every context in
    // victim order gives up only its scheme-cold pages, then — only if the
    // demand still stands — a second pass takes hot memory in age order.
    // Without the two-pass split one context's hot data would be dropped
    // while a later context still held cold pages. Monitor off: the cold
    // pass is skipped and the walk is the classic single age-order pass.
    const bool aware = monitor_enabled_.load(std::memory_order_relaxed) &&
                       monitor_.load(std::memory_order_relaxed) != nullptr;
    bool aborted = false;
    for (int pass = aware ? 0 : 1; pass < 2 && !aborted; ++pass) {
      const bool cold_only = pass == 0;
      for (ContextId id : order) {
        if (produced >= pages) {
          aborted = true;
          break;
        }
        // Failpoint: the pass aborts between two SDS contexts (e.g. the
        // daemon gave up waiting). Everything reclaimed so far must stay
        // accounted; the partial count is reported back.
        if (SOFTMEM_FAULT_FIRED("sma.reclaim.mid_sds")) {
          aborted = true;
          break;
        }
        // Threads actively reading this context (§7): wait out the epoch
        // grace period; skip when one outlives it or the pin is central.
        if (!BeginVictimContextLocked(id)) {
          continue;
        }
        ++trace.contexts_visited;
        ReclaimFromContextLocked(contexts_[id].get(), pages - produced,
                                 cold_only);
        const size_t d = pool_.DecommitPooled(pages - produced);
        budget_pages_ -= d;
        produced += d;
        pages_decommitted_->Inc(d);
        trace.sds_pages += d;
        EndVictimContext(id);
      }
    }
  }
  trace.sds_ns = clock->Now() - phase_end;

  reclaimed_pages_->Inc(produced);
  ReportUsageLocked();

  trace.produced_pages = produced;
  trace.callbacks = reclaim_callbacks_->Value() - callbacks_before;
  trace.access_aware = monitor_enabled_.load(std::memory_order_relaxed);
  trace.scheme_min_idle_ns = scheme_min_idle_ns_;
  trace.cold_drops = pass_cold_drops_;
  trace.hot_drops = pass_hot_drops_;
  trace.total_ns = clock->Now() - trace.start;
  reclaim_journal_.Append(trace);
  if (reclaim_duration_hist_ != nullptr) {
    reclaim_duration_hist_->Observe(static_cast<uint64_t>(trace.total_ns));
    reclaim_pages_hist_->Observe(produced);
    phase_revoke_hist_->Observe(static_cast<uint64_t>(trace.revoke_ns));
    phase_slack_hist_->Observe(static_cast<uint64_t>(trace.slack_ns));
    phase_pool_hist_->Observe(static_cast<uint64_t>(trace.pool_ns));
    phase_sds_hist_->Observe(static_cast<uint64_t>(trace.sds_ns));
  }
  return produced;
}

size_t SoftMemoryAllocator::TrimAndReleaseBudget() {
  size_t slack = 0;
  UsageReport usage;
  {
    CentralLock lock(this);
    // A voluntary give-everything-back event: magazines count as unused too.
    RevokeThreadCachesLocked(/*bump_epoch=*/true);
    // Decommit is physical only; the budget released is the resulting slack
    // (decommitted pages become slack, so counting both would double-count).
    pages_decommitted_->Inc(pool_.DecommitPooled(pool_.pooled_pages()));
    const size_t committed = pool_.committed_pages();
    slack = budget_pages_ > committed ? budget_pages_ - committed : 0;
    budget_pages_ -= slack;
    usage.soft_pages = committed;
    usage.traditional_bytes = traditional_bytes_;
    usage.idle_soft_pages = std::min(idle_pages_published_, committed);
  }
  // Daemon calls happen without mu_ held (lock-order: never SMA -> daemon).
  if (slack > 0) {
    channel_->ReleaseBudget(slack);
  }
  channel_->ReportUsage(usage);
  return slack;
}

void SoftMemoryAllocator::ReportUsageLocked() {
  UsageReport usage;
  usage.soft_pages = pool_.committed_pages();
  usage.traditional_bytes = traditional_bytes_;
  // The published sweep figure can momentarily exceed the committed count
  // (pages decommitted since the sweep); clamp so the daemon never sees
  // idle > total.
  usage.idle_soft_pages = std::min(idle_pages_published_, usage.soft_pages);
  channel_->ReportUsage(usage);
}

void SoftMemoryAllocator::ReportTraditionalUsage(size_t bytes) {
  UsageReport usage;
  usage.traditional_bytes = bytes;
  {
    CentralLock lock(this);
    traditional_bytes_ = bytes;
    usage.soft_pages = pool_.committed_pages();
    usage.idle_soft_pages = std::min(idle_pages_published_, usage.soft_pages);
  }
  channel_->ReportUsage(usage);
}

// ---- Introspection ----------------------------------------------------------

SmaStats SoftMemoryAllocator::GetStats() const {
  CentralLock lock(this);
  // Drain magazines (no epoch bump) so live/pooled figures reflect every
  // completed SoftFree exactly, as they did under the big lock.
  const_cast<SoftMemoryAllocator*>(this)->RevokeThreadCachesLocked(false);
  SmaStats s;
  s.region_pages = pool_.total_pages();
  s.budget_pages = budget_pages_;
  s.committed_pages = pool_.committed_pages();
  s.pooled_pages = pool_.pooled_pages();
  s.in_use_pages = pool_.in_use_pages();
  for (const auto& c : contexts_) {
    if (c->alive) {
      ++s.context_count;
      s.live_allocations += c->heap.live_allocations;
      s.allocated_bytes += c->heap.allocated_bytes;
    }
  }
  s.total_allocs = total_allocs_->Value();
  s.total_frees = total_frees_->Value();
  s.budget_requests = budget_requests_->Value();
  s.budget_request_failures = budget_request_failures_->Value();
  s.degraded_denials = degraded_denials_->Value();
  s.local_denials = channel_->local_denials();
  s.reclaim_demands = reclaim_demands_->Value();
  s.reclaimed_pages = reclaimed_pages_->Value();
  s.reclaim_callbacks = reclaim_callbacks_->Value();
  s.self_reclaims = self_reclaims_->Value();
  s.cache_revocations = cache_revocations_->Value();
  s.cache_hits = cache_hits_->Value();
  s.cache_misses = cache_misses_->Value();
  s.transfer_hits = transfer_hits_->Value();
  s.transfer_flushes = transfer_flushes_->Value();
  s.pin_grace_timeouts = pin_grace_timeouts_->Value();
  s.pages_committed = pages_committed_->Value();
  s.pages_decommitted = pages_decommitted_->Value();
  s.access_monitor_enabled = monitor_enabled_.load(std::memory_order_relaxed);
  s.monitor_ticks = monitor_ticks_->Value();
  s.monitor_pages_sampled = monitor_pages_->Value();
  s.monitor_sample_ns = monitor_ns_->Value();
  s.monitor_idle_pages = idle_pages_published_;
  s.scheme_cold_drops = scheme_cold_drops_->Value();
  s.scheme_hot_drops = scheme_hot_drops_->Value();
  return s;
}

Result<ContextStats> SoftMemoryAllocator::GetContextStats(ContextId id) const {
  CentralLock lock(this);
  if (id >= contexts_.size() || !contexts_[id]->alive) {
    return NotFoundError("no such context");
  }
  const_cast<SoftMemoryAllocator*>(this)->RevokeThreadCachesLocked(false);
  const Context* c = contexts_[id].get();
  ContextStats s;
  s.name = c->options.name;
  s.priority = c->options.priority;
  s.owned_pages = c->heap.owned_pages;
  s.allocated_bytes = c->heap.allocated_bytes;
  s.live_allocations = c->heap.live_allocations;
  s.reclaimed_allocations = c->reclaimed_allocations;
  s.reclaimed_bytes = c->reclaimed_bytes;
  s.hot_bytes = c->hot_bytes;
  s.cold_bytes = c->cold_bytes;
  return s;
}

size_t SoftMemoryAllocator::budget_pages() const {
  CentralLock lock(this);
  return budget_pages_;
}

size_t SoftMemoryAllocator::committed_pages() const {
  CentralLock lock(this);
  return pool_.committed_pages();
}

}  // namespace softmem
