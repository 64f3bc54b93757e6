// The Soft Memory Allocator (SMA) — the paper's primary contribution (§3.1).
//
// One SoftMemoryAllocator instance manages all soft memory of one process:
//
//  * It owns a virtual page region (PagePool over a PageSource) and a soft
//    *budget* measured in pages. Committed pages never exceed the budget;
//    when more are needed the SMA asks the Soft Memory Daemon for budget
//    through an SmdChannel, which may trigger reclamation in other processes.
//  * Each Soft Data Structure registers a *context* — its own heap (set of
//    pages with slab sub-allocation), a user-defined priority, a reclaim
//    callback and optionally a custom reclaim protocol.
//  * `SoftMalloc`/`SoftFree` are the paper's soft_malloc/soft_free.
//  * `HandleReclaimDemand` executes the two-tier reclamation protocol when
//    the daemon needs pages back: budget slack first, then pooled free
//    pages, then SDS contexts in ascending priority, each freeing its own
//    allocations (callback per dropped allocation) until enough wholly-free
//    pages exist; those pages are decommitted (returned to the OS) and the
//    budget shrinks accordingly.
//
// Thread-safety (the paper's §7 open question, answered here): all public
// methods are safe to call concurrently, and the hot path scales across
// threads instead of collapsing onto one big lock.
//
//  * Fast path. Small allocations in contexts whose reclaim mode is kNone
//    or kCustom are served from per-thread magazine caches (ThreadCache):
//    SoftMalloc pops and SoftFree pushes local per-(context, size-class)
//    free-slot magazines. Magazine refills and overflow flushes go through
//    per-context sharded lock-free stacks (TransferCache) first, so in the
//    steady state neither the per-op path nor the batch path touches the
//    central mutex; the central heap is only consulted when the stacks run
//    dry. Cumulative counters are per-thread striped atomics.
//  * Central path. All remaining state — page metadata, heaps, the pool,
//    budget — is guarded by one plain std::mutex (`mu_`) with explicit
//    *Locked internals. kOldestFirst contexts always take it: their
//    allocations must enter the central age registry, so the magazine
//    cache does not apply (the implicit default context is kOldestFirst).
//  * Reclaim re-entry. Reclaim callbacks and custom reclaim protocols run
//    under the central lock and may legitimately call back into SoftFree /
//    SoftMalloc. An owner check on the mutex routes such re-entrant calls
//    straight to the *Locked internals (the one place the old recursive
//    lock semantics survive); re-entrant frees also bypass the magazines,
//    so memory freed during reclamation is immediately visible centrally.
//  * Revocation protocol. HandleReclaimDemand bumps a cache epoch and
//    drains every thread's magazines back into the central free lists
//    before counting free pages, so parked slots cannot shield pages from
//    reclamation; stale caches self-flush on their next op. Context
//    destruction and allocation-failure paths drain likewise, and stats
//    snapshots drain so accounting stays exact. Pinning (PinContext) is
//    unaffected: magazines hold only *free* slots, never live allocations.

#ifndef SOFTMEM_SRC_SMA_SOFT_MEMORY_ALLOCATOR_H_
#define SOFTMEM_SRC_SMA_SOFT_MEMORY_ALLOCATOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/lazy_zero_array.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/pagealloc/page_pool.h"
#include "src/sma/access_monitor.h"
#include "src/sma/context.h"
#include "src/sma/page_meta.h"
#include "src/sma/size_classes.h"
#include "src/sma/smd_channel.h"
#include "src/sma/thread_cache.h"
#include "src/telemetry/event_journal.h"
#include "src/telemetry/metrics.h"

namespace softmem {

class TransferCache;

struct SmaOptions {
  // Virtual region size. Committed memory is bounded by the budget, not by
  // this; it only caps the address space and the side-metadata tables,
  // which are mapped lazily and cost memory only for pages the SMA uses.
  size_t region_pages = 512 * 1024;  // 2 GiB

  // Budget the SMA starts with (granted out-of-band, e.g. by the scheduler).
  size_t initial_budget_pages = 256;  // 1 MiB

  // When budget runs out, ask the SMD for at least this many pages at once
  // so daemon round-trips amortize over many allocations (§5 case (2)).
  size_t budget_chunk_pages = 256;  // 1 MiB

  // A heap keeps up to this many empty pages for quick reuse before
  // transferring them back to the process-global free pool.
  size_t heap_retain_empty_pages = 4;

  // If the SMD denies a budget request, reclaim this process's own
  // lower-priority soft memory (excluding the allocating context) to make
  // room under the existing budget instead of failing the allocation.
  bool allow_self_reclaim = false;

  // Use real mmap-backed pages (decommit returns memory to the OS). When
  // false, a heap-backed SimPageSource is used (portable; tests).
  bool use_mmap = true;

  // Serve small allocations of kNone/kCustom contexts from per-thread
  // magazine caches (see thread_cache.h). Disable to force every operation
  // through the central lock (the seed big-lock behavior; benchmarks use
  // this as the contention baseline).
  bool thread_cache = true;

  // Route magazine refills and overflow flushes through per-context sharded
  // lock-free free-slot stacks (see transfer_cache.h) so the steady-state
  // hot path never takes the central mutex. Disable (with thread_cache on)
  // for the sharded-freelist vs. central-refill ablation; no effect when
  // thread_cache is off.
  bool transfer_cache = true;

  // How long a reclamation pass waits for epoch-pinned readers of a victim
  // context to finish before skipping it (the pre-epoch protocol skipped
  // pinned contexts immediately and forever; a bounded grace period means
  // short reads are waited out and stuck readers still cannot stall
  // reclamation). Also bounds the reader drain in DestroyContext.
  size_t pin_grace_timeout_us = 2000;

  // DAMON-style access monitor over the soft heaps (see access_monitor.h
  // and DESIGN §12). Off by default: RecordAccess is one relaxed atomic
  // load and victim selection stays pure priority+age. When on, reclamation
  // prefers the coldest contexts within a priority class and, inside a
  // kOldestFirst context, drops allocations on pages idle past the scheme
  // threshold before touching anything hot.
  AccessMonitorOptions access_monitor;

  // Time source for access-recency bookkeeping (idle/decay timestamps).
  // Null = the process-wide monotonic clock; tests inject a SimClock so
  // idleness is a pure function of explicit Advance() calls.
  const Clock* clock = nullptr;

  // Registry this allocator's metrics register into (nullptr = keep the
  // counters private to the instance; GetStats still works). When several
  // allocators share one registry, give each a distinct metrics_instance —
  // series are deduplicated by (name, labels), so two allocators with the
  // same label would silently share counters.
  telemetry::MetricsRegistry* metrics = nullptr;
  std::string metrics_instance = "sma";

  // Bound on retained reclamation-trace records (see reclaim_journal()).
  size_t reclaim_journal_capacity = 256;
};

// Snapshot of allocator-wide accounting.
struct SmaStats {
  size_t region_pages = 0;
  size_t budget_pages = 0;
  size_t committed_pages = 0;  // physical pages currently held
  size_t pooled_pages = 0;     // committed but unassigned (global free pool)
  size_t in_use_pages = 0;     // committed and assigned to heaps
  size_t context_count = 0;
  size_t live_allocations = 0;
  size_t allocated_bytes = 0;  // sum of live slot sizes
  // Cumulative counters.
  size_t total_allocs = 0;
  size_t total_frees = 0;
  size_t budget_requests = 0;        // asked of the channel (an RPC unless
                                     // degraded or a denial stands)
  size_t budget_request_failures = 0;
  size_t degraded_denials = 0;       // denied locally: daemon unreachable
  size_t local_denials = 0;          // denied by the channel: denial stands
  size_t reclaim_demands = 0;        // HandleReclaimDemand calls
  size_t reclaimed_pages = 0;        // pages relinquished to the daemon
  size_t reclaim_callbacks = 0;      // allocations dropped via callback
  size_t self_reclaims = 0;
  size_t cache_revocations = 0;      // magazine drains forced by reclaim
  size_t cache_hits = 0;             // magazine pops served locally
  size_t cache_misses = 0;           // magazine refills from the central heap
  size_t transfer_hits = 0;          // refills served by the lock-free stacks
  size_t transfer_flushes = 0;       // overflow chains parked lock-free
  size_t pin_grace_timeouts = 0;     // victim contexts skipped: reader stuck
  size_t pages_committed = 0;        // cumulative fresh commits
  size_t pages_decommitted = 0;      // cumulative decommits (reclaim + trim)
  // Access monitor / scheme (all zero while monitoring is off).
  bool access_monitor_enabled = false;
  size_t monitor_ticks = 0;          // sampling ticks executed
  size_t monitor_pages_sampled = 0;  // pages examined across all ticks
  size_t monitor_sample_ns = 0;      // cumulative sampler wall time (overhead)
  size_t monitor_idle_pages = 0;     // cold pages at the last completed sweep
  size_t scheme_cold_drops = 0;      // allocations dropped for being cold
  size_t scheme_hot_drops = 0;       // fallback age-order drops (cold pass short)
};

class SoftMemoryAllocator {
 public:
  // Creates an allocator. `channel` may be null (stand-alone: fixed budget).
  // The channel must outlive the allocator.
  static Result<std::unique_ptr<SoftMemoryAllocator>> Create(
      const SmaOptions& options, SmdChannel* channel = nullptr);

  // As above with an explicit page source (tests inject SimPageSource with
  // failure limits). `source->page_count()` overrides options.region_pages.
  static Result<std::unique_ptr<SoftMemoryAllocator>> CreateWithSource(
      const SmaOptions& options, SmdChannel* channel,
      std::unique_ptr<PageSource> source);

  ~SoftMemoryAllocator();

  SoftMemoryAllocator(const SoftMemoryAllocator&) = delete;
  SoftMemoryAllocator& operator=(const SoftMemoryAllocator&) = delete;

  // ---- Contexts -----------------------------------------------------------

  // Registers a new SDS context. The returned id is valid until destroyed.
  Result<ContextId> CreateContext(const ContextOptions& options);

  // Frees every live allocation of the context (without invoking the reclaim
  // callback — destruction is an application decision, not a revocation) and
  // returns its pages to the global pool.
  Status DestroyContext(ContextId id);

  // Installs/replaces the custom reclaim protocol of a kCustom context.
  Status SetCustomReclaim(ContextId id, CustomReclaimFn fn);

  // Adjusts a context's reclamation priority at runtime.
  Status SetPriority(ContextId id, size_t priority);

  // The implicit context backing the two-argument-free SoftMalloc overload
  // (mode kOldestFirst, priority 0, no callback).
  ContextId default_context() const { return kDefaultContext; }

  // ---- Access pinning (§7 "Concurrency") ----------------------------------
  // While a context is pinned, reclamation will not revoke its live
  // allocations (budget slack and pooled pages are still fair game). This is
  // the coarse-grained analogue of AIFM's dereference scopes: a thread that
  // is actively reading soft memory pins the owning context so the data
  // cannot vanish mid-access. Use the RAII ReclaimPin wrapper.
  //
  // Pins are epoch-based and lock-free: PinContext publishes a per-thread
  // epoch entry (two release stores and one fence — no lock, no CAS) and
  // UnpinContext retires it, so readers never serialize against the
  // reclaimer or each other. HandleReclaimDemand advances the global epoch,
  // closes the victim's gate and waits out a bounded grace period for
  // published readers; a reader that holds a pin past the grace timeout
  // causes the context to be skipped (the old mutex protocol's semantics),
  // it never blocks reclamation of other contexts. Re-entrant pins taken
  // from reclaim callbacks, and pins past the per-thread entry budget, fall
  // back to a central pin count with the original semantics. Magazine
  // caches never interfere with pins: they hold only free slots, and a
  // reclaim-time drain returns slots without touching live allocations.
  Status PinContext(ContextId id);
  Status UnpinContext(ContextId id);

  // ---- Allocation (the paper's soft_malloc / soft_free) -------------------

  // Allocates `size` bytes of soft memory in `ctx`'s heap. Returns nullptr
  // when the allocation cannot be satisfied: budget exhausted and the daemon
  // denied more (after optional self-reclamation). Never throws.
  void* SoftMalloc(ContextId ctx, size_t size);
  void* SoftMalloc(size_t size) { return SoftMalloc(kDefaultContext, size); }

  // Frees a pointer returned by SoftMalloc. nullptr is a no-op.
  void SoftFree(void* ptr);

  // Zero-initialized allocation (calloc semantics; checks n*size overflow).
  void* SoftCalloc(ContextId ctx, size_t n, size_t size);

  // Resizes `ptr` within its original context (realloc semantics): may
  // return the same pointer (same size class, or a large run grown/shrunk
  // in place — shrinking releases the now-unused tail pages), a new pointer
  // with the contents copied, or nullptr on failure — in which case `ptr`
  // is still valid and untouched. SoftRealloc(nullptr, n) allocates in the
  // default context; SoftRealloc(ptr, 0) frees and returns nullptr.
  void* SoftRealloc(void* ptr, size_t new_size);

  // Size of the slot backing `ptr` (>= requested size).
  size_t AllocationSize(const void* ptr) const;

  // True if `ptr` is a currently-live soft allocation of this SMA.
  bool Owns(const void* ptr) const;

  // ---- Reclamation --------------------------------------------------------

  // Executes a daemon reclamation demand for `pages` pages. Returns the
  // number of pages actually relinquished (decommitted or released as budget
  // slack); the budget shrinks by the same amount. Outstanding per-thread
  // magazines are revoked first (epoch bump + synchronous drain) so cached
  // slots count as free pages.
  size_t HandleReclaimDemand(size_t pages);

  // Voluntarily decommits all pooled pages and returns the resulting budget
  // slack to the daemon. Returns pages given up.
  size_t TrimAndReleaseBudget();

  // ---- Access monitoring (DESIGN §12) -------------------------------------

  // Notes an access to the soft allocation behind `ptr` (e.g. a KV GET hit).
  // One relaxed atomic store when monitoring is on, one relaxed load when
  // off — safe from any thread, never takes a lock. Every
  // options_.access_monitor.sample_every_ops recorded accesses the calling
  // thread additionally runs one bounded sampling tick, so monitoring needs
  // no dedicated thread. SoftMalloc records the touched page itself.
  // Defined inline: this sits on the SoftMalloc/SoftFree hot path, and the
  // monitored arm of bench/mt_throughput pays the call overhead per op.
  void RecordAccess(const void* ptr) {
    if (!monitor_enabled_.load(std::memory_order_acquire) || ptr == nullptr) {
      return;
    }
    AccessMonitor* m = monitor_.load(std::memory_order_acquire);
    if (m == nullptr) {
      return;
    }
    const auto p = reinterpret_cast<uintptr_t>(ptr);
    if (p - region_base_ >= region_bytes_) {
      return;  // not soft memory of this SMA
    }
    m->Record(static_cast<uint32_t>((p - region_base_) / kPageSize));
    const size_t every = options_.access_monitor.sample_every_ops;
    if (every > 0) {
      // Amortized sampling: every Nth recorded access on this thread pays
      // for one bounded tick, so monitoring needs no dedicated thread.
      thread_local size_t ops = 0;
      if (++ops >= every) {
        ops = 0;
        SampleAccessTick();
      }
    }
  }

  // Runs one explicit sampling tick (tests, event-loop idle callbacks).
  // Returns pages examined (0 when monitoring is off).
  size_t SampleAccessTick();

  // Toggles monitoring at runtime. Enabling lazily builds the monitor's
  // side arrays (first enable only; heat survives disable/re-enable).
  Status SetAccessMonitorEnabled(bool enabled);
  bool access_monitor_enabled() const {
    return monitor_enabled_.load(std::memory_order_acquire);
  }

  // Scheme threshold: pages idle at least this long count as cold and are
  // reclaimed first ("reclaim regions idle > N sec first").
  void SetSchemeMinIdle(Nanos min_idle_ns);
  Nanos scheme_min_idle() const;

  // ---- Introspection ------------------------------------------------------

  // Stats snapshots drain every thread's magazines first, so counts reflect
  // all completed SoftFree calls exactly (at the cost of briefly touching
  // each thread cache).
  SmaStats GetStats() const;

  // Bounded ring of structured traces, one per executed reclamation demand
  // (see telemetry/event_journal.h). Always recorded: the reclaim path is
  // slow enough that two clock reads per phase are free.
  const telemetry::SmaReclaimJournal& reclaim_journal() const {
    return reclaim_journal_;
  }
  Result<ContextStats> GetContextStats(ContextId id) const;
  size_t budget_pages() const;
  size_t committed_pages() const;

  // Sets the "traditional memory" figure reported to the daemon alongside
  // soft usage (feeds the reclamation-weight policy).
  void ReportTraditionalUsage(size_t bytes);

  // ---- Tracked pointers (used by SoftPtr, §7) -----------------------------

  // Registers `holder` (the address of a pointer variable currently holding
  // `alloc`) to be rewritten to nullptr when `alloc` is freed or reclaimed.
  void TrackPointer(void* alloc, void* holder);
  void UntrackPointer(void* alloc, void* holder);

  // ---- Thread-cache plumbing (see thread_cache.h) -------------------------

  // Monotone id distinguishing allocator instances that reuse an address.
  uint64_t instance_generation() const { return instance_generation_; }

  // Adds the calling thread's cache to this allocator's drain registry.
  void RegisterThreadCache(ThreadCache* cache);

  // Returns `cache`'s magazines to the central heap and unregisters it.
  // Called at thread exit with the global allocator registry lock held.
  void FlushThreadCacheAtExit(ThreadCache* cache);

 private:
  static constexpr ContextId kDefaultContext = 0;
  static constexpr size_t kMaxContexts = 0x10000;

  // ctx_flags_ bits (one atomic byte per possible ContextId).
  static constexpr uint8_t kCtxAlive = 1;
  static constexpr uint8_t kCtxCacheable = 2;

  struct Heap {
    std::array<uint32_t, kNumSizeClasses> partial_head;
    uint32_t full_head = kNoPage;
    uint32_t empty_head = kNoPage;
    uint32_t large_head = kNoPage;
    size_t empty_count = 0;
    size_t owned_pages = 0;
    size_t allocated_bytes = 0;
    size_t live_allocations = 0;

    Heap() { partial_head.fill(kNoPage); }
  };

  struct Context {
    ContextOptions options;
    CustomReclaimFn custom_reclaim;
    Heap heap;
    bool alive = false;
    // Oldest-first registry (kOldestFirst mode only). Sequence numbers make
    // stale deque entries (freed-then-reused pointers) detectable.
    std::deque<std::pair<void*, uint64_t>> order;
    std::unordered_map<void*, uint64_t> live_seq;
    uint64_t next_seq = 0;
    // Central fallback pin count (re-entrant pins from reclaim callbacks
    // and per-thread entry overflow); the common path uses epoch entries.
    size_t pin_count = 0;
    size_t reclaimed_allocations = 0;
    size_t reclaimed_bytes = 0;
    // Heat split published at the last completed sampling sweep (guarded by
    // mu_; zero while monitoring is off).
    size_t hot_bytes = 0;
    size_t cold_bytes = 0;
  };

  struct LargeInfo {
    uint32_t run_pages;
    size_t bytes;
  };

  // Scoped central-lock acquisition with reclaim-callback re-entry: if the
  // calling thread already owns mu_ (a callback called back into the public
  // API), the lock is treated as held and only the depth is tracked.
  class CentralLock {
   public:
    explicit CentralLock(const SoftMemoryAllocator* sma) : sma_(sma) {
      if (sma_->mu_owner_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id()) {
        outermost_ = false;
        ++sma_->mu_depth_;
      } else {
        sma_->mu_.lock();
        sma_->mu_owner_.store(std::this_thread::get_id(),
                              std::memory_order_relaxed);
        sma_->mu_depth_ = 1;
        outermost_ = true;
      }
    }
    ~CentralLock() {
      if (outermost_) {
        sma_->mu_owner_.store(std::thread::id{}, std::memory_order_relaxed);
        sma_->mu_.unlock();
      } else {
        --sma_->mu_depth_;
      }
    }
    CentralLock(const CentralLock&) = delete;
    CentralLock& operator=(const CentralLock&) = delete;

   private:
    const SoftMemoryAllocator* sma_;
    bool outermost_;
  };

  // Region- and context-indexed side tables. They are mapped lazily (see
  // lazy_zero_array.h), so a table costs RSS only where it is written, and
  // mapped before construction, so a failed mapping is an error from Create
  // rather than an abort. Every table's all-zero entry is its empty state.
  struct SideTables {
    LazyZeroArray<PageMeta> metas;                      // per page
    LazyZeroArray<std::atomic<uint32_t>> page_descr;    // per page
    LazyZeroArray<std::atomic<uint8_t>> ctx_flags;      // per ContextId
    LazyZeroArray<std::atomic<uint32_t>> ctx_gate;      // per ContextId
    LazyZeroArray<std::atomic<TransferCache*>> xfer;    // per ContextId

    static Result<SideTables> Map(size_t region_pages);
  };

  SoftMemoryAllocator(const SmaOptions& options, SmdChannel* channel,
                      std::unique_ptr<PageSource> source, SideTables tables);

  // True when the calling thread holds mu_ (reclaim-callback re-entry).
  bool HoldsCentralLock() const {
    return mu_owner_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  // Intrusive page-list helpers over metas_.
  void ListPush(uint32_t* head, uint32_t page);
  void ListRemove(uint32_t* head, uint32_t page);

  void* SlotAddress(uint32_t page, int size_class, uint16_t slot) const;

  void* AllocSmallLocked(ContextId ctx, int size_class);
  void* AllocLargeLocked(ContextId ctx, size_t size);
  // `count_op` is false when returning magazine slots (not user frees):
  // the cumulative free counter must reflect user operations only.
  void FreeLocked(void* ptr, bool count_op = true);

  // ---- Magazine-cache internals -------------------------------------------

  // Pops a slot from the calling thread's magazine, refilling a half
  // magazine from the central heap on miss. Returns nullptr when the
  // central heap cannot produce a single slot (budget exhausted).
  void* CacheAlloc(ContextId ctx, int cls);

  // Pushes `ptr` onto the calling thread's magazine; flushes the overflow
  // half-magazine centrally when full. Returns false when the pointer is
  // not cache-eligible (caller must free centrally).
  bool TryCacheFree(void* ptr);

  // Drains every registered thread cache into the central free lists.
  // `bump_epoch` additionally advances the cache epoch so caches that gain
  // slots after the drain self-flush on their next operation (the
  // reclamation revocation protocol); stats snapshots drain without it.
  void RevokeThreadCachesLocked(bool bump_epoch);

  // Removes and centrally frees all magazines of `ctx` (context teardown).
  void PurgeContextFromCachesLocked(ContextId ctx);

  // Drains the lock-free transfer stacks of `ctx` (all of them when
  // ctx == kMaxContexts) back into the central free lists.
  void DrainTransferStacksLocked(size_t ctx);

  // ---- Epoch-pin internals (see DESIGN.md §11) ----------------------------

  // Central-lock fallback pin/unpin (reclaim-callback re-entry, entry
  // overflow, and the error paths whose status codes are API).
  Status PinContextCentral(ContextId id);
  Status UnpinContextCentral(ContextId id);

  // True when the calling thread itself holds an epoch pin on `id`.
  bool OwnThreadPinsContext(ContextId id);

  // Waits until no *other* thread publishes an epoch pin for `id`, or the
  // grace timeout elapses. The caller must have closed the gate and issued
  // the seq_cst fence. Returns true when the context quiesced.
  bool WaitForPinGraceLocked(ContextId id);

  // Prepares `id` for revocation: refuses (false) when centrally pinned or
  // pinned by the calling thread, otherwise closes the gate, advances the
  // reclaim epoch and waits out the grace period. On timeout the gate is
  // reopened and false is returned (the context is skipped). On true the
  // gate stays closed — no new reader can pin — until EndVictimContext.
  bool BeginVictimContextLocked(ContextId id);
  void EndVictimContext(ContextId id);

  // Carves up to `want` slots of `cls` for `ctx`; returns the count.
  size_t AllocSmallBatchLocked(ContextId ctx, int cls, size_t want,
                               void** out);

  // Lock-free per-page descriptor maintenance (fast-path free routing).
  void SetPageDescrLocked(uint32_t page, int cls, ContextId ctx);
  void ClearPageDescrLocked(uint32_t page);

  // Gets `count` contiguous pages for `ctx`, requesting budget / performing
  // self-reclamation as configured. On success the pages are committed and
  // counted against the budget.
  Result<PageRun> AcquirePagesLocked(ContextId ctx, size_t count);

  // Takes one page for a slab: heap empty list first, then AcquirePages.
  Result<uint32_t> TakeSlabPageLocked(ContextId ctx);

  // Moves all empty pages of `ctx` to the global pool.
  void HarvestEmptyPagesLocked(Context* ctx);

  // Frees allocations of `ctx` until the global pool has gained
  // `want_pool_pages` pages or the context is exhausted. Returns pages gained.
  // With `cold_only` set, only scheme-cold pages are surrendered (the demand
  // loop's first pass; requires the access monitor).
  size_t ReclaimFromContextLocked(Context* ctx, size_t want_pool_pages,
                                  bool cold_only = false);

  // Drops oldest allocations of `ctx` until ~target_bytes are freed.
  size_t ReclaimOldestFirstLocked(Context* ctx, size_t target_bytes);

  // ---- Access-monitor internals (DESIGN §12) ------------------------------

  // Clock for access-recency bookkeeping (options_.clock or monotonic).
  const Clock* time_source() const;

  // One bounded sampling tick under mu_: consumes access bits, attributes
  // visited pages to contexts, and publishes per-context hot/cold aggregates
  // when a sweep completes. Returns pages examined.
  size_t SampleAccessTickLocked();

  // Cold-first drop pass for a kOldestFirst victim: walks the age registry
  // dropping only allocations whose page is idle past the scheme threshold.
  // With `allow_hot_fallback`, any remainder falls back to plain oldest-first;
  // the demand loop clears it on its cold-only pass so every victim context
  // surrenders cold pages before any surrenders hot ones.
  size_t ReclaimColdFirstLocked(Context* ctx, size_t target_bytes,
                                bool allow_hot_fallback);

  // Victim order: ascending priority always; within a priority class the
  // colder context (higher cold fraction at the last sweep) goes first when
  // monitoring is on.
  void SortVictimOrderLocked(std::vector<ContextId>* ids) const;

  void ReportUsageLocked();

  const SmaOptions options_;
  SmdChannel* channel_;  // not owned; may be null
  NullSmdChannel null_channel_;
  const uint64_t instance_generation_;

  // Nulls all tracked holders of `alloc` (called before the memory goes).
  void InvalidateTrackedLocked(void* alloc);

  // Central lock. Plain mutex; mu_owner_/mu_depth_ implement the
  // reclaim-callback re-entry path (see CentralLock). mu_depth_ is only
  // accessed by the owning thread.
  mutable std::mutex mu_;
  mutable std::atomic<std::thread::id> mu_owner_{};
  mutable int mu_depth_ = 0;

  PagePool pool_;
  LazyZeroArray<PageMeta> metas_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::unordered_map<uint32_t, LargeInfo> large_info_;
  // alloc base -> addresses of pointer variables to null on revocation.
  std::unordered_multimap<void*, void*> tracked_ptrs_;
  size_t budget_pages_;
  size_t traditional_bytes_ = 0;

  // ---- Lock-free fast-path state ------------------------------------------

  // Per-page descriptor: kDescrSlabBit | size_class << 16 | context for live
  // slab pages, 0 otherwise. Lets SoftFree route a pointer to the right
  // magazine without the central lock. Written under mu_; read with acquire.
  LazyZeroArray<std::atomic<uint32_t>> page_descr_;

  // Per-context kCtxAlive/kCtxCacheable flags, indexed by ContextId.
  LazyZeroArray<std::atomic<uint8_t>> ctx_flags_;

  // Advanced by reclaim revocations; magazines self-flush on mismatch.
  std::atomic<uint64_t> cache_epoch_{0};

  // Per-context lock-free transfer stacks (created with the context under
  // mu_, published with release; context ids are never reused, so entries
  // live until the allocator dies). Null for non-cacheable contexts or when
  // options_.transfer_cache is off.
  LazyZeroArray<std::atomic<TransferCache*>> xfer_;

  // Per-context reader gate: odd while a revocation (or destruction) has
  // the context's unlink window open. Readers that observe a closed gate
  // unpublish and wait; see PinContext.
  LazyZeroArray<std::atomic<uint32_t>> ctx_gate_;

  // Global reclaim epoch, advanced per victim context; epoch entries stamp
  // it at publish time (the grace predicate itself is presence-based).
  std::atomic<uint64_t> reclaim_epoch_{1};

  // Nonzero while any SoftPtr is registered: tracked frees must invalidate
  // holders under the central lock, so they bypass the magazines.
  std::atomic<size_t> tracked_count_{0};

  // ---- Access-monitor state (DESIGN §12) ----------------------------------

  // Built lazily on first enable (under mu_, published with release) and
  // owned until the allocator dies; RecordAccess reads it with acquire, so
  // disabling only flips monitor_enabled_ and the side arrays (plus their
  // heat) survive a disable/re-enable cycle.
  std::atomic<AccessMonitor*> monitor_{nullptr};
  std::atomic<bool> monitor_enabled_{false};

  // Soft-region bounds, fixed at construction. RecordAccess sits on the
  // SoftMalloc/SoftFree hot path; resolving these through the PageSource
  // vtable per call costs more than the record itself.
  uintptr_t region_base_ = 0;
  size_t region_bytes_ = 0;

  // Scheme threshold (mu_): pages idle at least this long count as cold.
  Nanos scheme_min_idle_ns_;

  // Sweep-in-progress accumulators and last-published figures (mu_). The
  // in-progress split is attributed per visited page and atomically swapped
  // into the contexts when the sweep cursor wraps, so readers always see a
  // consistent whole-region split.
  std::unordered_map<ContextId, std::pair<size_t, size_t>> sweep_hot_cold_;
  size_t sweep_idle_pages_ = 0;
  size_t idle_pages_published_ = 0;

  // Per-reclaim-demand drop counters (mu_; reset at demand start, copied
  // into the demand's journal trace).
  size_t pass_cold_drops_ = 0;
  size_t pass_hot_drops_ = 0;

  // Registry of this allocator's per-thread caches (drain targets).
  mutable std::mutex caches_mu_;
  std::vector<ThreadCache*> caches_;

  // ---- Telemetry ----------------------------------------------------------

  // Binds the counter pointers below and (when options_.metrics is set)
  // registers the series + render-time collector. Called from the ctor.
  void InitTelemetry();

  // Collector body: snapshots the lock-guarded accounting (GetStats plus
  // per-context figures) into gauge samples at render time.
  void CollectTelemetry(std::vector<telemetry::Sample>* out) const;

  // Cumulative counters (see SmaStats). telemetry::Counter is a striped
  // relaxed atomic (one padded cell per thread), so the magazine fast path
  // neither touches mu_ nor shares a counter line across threads. With a
  // registry configured the pointers alias registry-owned series (single
  // source of truth for GetStats, stats_text, and /metrics); otherwise they
  // point into own_counters_, keeping instances fully independent.
  struct CounterSet {
    telemetry::Counter allocs, frees, budget_requests, budget_failures,
        degraded_denials, reclaim_demands, reclaimed_pages, reclaim_callbacks,
        self_reclaims, cache_revocations, cache_hits, cache_misses,
        transfer_hits, transfer_flushes, pin_grace_timeouts, pages_committed,
        pages_decommitted, monitor_ticks, monitor_pages, monitor_ns,
        scheme_cold_drops, scheme_hot_drops;
  };
  CounterSet own_counters_;
  telemetry::Counter* total_allocs_ = nullptr;
  telemetry::Counter* total_frees_ = nullptr;
  telemetry::Counter* budget_requests_ = nullptr;
  telemetry::Counter* budget_request_failures_ = nullptr;
  telemetry::Counter* degraded_denials_ = nullptr;
  telemetry::Counter* reclaim_demands_ = nullptr;
  telemetry::Counter* reclaimed_pages_ = nullptr;
  telemetry::Counter* reclaim_callbacks_ = nullptr;
  telemetry::Counter* self_reclaims_ = nullptr;
  telemetry::Counter* cache_revocations_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* cache_misses_ = nullptr;
  telemetry::Counter* transfer_hits_ = nullptr;
  telemetry::Counter* transfer_flushes_ = nullptr;
  telemetry::Counter* pin_grace_timeouts_ = nullptr;
  telemetry::Counter* pages_committed_ = nullptr;
  telemetry::Counter* pages_decommitted_ = nullptr;
  telemetry::Counter* monitor_ticks_ = nullptr;
  telemetry::Counter* monitor_pages_ = nullptr;
  telemetry::Counter* monitor_ns_ = nullptr;
  telemetry::Counter* scheme_cold_drops_ = nullptr;
  telemetry::Counter* scheme_hot_drops_ = nullptr;

  // Reclaim latency distributions (registry-owned; null without a registry).
  telemetry::Histogram* reclaim_duration_hist_ = nullptr;
  telemetry::Histogram* reclaim_pages_hist_ = nullptr;
  telemetry::Histogram* phase_revoke_hist_ = nullptr;
  telemetry::Histogram* phase_slack_hist_ = nullptr;
  telemetry::Histogram* phase_pool_hist_ = nullptr;
  telemetry::Histogram* phase_sds_hist_ = nullptr;

  telemetry::SmaReclaimJournal reclaim_journal_;
  uint64_t collector_id_ = 0;  // 0 = no collector registered
};

}  // namespace softmem

#endif  // SOFTMEM_SRC_SMA_SOFT_MEMORY_ALLOCATOR_H_
