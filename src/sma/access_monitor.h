// DAMON-style access monitoring over the SMA's soft heaps (DESIGN §12).
//
// Victim selection used to be blind: reclamation walked contexts in static
// priority order and dropped allocations purely by age, so a reclaim wave
// was as likely to take a hot working set as a cold one. The monitor adds a
// lightweight recency/frequency signal per *region* — here one region = one
// page, the SMA's natural unit — so reclamation can prefer memory nobody
// has touched in a while:
//
//  * Record(page) sets a per-page access bit. It is called from the
//    allocation path and from SDS read paths (e.g. a KV GET hit) and costs
//    one relaxed atomic store — safe from any thread, no lock.
//  * SampleTick() folds the access bits of a *bounded* number of pages into
//    per-page heat counters (a frequency count with periodic decay and a
//    last-access timestamp), advancing a circular cursor so successive
//    ticks sweep the whole region. The caller (the SMA) holds its central
//    lock, owns the tick cadence, and attributes the visited pages to
//    contexts — the monitor knows nothing about heaps.
//
// Crucially, sampling NEVER dereferences the pages it samples: all state
// lives in side arrays indexed by page number, so a page that was
// decommitted by a concurrent reclamation pass (or never committed at all)
// is sampled exactly like any other — there is nothing to fault on. Access
// *recording* touches soft memory only in the sense that the caller already
// holds a pointer into it; the §11 epoch-pin protocol is what keeps that
// pointer alive, not the monitor.
//
// Decay math: sampling tick T applies
//
//     freq >>= (T - last_decay_tick) / decay_every_ticks      (lazily)
//
// before folding the access bit in (freq saturates at 2^31). A page's
// frequency therefore halves every `decay_every_ticks` ticks without a
// global aging sweep, and a page that stops being touched decays to 0 in
// O(decay_every_ticks * log2(freq)) ticks.
//
// Memory cost when enabled: 1 byte (access bit) + 16 bytes (heat) per page
// of the region, mapped lazily (see lazy_zero_array.h): a page's entries
// become resident once it is recorded or its heat has something to decay,
// so pages the SMA never hands out cost nothing even while the sampler
// sweeps them. Nothing is mapped while the monitor is off.

#ifndef SOFTMEM_SRC_SMA_ACCESS_MONITOR_H_
#define SOFTMEM_SRC_SMA_ACCESS_MONITOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/clock.h"
#include "src/common/lazy_zero_array.h"
#include "src/common/status.h"

namespace softmem {

struct AccessMonitorOptions {
  // Create the allocator with monitoring already on. The monitor can also
  // be toggled at runtime (SoftMemoryAllocator::SetAccessMonitorEnabled).
  bool enabled = false;

  // Pages folded per SampleTick — the bound on per-tick sampling work.
  // A full sweep of the region takes ceil(region_pages / pages_per_tick)
  // ticks; per-context hot/cold aggregates publish at sweep completion.
  size_t pages_per_tick = 256;

  // Frequency counters halve every this many ticks (see decay math above).
  uint64_t decay_every_ticks = 4;

  // Default scheme threshold: a page with no observed access for this long
  // counts as cold/idle. Runtime-adjustable (SetSchemeMinIdle / the RESP
  // SCHEME command); this is only the starting value.
  Nanos idle_threshold_ns = 2 * kNanosPerSecond;

  // The allocation path triggers one SampleTick every this many recorded
  // accesses (per thread), so sampling needs no dedicated thread. Explicit
  // SampleAccessTick() calls (tests, event loops) compose with this.
  size_t sample_every_ops = 4096;
};

class AccessMonitor {
 public:
  // Maps the side arrays for `num_pages` pages; fails (never aborts) when
  // they cannot be mapped. `clock` supplies last-access timestamps (inject a
  // SimClock for deterministic idleness in tests) and must outlive the
  // monitor.
  static Result<std::unique_ptr<AccessMonitor>> Create(
      size_t num_pages, const AccessMonitorOptions& options,
      const Clock* clock);

  AccessMonitor(const AccessMonitor&) = delete;
  AccessMonitor& operator=(const AccessMonitor&) = delete;

  // Marks `page` accessed. Lock-free; callable from any thread concurrently
  // with SampleTick. Out-of-range pages are ignored.
  void Record(uint32_t page) {
    if (page < num_pages_) {
      access_bits_[page].store(1, std::memory_order_relaxed);
    }
  }

  struct SampleVisit {
    uint32_t page = 0;
    bool accessed = false;   // access bit was set since the last sweep visit
    uint32_t frequency = 0;  // decayed frequency after folding this visit
    Nanos idle_ns = 0;       // time since the last observed access
  };

  // One sampling tick: consumes the access bits of up to pages_per_tick
  // pages at the sweep cursor, applies decay, updates heat, and calls
  // `visit` for each page examined. Returns true when this tick completed a
  // full sweep of the region (the cursor wrapped). The caller must
  // serialize SampleTick calls (the SMA runs it under its central lock).
  bool SampleTick(const std::function<void(const SampleVisit&)>& visit);

  // Time since the last observed access of `page`; 0 when an unconsumed
  // access bit is pending (the page was touched after the last tick).
  // Pages never observed count as idle since monitor creation. Same
  // serialization requirement as SampleTick.
  Nanos idle_ns(uint32_t page, Nanos now) const;

  // Decayed access frequency of `page` (serialized like SampleTick).
  uint32_t frequency(uint32_t page) const {
    return page < num_pages_ ? heat_[page].freq : 0;
  }

  // Forgets `page`'s history (page decommitted or reassigned to a new
  // owner: heat must not leak across owners).
  void ResetPage(uint32_t page);

  uint64_t ticks() const { return ticks_; }
  uint64_t sweeps() const { return sweeps_; }
  size_t cursor() const { return cursor_; }
  size_t num_pages() const { return num_pages_; }
  const AccessMonitorOptions& options() const { return options_; }

 private:
  // All-zero = never observed (the lazily mapped table's initial state).
  struct PageHeat {
    Nanos last_access_ns = 0;      // 0 = never observed (use base_ns_)
    uint32_t freq = 0;             // decayed access count
    uint32_t last_decay_tick = 0;  // tick the lazy decay last ran at
  };

  AccessMonitor(const AccessMonitorOptions& options, const Clock* clock,
                LazyZeroArray<std::atomic<uint8_t>> access_bits,
                LazyZeroArray<PageHeat> heat);

  const size_t num_pages_;
  const AccessMonitorOptions options_;
  const Clock* clock_;
  const Nanos base_ns_;  // creation time: idleness floor for unseen pages

  // Written lock-free by Record; consumed (exchange) by SampleTick.
  LazyZeroArray<std::atomic<uint8_t>> access_bits_;

  // Guarded by the caller's serialization of SampleTick/idle_ns/ResetPage.
  LazyZeroArray<PageHeat> heat_;
  size_t cursor_ = 0;
  uint64_t ticks_ = 0;
  uint64_t sweeps_ = 0;
};

}  // namespace softmem

#endif  // SOFTMEM_SRC_SMA_ACCESS_MONITOR_H_
