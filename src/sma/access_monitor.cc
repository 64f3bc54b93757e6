#include "src/sma/access_monitor.h"

#include <algorithm>

namespace softmem {

Result<std::unique_ptr<AccessMonitor>> AccessMonitor::Create(
    size_t num_pages, const AccessMonitorOptions& options,
    const Clock* clock) {
  SOFTMEM_ASSIGN_OR_RETURN(
      auto bits, LazyZeroArray<std::atomic<uint8_t>>::Create(num_pages));
  SOFTMEM_ASSIGN_OR_RETURN(auto heat,
                           LazyZeroArray<PageHeat>::Create(num_pages));
  return std::unique_ptr<AccessMonitor>(
      new AccessMonitor(options, clock, std::move(bits), std::move(heat)));
}

AccessMonitor::AccessMonitor(const AccessMonitorOptions& options,
                             const Clock* clock,
                             LazyZeroArray<std::atomic<uint8_t>> access_bits,
                             LazyZeroArray<PageHeat> heat)
    : num_pages_(access_bits.size()),
      options_(options),
      clock_(clock),
      base_ns_(clock->Now()),
      access_bits_(std::move(access_bits)),
      heat_(std::move(heat)) {}

bool AccessMonitor::SampleTick(
    const std::function<void(const SampleVisit&)>& visit) {
  const Nanos now = clock_->Now();
  const auto tick = static_cast<uint32_t>(ticks_);
  const size_t budget = std::min(
      std::max<size_t>(options_.pages_per_tick, 1), num_pages_);
  bool wrapped = false;
  for (size_t i = 0; i < budget; ++i) {
    const auto page = static_cast<uint32_t>(cursor_);
    cursor_ = (cursor_ + 1) % num_pages_;
    if (cursor_ == 0) {
      wrapped = true;
      ++sweeps_;
    }
    // Load before exchanging: a write to an untouched bit would fault its
    // page in. A Record racing between the two is kept for the next visit.
    const bool accessed =
        access_bits_[page].load(std::memory_order_relaxed) != 0 &&
        access_bits_[page].exchange(0, std::memory_order_relaxed) != 0;
    PageHeat& h = heat_[page];
    // Lazy decay: catch the counter up with the ticks that passed since it
    // was last visited, halving once per decay interval. A zero counter that
    // is not being bumped has nothing to decay and is left unwritten, so
    // sweeping a page nobody touches never makes its heat entry resident;
    // the skipped intervals are caught up whole on the next visit that runs
    // the decay, which leaves the same phase as running it every visit.
    if (options_.decay_every_ticks > 0 && (h.freq != 0 || accessed) &&
        tick > h.last_decay_tick) {
      const uint64_t intervals =
          (tick - h.last_decay_tick) / options_.decay_every_ticks;
      if (intervals > 0) {
        h.freq >>= std::min<uint64_t>(intervals, 31);
        h.last_decay_tick += static_cast<uint32_t>(
            intervals * options_.decay_every_ticks);
      }
    }
    if (accessed) {
      if (h.freq < UINT32_MAX) {
        ++h.freq;
      }
      h.last_access_ns = now;
    }
    SampleVisit v;
    v.page = page;
    v.accessed = accessed;
    v.frequency = h.freq;
    v.idle_ns = idle_ns(page, now);
    visit(v);
  }
  ++ticks_;
  return wrapped;
}

Nanos AccessMonitor::idle_ns(uint32_t page, Nanos now) const {
  if (page >= num_pages_) {
    return 0;
  }
  // An unconsumed access bit means the page was touched after the last
  // sweep visit: treat it as not idle so victim selection never drops a
  // just-touched page on stale heat.
  if (access_bits_[page].load(std::memory_order_relaxed) != 0) {
    return 0;
  }
  const Nanos last = heat_[page].last_access_ns != 0
                         ? heat_[page].last_access_ns
                         : base_ns_;
  return now > last ? now - last : 0;
}

void AccessMonitor::ResetPage(uint32_t page) {
  if (page >= num_pages_) {
    return;
  }
  access_bits_[page].store(0, std::memory_order_relaxed);
  heat_[page] = PageHeat{};
  heat_[page].last_access_ns = clock_->Now();  // fresh owner starts hot-ish
}

}  // namespace softmem
