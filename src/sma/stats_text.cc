#include "src/sma/stats_text.h"

#include <sstream>

#include "src/common/units.h"

namespace softmem {

std::string FormatSmaStats(const SmaStats& s) {
  std::ostringstream os;
  os << "sma: budget " << FormatBytes(s.budget_pages * kPageSize)
     << ", committed " << FormatBytes(s.committed_pages * kPageSize)
     << " (" << FormatBytes(s.in_use_pages * kPageSize) << " in use, "
     << FormatBytes(s.pooled_pages * kPageSize) << " pooled)\n"
     << "  contexts: " << s.context_count << ", live allocations: "
     << s.live_allocations << " (" << FormatBytes(s.allocated_bytes) << ")\n"
     << "  ops: " << s.total_allocs << " allocs, " << s.total_frees
     << " frees\n";
  const size_t cache_ops = s.cache_hits + s.cache_misses;
  if (cache_ops > 0) {
    os << "  magazines: " << s.cache_hits << " hits / " << cache_ops
       << " lookups ("
       << (100 * s.cache_hits + cache_ops / 2) / cache_ops << "% hit rate), "
       << s.cache_revocations << " revocations\n";
  }
  os << "  paging: " << s.pages_committed << " committed, "
     << s.pages_decommitted << " decommitted (cumulative pages)\n"
     << "  daemon: " << s.budget_requests << " budget requests ("
     << s.budget_request_failures << " failed, " << s.degraded_denials
     << " degraded-local, " << s.local_denials << " standing-local)\n"
     << "  reclamation: " << s.reclaim_demands << " demands, "
     << FormatBytes(s.reclaimed_pages * kPageSize) << " relinquished, "
     << s.reclaim_callbacks << " callbacks, " << s.self_reclaims
     << " self-reclaims\n";
  if (s.access_monitor_enabled || s.monitor_ticks > 0) {
    os << "  monitor: " << (s.access_monitor_enabled ? "on" : "off") << ", "
       << s.monitor_ticks << " ticks, " << s.monitor_pages_sampled
       << " pages sampled (" << s.monitor_sample_ns << " ns), "
       << FormatBytes(s.monitor_idle_pages * kPageSize) << " idle, drops "
       << s.scheme_cold_drops << " cold / " << s.scheme_hot_drops << " hot\n";
  }
  return os.str();
}

std::string FormatContextStats(const ContextStats& s) {
  std::ostringstream os;
  os << "context '" << s.name << "' prio=" << s.priority << ": "
     << s.owned_pages << " pages, " << s.live_allocations << " live ("
     << FormatBytes(s.allocated_bytes) << "), reclaimed "
     << s.reclaimed_allocations << " allocs ("
     << FormatBytes(s.reclaimed_bytes) << ")";
  if (s.hot_bytes + s.cold_bytes > 0) {
    os << ", heat " << FormatBytes(s.hot_bytes) << " hot / "
       << FormatBytes(s.cold_bytes) << " cold";
  }
  return os.str();
}

}  // namespace softmem
