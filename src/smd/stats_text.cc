#include "src/smd/stats_text.h"

#include <iomanip>
#include <sstream>

#include "src/common/units.h"

namespace softmem {

std::string FormatSmdStats(const SmdStats& s) {
  std::ostringstream os;
  os << "smd: capacity " << FormatBytes(s.capacity_pages * kPageSize)
     << ", assigned " << FormatBytes(s.assigned_pages * kPageSize)
     << ", free " << FormatBytes(s.free_pages * kPageSize) << "\n"
     << "  requests: " << s.total_requests << " (" << s.granted_requests
     << " granted, " << s.denied_requests << " denied; "
     << s.standing_denials << " standing, " << s.budget_notices
     << " budget notices)\n"
     << "  reclamations: " << s.reclamations << " passes ("
     << s.proactive_reclaims << " proactive), "
     << FormatBytes(s.reclaimed_pages * kPageSize) << " moved\n"
     << "  liveness: " << s.lease_expirations << " leases expired, "
     << s.reattaches << " reattaches\n";
  for (const auto& p : s.processes) {
    os << "  [" << p.id << "] " << std::left << std::setw(16) << p.name
       << " budget " << std::setw(10)
       << FormatBytes(p.budget_pages * kPageSize) << " soft "
       << std::setw(10) << FormatBytes(p.used_soft_pages * kPageSize)
       << " traditional " << std::setw(10)
       << FormatBytes(p.traditional_pages * kPageSize) << " weight "
       << std::fixed << std::setprecision(1) << p.weight << " targeted "
       << p.times_targeted << "x\n";
  }
  return os.str();
}

std::string FormatSmdTenantStats(const SmdStats& s) {
  std::ostringstream os;
  os << "smd tenants: " << s.tenants.size() << ", lc reserve "
     << FormatBytes(s.lc_reserve_pages * kPageSize) << ", reserve denials "
     << s.lc_reserve_denials << ", lc denials w/ batch headroom "
     << s.lc_denials_with_batch_headroom << ", usage clamps "
     << s.usage_clamps << "\n";
  for (const auto& t : s.tenants) {
    os << "  " << std::left << std::setw(16) << t.name << " "
       << std::setw(16) << CritClassName(t.cls) << " weight " << std::fixed
       << std::setprecision(1) << t.weight << " cap ";
    if (t.cap_pages == 0) {
      os << std::setw(10) << "-";
    } else {
      os << std::setw(10) << FormatBytes(t.cap_pages * kPageSize);
    }
    os << " claim " << std::setw(10) << FormatBytes(t.claim_pages * kPageSize)
       << " procs " << t.processes << " granted " << t.requests_granted
       << " denied " << t.requests_denied << " reclaimed "
       << FormatBytes(t.pages_reclaimed * kPageSize) << "\n";
  }
  return os.str();
}

}  // namespace softmem
