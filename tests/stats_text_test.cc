#include <gtest/gtest.h>

#include <memory>

#include "src/sma/soft_memory_allocator.h"
#include "src/sma/stats_text.h"
#include "src/smd/soft_memory_daemon.h"
#include "src/smd/stats_text.h"

namespace softmem {
namespace {

TEST(StatsTextTest, SmaSummaryMentionsKeyFigures) {
  SmaOptions o;
  o.region_pages = 1024;
  o.initial_budget_pages = 256;
  o.use_mmap = false;
  auto sma_r = SoftMemoryAllocator::Create(o);
  ASSERT_TRUE(sma_r.ok());
  auto sma = std::move(sma_r).value();
  void* p = sma->SoftMalloc(1024);
  ASSERT_NE(p, nullptr);

  const std::string text = FormatSmaStats(sma->GetStats());
  EXPECT_NE(text.find("budget 1.0 MiB"), std::string::npos) << text;
  EXPECT_NE(text.find("live allocations: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("1 allocs"), std::string::npos) << text;
  sma->SoftFree(p);
}

TEST(StatsTextTest, ContextLineShowsReclaims) {
  ContextStats cs;
  cs.name = "cache";
  cs.priority = 7;
  cs.owned_pages = 3;
  cs.live_allocations = 12;
  cs.allocated_bytes = 6144;
  cs.reclaimed_allocations = 5;
  cs.reclaimed_bytes = 2560;
  const std::string line = FormatContextStats(cs);
  EXPECT_NE(line.find("'cache'"), std::string::npos);
  EXPECT_NE(line.find("prio=7"), std::string::npos);
  EXPECT_NE(line.find("reclaimed 5 allocs"), std::string::npos);
}

TEST(StatsTextTest, SmdSummaryListsProcesses) {
  SmdOptions o;
  o.capacity_pages = 1024;
  SoftMemoryDaemon smd(o);
  auto a = smd.RegisterProcess("web-cache", nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*a, 100).ok());
  smd.HandleUsageReport(*a, 80, 4096 * 50);

  const std::string text = FormatSmdStats(smd.GetStats());
  EXPECT_NE(text.find("capacity 4.0 MiB"), std::string::npos) << text;
  EXPECT_NE(text.find("web-cache"), std::string::npos) << text;
  EXPECT_NE(text.find("1 granted"), std::string::npos) << text;
}

// Why a grant was not asked for: requests the client answered itself, and
// the daemon's standing denials and notices.
TEST(StatsTextTest, StandingDenialsShowOnBothSides) {
  SmaStats sma;
  sma.local_denials = 7;
  EXPECT_NE(FormatSmaStats(sma).find("7 standing-local"), std::string::npos);
  SmdStats smd;
  smd.standing_denials = 2;
  smd.budget_notices = 5;
  const std::string text = FormatSmdStats(smd);
  EXPECT_NE(text.find("2 standing, 5 budget notices"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace softmem
