// Side metadata for every page in the SMA's region.
//
// Metadata lives outside the pages themselves so that a page handed to the
// application is fully usable and so that reclaimed (decommitted) pages
// carry no in-band state. One PageMeta per page, indexed by page index.
//
// The table is region-sized and committed lazily (see lazy_zero_array.h):
// entries the SMA never writes stay unbacked, so the all-zero PageMeta is,
// by construction, the unowned state. kUnowned is 0 and every other field
// defaults to 0 too; the list links and the slot free list are *not*
// meaningful in that state. Each transition out of kUnowned writes them
// before anything reads them: a new slab page gets free_head = kNoSlot in
// AllocSmallLocked and its links from ListPush, a large head gets its links
// from ListPush, and a large tail gets `next` = its head. Releasing a page
// writes PageMeta{} (all-zero again), so an unowned entry never carries a
// stale link.

#ifndef SOFTMEM_SRC_SMA_PAGE_META_H_
#define SOFTMEM_SRC_SMA_PAGE_META_H_

#include <cstdint>

namespace softmem {

// Sentinel for "no page" in the intrusive page lists.
inline constexpr uint32_t kNoPage = 0xFFFFFFFFu;
// Sentinel for "no slot" in the in-slot free lists.
inline constexpr uint16_t kNoSlot = 0xFFFFu;

enum class PageState : uint8_t {
  kUnowned = 0,   // not assigned to any heap
  kSlab = 1,      // holds small-class slots
  kLargeHead = 2, // first page of a multi-page (large) allocation
  kLargeTail = 3, // continuation page of a large allocation
};

struct PageMeta {
  PageState state = PageState::kUnowned;
  uint8_t size_class = 0;   // kSlab: index into kSizeClasses
  uint16_t context = 0;     // owning SdsContext id
  uint16_t used_slots = 0;  // kSlab: live allocations on this page
  uint16_t free_head = 0;   // kSlab: in-slot free list head (kNoSlot = none)
  uint16_t uninit_slots = 0;  // kSlab: trailing never-touched slots
  // Intrusive doubly-linked list (by page index, kNoPage = none). Every slab
  // page is on exactly one of its heap's partial/full/empty lists; large
  // heads are on the heap's large list; kLargeTail reuses `next` to point at
  // its head.
  uint32_t prev = 0;
  uint32_t next = 0;
};

static_assert(sizeof(PageMeta) <= 24, "PageMeta should stay compact");

}  // namespace softmem

#endif  // SOFTMEM_SRC_SMA_PAGE_META_H_
