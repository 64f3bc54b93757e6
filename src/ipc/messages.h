// The SMA <-> SMD protocol message set.
//
// Requests carry a sequence number; every reply echoes it. Two messages are
// daemon-initiated: kReclaimDemand and kBudgetAvailable. A client waiting
// for a reply must be prepared to handle either one first (see
// DaemonClient).

#ifndef SOFTMEM_SRC_IPC_MESSAGES_H_
#define SOFTMEM_SRC_IPC_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace softmem {

enum class MsgType : uint8_t {
  kRegister = 1,       // c->d: text = process name, tenant + tclass = the
                       //       QoS identity the budget is charged under
  kRegisterAck = 2,    // d->c: pages = initial budget, seq unused, u64 arg = pid
  kRequestBudget = 3,  // c->d: pages = wanted
  kBudgetReply = 4,    // d->c: status + pages granted. A kDenied reply
                       //       with pages != 0 is a standing denial: the
                       //       daemon remembers the request and sends
                       //       kBudgetAvailable once it would be admitted
  kReleaseBudget = 5,  // c->d: pages returned (no reply)
  kUsageReport = 6,    // c->d: pages = soft pages, bytes = traditional,
                       //       idle = cold soft pages (no reply)
  kReclaimDemand = 7,  // d->c: pages demanded
  kReclaimResult = 8,  // c->d: pages relinquished
  kGoodbye = 9,        // c->d: orderly deregistration (no reply)
  kError = 10,         // either direction: status + text
  kStatsQuery = 11,    // c->d: request a daemon statistics snapshot
  kStatsReply = 12,    // d->c: text = formatted stats, pages = free pages,
                       //       bytes = capacity in bytes
  kHeartbeat = 13,     // c->d: lease refresh piggybacking the usage report —
                       //       pages = soft pages, bytes = traditional bytes,
                       //       idle = cold soft pages (no reply; any client
                       //       message refreshes the lease, this one exists
                       //       for idle clients)
  kReattach = 14,      // c->d: re-registration after a daemon restart or a
                       //       lease expiry: pid = prior process id (0 = none),
                       //       pages = budget the client claims to hold,
                       //       bytes = traditional bytes, text = process name,
                       //       tenant + tclass = QoS identity (re-presented).
                       //       Reply is a kRegisterAck whose pages field is the
                       //       budget the daemon accepted (may be lower).
  kBudgetAvailable = 15,  // d->c: a standing denial's request would now be
                          //       admitted (memory freed, a cap rose). No
                          //       reply; sent once per standing denial.
};

// CritClass wire values (match src/smd/tenant_tree.h). Out-of-range bytes
// decode to batch — the conservative class for an unknown peer.
inline constexpr uint8_t kWireClassLatencyCritical = 0;
inline constexpr uint8_t kWireClassBatch = 1;

// Tenant names longer than this are rejected at decode: the name is used as
// a metric label and a tree key, so a hostile client must not be able to
// ship megabytes of it.
inline constexpr size_t kMaxTenantNameLen = 256;

struct Message {
  MsgType type = MsgType::kError;
  uint64_t seq = 0;    // correlates replies with requests
  uint64_t pid = 0;    // daemon-assigned process id (kRegisterAck)
  uint64_t pages = 0;  // budget / reclaim page counts
  uint64_t bytes = 0;  // traditional-memory bytes (kUsageReport)
  uint64_t idle = 0;   // cold soft pages (kUsageReport / kHeartbeat)
  uint32_t status = 0; // StatusCode for replies
  std::string text;    // process name / error detail
  std::string tenant;  // tenant id (kRegister / kReattach; empty = default)
  uint8_t tclass = kWireClassBatch;  // criticality class (kWireClass*)

  StatusCode status_code() const { return static_cast<StatusCode>(status); }
};

// Serializes `m` into a self-contained datagram.
std::vector<uint8_t> EncodeMessage(const Message& m);

// Parses a datagram. Rejects unknown types and truncated payloads.
Result<Message> DecodeMessage(const uint8_t* data, size_t size);
inline Result<Message> DecodeMessage(const std::vector<uint8_t>& buf) {
  return DecodeMessage(buf.data(), buf.size());
}

// Human-readable type name for logs.
const char* MsgTypeName(MsgType type);

}  // namespace softmem

#endif  // SOFTMEM_SRC_IPC_MESSAGES_H_
