#include "src/ipc/messages.h"

#include "src/ipc/wire.h"

namespace softmem {

namespace {
constexpr uint32_t kMagic = 0x534D454D;  // "SMEM"
}  // namespace

std::vector<uint8_t> EncodeMessage(const Message& m) {
  WireWriter w;
  w.PutU32(kMagic);
  w.PutU8(static_cast<uint8_t>(m.type));
  w.PutU64(m.seq);
  w.PutU64(m.pid);
  w.PutU64(m.pages);
  w.PutU64(m.bytes);
  w.PutU64(m.idle);
  w.PutU32(m.status);
  w.PutString(m.text);
  w.PutString(m.tenant);
  w.PutU8(m.tclass);
  return w.Take();
}

Result<Message> DecodeMessage(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  SOFTMEM_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return InvalidArgumentError("bad message magic");
  }
  SOFTMEM_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  if (type < static_cast<uint8_t>(MsgType::kRegister) ||
      type > static_cast<uint8_t>(MsgType::kBudgetAvailable)) {
    return InvalidArgumentError("unknown message type");
  }
  Message m;
  m.type = static_cast<MsgType>(type);
  SOFTMEM_ASSIGN_OR_RETURN(m.seq, r.ReadU64());
  SOFTMEM_ASSIGN_OR_RETURN(m.pid, r.ReadU64());
  SOFTMEM_ASSIGN_OR_RETURN(m.pages, r.ReadU64());
  SOFTMEM_ASSIGN_OR_RETURN(m.bytes, r.ReadU64());
  SOFTMEM_ASSIGN_OR_RETURN(m.idle, r.ReadU64());
  SOFTMEM_ASSIGN_OR_RETURN(m.status, r.ReadU32());
  SOFTMEM_ASSIGN_OR_RETURN(m.text, r.ReadString());
  SOFTMEM_ASSIGN_OR_RETURN(m.tenant, r.ReadString());
  if (m.tenant.size() > kMaxTenantNameLen) {
    return InvalidArgumentError("oversized tenant name");
  }
  SOFTMEM_ASSIGN_OR_RETURN(m.tclass, r.ReadU8());
  if (m.tclass > kWireClassBatch) {
    m.tclass = kWireClassBatch;  // unknown class: the conservative default
  }
  if (!r.AtEnd()) {
    return InvalidArgumentError("trailing bytes after message");
  }
  return m;
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kRegister:
      return "register";
    case MsgType::kRegisterAck:
      return "register_ack";
    case MsgType::kRequestBudget:
      return "request_budget";
    case MsgType::kBudgetReply:
      return "budget_reply";
    case MsgType::kReleaseBudget:
      return "release_budget";
    case MsgType::kUsageReport:
      return "usage_report";
    case MsgType::kReclaimDemand:
      return "reclaim_demand";
    case MsgType::kReclaimResult:
      return "reclaim_result";
    case MsgType::kGoodbye:
      return "goodbye";
    case MsgType::kError:
      return "error";
    case MsgType::kStatsQuery:
      return "stats_query";
    case MsgType::kStatsReply:
      return "stats_reply";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kReattach:
      return "reattach";
    case MsgType::kBudgetAvailable:
      return "budget_available";
  }
  return "?";
}

}  // namespace softmem
