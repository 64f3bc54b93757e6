// Spans for the traced run. Every span records its kind, start and end
// (steady clock ns), the span that caused it and the request it belongs to.
// Spans are appended to per-thread buffers (no lock on the recording path),
// kept in memory, and written out once when the run ends.
//
// The wrappers below sit at the public seams of the layers, in benchmark
// code: TracedHandler around the KV CommandHandler, TracedChannel around the
// SMA's SmdChannel (the DaemonClient), and a reclaim hook for the dict's
// on_reclaim callback. Nothing inside src/ is instrumented.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kv/event_loop.h"
#include "src/sma/smd_channel.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kRequest = 0,      // client: send -> reply (kv)
  kHandle,           // CommandHandler::Handle (kv)
  kBudgetRpc,        // SmdChannel::RequestBudget (sma -> smd over ipc)
  kReclaimCallback,  // DictOptions::on_reclaim (kv, during sma reclaim)
  kMalloc,           // sampled SoftMalloc (sma)
  kFree,             // sampled SoftFree (sma)
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // request id shared by a request's spans
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t key = 0;     // kv key id (request/handle matching), else 0
  SpanKind kind = SpanKind::kRequest;
};

class SpanLog {
 public:
  static uint64_t NextId();
  static void Record(const Span& span);
  // The span currently open on this thread (parent for nested spans).
  static uint64_t Current();
  static void SetCurrent(uint64_t id);
  // Moves every recorded span out of the per-thread buffers.
  static std::vector<Span> Collect();
};

// Links each handle span to the client request span it served. Requests
// run at pipeline depth 1, so a handle span belongs to the request on the
// same key whose [start, end] contains it. Children of a handle span inherit
// its request id.
void LinkHandleSpans(std::vector<Span>* spans);

// Writes spans as CSV: id,parent,req,kind,start_ns,end_ns.
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

// Times every budget RPC the SMA makes.
class TracedChannel : public softmem::SmdChannel {
 public:
  explicit TracedChannel(softmem::SmdChannel* inner) : inner_(inner) {}
  using softmem::SmdChannel::ReportUsage;

  softmem::Result<size_t> RequestBudget(size_t pages) override;
  void ReleaseBudget(size_t pages) override { inner_->ReleaseBudget(pages); }
  void ReportUsage(size_t soft_pages, size_t traditional_bytes) override {
    inner_->ReportUsage(soft_pages, traditional_bytes);
  }
  void ReportUsage(const softmem::UsageReport& usage) override {
    inner_->ReportUsage(usage);
  }
  bool connected() const override { return inner_->connected(); }

 private:
  softmem::SmdChannel* inner_;
};

// Times CommandHandler::Handle and tags the span with the command's key.
class TracedHandler : public softmem::CommandHandler {
 public:
  explicit TracedHandler(softmem::CommandHandler* inner) : inner_(inner) {}
  softmem::RespValue Handle(const std::vector<std::string>& argv) override;

 private:
  softmem::CommandHandler* inner_;
};

// Key id of "key:000000001234"-style keys (0 for anything else).
uint64_t KeyId(const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
