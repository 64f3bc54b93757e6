#include "perfbench/src/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "perfbench/src/util.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
// Buffers outlive their threads: spans are collected after the reactors
// and clients have exited.
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;
thread_local std::vector<Span>* t_buffer = nullptr;
thread_local uint64_t t_current = 0;

std::vector<Span>* Buffer() {
  if (t_buffer == nullptr) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 16);
    t_buffer = buf.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buf));
  }
  return t_buffer;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "kv.request";
    case SpanKind::kHandle: return "kv.handle";
    case SpanKind::kBudgetRpc: return "sma.budget_rpc";
    case SpanKind::kReclaimCallback: return "kv.reclaim_callback";
    case SpanKind::kMalloc: return "sma.malloc";
    case SpanKind::kFree: return "sma.free";
  }
  return "unknown";
}

uint64_t SpanLog::NextId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Record(const Span& span) { Buffer()->push_back(span); }

uint64_t SpanLog::Current() { return t_current; }

void SpanLog::SetCurrent(uint64_t id) { t_current = id; }

std::vector<Span> SpanLog::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (auto& buf : g_buffers) {
    all.insert(all.end(), buf->begin(), buf->end());
    buf->clear();
  }
  return all;
}

void LinkHandleSpans(std::vector<Span>* spans) {
  // Request spans per key, ordered by start.
  std::unordered_map<uint64_t, std::vector<const Span*>> requests;
  for (const Span& s : *spans) {
    if (s.kind == SpanKind::kRequest) requests[s.key].push_back(&s);
  }
  for (auto& [key, list] : requests) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start < b->start;
    });
  }
  std::unordered_map<uint64_t, uint64_t> handle_req;  // handle id -> req
  for (Span& s : *spans) {
    if (s.kind != SpanKind::kHandle) continue;
    auto it = requests.find(s.key);
    if (it == requests.end()) continue;
    const auto& list = it->second;
    auto pos = std::upper_bound(
        list.begin(), list.end(), s.start,
        [](uint64_t t, const Span* r) { return t < r->start; });
    // Walk back over requests that started before this handle span; with
    // several connections on one hot key the latest may not contain it.
    for (int back = 0; back < 8 && pos != list.begin(); ++back) {
      --pos;
      if ((*pos)->end >= s.end) {
        s.parent = (*pos)->id;
        s.req = (*pos)->req;
        handle_req[s.id] = s.req;
        break;
      }
    }
  }
  for (Span& s : *spans) {
    if (s.kind == SpanKind::kHandle || s.parent == 0) continue;
    auto it = handle_req.find(s.parent);
    if (it != handle_req.end()) s.req = it->second;
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "id,parent,req,kind,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), SpanKindName(s.kind),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  std::fclose(f);
}

softmem::Result<size_t> TracedChannel::RequestBudget(size_t pages) {
  Span span;
  span.id = SpanLog::NextId();
  span.parent = SpanLog::Current();
  span.kind = SpanKind::kBudgetRpc;
  span.start = NowNs();
  auto granted = inner_->RequestBudget(pages);
  span.end = NowNs();
  SpanLog::Record(span);
  return granted;
}

softmem::RespValue TracedHandler::Handle(const std::vector<std::string>& argv) {
  Span span;
  span.id = SpanLog::NextId();
  span.kind = SpanKind::kHandle;
  span.key = argv.size() > 1 ? KeyId(argv[1]) : 0;
  const uint64_t outer = SpanLog::Current();
  SpanLog::SetCurrent(span.id);
  span.start = NowNs();
  softmem::RespValue reply = inner_->Handle(argv);
  span.end = NowNs();
  SpanLog::SetCurrent(outer);
  SpanLog::Record(span);
  return reply;
}

uint64_t KeyId(const std::string& key) {
  if (key.size() <= 4 || key.compare(0, 4, "key:") != 0) return 0;
  uint64_t id = 0;
  for (size_t i = 4; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  return id + 1;  // 0 is reserved for "no key"
}

}  // namespace perfbench
