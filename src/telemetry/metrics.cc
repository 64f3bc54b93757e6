#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace softmem {
namespace telemetry {

namespace {

std::atomic<bool> g_armed{false};

// Escapes a label value per the exposition format (backslash, quote, \n).
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) {
    return v > 0 ? "+Inf" : "-Inf";
  }
  // Integers (the common case for counters) render without a fraction.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* KindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

bool Armed() { return g_armed.load(std::memory_order_relaxed); }
void SetArmed(bool armed) { g_armed.store(armed, std::memory_order_relaxed); }

// ---- Counter ----------------------------------------------------------------

size_t Counter::NextCell() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kCells;
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<uint64_t> bounds) : bounds_(std::move(bounds)) {
  buckets_.reset(new std::atomic<uint64_t>[bounds_.size() + 1]());
}

void Histogram::Observe(uint64_t value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) {
    ++i;
  }
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::LatencyBoundsNs() {
  // 1us .. 10s, roughly 1-2-5 per decade: resolves both the sub-10us magazine
  // path and multi-millisecond reclamation passes.
  return {1000,      2000,      5000,      10000,     20000,      50000,
          100000,    200000,    500000,    1000000,   2000000,    5000000,
          10000000,  20000000,  50000000,  100000000, 200000000,  500000000,
          1000000000, 10000000000ULL};
}

std::vector<uint64_t> Histogram::PageCountBounds() {
  return {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144};
}

// ---- Registry ---------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

MetricsRegistry::~MetricsRegistry() {
  Node* n = head_.load(std::memory_order_acquire);
  while (n != nullptr) {
    Node* next = n->next;
    delete n;
    n = next;
  }
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

MetricsRegistry::Node* MetricsRegistry::FindLocked(
    const std::string& name, const std::string& key) const {
  for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    if (!n->tombstone.load(std::memory_order_relaxed) && n->name == name &&
        n->label_key == key) {
      return n;
    }
  }
  return nullptr;
}

MetricsRegistry::Node* MetricsRegistry::Publish(std::unique_ptr<Node> owned) {
  Node* node = owned.release();
  Node* head = head_.load(std::memory_order_acquire);
  do {
    node->next = head;
  } while (!head_.compare_exchange_weak(head, node, std::memory_order_acq_rel,
                                        std::memory_order_acquire));
  // Duplicate-race resolution: if an *older* node (further down the list)
  // carries the same key, ours is the younger duplicate — tombstone it and
  // return the older one, so every caller converges on one live series.
  // The list is LIFO, so "after ours" == "pushed before ours". Converge on
  // the DEEPEST match: with three racing registrations the deepest node is
  // the original, which no thread ever tombstones, so all racers agree.
  Node* oldest = nullptr;
  for (Node* n = node->next; n != nullptr; n = n->next) {
    if (n->name == node->name && n->label_key == node->label_key) {
      oldest = n;
    }
  }
  if (oldest != nullptr) {
    node->tombstone.store(true, std::memory_order_release);
    return oldest;
  }
  return node;
}

MetricsRegistry::Node* MetricsRegistry::NewNode(const std::string& name,
                                                const std::string& help,
                                                MetricKind kind,
                                                const Labels& labels) {
  auto node = std::make_unique<Node>();
  node->name = name;
  node->help = help;
  node->kind = kind;
  node->labels = labels;
  node->label_key = RenderLabels(labels);
  return node.release();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  const std::string key = RenderLabels(labels);
  if (Node* n = FindLocked(name, key)) {
    return n->kind == MetricKind::kCounter ? n->counter.get() : nullptr;
  }
  std::unique_ptr<Node> node(NewNode(name, help, MetricKind::kCounter, labels));
  node->counter = std::make_unique<Counter>();
  Node* live = Publish(std::move(node));
  return live->kind == MetricKind::kCounter ? live->counter.get() : nullptr;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels) {
  const std::string key = RenderLabels(labels);
  if (Node* n = FindLocked(name, key)) {
    return n->kind == MetricKind::kGauge ? n->gauge.get() : nullptr;
  }
  std::unique_ptr<Node> node(NewNode(name, help, MetricKind::kGauge, labels));
  node->gauge = std::make_unique<Gauge>();
  Node* live = Publish(std::move(node));
  return live->kind == MetricKind::kGauge ? live->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<uint64_t> bounds,
                                         const Labels& labels) {
  const std::string key = RenderLabels(labels);
  if (Node* n = FindLocked(name, key)) {
    return n->kind == MetricKind::kHistogram ? n->histogram.get() : nullptr;
  }
  std::unique_ptr<Node> node(
      NewNode(name, help, MetricKind::kHistogram, labels));
  node->histogram = std::make_unique<Histogram>(std::move(bounds));
  Node* live = Publish(std::move(node));
  return live->kind == MetricKind::kHistogram ? live->histogram.get()
                                              : nullptr;
}

uint64_t MetricsRegistry::AddCollector(CollectorFn fn) {
  std::lock_guard<std::mutex> lock(collectors_mu_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::RemoveCollector(uint64_t id) {
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [id](const auto& c) { return c.first == id; }),
      collectors_.end());
}

size_t MetricsRegistry::SeriesCount() const {
  size_t count = 0;
  for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    if (!n->tombstone.load(std::memory_order_relaxed)) {
      ++count;
    }
  }
  return count;
}

namespace {

// One renderable series: either a live registry node's current value or a
// collector sample. Families are grouped so HELP/TYPE print once, in
// name-then-label order for a deterministic (goldenable) output.
struct RenderSeries {
  std::string help;
  MetricKind kind;
  std::string label_key;
  Labels labels;
  double value = 0.0;
  const Histogram* histogram = nullptr;  // set for kHistogram registry nodes
};

using FamilyMap = std::map<std::string, std::vector<RenderSeries>>;

void SortFamilies(FamilyMap* fams) {
  for (auto& [name, series] : *fams) {
    std::stable_sort(series.begin(), series.end(),
                     [](const RenderSeries& a, const RenderSeries& b) {
                       return a.label_key < b.label_key;
                     });
  }
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  FamilyMap fams;
  for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    if (n->tombstone.load(std::memory_order_relaxed)) {
      continue;
    }
    RenderSeries s;
    s.help = n->help;
    s.kind = n->kind;
    s.label_key = n->label_key;
    s.labels = n->labels;
    switch (n->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(n->counter->Value());
        break;
      case MetricKind::kGauge:
        s.value = static_cast<double>(n->gauge->Value());
        break;
      case MetricKind::kHistogram:
        s.histogram = n->histogram.get();
        break;
    }
    fams[n->name].push_back(std::move(s));
  }
  {
    std::lock_guard<std::mutex> lock(collectors_mu_);
    std::vector<Sample> samples;
    for (const auto& [id, fn] : collectors_) {
      fn(&samples);
    }
    for (const Sample& sample : samples) {
      RenderSeries s;
      s.help = sample.help;
      s.kind = sample.kind;
      s.labels = sample.labels;
      s.label_key = RenderLabels(sample.labels);
      s.value = sample.value;
      fams[sample.name].push_back(std::move(s));
    }
  }
  SortFamilies(&fams);

  std::ostringstream os;
  for (const auto& [name, series] : fams) {
    os << "# HELP " << name << " " << series.front().help << "\n";
    os << "# TYPE " << name << " " << KindName(series.front().kind) << "\n";
    for (const RenderSeries& s : series) {
      if (s.histogram != nullptr) {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < s.histogram->bucket_count(); ++i) {
          cumulative += s.histogram->BucketCount(i);
          Labels with_le = s.labels;
          const std::string le =
              i < s.histogram->bounds().size()
                  ? FormatDouble(
                        static_cast<double>(s.histogram->bounds()[i]))
                  : "+Inf";
          with_le.emplace_back("le", le);
          os << name << "_bucket" << RenderLabels(with_le) << " "
             << cumulative << "\n";
        }
        os << name << "_sum" << s.label_key << " " << s.histogram->Sum()
           << "\n";
        os << name << "_count" << s.label_key << " " << s.histogram->Count()
           << "\n";
      } else {
        os << name << s.label_key << " " << FormatDouble(s.value) << "\n";
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::RenderJson() const {
  FamilyMap fams;
  for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    if (n->tombstone.load(std::memory_order_relaxed)) {
      continue;
    }
    RenderSeries s;
    s.kind = n->kind;
    s.label_key = n->label_key;
    switch (n->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(n->counter->Value());
        break;
      case MetricKind::kGauge:
        s.value = static_cast<double>(n->gauge->Value());
        break;
      case MetricKind::kHistogram:
        s.histogram = n->histogram.get();
        break;
    }
    fams[n->name].push_back(std::move(s));
  }
  {
    std::lock_guard<std::mutex> lock(collectors_mu_);
    std::vector<Sample> samples;
    for (const auto& [id, fn] : collectors_) {
      fn(&samples);
    }
    for (const Sample& sample : samples) {
      RenderSeries s;
      s.kind = sample.kind;
      s.label_key = RenderLabels(sample.labels);
      s.value = sample.value;
      fams[sample.name].push_back(std::move(s));
    }
  }
  SortFamilies(&fams);

  std::ostringstream os;
  os << "{";
  bool first = true;
  auto emit_key = [&](const std::string& key) {
    if (!first) {
      os << ", ";
    }
    first = false;
    std::string escaped;
    for (char c : key) {
      if (c == '"' || c == '\\') {
        escaped += '\\';
      }
      escaped += c;
    }
    os << "\"" << escaped << "\": ";
  };
  for (const auto& [name, series] : fams) {
    for (const RenderSeries& s : series) {
      emit_key(name + s.label_key);
      if (s.histogram != nullptr) {
        os << "{\"count\": " << s.histogram->Count()
           << ", \"sum\": " << s.histogram->Sum() << ", \"buckets\": {";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < s.histogram->bucket_count(); ++i) {
          cumulative += s.histogram->BucketCount(i);
          if (i > 0) {
            os << ", ";
          }
          const std::string le =
              i < s.histogram->bounds().size()
                  ? FormatDouble(
                        static_cast<double>(s.histogram->bounds()[i]))
                  : "+Inf";
          os << "\"" << le << "\": " << cumulative;
        }
        os << "}}";
      } else {
        os << FormatDouble(s.value);
      }
    }
  }
  os << "}";
  return os.str();
}

}  // namespace telemetry
}  // namespace softmem
