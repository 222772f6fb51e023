#include "e2e_common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "util/stats.hpp"

namespace e2e {

double Dist::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Dist::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  return ct::percentile_sorted(sorted, q * 100.0);
}

std::size_t Dist::beyond(double q) const {
  const double cut = quantile(q);
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [&](double x) { return x > cut; }));
}

void Dist::print(const char* label, double scale) const {
  std::printf("%s: n=%zu median %.6g [", label, v_.size(), median() * scale);
  for (std::size_t i = 0; i < v_.size(); ++i) {
    std::printf(i == 0 ? "%.4g" : " %.4g", v_[i] * scale);
  }
  std::printf("]\n");
}

namespace {

double status_kib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double vm_hwm_mb() { return status_kib("VmHWM") / 1024.0; }
double vm_rss_mb() { return status_kib("VmRSS") / 1024.0; }

PageFaults page_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return PageFaults{ru.ru_minflt, ru.ru_majflt};
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// --- report ----------------------------------------------------------------

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) throw std::runtime_error("no metric " + name);
  return it->second;
}

void Report::check_error(const std::string& what) {
  check_errors_.push_back(what);
}

void Report::print_json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const MetricSpec& spec : specs) {
    const std::string& name = spec.name;
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) throw std::runtime_error("unset metric " + name);
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           spec.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- tracing ---------------------------------------------------------------

namespace {

struct TracerState {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
  bool enabled = false;
};

TracerState& tracer_state() {
  static TracerState state;
  return state;
}

struct ThreadTrace {
  std::vector<Span>* buffer = nullptr;
  std::vector<std::size_t> open;  ///< indices of the spans in scope
};

thread_local ThreadTrace tl_trace;

std::vector<Span>* thread_buffer() {
  if (tl_trace.buffer == nullptr) {
    TracerState& st = tracer_state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.buffers.push_back(std::make_unique<std::vector<Span>>());
    st.buffers.back()->reserve(1 << 16);
    tl_trace.buffer = st.buffers.back().get();
  }
  return tl_trace.buffer;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kMonitorIngest: return "monitor.ingest";
    case Layer::kWalAppend: return "wal.append";
    case Layer::kWalCheckpoint: return "wal.checkpoint";
    case Layer::kStorePublish: return "store.publish";
    case Layer::kStoreRecover: return "store.recover";
    case Layer::kShardIngest: return "shard.ingest";
    case Layer::kShardOpenEpoch: return "shard.open_epoch";
    case Layer::kShardCloseEpoch: return "shard.close_epoch";
    case Layer::kShardQuery: return "shard.query";
    case Layer::kBrokerQuery: return "broker.query";
    case Layer::kMonitorQuery: return "monitor.query";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::enable(bool on) { tracer_state().enabled = on; }
bool Tracer::enabled() { return tracer_state().enabled; }

std::vector<const std::vector<Span>*> Tracer::buffers() {
  TracerState& st = tracer_state();
  std::lock_guard<std::mutex> lock(st.mu);
  std::vector<const std::vector<Span>*> out;
  for (const auto& b : st.buffers) out.push_back(b.get());
  return out;
}

void Tracer::write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(f, "thread\tindex\tparent\tlayer\tkind\trequest\tstart_ns\t"
                  "end_ns\n");
  const auto bufs = buffers();
  for (std::size_t t = 0; t < bufs.size(); ++t) {
    const auto& spans = *bufs[t];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%u\t%s\t%u\t%llu\t%lld\t%lld\n", t, i + 1,
                   s.parent, layer_name(s.layer), s.kind,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
  }
  std::fclose(f);
}

ScopedSpan::ScopedSpan(Layer layer, std::uint64_t request,
                       std::uint8_t kind) {
  if (!Tracer::enabled()) return;
  buffer_ = thread_buffer();
  index_ = buffer_->size();
  Span s;
  s.layer = layer;
  s.kind = kind;
  s.request = request;
  s.parent = tl_trace.open.empty()
                 ? 0
                 : static_cast<std::uint32_t>(tl_trace.open.back() + 1);
  tl_trace.open.push_back(index_);
  s.start = now_ns();
  buffer_->push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  (*buffer_)[index_].end = now_ns();
  tl_trace.open.pop_back();
}

LayerTimes layer_times() {
  LayerTimes out;
  for (const std::vector<Span>* spans : Tracer::buffers()) {
    std::vector<std::int64_t> child(spans->size(), 0);
    for (const Span& s : *spans) {
      if (s.parent != 0) child[s.parent - 1] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const Span& s = (*spans)[i];
      const auto l = static_cast<int>(s.layer);
      out.total_ns[l].add(static_cast<double>(s.end - s.start));
      out.self_ns[l].add(static_cast<double>(s.end - s.start - child[i]));
    }
  }
  return out;
}

}  // namespace e2e
