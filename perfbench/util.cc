// Statistics, process/host probes, the span tracer and the run-context
// stanza.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double FastQuartileTime(std::vector<double> per_slice) {
  return Percentile(std::move(per_slice), 0.25);
}

double FastQuartileRate(std::vector<double> per_slice) {
  return Percentile(std::move(per_slice), 0.75);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

int64_t InvoluntaryContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nivcsw;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return j;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int i = 0; i < 8; ++i) {
    int64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (i == 7) j.steal = v;
    if (i == 3 || i == 4) j.idle += v;
  }
  return j;
}

namespace {

/// The process's affinity mask as first seen (before any PinProcess).
const cpu_set_t& ProcessMask() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof(m), &m) != 0) CPU_SET(0, &m);
    return m;
  }();
  return mask;
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  return tids;
}

std::atomic<int64_t> g_pin_failures{0};

}  // namespace

int64_t AvailableCpus() { return std::max(1, CPU_COUNT(&ProcessMask())); }

PinProcess::PinProcess(int64_t index) {
  const cpu_set_t& allowed = ProcessMask();
  int64_t nth = index % AvailableCpus();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && nth-- == 0) {
      cpu_ = c;
      break;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu_, &one);
  for (pid_t tid : ThreadIds()) {
    cpu_set_t saved;
    if (sched_getaffinity(tid, sizeof(saved), &saved) != 0) continue;
    if (sched_setaffinity(tid, sizeof(one), &one) != 0) {
      g_pin_failures.fetch_add(1);
      continue;
    }
    saved_.emplace_back(tid, saved);
  }
}

PinProcess::~PinProcess() {
  for (pid_t tid : ThreadIds()) {
    const cpu_set_t* mask = &ProcessMask();  // threads started while pinned
    for (const auto& [saved_tid, saved_mask] : saved_) {
      if (saved_tid == tid) mask = &saved_mask;
    }
    (void)sched_setaffinity(tid, sizeof(*mask), mask);
  }
}

int64_t PinFailures() { return g_pin_failures.load(); }

int64_t ComputeLanes() {
  return std::max<int64_t>(1, std::min<int64_t>(4, AvailableCpus()) / 2);
}

NoiseWindow::NoiseWindow()
    : jiffies0_(ReadCpuJiffies()),
      csw0_(InvoluntaryContextSwitches()),
      cpu0_(ProcessCpuSeconds()) {}

double NoiseWindow::cpu_seconds() const { return ProcessCpuSeconds() - cpu0_; }

void NoiseWindow::Finish(const std::string& prefix, Outcome* out) const {
  const CpuJiffies j = ReadCpuJiffies();
  const double total = static_cast<double>(j.total - jiffies0_.total);
  const double busy = total - static_cast<double>(j.idle - jiffies0_.idle) -
                      static_cast<double>(j.steal - jiffies0_.steal);
  const double ours = cpu_seconds() * static_cast<double>(sysconf(_SC_CLK_TCK));
  out->Note(prefix + ".steal_share",
            total > 0 ? static_cast<double>(j.steal - jiffies0_.steal) / total
                      : 0.0);
  // Busy CPU time not charged to this process (other processes, interrupt
  // handling) while the phase ran.
  out->Note(prefix + ".others_share",
            total > 0 ? std::max(0.0, busy - ours) / total : 0.0);
  out->Note(prefix + ".invol_csw",
            static_cast<double>(InvoluntaryContextSwitches() - csw0_));
  out->Note(prefix + ".cpu_s", cpu_seconds());
}

// ---- tracer ----------------------------------------------------------------

namespace {

std::mutex g_trace_mu;
thread_local int64_t t_open_span = -1;
std::atomic<uint32_t> g_next_thread{0};
thread_local uint32_t t_thread_id = g_next_thread.fetch_add(1);
constexpr size_t kMaxSpans = 4'000'000;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Begin(const char* name, uint64_t request) {
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(g_trace_mu);
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back({name, start, 0, t_open_span, request, t_thread_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

int64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  return static_cast<int64_t>(spans_.size());
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> durations;
  {
    std::lock_guard<std::mutex> lock(g_trace_mu);
    for (const Record& r : spans_) {
      if (r.end_ns > 0 && name == r.name) {
        durations.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
      }
    }
  }
  return Median(std::move(durations));
}

void Tracer::Write(const std::string& path,
                   const std::string& context_json) const {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  // Self time: a span's duration minus the union of its children's
  // intervals (clipped to the span).
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t p = spans_[i].parent;
    if (p >= 0) children[static_cast<size_t>(p)].push_back(i);
  }
  struct Agg {
    int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Agg> by_name;
  std::vector<double> self_us(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end_ns <= 0) continue;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      const Record& k = spans_[c];
      if (k.end_ns <= 0) continue;
      iv.emplace_back(std::max(k.start_ns, r.start_ns),
                      std::min(k.end_ns, r.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
    self_us[i] = dur - static_cast<double>(covered) * 1e-3;
    Agg& agg = by_name[r.name];
    ++agg.count;
    agg.total_us += dur;
    agg.self_us += self_us[i];
    agg.durations.push_back(dur);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  out << "{\"context\": " << context_json << ",\n\"summary\": {";
  bool first = true;
  for (auto& [name, agg] : by_name) {
    out << (first ? "\n" : ",\n") << "  \"" << JsonEscape(name)
        << "\": {\"count\": " << agg.count << ", \"total_us\": " << agg.total_us
        << ", \"self_us\": " << agg.self_us
        << ", \"median_us\": " << Median(agg.durations) << "}";
    first = false;
  }
  out << "},\n\"span_fields\": [\"name\", \"start_us\", \"end_us\", \"self_us\", "
         "\"parent\", \"request\", \"thread\"],\n\"spans\": [";
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const size_t limit = std::min<size_t>(spans_.size(), 200'000);
  for (size_t i = 0; i < limit; ++i) {
    const Record& r = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "[\"" << JsonEscape(r.name) << "\", "
        << static_cast<double>(r.start_ns - t0) * 1e-3 << ", "
        << static_cast<double>(r.end_ns - t0) * 1e-3 << ", " << self_us[i]
        << ", " << r.parent << ", " << r.request << ", " << r.thread << "]";
  }
  out << "],\n\"spans_total\": " << spans_.size()
      << ", \"spans_written\": " << limit << "}\n";
}

Span::Span(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  parent_ = t_open_span;
  id_ = tracer.Begin(name, request);
  if (id_ >= 0) t_open_span = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::Get().End(id_, NowNs());
  t_open_span = parent_;
}

double TimeCalls(const char* name, int64_t warmup, int64_t reps,
                 const std::function<void()>& fn) {
  for (int64_t i = 0; i < warmup; ++i) fn();
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int64_t i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    {
      Span span(name);
      fn();
    }
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Median(std::move(us));
}

std::string ContextJson(const Options& options) {
  std::ostringstream os;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* threads = std::getenv("TRANAD_NUM_THREADS");
  const char* kernel = std::getenv("TRANAD_KERNEL");
  os << "{\"workload\": \"" << options.workload << "\", \"seed\": "
     << options.seed << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"toy\": " << (options.toy ? 1 : 0) << ", \"nproc\": "
     << AvailableCpus() << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"kernel_mode\": \"" << tranad::kernels::KernelModeName()
     << "\", \"kernel_isa\": \"" << tranad::kernels::KernelIsaName()
     << "\", \"TRANAD_KERNEL\": \"" << (kernel ? kernel : "")
     << "\", \"TRANAD_NUM_THREADS\": \"" << (threads ? threads : "")
     << "\", \"compute_threads\": " << tranad::NumComputeThreads()
     << ", \"pin_failures\": " << PinFailures()
     << ", \"git_sha\": \"" << (sha ? sha : "unknown") << "\"}";
  return os.str();
}

}  // namespace perfbench
