// Shared plumbing of the perfbench runner: options, result accumulation,
// host-noise probes, percentiles, and the span tracer that the traced run
// uses to time calls into each layer's public functions.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the smoke test (seconds, data and epochs all shrink).
  bool toy = false;
  /// Smoke-test hook: flips the lowest bit of one replayed score so the
  /// replay gate must report a mismatch.
  bool perturb_replay = false;
  /// Directory (inside the checkout) for the trace file.
  std::string out_dir = ".";
};

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation accounting plus the metrics of one run.
struct Outcome {
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t replay_checked = 0;
  int64_t replay_mismatches = 0;
  std::vector<Metric> metrics;
  /// Free-form evidence printed in the context line (host noise etc.).
  std::vector<std::pair<std::string, double>> evidence;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value) {
    evidence.emplace_back(name, value);
  }
};

// ---- statistics ----------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// The fast-side quartile over equal slices of a run (rounds or
/// repetitions): the lower quartile of times, the upper quartile of rates.
/// Host noise (steal, co-tenants) only ever slows a slice, so this ignores
/// up to three quarters of the slices being hit, while a program change
/// that slows every slice moves it fully.
double FastQuartileTime(std::vector<double> per_slice);
double FastQuartileRate(std::vector<double> per_slice);

// ---- process and host probes --------------------------------------------

/// User + system CPU seconds of this process (getrusage).
double ProcessCpuSeconds();
/// Involuntary context switches of this process so far.
int64_t InvoluntaryContextSwitches();
/// Peak resident set size of this process in MiB.
double PeakRssMb();
/// Aggregate /proc/stat CPU jiffies of the machine.
struct CpuJiffies {
  int64_t total = 0;
  int64_t idle = 0;  // idle + iowait
  int64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
/// CPUs this process may run on (its affinity mask).
int64_t AvailableCpus();
/// Pins every thread of this process to the `index`-th CPU (modulo their
/// count) of the process's affinity mask for its lifetime, then restores
/// each thread's mask. Single-threaded timings on a shared host depend on
/// the CPU they run on: one CPU can run at two thirds the speed of another
/// for tens of seconds. Slices pinned in turn to every CPU let the
/// fast-side quartile over slices skip a slow CPU. A failed pin is counted
/// (PinFailures, reported in the run context).
class PinProcess {
 public:
  explicit PinProcess(int64_t index);
  ~PinProcess();
  PinProcess(const PinProcess&) = delete;
  PinProcess& operator=(const PinProcess&) = delete;

 private:
  int cpu_ = 0;
  std::vector<std::pair<pid_t, cpu_set_t>> saved_;
};
int64_t PinFailures();

/// Compute-pool width for training: half the available CPUs (at most 4).
/// A parallel region waits for its slowest lane, and lanes on every CPU
/// leave none for the host's own work; on the reference host two lanes
/// trained as fast as three. Serving and set-up use one lane.
int64_t ComputeLanes();

/// Brackets a measured phase and records host-noise evidence for it: steal
/// share of all CPU time, the share other processes used, involuntary
/// context switches and CPU seconds.
class NoiseWindow {
 public:
  NoiseWindow();
  /// Writes `<prefix>.steal_share`, `<prefix>.invol_csw`, ... to `out`.
  void Finish(const std::string& prefix, Outcome* out) const;
  double cpu_seconds() const;

 private:
  CpuJiffies jiffies0_;
  int64_t csw0_;
  double cpu0_;
};

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder. Spans carry a name, start/end, the span that
/// was open on the same thread when they began (parent), and a request id
/// shared by every span of one request. Off unless Enable() was called;
/// then each span costs one mutex-guarded append at begin and end.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id, int64_t end_ns);
  /// Median duration (us) of every span with this name; 0 if none.
  double MedianUs(const std::string& name) const;
  /// Writes spans (capped) and per-name count/total/self/median summaries.
  void Write(const std::string& path, const std::string& context_json) const;
  int64_t size() const;

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
    uint32_t thread;
  };
  std::atomic<bool> enabled_{false};
  std::vector<Record> spans_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_ = -1;
  int64_t parent_ = -1;
};

/// Times `reps` calls of `fn`, each wrapped in a span called `name`, after
/// `warmup` untimed calls; returns the median call time in microseconds.
double TimeCalls(const char* name, int64_t warmup, int64_t reps,
                 const std::function<void()>& fn);

// ---- workloads -----------------------------------------------------------

/// Runs one workload with tracing off and fills the end-to-end metrics.
/// serve-tranad, or wire-gdn when `wire` is set.
Outcome RunServe(const Options& options, bool wire);
Outcome RunTrainTranad(const Options& options);

/// The traced run: the chosen workload untraced then traced (for the
/// tracing overhead), short traced passes of the other workloads, the
/// per-layer probes and the rate ladder. Fills every per-layer metric.
Outcome RunTraced(const Options& options);

/// Traced passes used by RunTraced. Each runs its workload with spans on
/// (set-up once), appends end-to-end accounting to `out` and per-layer
/// metrics to `layers`, and returns the pass's CPU cost per unit of work
/// (ms per 1000 verdicts or training windows) for the overhead estimate.
double TraceServeTranad(const Options& options, double seconds, Outcome* out,
                        Outcome* layers);
double TraceWireGdn(const Options& options, double seconds, Outcome* out,
                    Outcome* layers);
double TraceTrainTranad(const Options& options, double seconds, Outcome* out,
                        Outcome* layers);
/// The same CPU cost from an untraced pass (set-up once).
double UntracedServeCpu(const Options& options, bool wire, double seconds,
                        Outcome* out);
double UntracedTrainCpu(const Options& options, double seconds, Outcome* out);

/// Run-context stanza (nproc, build type, kernel mode/ISA, threads, git
/// SHA) as a JSON object.
std::string ContextJson(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
