// The two serving workloads.
//
//   serve-tranad: the paper's TranAD on SMAP-like data, served in-process
//     through a ShardRouter (1 shard x 2 workers, 48 streams). Rounds of a
//     fixed-rate open-loop light slice and a saturation slice with a
//     bounded number of observations in flight.
//   wire-gdn: the registry's GDN behind a NetServer on loopback, driven by
//     one NetClient (480 streams): rounds of one-in-flight light slices and
//     saturation slices with a bounded in-flight window.
//
// Each round drives its own group of streams, so every round starts from
// freshly calibrated streams and does the same work.
//
// Both replay the first observations of every stream (its light slice and
// the start of its saturation slice) through a sequential
// WindowedOnlineDetector after the timed phases and require the served
// verdicts to match bit for bit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "baselines/servable.h"
#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/online_detector.h"
#include "core/pipeline.h"
#include "core/tranad_detector.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/pot.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "nn/attention.h"
#include "nn/transformer.h"
#include "serve/shard_router.h"
#include "tensor/arena.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"

namespace perfbench {
namespace {

using tranad::Tensor;

constexpr int64_t kWindow = 10;
constexpr int64_t kWorkers = 2;
constexpr int64_t kMaxBatch = 32;
constexpr int64_t kQueueCapacity = 4096;  // > any in-flight window
constexpr int64_t kRingSize = 1 << 16;  // request slots; > any backlog
constexpr int64_t kDrainTimeoutNs = 60'000'000'000;
constexpr const char* kDataset = "SMAP";

/// Phase ids index the latency sample vectors.
enum PhaseId : int32_t { kLight = 0, kSat = 1, kLadderBase = 2 };
constexpr int kMaxPhases = 16;
constexpr int kRounds = 12;  // light + saturation rounds per run
/// Calibration rows of every stream: a fixed prefix of the training split.
constexpr int64_t kCalibrationRows = 512;

struct Sizes {
  double scale = 0.5;      // synthetic dataset length multiplier
  int64_t epochs = 2;      // detector fit epochs
  int setup_reps = 3;      // set-ups per run; setup_s is their median
  double light_rate = 500;  // obs/s, fixed
  double light_share = 0.4;  // of --seconds (serve-tranad)
  /// Saturation size in observations per --second: a fixed amount of work
  /// (never derived from measured capacity), so every run scores the same
  /// observations and the per-stream POT state evolves identically.
  double sat_obs_per_s = 8000;
  /// wire-gdn's light phase: observations sent one at a time.
  int64_t light_count = 0;
  int64_t inflight = 256;  // saturation window
  /// Registered streams, kRounds groups of them. Every stream's POT refits
  /// over all of its peaks, so per-observation cost grows with stream age;
  /// one group per round makes every round the same work.
  int64_t streams = 4 * kRounds;
};

Sizes SizesFor(const Options& options, bool wire) {
  Sizes z;
  if (wire) {
    z.sat_obs_per_s = 40000;
    z.light_count = 8000;
    z.streams = 40 * kRounds;
    // Deep enough that queueing, not a preempted pipeline thread, sets the
    // tail: the wire path keeps ~4 threads runnable on a 4-CPU host.
    z.inflight = 2048;
  }
  if (options.toy) {
    z.scale = 0.2;
    z.epochs = 1;
    z.setup_reps = 1;
    z.light_count = 300;
  }
  return z;
}

/// The serve engine's default streaming-POT parameters (risk 1e-4, peaks
/// above the 0.98 calibration quantile).
tranad::PotParams Pot() { return tranad::PotParams(); }

class Traffic;

/// Everything set-up builds: data, the fitted detector, the fleet (and for
/// the wire workload the server and client), and the registered streams.
struct Fixture {
  bool wire = false;
  tranad::Dataset data;
  tranad::TimeSeries calibration;  // every stream's calibration series
  std::unique_ptr<tranad::ServableDetector> surface;
  tranad::TranADDetector* tranad = nullptr;  // set when serving TranAD
  std::unique_ptr<tranad::serve::ShardRouter> router;
  std::unique_ptr<tranad::net::NetServer> server;
  std::unique_ptr<tranad::net::NetClient> client;
  std::atomic<Traffic*> sink{nullptr};  // wire verdict destination
  std::vector<uint64_t> keys;
  std::vector<int64_t> offsets;  // first test row of each stream
  int64_t prefix = 0;      // F1 rows per stream (its own test segment)
  int64_t verify_len = 0;  // verified observations per stream, >= prefix
  std::vector<double> register_ms;
  double generate_ms = 0.0;
  double fit_s = 0.0;
  double setup_s = 0.0;

  ~Fixture() {
    client.reset();
    server.reset();
    router.reset();
  }
};

struct Stored {
  double score = 0.0;
  double threshold = 0.0;
  bool anomalous = false;
  bool set = false;
};

/// Measurements of one phase, accumulated over every round it runs in.
struct PhaseResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  int64_t batches = 0;
  int64_t batched = 0;
  double backlog_per_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::vector<double> queue_depth;
  std::vector<double> shard_completed;
  tranad::ArenaStats arena;

  double mean_batch() const {
    return batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                       : 0.0;
  }
};

/// Generator and verdict bookkeeping for one fixture. In-process, the
/// generator is the calling thread and verdicts arrive on shard workers.
/// Over the wire, verdicts arrive on the client's reader thread, which also
/// refills the in-flight window during saturation (so the generator adds
/// no runnable thread of its own).
class Traffic {
 public:
  Traffic(Fixture* fx, uint64_t seed, bool traced)
      : fx_(fx),
        traced_(traced),
        m_(fx->data.dims()),
        t_len_(fx->data.test.length()),
        row_({fx->data.dims()}),
        ring_(static_cast<size_t>(kRingSize)),
        streams_(static_cast<int64_t>(fx->keys.size())),
        group_size_(streams_),
        next_seq_(fx->keys.size(), 0),
        verify_(fx->keys.size(),
                std::vector<Stored>(static_cast<size_t>(fx->verify_len))) {
    tranad::Rng rng(seed ^ 0x0DDBA11ULL);
    const auto perm = rng.Permutation(fx->keys.size());
    for (size_t i : perm) order_.push_back(static_cast<int32_t>(i));
    for (auto& v : latency_) v.reserve(1 << 16);
    if (fx_->wire) fx_->sink.store(this);
  }
  ~Traffic() {
    if (fx_->wire) fx_->sink.store(nullptr);
  }

  const std::vector<std::vector<Stored>>& verify() const { return verify_; }

  /// Later submissions cycle over group `group` of `groups` equal groups
  /// of the (seed-permuted) streams.
  void UseGroup(int64_t group, int64_t groups) {
    std::lock_guard<std::mutex> gen_lock(gen_mu_);
    group_begin_ = group * streams_ / groups;
    group_size_ = (group + 1) * streams_ / groups - group_begin_;
    group_next_ = 0;
  }
  int64_t measurement_errors() const { return measurement_errors_.load(); }
  bool hung() const { return hung_; }

  /// Open loop at a fixed rate for `count` observations; latency is timed
  /// from when each observation was due.
  void OpenLoop(double rate, int64_t count, int32_t phase, PhaseResult* r) {
    Begin();
    const int64_t period_ns = static_cast<int64_t>(1e9 / rate);
    const int64_t t0 = NowNs() + 1'000'000;
    for (int64_t i = 0; i < count; ++i) {
      const int64_t due = t0 + i * period_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      r->lateness_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
      Submit(phase, due);
    }
    const double submit_s = static_cast<double>(NowNs() - t0) * 1e-9;
    r->backlog_per_s =
        static_cast<double>(inflight_.load()) / std::max(submit_s, 1e-9);
    Drain();
    End(phase, t0, r);
  }

  /// Saturation: keeps up to `window` observations in flight until `count`
  /// have been submitted.
  void Saturate(int64_t count, int64_t window, int32_t phase,
                PhaseResult* r) {
    Begin();
    const int64_t t0 = NowNs();
    int64_t next_sample = t0;
    auto sample = [&] {
      if (!traced_ || NowNs() < next_sample) return;
      SampleQueue(r);
      next_sample = NowNs() + 10'000'000;
    };
    if (fx_->wire) {
      // Prime the window; the reader thread refills it, one submission per
      // verdict, until `count` have been sent.
      const int64_t prime = std::min(window, count);
      remaining_.store(count - prime);
      for (int64_t i = 0; i < prime; ++i) Submit(phase, 0);
      const int64_t give_up = t0 + kDrainTimeoutNs;
      while ((remaining_.load() > 0 || inflight_.load() > 0) &&
             NowNs() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        sample();
      }
    } else {
      low_water_.store(window - std::max<int64_t>(1, window / 8));
      int64_t sent = 0;
      while (sent < count) {
        while (inflight_.load() < window && sent < count) {
          Submit(phase, 0);
          ++sent;
        }
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(20),
                     [&] { return inflight_.load() <= low_water_.load(); });
        lock.unlock();
        sample();
      }
      low_water_.store(-1);
    }
    Drain();
    End(phase, t0, r);
  }

  /// Verdict sink for both paths.
  void OnVerdict(uint64_t idx, int64_t seq, bool ok, double score,
                 double threshold, bool anomalous) {
    const int64_t now = NowNs();
    Span span("bench.OnVerdict", idx);
    // In-process, the engine's queue orders the slot write before this
    // read; over the wire only the socket does, so take the generator lock.
    Slot slot;
    if (fx_->wire) {
      std::lock_guard<std::mutex> gen_lock(gen_mu_);
      slot = ring_[idx % kRingSize];
    } else {
      slot = ring_[idx % kRingSize];
    }
    if (slot.idx != static_cast<int64_t>(idx)) {
      measurement_errors_.fetch_add(1);
    } else if (ok) {
      completed_.fetch_add(1);
      if (seq >= 0 && seq < fx_->verify_len) {
        verify_[static_cast<size_t>(slot.stream)][static_cast<size_t>(seq)] =
            {score, threshold, anomalous, true};
      }
      const int64_t from = slot.due_ns > 0 ? slot.due_ns : slot.submit_ns;
      std::lock_guard<std::mutex> lock(latency_mu_);
      latency_[slot.phase].push_back(static_cast<double>(now - from) * 1e-6);
    } else {
      failed_.fetch_add(1);
    }
    const int64_t left = inflight_.fetch_sub(1) - 1;
    if (left == 0 || left == low_water_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    if (fx_->wire && remaining_.load() > 0 && remaining_.fetch_sub(1) > 0) {
      Submit(slot.phase, 0);
    }
  }

 private:
  struct Slot {
    int64_t idx = -1;
    int64_t submit_ns = 0;
    int64_t due_ns = 0;
    int32_t stream = 0;
    int32_t phase = 0;
  };

  void Begin() {
    base_completed_ = completed_.load();
    base_failed_ = failed_.load();
    base_rejected_ = rejected_.load();
    base_submitted_ = submitted_;
    base_stats_ = fx_->router->stats();
    base_arena_ = tranad::TensorArena::Global().stats();
    base_shards_.clear();
    for (int64_t s = 0; s < fx_->router->num_shards(); ++s) {
      base_shards_.push_back(fx_->router->shard_stats(s).completed);
    }
    noise_ = NoiseWindow();
  }

  void End(int32_t phase, int64_t t0, PhaseResult* r) {
    r->elapsed_s += static_cast<double>(last_drain_ns_ - t0) * 1e-9;
    r->cpu_s += noise_.cpu_seconds();
    r->completed += completed_.load() - base_completed_;
    r->failed += failed_.load() - base_failed_;
    r->rejected += rejected_.load() - base_rejected_;
    r->submitted += submitted_ - base_submitted_;
    const auto stats = fx_->router->stats();
    r->batches += stats.batches - base_stats_.batches;
    r->batched += stats.batched_observations - base_stats_.batched_observations;
    const auto arena = tranad::TensorArena::Global().stats();
    r->arena.hits += arena.hits - base_arena_.hits;
    r->arena.misses += arena.misses - base_arena_.misses;
    r->shard_completed.resize(static_cast<size_t>(fx_->router->num_shards()));
    for (int64_t s = 0; s < fx_->router->num_shards(); ++s) {
      r->shard_completed[static_cast<size_t>(s)] += static_cast<double>(
          fx_->router->shard_stats(s).completed -
          base_shards_[static_cast<size_t>(s)]);
    }
    std::lock_guard<std::mutex> lock(latency_mu_);
    r->latency_ms.insert(r->latency_ms.end(), latency_[phase].begin(),
                         latency_[phase].end());
    latency_[phase].clear();
  }

  void SampleQueue(PhaseResult* r) {
    r->queue_depth.push_back(
        static_cast<double>(fx_->router->stats().queue_depth));
  }

  /// Admits the next observation of the seeded round-robin schedule.
  void Submit(int32_t phase, int64_t due_ns) {
    std::lock_guard<std::mutex> gen_lock(gen_mu_);
    const int64_t idx = next_idx_++;
    const int32_t s =
        order_[static_cast<size_t>(group_begin_ + group_next_++ % group_size_)];
    const int64_t seq = next_seq_[static_cast<size_t>(s)]++;
    const int64_t row = (fx_->offsets[static_cast<size_t>(s)] + seq) % t_len_;
    const float* src = fx_->data.test.values.data() + row * m_;
    std::copy(src, src + m_, row_.data());
    Slot& slot = ring_[static_cast<size_t>(idx % kRingSize)];
    slot = {idx, 0, due_ns, s, phase};
    inflight_.fetch_add(1);
    ++submitted_;
    const uint64_t key = fx_->keys[static_cast<size_t>(s)];
    if (fx_->wire) {
      Span span("net.Submit", static_cast<uint64_t>(idx));
      slot.submit_ns = NowNs();
      const tranad::Status st = fx_->client->Submit(
          key, static_cast<uint64_t>(idx), row_.data(), m_);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: wire submit: %s\n",
                     st.ToString().c_str());
        failed_.fetch_add(1);
        inflight_.fetch_sub(1);
      }
      return;
    }
    Span span("serve.Submit", static_cast<uint64_t>(idx));
    const uint32_t id32 = static_cast<uint32_t>(idx);
    Traffic* self = this;
    for (;;) {
      slot.submit_ns = NowNs();
      const tranad::Status st = fx_->router->Submit(
          key, row_,
          [self, id32](uint64_t, int64_t vseq, const tranad::OnlineVerdict& v) {
            self->OnVerdict(id32, vseq, v.status.ok(), v.score, v.threshold,
                            v.anomalous);
          });
      if (st.ok()) return;
      if (st.code() != tranad::StatusCode::kResourceExhausted) {
        std::fprintf(stderr, "perfbench: submit: %s\n", st.ToString().c_str());
        failed_.fetch_add(1);
        inflight_.fetch_sub(1);
        return;
      }
      rejected_.fetch_add(1);  // queue full: back off, retry the same row
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void Drain() {
    const int64_t give_up = NowNs() + kDrainTimeoutNs;
    std::unique_lock<std::mutex> lock(mu_);
    while (inflight_.load() > 0 && NowNs() < give_up) {
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    last_drain_ns_ = NowNs();
    if (inflight_.load() > 0) {
      std::fprintf(stderr, "perfbench: %lld requests never completed\n",
                   static_cast<long long>(inflight_.load()));
      hung_ = true;
    }
  }

  Fixture* fx_;
  bool traced_;
  int64_t m_;
  int64_t t_len_;
  Tensor row_;
  std::vector<Slot> ring_;
  int64_t streams_;
  std::vector<int32_t> order_;
  int64_t group_begin_ = 0;
  int64_t group_size_;
  int64_t group_next_ = 0;
  std::vector<int64_t> next_seq_;
  std::vector<std::vector<Stored>> verify_;
  std::mutex gen_mu_;
  int64_t next_idx_ = 0;
  int64_t submitted_ = 0;

  std::atomic<int64_t> inflight_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> measurement_errors_{0};
  std::atomic<int64_t> low_water_{-1};
  std::atomic<int64_t> remaining_{0};  // wire refills still to send
  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex latency_mu_;
  std::vector<double> latency_[kMaxPhases];
  int64_t last_drain_ns_ = 0;
  bool hung_ = false;

  int64_t base_completed_ = 0;
  int64_t base_failed_ = 0;
  int64_t base_rejected_ = 0;
  int64_t base_submitted_ = 0;
  tranad::serve::ServeStatsSnapshot base_stats_;
  tranad::ArenaStats base_arena_;
  std::vector<int64_t> base_shards_;
  NoiseWindow noise_;
};

/// Set-up: data generation, detector fit, fleet construction and stream
/// registration.
std::unique_ptr<Fixture> BuildFixture(const Options& options, const Sizes& z,
                                      bool wire) {
  Span setup_span(wire ? "setup.wire-gdn" : "setup.serve-tranad");
  auto fx = std::make_unique<Fixture>();
  fx->wire = wire;
  const int64_t t0 = NowNs();
  {
    Span span("data.GenerateDatasetByName");
    // The dataset is a constant of the workload (the generator's default
    // recipe seed), so model quality and POT behaviour do not vary between
    // runs; --seed drives the traffic.
    auto generated = tranad::GenerateDatasetByName(kDataset, z.scale);
    if (!generated.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   generated.status().ToString().c_str());
      return nullptr;
    }
    fx->data = std::move(generated.value());
  }
  fx->generate_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  fx->calibration.name = fx->data.train.name;
  fx->calibration.values = tranad::SliceAxis(
      fx->data.train.values, 0, 0,
      std::min(kCalibrationRows, fx->data.train.length()));

  // Set-up runs on one lane like serving (workers score inline): a
  // parallel region would wait for its slowest lane, so a lane whose CPU is
  // stolen for a moment would set the set-up and registration times.
  const int64_t fit0 = NowNs();
  if (wire) {
    Span span("baselines.BuildServable");
    tranad::DetectorOptions detector_options;
    detector_options.window = kWindow;
    detector_options.epochs = z.epochs;
    detector_options.seed = 7;
    auto built = tranad::BuildServable("GDN", fx->data.train, detector_options);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   built.status().ToString().c_str());
      return nullptr;
    }
    fx->surface = std::move(built.value());
  } else {
    Span span("core.TranADDetector.Fit");
    tranad::TranADConfig config;
    config.window = kWindow;
    tranad::TrainOptions train;
    train.max_epochs = z.epochs;
    train.batch_size = 128;
    auto detector = std::make_unique<tranad::TranADDetector>(config, train);
    detector->Fit(fx->data.train);
    detector->FreezeForInference();
    fx->tranad = detector.get();
    fx->surface = std::move(detector);
  }
  fx->fit_s = static_cast<double>(NowNs() - fit0) * 1e-9;

  tranad::serve::ShardRouterOptions router_options;
  router_options.num_shards = 1;
  router_options.shard.num_workers = kWorkers;
  router_options.shard.max_batch = kMaxBatch;
  router_options.shard.queue_capacity = kQueueCapacity;
  router_options.shard.pot = Pot();
  fx->router = std::make_unique<tranad::serve::ShardRouter>(fx->surface.get(),
                                                            router_options);
  if (wire) {
    fx->server = std::make_unique<tranad::net::NetServer>(fx->router.get());
    if (tranad::Status st = fx->server->Start(); !st.ok()) {
      std::fprintf(stderr, "perfbench: server: %s\n", st.ToString().c_str());
      return nullptr;
    }
    fx->client = std::make_unique<tranad::net::NetClient>();
    Fixture* raw = fx.get();
    fx->client->set_verdict_handler([raw](const tranad::net::WireVerdict& v) {
      Traffic* sink = raw->sink.load();
      if (sink != nullptr) {
        sink->OnVerdict(v.tag, v.seq, v.status.ok(), v.score, v.threshold,
                        v.anomalous);
      }
    });
    if (tranad::Status st =
            fx->client->Connect("127.0.0.1", fx->server->port());
        !st.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }

  // Stream keys and the segment each stream starts on come from the seed.
  // Stream s starts on (and takes its F1 flags from) the test segment
  // [((s + rot) % S) * prefix, ... + prefix), so the streams together cover
  // the test split once.
  tranad::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 17);
  const int64_t t_len = fx->data.test.length();
  const int64_t streams = z.streams;
  fx->prefix = (t_len + streams - 1) / streams;
  const int64_t rot =
      static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(streams)));
  for (int64_t s = 0; s < streams; ++s) {
    fx->keys.push_back((rng.NextU64() | 1ULL) + static_cast<uint64_t>(s));
    fx->offsets.push_back(((s + rot) % streams) * fx->prefix);
  }
  // Registration in kRounds blocks of consecutive streams, each block with
  // the process pinned to the next CPU, so no one slow CPU sets the median.
  const int64_t block = streams / kRounds;
  std::unique_ptr<PinProcess> pin;
  for (int64_t s = 0; s < streams; ++s) {
    if (s % block == 0) {
      pin.reset();
      pin = std::make_unique<PinProcess>(s / block);
    }
    const uint64_t key = fx->keys[static_cast<size_t>(s)];
    const int64_t r0 = NowNs();
    tranad::Status st;
    if (wire) {
      Span span("net.NetClient.CreateStream", key);
      st = fx->client->CreateStream(key, fx->calibration.values);
    } else {
      Span span("serve.ShardRouter.CreateStream", key);
      st = fx->router->CreateStream(key, fx->calibration);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: CreateStream: %s\n",
                   st.ToString().c_str());
      return nullptr;
    }
    fx->register_ms.push_back(static_cast<double>(NowNs() - r0) * 1e-6);
  }
  pin.reset();
  fx->setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return fx;
}

/// Builds a fixture and records its set-up time and every registration
/// time.
std::unique_ptr<Fixture> TimedSetUp(const Options& options, const Sizes& z,
                                    bool wire, std::vector<double>* setup_s,
                                    std::vector<double>* register_ms,
                                    Outcome* out) {
  const std::string tag = "setup" + std::to_string(setup_s->size());
  NoiseWindow noise;
  std::unique_ptr<Fixture> fx = BuildFixture(options, z, wire);
  if (fx) {
    noise.Finish(tag, out);
    out->Note(tag + ".s", fx->setup_s);
    out->Note(tag + ".fit_s", fx->fit_s);
    out->Note(tag + ".register_p50_ms", Median(fx->register_ms));
    setup_s->push_back(fx->setup_s);
    register_ms->insert(register_ms->end(), fx->register_ms.begin(),
                        fx->register_ms.end());
  }
  return fx;
}

tranad::Tensor TestRow(const Fixture& fx, int64_t row) {
  Tensor out({fx.data.dims()});
  const int64_t m = fx.data.dims();
  const float* src = fx.data.test.values.data() + row * m;
  std::copy(src, src + m, out.data());
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Replays every stream's first verify_len observations through a
/// sequential WindowedOnlineDetector and compares (score, threshold, flag)
/// bit for bit. Returns the point-adjusted F1 of the served flags over the
/// test split (each stream's first `prefix` rows: every test row once).
double ReplayGate(const Options& options, const Fixture& fx,
                  const Traffic& traffic, Outcome* out,
                  std::vector<double>* observe_us) {
  tranad::WindowedOnlineDetector seed_detector(fx.surface.get(), Pot());
  if (!seed_detector.Calibrate(fx.calibration).ok()) {
    out->failed += 1;
    return 0.0;
  }
  const tranad::OnlineDetectorState calibrated = seed_detector.ExportState();
  const int64_t t_len = fx.data.test.length();
  // Served flags in test-row order (each row is verified exactly once).
  std::vector<uint8_t> pred(static_cast<size_t>(t_len), 0);
  for (size_t s = 0; s < fx.keys.size(); ++s) {
    tranad::WindowedOnlineDetector online(fx.surface.get(), Pot());
    if (!online.RestoreState(calibrated).ok()) {
      out->failed += 1;
      continue;
    }
    const auto& served = traffic.verify()[static_cast<size_t>(s)];
    for (int64_t q = 0; q < fx.verify_len; ++q) {
      const int64_t row = (fx.offsets[static_cast<size_t>(s)] + q) % t_len;
      const Tensor x = TestRow(fx, row);
      const int64_t t0 = NowNs();
      tranad::OnlineVerdict v;
      {
        Span span("core.WindowedOnlineDetector.Observe");
        v = online.Observe(x);
      }
      observe_us->push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      double replay_score = v.score;
      if (options.perturb_replay && s == 0 && q == 0) {
        uint64_t bits = 0;
        std::memcpy(&bits, &replay_score, sizeof(bits));
        bits ^= 1ULL;
        std::memcpy(&replay_score, &bits, sizeof(bits));
      }
      const Stored& got = served[static_cast<size_t>(q)];
      ++out->replay_checked;
      if (!got.set || !SameBits(got.score, replay_score) ||
          !SameBits(got.threshold, v.threshold) ||
          got.anomalous != v.anomalous) {
        ++out->replay_mismatches;
      }
      if (q < fx.prefix && fx.offsets[static_cast<size_t>(s)] + q < t_len) {
        pred[static_cast<size_t>(row)] = got.anomalous ? 1 : 0;
      }
    }
  }
  out->failed += out->replay_mismatches;
  const std::vector<uint8_t>& truth = fx.data.test.labels;
  const auto adjusted = tranad::PointAdjust(pred, truth);
  return tranad::F1Of(tranad::CountConfusion(adjusted, truth));
}

void AddCounts(const PhaseResult& r, Outcome* out) {
  out->attempted += r.submitted;
  out->completed += r.completed;
  out->rejected += r.rejected;
  out->failed += r.failed;
}

double Share(double a, double b) { return b > 0 ? a / b : 0.0; }

double Skew(const std::vector<double>& per_shard) {
  if (per_shard.empty()) return 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (double v : per_shard) {
    sum += v;
    max = std::max(max, v);
  }
  const double mean = sum / static_cast<double>(per_shard.size());
  return mean > 0 ? max / mean : 0.0;
}

/// Result of one pass over a serving workload.
struct ServePass {
  std::unique_ptr<Fixture> fx;
  PhaseResult light;
  PhaseResult sat;
  double setup_s = 0.0;
  double register_ms = 0.0;
  double f1 = 0.0;
  std::vector<double> observe_us;
  std::vector<double> light_round_p50_ms;
  std::vector<double> sat_round_rate;
  std::vector<double> sat_round_p99_ms;
  double cpu_ms_per_kobs = 0.0;
  double peak_rss_mb = 0.0;
  bool ok = false;
};

/// One full pass: set-up, the timed phases, then the replay gate.
ServePass RunServePass(const Options& options, bool wire, double seconds,
                       int setup_reps, bool traced, Outcome* out) {
  ServePass pass;
  const Sizes z = SizesFor(options, wire);
  Tracer::Get().Enable(traced);
  tranad::SetNumComputeThreads(1);
  std::vector<double> setups;
  std::vector<double> registers;
  pass.fx = TimedSetUp(options, z, wire, &setups, &registers, out);
  if (!pass.fx) return pass;

  // kRounds rounds of (light slice, saturation slice), each on its own
  // group of fresh streams: every round is the same work, and each phase
  // samples the host at many points of the run instead of once.
  const double light_seconds = wire ? 0.0 : seconds * z.light_share;
  const int64_t light_count =
      wire ? z.light_count
           : static_cast<int64_t>(light_seconds * z.light_rate);
  const int64_t sat_count =
      static_cast<int64_t>((seconds - light_seconds) * z.sat_obs_per_s);
  // Verify each stream's light-slice observations and its first `prefix`
  // saturation-slice ones (batched at max_batch).
  const int64_t group = z.streams / kRounds;
  pass.fx->verify_len =
      pass.fx->prefix + (light_count / kRounds + group - 1) / group;
  Traffic traffic(pass.fx.get(), options.seed, traced);
  int next_setup = 1;
  for (int round = 0; round < kRounds; ++round) {
    const std::string tag = "round" + std::to_string(round);
    traffic.UseGroup(round, kRounds);
    const int64_t n_light = std::max<int64_t>(1, light_count / kRounds);
    const double light_elapsed = pass.light.elapsed_s;
    const size_t light_samples = pass.light.latency_ms.size();
    const size_t sat_samples = pass.sat.latency_ms.size();
    NoiseWindow light_noise;
    if (wire) {
      // Light load over the wire: one observation in flight at a time.
      traffic.Saturate(n_light, 1, kLight, &pass.light);
    } else {
      traffic.OpenLoop(z.light_rate, n_light, kLight, &pass.light);
    }
    light_noise.Finish(tag + ".light", out);
    out->Note(tag + ".light.elapsed_s", pass.light.elapsed_s - light_elapsed);
    pass.light_round_p50_ms.push_back(Median(std::vector<double>(
        pass.light.latency_ms.begin() + light_samples,
        pass.light.latency_ms.end())));
    out->Note(tag + ".light.p50_ms", pass.light_round_p50_ms.back());

    const int64_t done = pass.sat.completed;
    const double sat_elapsed = pass.sat.elapsed_s;
    NoiseWindow sat_noise;
    traffic.Saturate(std::max<int64_t>(1, sat_count / kRounds), z.inflight,
                     kSat, &pass.sat);
    sat_noise.Finish(tag + ".sat", out);
    pass.sat_round_rate.push_back(
        Share(static_cast<double>(pass.sat.completed - done),
              pass.sat.elapsed_s - sat_elapsed));
    pass.sat_round_p99_ms.push_back(
        Percentile(std::vector<double>(pass.sat.latency_ms.begin() + sat_samples,
                                       pass.sat.latency_ms.end()),
                   0.99));
    out->Note(tag + ".sat.rate", pass.sat_round_rate.back());
    out->Note(tag + ".sat.p99_ms", pass.sat_round_p99_ms.back());
    // The remaining set-ups run between rounds, evenly spread, so set-up
    // and registration times also sample the host across the run; their
    // fixtures are only timed, then dropped. Peak memory is read before
    // the first of them, while only the served fixture is alive.
    if (next_setup < setup_reps &&
        round + 1 == next_setup * kRounds / setup_reps) {
      if (next_setup == 1) pass.peak_rss_mb = PeakRssMb();
      ++next_setup;
      if (!TimedSetUp(options, z, wire, &setups, &registers, out)) return pass;
    }
  }
  if (setup_reps <= 1) pass.peak_rss_mb = PeakRssMb();
  pass.setup_s = Median(setups);
  pass.register_ms = Median(registers);
  if (!wire) {
    out->Note("light.lateness_p99_ms", Percentile(pass.light.lateness_ms, 0.99));
    out->Note("light.lateness_max_ms",
              pass.light.lateness_ms.empty()
                  ? 0.0
                  : *std::max_element(pass.light.lateness_ms.begin(),
                                      pass.light.lateness_ms.end()));
  }
  out->Note("light.samples", static_cast<double>(pass.light.latency_ms.size()));
  out->Note("light.mean_batch", pass.light.mean_batch());
  out->Note("sat.samples", static_cast<double>(pass.sat.latency_ms.size()));
  out->Note("sat.elapsed_s", pass.sat.elapsed_s);
  out->Note("sat.mean_batch", pass.sat.mean_batch());
  AddCounts(pass.light, out);
  AddCounts(pass.sat, out);
  pass.cpu_ms_per_kobs =
      Share(pass.sat.cpu_s * 1e6, static_cast<double>(pass.sat.completed));

  pass.f1 = ReplayGate(options, *pass.fx, traffic, out, &pass.observe_us);
  out->failed += traffic.measurement_errors();
  out->Note("replay.checked", static_cast<double>(out->replay_checked));
  out->Note("replay.mismatches", static_cast<double>(out->replay_mismatches));
  pass.ok = !traffic.hung();
  Tracer::Get().Enable(false);
  return pass;
}

void AddEndToEnd(const ServePass& pass, Outcome* out) {
  out->Add("throughput_per_s", FastQuartileRate(pass.sat_round_rate), "1/s");
  out->Add("light_latency_p50_ms", FastQuartileTime(pass.light_round_p50_ms),
           "ms");
  out->Add("sat_latency_p99_ms", FastQuartileTime(pass.sat_round_p99_ms),
           "ms");
  out->Add("cpu_ms_per_kobs", pass.cpu_ms_per_kobs, "ms");
  out->Add("register_p50_ms", pass.register_ms, "ms");
  out->Add("setup_s", pass.setup_s, "s");
  out->Add("peak_rss_mb", pass.peak_rss_mb, "MB");
  out->Add("f1", pass.f1, "ratio");
}

// ---- traced-run probes ------------------------------------------------------

/// Normalized test windows [B, K, m] (the ring representation).
Tensor NormalizedWindows(const Fixture& fx, int64_t batch) {
  const Tensor norm = fx.surface->NormalizeForScoring(fx.data.test.values);
  const Tensor windows = tranad::MakeWindows(norm, fx.surface->window());
  const int64_t n = std::min<int64_t>(batch, windows.size(0) - kWindow);
  Tensor out = tranad::SliceAxis(windows, 0, kWindow, n);
  if (n == batch) return out;
  // Tiny toy splits: tile rows up to the batch size.
  Tensor tiled({batch, windows.size(1), windows.size(2)});
  const int64_t stride = windows.size(1) * windows.size(2);
  for (int64_t b = 0; b < batch; ++b) {
    std::copy(out.data() + (b % n) * stride, out.data() + (b % n + 1) * stride,
              tiled.data() + b * stride);
  }
  return tiled;
}

void ProbeTranad(const Options& options, const ServePass& pass,
                 Outcome* layers) {
  const Fixture& fx = *pass.fx;
  tranad::TranADDetector* det = fx.tranad;
  tranad::TranADModel* model = det->model();
  const int64_t m = fx.data.dims();
  const int64_t reps = options.toy ? 20 : 200;
  const Tensor w1 = NormalizedWindows(fx, 1);
  const Tensor w32 = NormalizedWindows(fx, 32);
  const Tensor w256 = NormalizedWindows(fx, 256);

  const double two_b1 = TimeCalls("core.TranADModel.TwoPhaseInference.b1", 10,
                                  reps, [&] { model->TwoPhaseInference(w1); });
  double phase1 = 0.0;
  double phase2 = 0.0;
  {
    tranad::NoGradGuard no_grad;
    const tranad::Variable v1(w1);
    phase1 = TimeCalls("core.TranADModel.ForwardPhase1.b1", 10, reps,
                       [&] { model->ForwardPhase1(v1); });
    const Tensor target =
        tranad::SliceAxis(w1, 1, kWindow - 1, 1).Reshape({1, m});
    auto [o1, o2] = model->ForwardPhase1(v1);
    const tranad::Variable focus =
        tranad::ag::SquaredDiff(o1, tranad::Variable(target));
    phase2 = TimeCalls("core.TranADModel.ForwardPhase2.b1", 10, reps,
                       [&] { model->ForwardPhase2(v1, focus); });
  }
  const double two_b32 = TimeCalls("core.TranADModel.TwoPhaseInference.b32", 5,
                                   reps / 4, [&] { model->TwoPhaseInference(w32); });
  const double score_b32 = TimeCalls("core.TranADDetector.ScoreWindows.b32", 5,
                                     reps / 4, [&] { det->ScoreWindows(w32); });
  const double score_b256 =
      TimeCalls("core.TranADDetector.ScoreWindows.b256", 2, reps / 10 + 2,
                [&] { det->ScoreWindows(w256); });
  const Tensor one_row = tranad::SliceAxis(fx.data.test.values, 0, 0, 1);
  const double normalize = TimeCalls("core.TranADDetector.NormalizeForScoring", 20,
                                     reps * 5, [&] { det->NormalizeForScoring(one_row); });

  // POT: the calibration fit CreateStream runs, and one streaming update.
  const std::vector<double> calib =
      tranad::DetectionScores(det->ScoreSeries(fx.calibration));
  const double pot_init_us =
      TimeCalls("eval.StreamingPot.Initialize", 1, options.toy ? 3 : 15, [&] {
        tranad::StreamingPot pot(Pot());
        (void)pot.Initialize(calib);
      });
  // Amortized Observe cost (refits on new peaks included) over the test
  // split's scores, from the calibrated state.
  const std::vector<double> test_scores =
      tranad::DetectionScores(det->ScoreSeries(fx.data.test));
  const double pot_pass_us = TimeCalls("eval.StreamingPot.Observe.test_pass", 0,
                                       options.toy ? 2 : 5, [&] {
    tranad::StreamingPot pot(Pot());
    (void)pot.Initialize(calib);
    for (double score : test_scores) pot.Observe(score);
  });
  const double pot_observe =
      pot_pass_us / static_cast<double>(std::max<size_t>(1, test_scores.size()));

  layers->Add("core.two_phase_b1_us", two_b1, "us");
  layers->Add("core.phase1_b1_us", phase1, "us");
  layers->Add("core.phase2_b1_us", phase2, "us");
  layers->Add("core.two_phase_b32_us", two_b32, "us");
  layers->Add("core.score_windows_b32_us", score_b32, "us");
  layers->Add("core.score_windows_b256_us", score_b256, "us");
  layers->Add("core.normalize_row_us", normalize, "us");
  layers->Add("core.observe_us", Median(pass.observe_us), "us");
  layers->Add("core.fit_s", fx.fit_s, "s");
  layers->Add("eval.pot_init_ms", pot_init_us * 1e-3, "ms");
  layers->Add("eval.pot_observe_us", pot_observe, "us");
  layers->Add("data.generate_ms", fx.generate_ms, "ms");

  // Light-phase latency not explained by forward + normalize + POT at the
  // batch size the light phase actually formed.
  const int64_t light_batch = std::clamp<int64_t>(
      std::llround(pass.light.mean_batch()), 1, kMaxBatch);
  const Tensor wl = NormalizedWindows(fx, light_batch);
  const double forward_light = TimeCalls(
      "core.TranADDetector.ScoreWindows.light", 5, reps / 4,
      [&] { det->ScoreWindows(wl); });
  const double work_ms =
      (forward_light + static_cast<double>(light_batch) * (normalize + pot_observe)) *
      1e-3;
  layers->Add("serve.pipeline_overhead_light_ms",
              Median(pass.light.latency_ms) - work_ms, "ms");

  // nn layers at TranAD's shapes (d_model = 2m, one head per dimension).
  const int64_t d_model = 2 * m;
  const int64_t d_ff = tranad::TranADConfig().d_ff;
  tranad::Rng rng(11);
  tranad::nn::MultiHeadAttention attention(d_model, m, &rng);
  tranad::nn::FeedForward feed_forward(d_model, d_ff, d_model, 0.1f, &rng);
  tranad::nn::TransformerEncoderLayer encoder(d_model, m, d_ff, 0.1f, &rng);
  attention.SetTraining(false);
  feed_forward.SetTraining(false);
  encoder.SetTraining(false);
  const Tensor mask = tranad::nn::CausalMask(kWindow);
  double att_b1 = 0.0;
  double att_b32 = 0.0;
  double ff_b32 = 0.0;
  double enc_b32 = 0.0;
  {
    tranad::NoGradGuard no_grad;
    const tranad::Variable x1(Tensor::Randn({1, kWindow, d_model}, &rng));
    const tranad::Variable x32(Tensor::Randn({32, kWindow, d_model}, &rng));
    att_b1 = TimeCalls("nn.MultiHeadAttention.Forward.b1", 10, reps,
                       [&] { attention.Forward(x1, x1, x1, &mask); });
    att_b32 = TimeCalls("nn.MultiHeadAttention.Forward.b32", 5, reps / 2,
                        [&] { attention.Forward(x32, x32, x32, &mask); });
    ff_b32 = TimeCalls("nn.FeedForward.Forward.b32", 5, reps / 2,
                       [&] { feed_forward.Forward(x32, &rng); });
    enc_b32 = TimeCalls("nn.TransformerEncoderLayer.Forward.b32", 5, reps / 2,
                        [&] { encoder.Forward(x32, &rng); });
  }
  layers->Add("nn.attention_b1_us", att_b1, "us");
  layers->Add("nn.attention_b32_us", att_b32, "us");
  layers->Add("nn.feedforward_b32_us", ff_b32, "us");
  layers->Add("nn.encoder_layer_b32_us", enc_b32, "us");
  // Attention's share of one transformer encoder layer at the same shapes.
  layers->Add("nn.attention_share", Share(att_b32, enc_b32), "ratio");

  // tensor kernels at the shapes the layers above use.
  struct MatShape {
    const char* span;
    const char* metric;
    int64_t batch;
  };
  for (const MatShape& s :
       {MatShape{"tensor.MatMul.b1", "tensor.matmul_b1", 1},
        MatShape{"tensor.MatMul.b32", "tensor.matmul_b32", 32},
        MatShape{"tensor.MatMul.b128", "tensor.matmul_b128", 128}}) {
    const int64_t rows = s.batch * kWindow;
    const Tensor a = Tensor::Randn({rows, d_model}, &rng);
    const Tensor b = Tensor::Randn({d_model, d_ff}, &rng);
    const double us = TimeCalls(s.span, 10, reps, [&] { tranad::MatMul(a, b); });
    layers->Add(std::string(s.metric) + "_us", us, "us");
    layers->Add(std::string(s.metric) + "_flops",
                2.0 * static_cast<double>(rows * d_model * d_ff), "flop");
    layers->Add(std::string(s.metric) + "_bytes",
                4.0 * static_cast<double>(rows * d_model + d_model * d_ff +
                                          rows * d_ff),
                "B");
  }
  const Tensor logits = Tensor::Randn({32 * m, kWindow, kWindow}, &rng);
  const double softmax = TimeCalls("tensor.SoftmaxLastDim.b32", 10, reps,
                                   [&] { tranad::SoftmaxLastDim(logits); });
  const double n_logits = static_cast<double>(logits.numel());
  layers->Add("tensor.softmax_b32_us", softmax, "us");
  layers->Add("tensor.softmax_b32_flops", 5.0 * n_logits, "flop");
  layers->Add("tensor.softmax_b32_bytes", 8.0 * n_logits, "B");
  const Tensor acts = Tensor::Randn({32, kWindow, d_model}, &rng);
  const double layernorm = TimeCalls("tensor.LayerNormLastDim.b32", 10, reps,
                                     [&] { tranad::LayerNormLastDim(acts, 1e-5f); });
  const double n_acts = static_cast<double>(acts.numel());
  layers->Add("tensor.layernorm_b32_us", layernorm, "us");
  layers->Add("tensor.layernorm_b32_flops", 8.0 * n_acts, "flop");
  layers->Add("tensor.layernorm_b32_bytes", 8.0 * n_acts, "B");
  layers->Add("tensor.arena_hit_ratio",
              Share(static_cast<double>(pass.sat.arena.hits),
                    static_cast<double>(pass.sat.arena.hits +
                                        pass.sat.arena.misses)),
              "ratio");
}

/// Serving-layer metrics of one pass, under `prefix` ("serve" or "wire").
void ServeLayerMetrics(const std::string& prefix, const ServePass& pass,
                       Outcome* layers) {
  if (prefix == "serve") {
    layers->Add("serve.submit_us", Tracer::Get().MedianUs("serve.Submit"), "us");
    layers->Add("serve.mean_batch_light", pass.light.mean_batch(), "count");
  }
  layers->Add(prefix + ".mean_batch_sat", pass.sat.mean_batch(), "count");
  layers->Add(prefix + ".batch_fill_ratio",
              pass.sat.mean_batch() / static_cast<double>(kMaxBatch), "ratio");
  layers->Add(prefix + ".queue_depth_p50", Median(pass.sat.queue_depth), "count");
  layers->Add(prefix + ".rejected_ratio",
              Share(static_cast<double>(pass.light.rejected + pass.sat.rejected),
                    static_cast<double>(pass.light.submitted + pass.sat.submitted +
                                        pass.light.rejected + pass.sat.rejected)),
              "ratio");
  layers->Add(prefix == "serve" ? "router.shard_skew" : prefix + ".shard_skew",
              Skew(pass.sat.shard_completed), "ratio");
}

/// Rate ladder: serve-tranad at fixed light rates (ungated diagnostic of
/// the small-batch latency cliff).
void RateLadder(const Options& options, Fixture* fx, Outcome* layers) {
  Traffic traffic(fx, options.seed + 1, true);
  const double rung_s = options.toy ? 0.3 : 1.5;
  int32_t phase = kLadderBase;
  for (int rate : {250, 500, 1000, 3000}) {
    PhaseResult r;
    traffic.OpenLoop(rate, static_cast<int64_t>(rate * rung_s), phase++, &r);
    const std::string p = "ladder.r" + std::to_string(rate);
    layers->Add(p + ".p50_ms", Median(r.latency_ms), "ms");
    layers->Add(p + ".p99_ms", Percentile(r.latency_ms, 0.99), "ms");
    layers->Add(p + ".samples", static_cast<double>(r.latency_ms.size()), "count");
    layers->Add(p + ".mean_batch", r.mean_batch(), "count");
    layers->Add(p + ".backlog_per_s", r.backlog_per_s, "1/s");
  }
}

void ProbeWire(const Options& options, const ServePass& pass, Outcome* layers) {
  const Fixture& fx = *pass.fx;
  const int64_t m = fx.data.dims();
  const int64_t reps = options.toy ? 20 : 200;
  layers->Add("net.client_submit_us", Tracer::Get().MedianUs("net.Submit"), "us");
  layers->Add("net.create_stream_rpc_ms", Median(fx.register_ms), "ms");
  layers->Add("net.ping_rtt_p50_us",
              TimeCalls("net.NetClient.Ping", 5, reps, [&] { (void)fx.client->Ping(); }),
              "us");

  // Frame codec, 100 frames per timed call.
  tranad::net::WireSubmit submit;
  submit.stream_key = fx.keys.front();
  submit.tag = 42;
  submit.values.assign(fx.data.test.values.data(),
                       fx.data.test.values.data() + m);
  std::vector<uint8_t> buf;
  buf.reserve(1 << 16);
  const double encode = TimeCalls("net.WireSubmit.EncodeTo.x100", 10, reps, [&] {
    for (int i = 0; i < 100; ++i) {
      buf.clear();
      submit.EncodeTo(&buf);
    }
  });
  tranad::net::WireVerdict verdict;
  verdict.stream_key = submit.stream_key;
  verdict.tag = 42;
  verdict.seq = 7;
  verdict.score = 0.25;
  verdict.threshold = 0.5;
  std::vector<uint8_t> frame;
  verdict.EncodeTo(&frame);
  tranad::net::FrameReader reader;
  tranad::net::FrameView view;
  bool got = false;
  (void)reader.Feed(frame.data(), frame.size());
  (void)reader.Next(&view, &got);
  const double decode = TimeCalls("net.WireVerdict.Decode.x100", 10, reps, [&] {
    tranad::net::WireVerdict out;
    for (int i = 0; i < 100; ++i) (void)tranad::net::WireVerdict::Decode(view, &out);
  });
  layers->Add("net.submit_encode_us", encode / 100.0, "us");
  layers->Add("net.verdict_decode_us", got ? decode / 100.0 : 0.0, "us");
  layers->Add("net.bytes_per_verdict", static_cast<double>(frame.size()), "B");

  // The baseline wrapper: one batch, and two concurrent callers vs one.
  const Tensor w32 = NormalizedWindows(fx, 32);
  layers->Add("baselines.gdn_score_b32_us",
              TimeCalls("baselines.BaselineServable.ScoreWindows.b32", 5, reps / 2,
                        [&] { fx.surface->ScoreWindows(w32); }),
              "us");
  const double window_s = options.toy ? 0.1 : 0.4;
  auto calls_in = [&](int threads) {
    std::atomic<int64_t> calls{0};
    const int64_t stop = NowNs() + static_cast<int64_t>(window_s * 1e9);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        while (NowNs() < stop) {
          Span span("baselines.BaselineServable.ScoreWindows.concurrent");
          fx.surface->ScoreWindows(w32);
          calls.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
    return static_cast<double>(calls.load());
  };
  const double one = calls_in(1);
  const double two = calls_in(2);
  layers->Add("baselines.gdn_concurrency_ratio", Share(two, one), "ratio");
}

}  // namespace

// ---- entry points -----------------------------------------------------------

Outcome RunServe(const Options& options, bool wire) {
  Outcome out;
  const Sizes z = SizesFor(options, wire);
  ServePass pass =
      RunServePass(options, wire, options.seconds, z.setup_reps, false, &out);
  if (!pass.fx || !pass.ok) {
    out.failed += 1;
    return out;
  }
  AddEndToEnd(pass, &out);
  return out;
}

double TraceServeTranad(const Options& options, double seconds, Outcome* out,
                        Outcome* layers) {
  ServePass pass = RunServePass(options, false, seconds, 1, true, out);
  if (!pass.fx || !pass.ok) {
    out->failed += 1;
    return 0.0;
  }
  Tracer::Get().Enable(true);
  ServeLayerMetrics("serve", pass, layers);
  ProbeTranad(options, pass, layers);
  RateLadder(options, pass.fx.get(), layers);
  Tracer::Get().Enable(false);
  return pass.cpu_ms_per_kobs;
}

double TraceWireGdn(const Options& options, double seconds, Outcome* out,
                    Outcome* layers) {
  ServePass pass = RunServePass(options, true, seconds, 1, true, out);
  if (!pass.fx || !pass.ok) {
    out->failed += 1;
    return 0.0;
  }
  Tracer::Get().Enable(true);
  ServeLayerMetrics("wire", pass, layers);
  ProbeWire(options, pass, layers);
  Tracer::Get().Enable(false);
  return pass.cpu_ms_per_kobs;
}

double UntracedServeCpu(const Options& options, bool wire, double seconds,
                        Outcome* out) {
  ServePass pass = RunServePass(options, wire, seconds, 1, false, out);
  if (!pass.fx || !pass.ok) {
    out->failed += 1;
    return 0.0;
  }
  return pass.cpu_ms_per_kobs;
}

}  // namespace perfbench
