// The train-tranad workload: TranAD training (TrainTranAD through
// TranADDetector::Fit) on SMD-like windows for a fixed epoch count with
// early stopping off, B = 128 and the compute pool at half the available
// CPUs. Training runs a fixed number of times from scratch; every
// repetition must produce a bit-identical model. After each training a
// slice of single B = 128 training steps is timed one by one, and the
// trained detector is calibrated on one lane, once on each CPU.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/online_detector.h"
#include "core/pipeline.h"
#include "core/tranad_detector.h"
#include "core/tranad_model.h"
#include "core/tranad_trainer.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/pot.h"
#include "nn/optimizer.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"

namespace perfbench {
namespace {

using tranad::Tensor;

constexpr const char* kDataset = "SMD";
constexpr int64_t kWindow = 10;
constexpr int64_t kBatch = 128;
/// Calibration rows: a fixed prefix of the training split (as many as a
/// served stream calibrates on).
constexpr int64_t kCalibrationRows = 512;
/// Timed calibrations per repetition, spread over the CPUs in turn.
constexpr int64_t kCalibrationsPerRep = 16;

struct Sizes {
  double scale = 0.5;  // synthetic dataset length multiplier
  int64_t epochs = 2;  // fixed epoch count per training
};

Sizes SizesFor(const Options& options) {
  Sizes z;
  if (options.toy) {
    z.scale = 0.15;
    z.epochs = 1;
  }
  return z;
}

tranad::TranADConfig ModelConfig() {
  tranad::TranADConfig config;
  config.window = kWindow;
  return config;
}

tranad::TrainOptions TrainConfig(const Sizes& z) {
  tranad::TrainOptions train;
  train.max_epochs = z.epochs;
  train.batch_size = kBatch;
  train.early_stop_patience = z.epochs + 1;  // never trips
  return train;
}

/// Set-up: data generation and windowing.
struct Fixture {
  tranad::Dataset data;
  Tensor windows;  // normalized training windows [N, K, m]
  double generate_ms = 0.0;
  double windows_ms = 0.0;
  double setup_s = 0.0;
};

bool BuildFixture(const Sizes& z, Fixture* fx) {
  Span span("setup.train-tranad");
  const int64_t t0 = NowNs();
  {
    Span generate("data.GenerateDatasetByName");
    // A constant of the workload (the generator's default recipe seed):
    // training is then the same deterministic computation on every run.
    auto generated = tranad::GenerateDatasetByName(kDataset, z.scale);
    if (!generated.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   generated.status().ToString().c_str());
      return false;
    }
    fx->data = std::move(generated.value());
  }
  fx->generate_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  const int64_t w0 = NowNs();
  {
    Span windows("data.MakeWindows");
    tranad::MinMaxNormalizer normalizer;
    normalizer.Fit(fx->data.train.values);
    fx->windows =
        tranad::MakeWindows(normalizer.Transform(fx->data.train.values), kWindow);
  }
  fx->windows_ms = static_cast<double>(NowNs() - w0) * 1e-6;
  fx->setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return true;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Per-step times of TimeTrainSteps, in milliseconds.
struct StepTimes {
  std::vector<double> forward;
  std::vector<double> backward;
  std::vector<double> optimizer;
  std::vector<double> total;
};

/// Runs `warmup` + `steps` adversarial training steps of Alg. 1 on
/// consecutive B = 128 batches of the training windows (from batch
/// `first_batch` on), split into forward, backward and optimizer step (the
/// sequence TrainTranAD runs per batch), and records the timed ones.
void TimeTrainSteps(const Fixture& fx, int64_t first_batch, int warmup,
                    int steps, StepTimes* times) {
  tranad::TranADConfig config = ModelConfig();
  config.dims = fx.data.dims();
  tranad::TranADModel model(config);
  model.SetTraining(true);
  tranad::nn::AdamW opt(model.Parameters(), 0.01f);
  const int64_t n = fx.windows.size(0);
  const int64_t b = std::min<int64_t>(kBatch, n);
  const int64_t m = config.dims;
  const int64_t batches = std::max<int64_t>(1, n / b);
  for (int i = 0; i < warmup + steps; ++i) {
    const int64_t begin = ((first_batch + i) % batches) * b;
    const Tensor batch = tranad::SliceAxis(fx.windows, 0, begin, b);
    const Tensor target =
        tranad::SliceAxis(batch, 1, kWindow - 1, 1).Reshape({b, m});
    Span batch_span("train.batch");
    const int64_t t0 = NowNs();
    const tranad::Variable window(batch);
    tranad::Variable l1;
    tranad::Variable l2;
    {
      Span span("train.forward");
      auto [o1, o2] = model.ForwardPhase1(window);
      const tranad::Variable rec1 = tranad::ag::MseLoss(o1, target);
      const tranad::Variable rec2 = tranad::ag::MseLoss(o2, target);
      const tranad::Variable focus =
          tranad::ag::SquaredDiff(o1, tranad::Variable(target));
      const tranad::Variable o2hat = model.ForwardPhase2(window, focus);
      const tranad::Variable adv =
          tranad::ag::MseLossVar(o2hat, tranad::Variable(target));
      const float w = 0.8f;
      l1 = tranad::ag::Add(tranad::ag::MulScalar(rec1, w),
                           tranad::ag::MulScalar(adv, 1.0f - w));
      l2 = tranad::ag::Sub(tranad::ag::MulScalar(rec2, w),
                           tranad::ag::MulScalar(adv, 1.0f - w));
    }
    const int64_t t1 = NowNs();
    {
      Span span("train.backward");
      model.ZeroGrad();
      l1.Backward();
      l1.ClearTapeGradients();
      l2.ClearTapeGradients();
      l2.Backward();
    }
    const int64_t t2 = NowNs();
    {
      Span span("train.step");
      opt.ClipGradNorm(5.0f);
      opt.Step();
    }
    const int64_t t3 = NowNs();
    if (i < warmup) continue;
    times->forward.push_back(static_cast<double>(t1 - t0) * 1e-6);
    times->backward.push_back(static_cast<double>(t2 - t1) * 1e-6);
    times->optimizer.push_back(static_cast<double>(t3 - t2) * 1e-6);
    times->total.push_back(static_cast<double>(t3 - t0) * 1e-6);
  }
}

struct TrainPass {
  Fixture fx;
  std::unique_ptr<tranad::TranADDetector> detector;
  std::vector<double> setup_s;
  std::vector<double> windows_per_s;
  double windows_total = 0.0;
  double cpu_ms_per_kwin = 0.0;
  std::vector<double> register_ms;
  StepTimes steps;
  std::vector<double> rep_step_p50_ms;
  std::vector<double> rep_step_p99_ms;
  double f1 = 0.0;
  bool ok = false;
};

/// Set-up, the timed training repetitions (each followed by a slice of
/// timed training steps and one calibration per CPU), then the trained
/// detector's POT F1 (outside the timed phase).
TrainPass RunTrainPass(const Options& options, double seconds, bool traced,
                       Outcome* out) {
  TrainPass pass;
  const Sizes z = SizesFor(options);
  Tracer::Get().Enable(traced);
  if (!BuildFixture(z, &pass.fx)) return pass;
  const int64_t n_windows = pass.fx.data.train.length();
  const Tensor probe = tranad::SliceAxis(
      pass.fx.windows, 0, 0, std::min<int64_t>(32, pass.fx.windows.size(0)));

  // A fixed number of repetitions (never derived from measured speed), so
  // every measurement samples the host across the whole run rather than in
  // one burst.
  const int reps =
      options.toy ? 2 : std::max(2, static_cast<int>(std::lround(seconds / 2.5)));
  const int steps_per_rep = options.toy ? 4 : 16;
  // The seed picks the batch the timed steps start from.
  const int64_t first_batch = static_cast<int64_t>(options.seed % 997);
  const tranad::PotParams pot = tranad::PotParamsForDataset(kDataset);
  const Fixture& fx = pass.fx;
  Tensor reference;
  double train_cpu_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string tag = "rep" + std::to_string(rep);
    tranad::SetNumComputeThreads(ComputeLanes());
    // Set-up runs once per training, spread over the run like the rest.
    if (rep > 0 && !BuildFixture(z, &pass.fx)) return pass;
    pass.setup_s.push_back(pass.fx.setup_s);
    auto detector =
        std::make_unique<tranad::TranADDetector>(ModelConfig(), TrainConfig(z));
    NoiseWindow noise;
    const int64_t t0 = NowNs();
    {
      Span span("core.TranADDetector.Fit");
      detector->Fit(fx.data.train);
    }
    const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
    train_cpu_s += noise.cpu_seconds();
    noise.Finish(tag + ".train", out);
    const auto& stats = detector->train_stats();
    const double windows =
        static_cast<double>(n_windows) * static_cast<double>(stats.epochs_run);
    pass.windows_per_s.push_back(windows / elapsed);
    out->Note(tag + ".train.windows_per_s", windows / elapsed);
    pass.windows_total += windows;
    ++out->attempted;
    detector->FreezeForInference();
    const Tensor scores = detector->ScoreWindows(probe);
    if (stats.skipped_non_finite > 0 || stats.epochs_run != z.epochs) {
      ++out->failed;
    } else if (rep == 0) {
      reference = scores;
      ++out->completed;
    } else if (!SameBits(reference, scores)) {
      ++out->failed;  // training is deterministic: every rep must agree
    } else {
      ++out->completed;
    }
    if (rep == 0) pass.detector = std::move(detector);

    // Single training steps through the pool, timed one by one.
    NoiseWindow step_noise;
    StepTimes rep_steps;
    TimeTrainSteps(fx, first_batch + rep * steps_per_rep, 2, steps_per_rep,
                   &rep_steps);
    step_noise.Finish(tag + ".steps", out);
    for (double ms : rep_steps.total) {
      ++out->attempted;
      if (std::isfinite(ms)) {
        ++out->completed;
      } else {
        ++out->failed;
      }
    }
    pass.rep_step_p50_ms.push_back(Median(rep_steps.total));
    pass.rep_step_p99_ms.push_back(Percentile(rep_steps.total, 0.99));
    out->Note(tag + ".steps.p50_ms", pass.rep_step_p50_ms.back());
    out->Note(tag + ".steps.p99_ms", pass.rep_step_p99_ms.back());
    auto append = [](const std::vector<double>& from, std::vector<double>* to) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(rep_steps.forward, &pass.steps.forward);
    append(rep_steps.backward, &pass.steps.backward);
    append(rep_steps.optimizer, &pass.steps.optimizer);
    append(rep_steps.total, &pass.steps.total);

    // Calibrations of the (bit-identical) trained detector on one lane, as
    // a serving stream's registration runs, with the process pinned to each
    // CPU in turn, so no one CPU that the host is slowing sets the median.
    tranad::SetNumComputeThreads(1);
    tranad::TimeSeries calibration;
    calibration.values = tranad::SliceAxis(
        fx.data.train.values, 0, 0,
        std::min(kCalibrationRows, fx.data.train.length()));
    const int64_t pins = std::min<int64_t>(4, AvailableCpus());
    const size_t first_calibration = pass.register_ms.size();
    for (int64_t i = 0; i < kCalibrationsPerRep; ++i) {
      const int64_t c = i % pins;
      tranad::WindowedOnlineDetector calibrated(pass.detector.get(), pot);
      tranad::Status st;
      {
        const PinProcess pin(c);
        const int64_t c0 = NowNs();
        {
          Span span("core.WindowedOnlineDetector.Calibrate");
          st = calibrated.Calibrate(calibration);
        }
        pass.register_ms.push_back(static_cast<double>(NowNs() - c0) * 1e-6);
      }
      ++out->attempted;
      if (!st.ok()) {
        ++out->failed;
        return pass;
      }
      ++out->completed;
    }
    out->Note(tag + ".register_p50_ms",
              Median(std::vector<double>(
                  pass.register_ms.begin() + first_calibration,
                  pass.register_ms.end())));
  }
  pass.cpu_ms_per_kwin = train_cpu_s * 1e3 / pass.windows_total * 1e3;

  const tranad::TranADDetector* det = pass.detector.get();
  const auto train_scores =
      tranad::DetectionScores(det->ScoreSeries(fx.data.train));
  const auto test_scores =
      tranad::DetectionScores(det->ScoreSeries(fx.data.test));
  const double threshold = tranad::PotThreshold(train_scores, pot);
  pass.f1 = tranad::EvaluateAtThreshold(test_scores, fx.data.test.labels,
                                        threshold)
                .f1;
  pass.ok = true;
  Tracer::Get().Enable(false);
  return pass;
}

/// Per-layer training metrics: the step split of the pass, and one epoch
/// with one lane vs the pool.
void ProbeTraining(const TrainPass& pass, Outcome* layers) {
  layers->Add("train.forward_ms", Median(pass.steps.forward), "ms");
  layers->Add("train.backward_ms", Median(pass.steps.backward), "ms");
  layers->Add("train.step_ms", Median(pass.steps.optimizer), "ms");

  const Fixture& fx = pass.fx;
  tranad::TranADConfig config = ModelConfig();
  config.dims = fx.data.dims();
  const int64_t n = std::min<int64_t>(fx.windows.size(0), 8 * kBatch);
  const Tensor subset = tranad::SliceAxis(fx.windows, 0, 0, n);
  tranad::TrainOptions one_epoch;
  one_epoch.max_epochs = 1;
  one_epoch.batch_size = kBatch;
  auto epoch_seconds = [&](int64_t lanes) {
    tranad::SetNumComputeThreads(lanes);
    tranad::TranADModel fresh(config);
    const int64_t t0 = NowNs();
    {
      Span span(lanes == 1 ? "core.TrainTranAD.epoch.1lane"
                           : "core.TrainTranAD.epoch.pool");
      tranad::TrainTranAD(&fresh, subset, one_epoch);
    }
    return static_cast<double>(NowNs() - t0) * 1e-9;
  };
  const double serial = epoch_seconds(1);
  const double pooled = epoch_seconds(ComputeLanes());
  layers->Add("pool.train_speedup", pooled > 0 ? serial / pooled : 0.0,
              "ratio");
  layers->Add("data.windows_ms", fx.windows_ms, "ms");
}

}  // namespace

Outcome RunTrainTranad(const Options& options) {
  Outcome out;
  TrainPass pass = RunTrainPass(options, options.seconds, false, &out);
  if (!pass.ok) {
    ++out.failed;
    return out;
  }
  // Per repetition, then the fast-side quartile over repetitions.
  out.Add("throughput_per_s", FastQuartileRate(pass.windows_per_s), "1/s");
  // Time of one B = 128 training step through the pool: each repetition's
  // median and p99 (its slowest step).
  out.Add("light_latency_p50_ms", FastQuartileTime(pass.rep_step_p50_ms), "ms");
  out.Add("sat_latency_p99_ms", FastQuartileTime(pass.rep_step_p99_ms), "ms");
  out.Add("cpu_ms_per_kobs", pass.cpu_ms_per_kwin, "ms");
  out.Add("register_p50_ms", Median(pass.register_ms), "ms");
  out.Add("setup_s", Median(pass.setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  out.Add("f1", pass.f1, "ratio");
  return out;
}

double TraceTrainTranad(const Options& options, double seconds, Outcome* out,
                        Outcome* layers) {
  TrainPass pass = RunTrainPass(options, seconds, true, out);
  if (!pass.ok) {
    ++out->failed;
    return 0.0;
  }
  Tracer::Get().Enable(true);
  ProbeTraining(pass, layers);
  Tracer::Get().Enable(false);
  return pass.cpu_ms_per_kwin;
}

double UntracedTrainCpu(const Options& options, double seconds, Outcome* out) {
  TrainPass pass = RunTrainPass(options, seconds, false, out);
  if (!pass.ok) {
    ++out->failed;
    return 0.0;
  }
  return pass.cpu_ms_per_kwin;
}

}  // namespace perfbench
