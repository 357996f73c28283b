// perfbench runner: runs one workload and prints a context line followed by
// the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: perfbench_runner --workload serve-tranad|wire-gdn|train-tranad
//          --seed N --seconds S --trace 0|1 [--toy] [--perturb-replay]
//          [--out-dir DIR]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"serve-tranad", "wire-gdn", "train-tranad"};

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

void Merge(const Outcome& from, const std::string& prefix, Outcome* into) {
  into->attempted += from.attempted;
  into->completed += from.completed;
  into->rejected += from.rejected;
  into->failed += from.failed;
  into->replay_checked += from.replay_checked;
  into->replay_mismatches += from.replay_mismatches;
  for (const auto& e : from.evidence) {
    into->evidence.emplace_back(prefix + e.first, e.second);
  }
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

Outcome RunTraced(const Options& options) {
  const std::string& primary = options.workload;
  const double half = options.seconds / 2.0;
  const double brief = options.toy ? 1.0 : 3.0;

  // The primary workload untraced, then traced, on equal budgets: the ratio
  // of their CPU cost per unit of work is the tracing overhead.
  Outcome untraced;
  double untraced_cpu = 0.0;
  if (primary == "train-tranad") {
    untraced_cpu = UntracedTrainCpu(options, half, &untraced);
  } else {
    untraced_cpu =
        UntracedServeCpu(options, primary == "wire-gdn", half, &untraced);
  }

  Outcome out;
  Outcome layers;
  double traced_cpu = 0.0;
  for (const char* w : kWorkloads) {
    const bool is_primary = primary == w;
    const double seconds = is_primary ? half : brief;
    Outcome pass;
    double cpu = 0.0;
    if (std::strcmp(w, "serve-tranad") == 0) {
      cpu = TraceServeTranad(options, seconds, &pass, &layers);
    } else if (std::strcmp(w, "wire-gdn") == 0) {
      cpu = TraceWireGdn(options, seconds, &pass, &layers);
    } else {
      cpu = TraceTrainTranad(options, seconds, &pass, &layers);
    }
    if (is_primary) traced_cpu = cpu;
    Merge(pass, std::string(w) + (is_primary ? ".traced." : "."), &out);
  }
  Merge(untraced, primary + ".untraced.", &out);
  layers.Add("trace.overhead_ratio",
             untraced_cpu > 0 ? traced_cpu / untraced_cpu - 1.0 : 0.0, "ratio");
  layers.Add("trace.spans", static_cast<double>(Tracer::Get().size()), "count");
  out.metrics = std::move(layers.metrics);

  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  Tracer::Get().Write(path, ContextJson(options));
  out.Note("trace.file_written", 1.0);
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--toy") {
      options.toy = true;
    } else if (arg == "--perturb-replay") {
      options.perturb_replay = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!perfbench::KnownWorkload(options.workload) || options.seconds <= 0) {
    std::fprintf(stderr,
                 "perfbench: --workload must be serve-tranad, wire-gdn or "
                 "train-tranad, and --seconds positive\n");
    return 2;
  }

  perfbench::Outcome out;
  if (options.trace) {
    out = perfbench::RunTraced(options);
  } else if (options.workload != "train-tranad") {
    out = perfbench::RunServe(options, options.workload == "wire-gdn");
  } else {
    out = perfbench::RunTrainTranad(options);
  }

  bool finite = !out.metrics.empty();
  for (const auto& m : out.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = finite && out.failed == 0 && out.attempted > 0 &&
                       out.replay_mismatches == 0;

  std::ostringstream context;
  context << "{\"context\": " << perfbench::ContextJson(options)
          << ", \"operations\": {\"attempted\": " << out.attempted
          << ", \"completed\": " << out.completed
          << ", \"rejected\": " << out.rejected << ", \"failed\": " << out.failed
          << ", \"replay_checked\": " << out.replay_checked
          << ", \"replay_mismatches\": " << out.replay_mismatches
          << "}, \"host_noise\": {";
  for (size_t i = 0; i < out.evidence.size(); ++i) {
    context << (i ? ", " : "") << "\"" << out.evidence[i].first
            << "\": " << perfbench::Number(out.evidence[i].second);
  }
  context << "}}";
  std::printf("%s\n", context.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    result << (i ? ", " : "") << "\"" << m.name
           << "\": {\"value\": " << perfbench::Number(v) << ", \"unit\": \""
           << m.unit << "\"}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  // Skip static destructors: detached library singletons (arena, compute
  // pool) are intentionally leaked.
  std::_Exit(0);
}
