// onebench: the repo benchmark. Runs one workload (read_zipf, edit_stream or
// bulk_memit) against the real ShardRouter / EditService stack and prints a
// host header, a human-readable report, and — as the last line — one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md; run it through run.py, which builds it.
//
//   onebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir> [--git-sha <sha>]

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "accounting.h"
#include "workloads.h"

namespace onebench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "onebench: %s\nusage: onebench --workload "
               "<read_zipf|edit_stream|bulk_memit> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--git-sha <sha>]\n",
               problem.c_str());
  std::exit(2);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Or0(std::optional<double> value) { return value.value_or(0.0); }

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

bool ReadOnly(const std::string& workload) { return workload == "read_zipf"; }

/// Latencies of the workload's primary operation, and the factor to ms:
/// reads (in us) on read_zipf, edits (in ms) elsewhere.
const Windows& OpLatency(const std::string& workload,
                         const PhaseResult& phase) {
  return ReadOnly(workload) ? phase.reads : phase.edits;
}
double OpToMs(const std::string& workload) {
  return ReadOnly(workload) ? 1e-3 : 1.0;
}

/// Exact median: a histogram's 1% buckets would make a few set-up times
/// read the same on different runs.
double SetupMedian(const std::vector<SetupSample>& setups,
                   double SetupSample::*field) {
  std::vector<double> values;
  for (const SetupSample& sample : setups) values.push_back(sample.*field);
  return Or0(MedianOf(std::move(values)));
}

/// Required figure: a missing one (a window with too few samples for its
/// percentile) would silently drop a metric, so it fails the run instead.
double Must(std::optional<double> value, const std::string& name,
            std::vector<std::string>* errors) {
  if (!value.has_value()) {
    errors->push_back(name + ": a window has too few samples for it");
  }
  return value.value_or(0.0);
}

double OpCount(const std::string& workload, const PhaseResult& phase) {
  return static_cast<double>(ReadOnly(workload) ? phase.reads.count()
                                                : phase.edit_count());
}

/// Failed primary operations (see Outcome for what fails an edit).
double OpFailures(const std::string& workload, const PhaseResult& phase) {
  return static_cast<double>(ReadOnly(workload) ? phase.read_errors
                                                : phase.edit_failures());
}

double FailShare(const std::string& workload, const PhaseResult& phase) {
  return Ratio(OpFailures(workload, phase), OpCount(workload, phase));
}

std::vector<Metric> EndToEnd(const std::string& workload,
                             const PhaseResult& phase,
                             std::vector<std::string>* errors) {
  const Windows& op = OpLatency(workload, phase);
  const double to_ms = OpToMs(workload);
  return {
      {"setup_s", SetupMedian(phase.setups, &SetupSample::total_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"read_qps", Must(phase.reads.MedianRate(), "read_qps", errors), "1/s"},
      {"read_mean_us",
       Must(phase.reads.MedianTrimmedMean(), "read_mean_us", errors), "us"},
      {"read_p90_us",
       Must(phase.reads.MedianPercentile(0.9), "read_p90_us", errors), "us"},
      {"read_accuracy",
       Ratio(static_cast<double>(phase.accuracy_correct),
             static_cast<double>(phase.accuracy_checked)),
       "share"},
      {"op_mean_ms", Must(op.MedianTrimmedMean(), "op_mean_ms", errors) * to_ms,
       "ms"},
      {"op_per_s", Ratio(static_cast<double>(op.count()), op.TotalSeconds()),
       "1/s"},
      {"ok_share", 1.0 - FailShare(workload, phase), "share"},
  };
}

std::vector<Metric> PerLayer(const std::string& workload,
                             const PhaseResult& untraced,
                             const PhaseResult& traced,
                             const ReplayResult& replay) {
  const double route = Or0(traced.route_us.Median());
  const double pin = Or0(traced.pin_us.Median());
  const double ask = Or0(traced.ask_us.Median());
  const double read_p50_untraced = Or0(untraced.reads.MedianPercentile(0.5));
  const double to_ms = OpToMs(workload);
  const double op_p50_traced =
      Or0(OpLatency(workload, traced).MedianPercentile(0.5)) * to_ms;
  const double op_p50_untraced =
      Or0(OpLatency(workload, untraced).MedianPercentile(0.5)) * to_ms;
  std::vector<SetupSample> setups = untraced.setups;
  setups.insert(setups.end(), traced.setups.begin(), traced.setups.end());
  const bool edits = !ReadOnly(workload);
  return {
      {"shard.route_us", route, "us"},
      {"serving.pin_us", pin, "us"},
      {"model.ask_p50_us", ask, "us"},
      {"model.ask_p99_us", Or0(traced.ask_us.Percentile(0.99)), "us"},
      {"read.unattributed_us",
       Unattributed(read_p50_untraced, {route, pin, ask}), "us"},
      {"shard.submit_block_ms", traced.submit_block_ms.Mean(), "ms"},
      {"shard.cross_share",
       Ratio(static_cast<double>(traced.cross_txns),
             static_cast<double>(traced.edit_count())),
       "share"},
      {"core.interpret_us", Or0(replay.interpret_us.Median()), "us"},
      {"durability.log_batch_ms", Or0(replay.log_batch_ms.Median()), "ms"},
      {"durability.log_2pc_ms", Or0(replay.log_2pc_ms.Median()), "ms"},
      {"durability.checkpoint_ms", Or0(replay.checkpoint_ms.Median()), "ms"},
      {"durability.checkpoints", static_cast<double>(replay.checkpoints),
       "count"},
      {"durability.wal_bytes_per_edit",
       Ratio(static_cast<double>(replay.journal_bytes),
             static_cast<double>(replay.edits)),
       "bytes"},
      {"core.edit_batch_ms", Or0(replay.edit_batch_ms.Median()), "ms"},
      {"serving.validate_ms", Or0(replay.validate_ms.Median()), "ms"},
      {"serving.publish_ms", Or0(replay.publish_ms.Median()), "ms"},
      {"serving.batch_size_mean",
       Ratio(static_cast<double>(traced.submitted),
             static_cast<double>(traced.batches)),
       "count"},
      {"serving.rollbacks", static_cast<double>(traced.rollbacks), "count"},
      {"serving.quarantined", static_cast<double>(traced.quarantined),
       "count"},
      {"core.cache_hit_share",
       Ratio(static_cast<double>(traced.cache_hits),
             static_cast<double>(traced.accepted)),
       "ratio"},
      {"edit.unattributed_ms",
       edits ? Unattributed(op_p50_traced,
                            {Or0(replay.batch_total_ms.Median())})
             : 0.0,
       "ms"},
      {"setup.dataset_s", SetupMedian(setups, &SetupSample::dataset_s), "s"},
      {"setup.pretrain_s", SetupMedian(setups, &SetupSample::pretrain_s),
       "s"},
      {"setup.service_s", SetupMedian(setups, &SetupSample::service_s), "s"},
      {"trace.read_p50_overhead_us",
       Or0(traced.reads.MedianPercentile(0.5)) - read_p50_untraced, "us"},
      {"trace.op_p50_overhead_ms", op_p50_traced - op_p50_untraced, "ms"},
  };
}

/// The ISSUE-level report: each end-to-end figure under its workload
/// specific name (edit_p50_ms, edit_eps, fail_share, ...). A tail is
/// printed only when enough samples lie beyond it.
void PrintReport(const std::string& workload, const PhaseResult& phase) {
  auto line = [](const std::string& name, std::optional<double> value,
                 const char* unit, const std::string& why = "") {
    if (value.has_value()) {
      std::printf("report %-16s %14.4f %s\n", name.c_str(), *value, unit);
    } else {
      std::printf("report %-16s %14s %s (%s)\n", name.c_str(), "n/a", unit,
                  why.c_str());
    }
  };
  const std::string few = "fewer than 10 samples beyond it";
  line("read_qps", phase.reads.MedianRate(), "1/s");
  line("read_mean_us", phase.reads.MedianTrimmedMean(), "us");
  line("read_p50_us", phase.reads.MedianPercentile(0.5), "us");
  line("read_p90_us", phase.reads.MedianPercentile(0.9), "us", few);
  line("read_p99_us", phase.reads.MedianPercentile(0.99), "us", few);
  line("read_accuracy",
       Ratio(static_cast<double>(phase.accuracy_correct),
             static_cast<double>(phase.accuracy_checked)),
       "share");
  if (!ReadOnly(workload)) {
    line("edit_mean_ms", phase.edits.MedianTrimmedMean(), "ms");
    line("edit_p50_ms", phase.edits.MedianPercentile(0.5), "ms");
    line("edit_p90_ms", phase.edits.MedianPercentile(0.9), "ms", few);
    line("edit_p99_ms", phase.edits.Pooled().Percentile(0.99), "ms",
         few + " in the whole run");
    line("edit_eps",
         Ratio(static_cast<double>(phase.edits_applied),
               phase.edits.TotalSeconds()),
         "1/s");
    if (phase.late_ms.count() > 0) {
      line("generator_late_p50_ms", phase.late_ms.Median(), "ms");
      line("generator_late_max_ms", phase.late_ms.max(), "ms");
    }
  }
  line("fail_share", FailShare(workload, phase), "share");
  std::printf("report outcomes  reads=%llu read_errors=%llu edits=%llu",
              static_cast<unsigned long long>(phase.reads.count()),
              static_cast<unsigned long long>(phase.read_errors),
              static_cast<unsigned long long>(phase.edit_count()));
  for (const auto& [outcome, count] : phase.outcomes) {
    std::printf(" %s=%llu", OutcomeName(outcome),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
  if (!phase.first_error.empty()) {
    std::printf("report first_error %s\n", phase.first_error.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !KnownWorkload(config.workload)) {
    Usage("bad --workload");
  }
  if (!have_seed) Usage("bad --seed");
  if (!have_seconds) Usage("bad --seconds");
  if (!have_trace) Usage("bad --trace");
  if (config.workdir.empty()) Usage("missing --workdir");
  std::filesystem::create_directories(config.workdir);

  std::printf(
      "# onebench git=%s nproc=%ld cpu=\"%s\" calib_gemv96_gflops=%.4f\n",
      git_sha.c_str(), sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      CalibrationGflops(0.25));
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d client_threads=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, ClientThreads(config.workload));
  std::fflush(stdout);

  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  PhaseResult reported;
  if (!config.trace) {
    reported = RunPhase(config, "run", config.seconds, /*traced=*/false);
    metrics = EndToEnd(config.workload, reported, &errors);
  } else {
    // Half the window untraced, half traced: the difference of their
    // medians is the tracing overhead.
    const PhaseResult untraced =
        RunPhase(config, "untraced", config.seconds / 2, false);
    reported = RunPhase(config, "traced", config.seconds / 2, true);
    ReplayResult replay;
    if (!ReadOnly(config.workload)) {
      const size_t batch_size = static_cast<size_t>(std::lround(
          Ratio(static_cast<double>(reported.submitted),
                static_cast<double>(reported.batches))));
      replay = Replay(config, reported.requests, reported.cross_shard,
                      batch_size);
      errors.insert(errors.end(), replay.violations.begin(),
                    replay.violations.end());
    }
    errors.insert(errors.end(), untraced.violations.begin(),
                  untraced.violations.end());
    metrics = PerLayer(config.workload, untraced, reported, replay);
  }
  std::filesystem::remove_all(config.workdir);
  errors.insert(errors.end(), reported.violations.begin(),
                reported.violations.end());
  PrintReport(config.workload, reported);
  for (const std::string& error : errors) {
    std::fprintf(stderr, "onebench: CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = errors.empty();
  PrintJson(correct,
            static_cast<uint64_t>(OpCount(config.workload, reported)),
            static_cast<uint64_t>(OpFailures(config.workload, reported)),
            metrics);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace onebench

int main(int argc, char** argv) { return onebench::Main(argc, argv); }
