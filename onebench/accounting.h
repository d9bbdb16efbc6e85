// Generators and accounting for the repo benchmark: seeded op sequences,
// Zipf slot draws, a fixed-memory histogram whose percentiles follow a
// tail-sample rule, stage arithmetic, edit-outcome classification and the
// host calibration kernel.
//
// Everything here is a pure function of its arguments so that
// accounting_test.cc can pin it down without a live system.

#ifndef ONEBENCH_ACCOUNTING_H_
#define ONEBENCH_ACCOUNTING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/oneedit.h"
#include "util/statusor.h"

namespace onebench {

/// SplitMix64 — the benchmark's own generator, so op sequences do not move
/// when the system's RNG changes.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n must be > 0.
  uint64_t NextBelow(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Independent stream `stream` of run seed `seed` (one per client thread,
/// per burst, ...).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Discrete Zipf(s) over ranks [0, n): P(rank k) ∝ 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(SplitMix64& rng) const;
  double Probability(size_t rank) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Fixed rank -> slot permutation of [0, n) derived from `world_seed`: which
/// facts are hot is part of the world, not of the run seed.
std::vector<size_t> RankPermutation(size_t n, uint64_t world_seed);

/// `length` slot indices for one read client: Zipf ranks drawn from stream
/// (`seed`, `stream`) mapped through `permutation`.
std::vector<size_t> ZipfSlots(const ZipfSampler& zipf,
                              const std::vector<size_t>& permutation,
                              uint64_t seed, uint64_t stream, size_t length);

/// One edit of the edit_stream workload: flip case `case_index` to its
/// counterfactual object (`to_new`) or back to the original, as a triple
/// request or as an utterance built from template `template_index`.
struct StreamOp {
  size_t case_index = 0;
  bool to_new = true;
  bool utterance = false;
  size_t template_index = 0;
};

/// `length` ops for one editor owning `cases`. The ops walk the cases in
/// rounds, each round a fresh seeded permutation, so every case gets the
/// same share of a run whatever the seed. Each op flips its case relative to
/// the previous op on it (all cases start at their original object). Every
/// fourth op, from a seeded phase, is an utterance.
std::vector<StreamOp> StreamOps(const std::vector<size_t>& cases,
                                uint64_t seed, uint64_t stream, size_t length);

/// Groups `n` cases so that two cases sharing any entity of `entities[i]`
/// land in the same group, then deals the groups to `editors` editors,
/// largest group first to the editor with the fewest cases. Deterministic.
std::vector<std::vector<size_t>> PartitionCases(
    const std::vector<std::vector<std::string>>& entities, size_t editors);

// --- Reporting ---------------------------------------------------------------

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
inline constexpr size_t kMinTailSamples = 10;

/// Share of samples a trimmed mean drops at each end. Read latency here is
/// bimodal (about 30% of reads near 41 us, the rest near 51 us on the
/// baseline host, and the mix moves from run to run), so a median jumps
/// between the modes; a 10%-trimmed mean moves smoothly with the mix and
/// still ignores the stalls in the top tenth.
inline constexpr double kTrim = 0.1;

/// Fixed-memory record of non-negative values (latencies, set-up times) in
/// log-spaced buckets 1% wide. Its size does not grow with the number of
/// samples, so the benchmark's own footprint stays out of peak_rss_mb
/// whatever throughput it measures. Percentiles interpolate linearly within
/// a bucket: at most 1% relative error.
class Histogram {
 public:
  Histogram();

  void Add(double value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// Nearest-rank percentile, q in (0, 1]. A tail percentile (q > 0.5) is
  /// reported only when at least kMinTailSamples samples lie beyond it;
  /// otherwise, and for an empty record, nullopt.
  std::optional<double> Percentile(double q) const;
  std::optional<double> Median() const { return Percentile(0.5); }

  /// Mean of the samples ranked between the q_lo and q_hi quantiles, with
  /// the same within-bucket spread as Percentile; nullopt when empty.
  std::optional<double> TrimmedMean(double q_lo, double q_hi) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Median of `values`: the middle one, or the mean of the middle two;
/// nullopt when empty.
std::optional<double> MedianOf(std::vector<double> values);

/// One kind of sample split into consecutive windows of a run (fixed time
/// slices, or one window per burst). The JSON figures are medians over
/// windows, so a few seconds of host contention move one window instead of
/// the whole run's figure.
struct Windows {
  std::vector<Histogram> histograms;
  std::vector<double> seconds;  // each window's length

  /// `n` empty windows (lengths filled in later).
  static Windows Empty(size_t n);
  /// Appends `other`'s windows after this one's.
  void Append(const Windows& other);
  /// Adds `other`'s samples window by window (same window count).
  void MergeSamples(const Windows& other);

  Histogram Pooled() const;
  uint64_t count() const;
  double TotalSeconds() const;
  /// Median over windows of each window's q-percentile; nullopt when some
  /// window cannot report it (see Histogram::Percentile) or there is none.
  std::optional<double> MedianPercentile(double q) const;
  /// Median over windows of samples per second.
  std::optional<double> MedianRate() const;
  /// Median over windows of each window's kTrim-trimmed mean.
  std::optional<double> MedianTrimmedMean() const;
};

/// Time no named part claims: total − Σ parts. Self-time of a span is the
/// same arithmetic with its direct children as the parts. May be negative
/// when the parts were measured on a different run than the total.
double Unattributed(double total, const std::vector<double>& parts);

// --- Outcomes ----------------------------------------------------------------

enum class Outcome {
  kApplied,           ///< edited (or erased) and, when checked, read back
  kNoOp,              ///< already present — a success
  kError,             ///< non-OK status
  kRejected,          ///< guard, quota, degraded or 2PC refusal
  kQuarantined,       ///< rolled back by the self-healer
  kExtractionFailed,  ///< utterance with no extractable triple
  kMisread,           ///< edit utterance interpreted as a generate intent
  kRywMiss,           ///< acknowledged, but the subject's shard reads otherwise
};

const char* OutcomeName(Outcome outcome);

bool IsFailure(Outcome outcome);

/// Classifies one acknowledged edit. `ryw_hit` is the read-your-writes
/// verdict when one was taken (only for applied / no-op results).
Outcome ClassifyEdit(const oneedit::StatusOr<oneedit::EditResult>& result,
                     std::optional<bool> ryw_hit);

// --- Host --------------------------------------------------------------------

/// Fixed calibration kernel: repeated 96×96 GEMV for about `seconds`;
/// returns GFLOP/s. Lets runs from different hosts be told apart.
double CalibrationGflops(double seconds);

}  // namespace onebench

#endif  // ONEBENCH_ACCOUNTING_H_
