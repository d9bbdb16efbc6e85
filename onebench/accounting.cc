#include "accounting.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>

namespace onebench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed * 0x100000001B3ULL + stream);
  return mix.Next();
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(SplitMix64& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double ZipfSampler::Probability(size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::vector<size_t> RankPermutation(size_t n, uint64_t world_seed) {
  std::vector<size_t> permutation(n);
  std::iota(permutation.begin(), permutation.end(), 0);
  SplitMix64 rng(world_seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(permutation[i - 1], permutation[rng.NextBelow(i)]);
  }
  return permutation;
}

std::vector<size_t> ZipfSlots(const ZipfSampler& zipf,
                              const std::vector<size_t>& permutation,
                              uint64_t seed, uint64_t stream, size_t length) {
  SplitMix64 rng(StreamSeed(seed, stream));
  std::vector<size_t> slots(length);
  for (size_t& slot : slots) slot = permutation[zipf.Sample(rng)];
  return slots;
}

std::vector<StreamOp> StreamOps(const std::vector<size_t>& cases,
                                uint64_t seed, uint64_t stream,
                                size_t length) {
  SplitMix64 rng(StreamSeed(seed, stream));
  std::map<size_t, bool> at_new;
  std::vector<StreamOp> ops(cases.empty() ? 0 : length);
  const uint64_t utterance_phase = rng.NextBelow(4);
  std::vector<size_t> round;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i % cases.size() == 0) {
      round = RankPermutation(cases.size(), rng.Next());
    }
    StreamOp& op = ops[i];
    op.case_index = cases[round[i % cases.size()]];
    bool& state = at_new[op.case_index];
    state = !state;
    op.to_new = state;
    op.utterance = i % 4 == utterance_phase;
    op.template_index = rng.NextBelow(1u << 16);
  }
  return ops;
}

std::vector<std::vector<size_t>> PartitionCases(
    const std::vector<std::vector<std::string>>& entities, size_t editors) {
  const size_t n = entities.size();
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::map<std::string, size_t> owner;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& entity : entities[i]) {
      auto [it, inserted] = owner.emplace(entity, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  std::map<size_t, std::vector<size_t>> by_root;
  for (size_t i = 0; i < n; ++i) by_root[find(i)].push_back(i);
  std::vector<std::vector<size_t>> groups;
  for (auto& [root, members] : by_root) groups.push_back(std::move(members));
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  std::vector<std::vector<size_t>> dealt(std::max<size_t>(editors, 1));
  for (const auto& group : groups) {
    auto lightest = std::min_element(
        dealt.begin(), dealt.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    lightest->insert(lightest->end(), group.begin(), group.end());
  }
  for (auto& cases : dealt) std::sort(cases.begin(), cases.end());
  return dealt;
}

namespace {

// Bucket 0 holds [0, kLowest]; bucket b >= 1 holds
// [kLowest·kGrowth^(b-1), kLowest·kGrowth^b), up to about 1e8.
constexpr double kLowest = 1e-4;
constexpr double kGrowth = 1.01;
constexpr size_t kBuckets = 2800;

double BucketLower(size_t bucket) {
  return bucket == 0 ? 0.0 : kLowest * std::pow(kGrowth, bucket - 1.0);
}

}  // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

void Histogram::Add(double value) {
  size_t bucket = 0;
  if (value > kLowest) {
    bucket = 1 + static_cast<size_t>(std::log(value / kLowest) /
                                     std::log(kGrowth));
    bucket = std::min(bucket, kBuckets - 1);
  }
  ++buckets_[bucket];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

std::optional<double> Histogram::Percentile(double q) const {
  const uint64_t n = count_;
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (q > 0.5 && n - rank < kMinTailSamples) return std::nullopt;
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t in = buckets_[b];
    if (below + in < rank) {
      below += in;
      continue;
    }
    // The rank's position inside the bucket, spread evenly over its width.
    const double fraction =
        (static_cast<double>(rank - below) - 0.5) / static_cast<double>(in);
    const double lower = BucketLower(b);
    const double upper = BucketLower(b + 1);
    return std::min(max_, lower + (upper - lower) * fraction);
  }
  return max_;
}

std::optional<double> MedianOf(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::optional<double> Histogram::TrimmedMean(double q_lo, double q_hi) const {
  if (count_ == 0 || !(q_lo < q_hi)) return std::nullopt;
  // Ranks are spread evenly over each bucket, as in Percentile: the ranks
  // (below, below + in] of bucket b cover its width from lower to upper.
  const double lo = q_lo * static_cast<double>(count_);
  const double hi = q_hi * static_cast<double>(count_);
  double below = 0.0, weight = 0.0, total = 0.0;
  for (size_t b = 0; b < kBuckets && below < hi; ++b) {
    const double in = static_cast<double>(buckets_[b]);
    const double start = std::max(lo, below);
    const double end = std::min(hi, below + in);
    if (end > start) {
      const double position = ((start + end) / 2.0 - below) / in;
      const double lower = BucketLower(b);
      const double upper = BucketLower(b + 1);
      total += std::min(max_, lower + (upper - lower) * position) *
               (end - start);
      weight += end - start;
    }
    below += in;
  }
  if (weight <= 0.0) return std::nullopt;
  return total / weight;
}

Windows Windows::Empty(size_t n) {
  Windows windows;
  windows.histograms.resize(n);
  windows.seconds.resize(n, 0.0);
  return windows;
}

void Windows::Append(const Windows& other) {
  histograms.insert(histograms.end(), other.histograms.begin(),
                    other.histograms.end());
  seconds.insert(seconds.end(), other.seconds.begin(), other.seconds.end());
}

void Windows::MergeSamples(const Windows& other) {
  for (size_t w = 0; w < histograms.size() && w < other.histograms.size();
       ++w) {
    histograms[w].Merge(other.histograms[w]);
  }
}

Histogram Windows::Pooled() const {
  Histogram pooled;
  for (const Histogram& histogram : histograms) pooled.Merge(histogram);
  return pooled;
}

uint64_t Windows::count() const {
  uint64_t total = 0;
  for (const Histogram& histogram : histograms) total += histogram.count();
  return total;
}

double Windows::TotalSeconds() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

std::optional<double> Windows::MedianPercentile(double q) const {
  std::vector<double> values;
  for (const Histogram& histogram : histograms) {
    const std::optional<double> value = histogram.Percentile(q);
    if (!value.has_value()) return std::nullopt;
    values.push_back(*value);
  }
  return MedianOf(std::move(values));
}

std::optional<double> Windows::MedianRate() const {
  std::vector<double> rates;
  for (size_t w = 0; w < histograms.size(); ++w) {
    if (seconds[w] > 0.0) rates.push_back(histograms[w].count() / seconds[w]);
  }
  return MedianOf(std::move(rates));
}

std::optional<double> Windows::MedianTrimmedMean() const {
  std::vector<double> values;
  for (const Histogram& histogram : histograms) {
    const std::optional<double> value =
        histogram.TrimmedMean(kTrim, 1.0 - kTrim);
    if (!value.has_value()) return std::nullopt;
    values.push_back(*value);
  }
  return MedianOf(std::move(values));
}

double Unattributed(double total, const std::vector<double>& parts) {
  return total - std::accumulate(parts.begin(), parts.end(), 0.0);
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kApplied: return "applied";
    case Outcome::kNoOp: return "no_op";
    case Outcome::kError: return "error";
    case Outcome::kRejected: return "rejected";
    case Outcome::kQuarantined: return "quarantined";
    case Outcome::kExtractionFailed: return "extraction_failed";
    case Outcome::kMisread: return "misread";
    case Outcome::kRywMiss: return "ryw_miss";
  }
  return "unknown";
}

bool IsFailure(Outcome outcome) {
  return outcome != Outcome::kApplied && outcome != Outcome::kNoOp;
}

Outcome ClassifyEdit(const oneedit::StatusOr<oneedit::EditResult>& result,
                     std::optional<bool> ryw_hit) {
  using Kind = oneedit::EditResult::Kind;
  if (!result.ok()) return Outcome::kError;
  switch (result->kind) {
    case Kind::kRejected: return Outcome::kRejected;
    case Kind::kQuarantined: return Outcome::kQuarantined;
    case Kind::kExtractionFailed: return Outcome::kExtractionFailed;
    case Kind::kGenerated: return Outcome::kMisread;
    case Kind::kEdited:
    case Kind::kErased:
    case Kind::kNoOp:
      if (ryw_hit.has_value() && !*ryw_hit) return Outcome::kRywMiss;
      return result->kind == Kind::kNoOp ? Outcome::kNoOp : Outcome::kApplied;
  }
  return Outcome::kError;
}

double CalibrationGflops(double seconds) {
  constexpr size_t kDim = 96;
  std::vector<float> w(kDim * kDim);
  std::vector<float> x(kDim, 1.0f);
  std::vector<float> y(kDim);
  SplitMix64 rng(96);
  for (float& v : w) v = static_cast<float>(rng.NextDouble() - 0.5) / kDim;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  uint64_t gemvs = 0;
  double elapsed = 0.0;
  float sink = 0.0f;
  do {
    for (int rep = 0; rep < 256; ++rep) {
      for (size_t r = 0; r < kDim; ++r) {
        float acc = 0.0f;
        const float* row = &w[r * kDim];
        for (size_t c = 0; c < kDim; ++c) acc += row[c] * x[c];
        y[r] = acc;
      }
      // Feed the output back (renormalized) so no iteration is dead code.
      float norm = 0.0f;
      for (float v : y) norm += v * v;
      const float scale = norm > 0.0f ? 1.0f / std::sqrt(norm) : 1.0f;
      for (size_t i = 0; i < kDim; ++i) x[i] = y[i] * scale + 1e-3f;
      sink += x[0];
    }
    gemvs += 256;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < seconds);
  if (sink == 12345.0f) x[1] = 0.0f;  // keep `sink` observable
  return 2.0 * kDim * kDim * static_cast<double>(gemvs) / elapsed / 1e9;
}

}  // namespace onebench
