// Unit tests for the benchmark's generators and accounting. Build and run
// with `python3 onebench/run.py --self-test`.

#include "accounting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace onebench {
namespace {

using oneedit::EditResult;
using oneedit::Status;
using oneedit::StatusOr;

TEST(GeneratorTest, SameSeedSameOpSequence) {
  const ZipfSampler zipf(966, 0.99);
  const std::vector<size_t> permutation = RankPermutation(966, 2024);
  EXPECT_EQ(ZipfSlots(zipf, permutation, 7, 0, 5000),
            ZipfSlots(zipf, permutation, 7, 0, 5000));
  EXPECT_NE(ZipfSlots(zipf, permutation, 7, 0, 5000),
            ZipfSlots(zipf, permutation, 8, 0, 5000));
  EXPECT_NE(ZipfSlots(zipf, permutation, 7, 0, 5000),
            ZipfSlots(zipf, permutation, 7, 1, 5000));

  const std::vector<size_t> cases = {1, 4, 9, 16};
  const auto a = StreamOps(cases, 3, 200, 400);
  const auto b = StreamOps(cases, 3, 200, 400);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].case_index, b[i].case_index);
    EXPECT_EQ(a[i].to_new, b[i].to_new);
    EXPECT_EQ(a[i].utterance, b[i].utterance);
    EXPECT_EQ(a[i].template_index, b[i].template_index);
  }
  const auto c = StreamOps(cases, 4, 200, 400);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    differs |= a[i].case_index != c[i].case_index;
  }
  EXPECT_TRUE(differs);
}

TEST(GeneratorTest, ZipfFrequenciesMatch) {
  const size_t n = 966;
  const ZipfSampler zipf(n, 0.99);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) total += zipf.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(9), std::pow(10.0, 0.99),
              1e-6);

  std::vector<size_t> counts(n, 0);
  SplitMix64 rng(11);
  const size_t draws = 400000;
  for (size_t i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  for (size_t rank : {0, 1, 2, 9, 99}) {
    const double expected = zipf.Probability(rank) * draws;
    // Five binomial standard deviations.
    const double tolerance = 5.0 * std::sqrt(expected);
    EXPECT_NEAR(static_cast<double>(counts[rank]), expected, tolerance)
        << "rank " << rank;
  }
}

TEST(GeneratorTest, StreamOpsFlipEachCaseInRounds) {
  const std::vector<size_t> cases = {2, 3, 5};
  const auto ops = StreamOps(cases, 1, 0, 999);
  std::vector<bool> at_new(6, false);
  std::vector<size_t> visits(6, 0);
  size_t utterances = 0;
  std::vector<size_t> utterance_phases(4, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const StreamOp& op = ops[i];
    ASSERT_TRUE(op.case_index == 2 || op.case_index == 3 || op.case_index == 5);
    EXPECT_NE(op.to_new, at_new[op.case_index]);
    at_new[op.case_index] = op.to_new;
    ++visits[op.case_index];
    utterances += op.utterance;
    if (op.utterance) ++utterance_phases[i % 4];
  }
  // Rounds visit every case equally; one op in four is an utterance.
  EXPECT_EQ(visits[2], 333u);
  EXPECT_EQ(visits[3], 333u);
  EXPECT_EQ(visits[5], 333u);
  EXPECT_NEAR(static_cast<double>(utterances), 999.0 / 4, 1.0);
  EXPECT_EQ(*std::max_element(utterance_phases.begin(), utterance_phases.end()),
            utterances);
}

TEST(GeneratorTest, PartitionKeepsSharedEntitiesTogether) {
  const std::vector<std::vector<std::string>> footprints = {
      {"a", "b"}, {"c", "d"}, {"b", "e"}, {"f", "g"}, {"g", "h"}, {"i", "j"}};
  const auto editors = PartitionCases(footprints, 2);
  ASSERT_EQ(editors.size(), 2u);
  auto editor_of = [&](size_t c) {
    for (size_t e = 0; e < editors.size(); ++e) {
      for (size_t member : editors[e]) {
        if (member == c) return e;
      }
    }
    return editors.size();
  };
  EXPECT_EQ(editor_of(0), editor_of(2));
  EXPECT_EQ(editor_of(3), editor_of(4));
  EXPECT_EQ(editors[0].size() + editors[1].size(), footprints.size());
}

Histogram Sequence(size_t n) {
  Histogram histogram;
  for (size_t i = 1; i <= n; ++i) histogram.Add(static_cast<double>(i));
  return histogram;
}

TEST(HistogramTest, TailNeedsTenSamplesBeyond) {
  // n = 1009: the p99 rank is 999, leaving exactly 10 samples beyond it.
  ASSERT_TRUE(Sequence(1009).Percentile(0.99).has_value());
  EXPECT_NEAR(*Sequence(1009).Percentile(0.99), 999.0, 999.0 * 0.01);
  EXPECT_TRUE(Sequence(1008).Percentile(0.99).has_value());   // rank 998
  EXPECT_TRUE(Sequence(1000).Percentile(0.99).has_value());   // rank 990
  EXPECT_FALSE(Sequence(999).Percentile(0.99).has_value());   // 9 beyond
  EXPECT_FALSE(Sequence(100).Percentile(0.99).has_value());
  EXPECT_TRUE(Sequence(100).Percentile(0.9).has_value());     // 10 beyond

  Histogram few;
  for (double v : {5.0, 1.0, 3.0}) few.Add(v);
  EXPECT_FALSE(few.Percentile(0.9).has_value());
  EXPECT_NEAR(*few.Median(), 3.0, 0.03);
  EXPECT_FALSE(Histogram().Median().has_value());
}

TEST(HistogramTest, NearestRankWithinOnePercent) {
  const Histogram histogram = Sequence(200);
  EXPECT_NEAR(*histogram.Percentile(0.5), 100.0, 1.0);
  EXPECT_NEAR(*histogram.Percentile(0.9), 180.0, 1.8);

  // Log-normal latencies: every reported percentile within 1% of the exact
  // nearest-rank value.
  SplitMix64 rng(5);
  std::vector<double> exact;
  Histogram sampled;
  for (int i = 0; i < 50000; ++i) {
    const double u = rng.NextDouble() + 1e-12;
    const double v = 60.0 * std::exp(0.5 * std::sqrt(-2.0 * std::log(u)));
    exact.push_back(v);
    sampled.Add(v);
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double truth = exact[static_cast<size_t>(std::ceil(q * 50000)) - 1];
    EXPECT_NEAR(*sampled.Percentile(q), truth, truth * 0.01) << q;
  }
}

TEST(HistogramTest, TrimmedMean) {
  EXPECT_NEAR(*Sequence(100).TrimmedMean(0.1, 0.9), 50.5, 0.5);
  EXPECT_NEAR(*Sequence(100).TrimmedMean(0.0, 1.0), 50.5, 0.5);
  EXPECT_FALSE(Histogram().TrimmedMean(0.1, 0.9).has_value());

  // A stall in the top tenth does not move it; the plain mean would be 54.5.
  Histogram stalls;
  for (int i = 0; i < 90; ++i) stalls.Add(5.0);
  for (int i = 0; i < 10; ++i) stalls.Add(500.0);
  EXPECT_NEAR(*stalls.TrimmedMean(0.1, 0.9), 5.0, 0.05);

  // Two modes: as the fast share goes from 30% to 55% the median jumps from
  // one mode to the other, the trimmed mean moves by a fraction of that.
  auto bimodal = [](int fast) {
    Histogram histogram;
    for (int i = 0; i < 100; ++i) histogram.Add(i < fast ? 41.0 : 51.0);
    return histogram;
  };
  const double median_move =
      *bimodal(30).Median() / *bimodal(55).Median() - 1.0;
  const double mean_move = *bimodal(30).TrimmedMean(0.1, 0.9) /
                               *bimodal(55).TrimmedMean(0.1, 0.9) -
                           1.0;
  EXPECT_GT(median_move, 0.2);
  EXPECT_LT(mean_move, 0.08);

  Windows windows = Windows::Empty(3);
  for (size_t w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) windows.histograms[w].Add(i * (w + 1.0));
  }
  EXPECT_NEAR(*windows.MedianTrimmedMean(), 101.0, 1.0);
}

TEST(HistogramTest, MergeEqualsOneRecord) {
  Histogram low, high;
  for (int i = 1; i <= 500; ++i) low.Add(i);
  for (int i = 501; i <= 1000; ++i) high.Add(i);
  low.Merge(high);
  const Histogram whole = Sequence(1000);
  EXPECT_EQ(low.count(), whole.count());
  EXPECT_DOUBLE_EQ(low.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(low.max(), 1000.0);
  EXPECT_DOUBLE_EQ(*low.Percentile(0.5), *whole.Percentile(0.5));
  EXPECT_DOUBLE_EQ(low.Mean(), 500.5);
}

TEST(WindowsTest, MediansOverWindows) {
  EXPECT_DOUBLE_EQ(*MedianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(*MedianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_FALSE(MedianOf({}).has_value());

  // Three 10 s windows; the middle one is a slow stall. The run reports the
  // typical window, not the stall.
  Windows windows = Windows::Empty(3);
  for (size_t w = 0; w < 3; ++w) {
    const double latency = w == 1 ? 50.0 : 5.0 + w;
    for (int i = 0; i < 100; ++i) windows.histograms[w].Add(latency);
    windows.seconds[w] = 10.0;
  }
  EXPECT_NEAR(*windows.MedianPercentile(0.5), 7.0, 0.07);
  EXPECT_DOUBLE_EQ(*windows.MedianRate(), 10.0);
  EXPECT_EQ(windows.count(), 300u);
  EXPECT_DOUBLE_EQ(windows.TotalSeconds(), 30.0);
  EXPECT_NEAR(*windows.Pooled().Median(), 7.0, 0.07);
  // A window too small for the tail makes the tail unreportable.
  windows.histograms[2] = Histogram();
  windows.histograms[2].Add(1.0);
  EXPECT_FALSE(windows.MedianPercentile(0.9).has_value());

  Windows burst = Windows::Empty(1);
  burst.histograms[0].Add(2.0);
  burst.seconds[0] = 4.0;
  windows.Append(burst);
  EXPECT_EQ(windows.histograms.size(), 4u);
  Windows more = Windows::Empty(4);
  more.histograms[3].Add(3.0);
  windows.MergeSamples(more);
  EXPECT_EQ(windows.histograms[3].count(), 2u);
}

TEST(AccountingTest, SelfTimeAndUnattributed) {
  EXPECT_DOUBLE_EQ(Unattributed(60.0, {2.0, 3.0, 50.0}), 5.0);
  EXPECT_DOUBLE_EQ(Unattributed(10.0, {}), 10.0);
  // Parts measured elsewhere may exceed the total: reported, not clamped.
  EXPECT_DOUBLE_EQ(Unattributed(4.0, {3.0, 2.0}), -1.0);
  // Self-time of a span: its duration minus its direct children.
  const double request = 12.5, wal = 4.0, apply = 6.0, publish = 0.5;
  EXPECT_DOUBLE_EQ(Unattributed(request, {wal, apply, publish}), 2.0);
}

StatusOr<EditResult> ResultOf(EditResult::Kind kind) {
  EditResult result;
  result.kind = kind;
  return result;
}

TEST(OutcomeTest, Classification) {
  using Kind = EditResult::Kind;
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kQuarantined), std::nullopt),
            Outcome::kQuarantined);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kEdited), false), Outcome::kRywMiss);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kRejected), std::nullopt),
            Outcome::kRejected);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kNoOp), std::nullopt), Outcome::kNoOp);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kNoOp), true), Outcome::kNoOp);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kEdited), true), Outcome::kApplied);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kExtractionFailed), std::nullopt),
            Outcome::kExtractionFailed);
  EXPECT_EQ(ClassifyEdit(ResultOf(Kind::kGenerated), std::nullopt),
            Outcome::kMisread);
  EXPECT_EQ(ClassifyEdit(Status::Internal("boom"), std::nullopt),
            Outcome::kError);

  EXPECT_TRUE(IsFailure(Outcome::kQuarantined));
  EXPECT_TRUE(IsFailure(Outcome::kRywMiss));
  EXPECT_TRUE(IsFailure(Outcome::kRejected));
  EXPECT_TRUE(IsFailure(Outcome::kExtractionFailed));
  EXPECT_TRUE(IsFailure(Outcome::kError));
  EXPECT_FALSE(IsFailure(Outcome::kNoOp));
  EXPECT_FALSE(IsFailure(Outcome::kApplied));
}

TEST(HostTest, CalibrationKernelRuns) {
  EXPECT_GT(CalibrationGflops(0.01), 0.0);
}

}  // namespace
}  // namespace onebench
