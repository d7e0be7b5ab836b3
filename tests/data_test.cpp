// Tests for the synthetic dataset substrate: canvas primitives, dataset
// shape/determinism, class balance and separability (the property the SNN
// experiments depend on).

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "data/canvas.hpp"
#include "data/dataset.hpp"

namespace sparkxd::data {
namespace {

/// Per-class mean images (centroids), the reference the separability
/// checks measure distances against.
std::vector<std::vector<float>> class_centroids(const Dataset& ds) {
  std::vector<std::vector<float>> centroids(
      ds.num_classes, std::vector<float>(ds.pixels(), 0.0f));
  std::vector<std::size_t> counts(ds.num_classes, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto& c = centroids[ds.labels[i]];
    for (std::size_t p = 0; p < ds.pixels(); ++p) c[p] += ds.images[i][p];
    ++counts[ds.labels[i]];
  }
  for (std::size_t k = 0; k < ds.num_classes; ++k)
    if (counts[k] > 0)
      for (float& v : centroids[k]) v /= static_cast<float>(counts[k]);
  return centroids;
}

double pixel_sum(const std::vector<float>& img) {
  double s = 0.0;
  for (const float p : img) s += p;
  return s;
}

// -------------------------------------------------------------------- canvas

TEST(Canvas, StartsBlack) {
  Canvas c(28, 28);
  EXPECT_EQ(pixel_sum(c.pixels()), 0.0);
}

TEST(Canvas, StrokePaintsAlongSegment) {
  Canvas c(28, 28);
  c.stroke(0.2, 0.5, 0.8, 0.5, 2.0);
  const auto& px = c.pixels();
  // The midpoint of the stroke is bright, far corners are black.
  EXPECT_GT(px[14 * 28 + 14], 0.5f);
  EXPECT_EQ(px[0], 0.0f);
  EXPECT_EQ(px[27 * 28 + 27], 0.0f);
}

TEST(Canvas, StrokeRespectsThickness) {
  Canvas thin(28, 28), thick(28, 28);
  thin.stroke(0.1, 0.5, 0.9, 0.5, 1.0);
  thick.stroke(0.1, 0.5, 0.9, 0.5, 4.0);
  EXPECT_GT(pixel_sum(thick.pixels()), 2.0 * pixel_sum(thin.pixels()));
}

TEST(Canvas, EllipseOutlineHasHollowCentre) {
  Canvas c(28, 28);
  c.ellipse(0.5, 0.5, 0.3, 0.3, 2.0);
  const auto& px = c.pixels();
  EXPECT_EQ(px[14 * 28 + 14], 0.0f);  // centre is empty
  // A point on the ring (r = 0.3 of 28 ~ 8.4 px from centre) is bright.
  EXPECT_GT(px[14 * 28 + 22], 0.4f);
}

TEST(Canvas, FillEllipseCoversCentre) {
  Canvas c(28, 28);
  c.fill_ellipse(0.5, 0.5, 0.3, 0.3);
  EXPECT_GT(c.pixels()[14 * 28 + 14], 0.9f);
}

TEST(Canvas, FillRectCorners) {
  Canvas c(28, 28);
  c.fill_rect(0.25, 0.25, 0.75, 0.75);
  const auto& px = c.pixels();
  EXPECT_GT(px[14 * 28 + 14], 0.9f);
  EXPECT_EQ(px[0], 0.0f);
}

TEST(Canvas, BlurPreservesMassApproximately) {
  Canvas c(28, 28);
  c.fill_rect(0.3, 0.3, 0.7, 0.7);
  const double before = pixel_sum(c.pixels());
  c.blur(2);
  const double after = pixel_sum(c.pixels());
  // Mass only leaks at the border, which the shape does not touch.
  EXPECT_NEAR(after, before, before * 0.02);
}

TEST(Canvas, BlurSpreadsEdges) {
  Canvas c(28, 28);
  c.fill_rect(0.4, 0.4, 0.6, 0.6);
  const float edge_before = c.pixels()[14 * 28 + 9];
  c.blur(3);
  EXPECT_GT(c.pixels()[14 * 28 + 9], edge_before);
}

TEST(Canvas, AffineIdentityIsNoOp) {
  Canvas c(28, 28);
  c.fill_ellipse(0.5, 0.5, 0.2, 0.2);
  const auto before = c.pixels();
  c.affine(0.0, 1.0, 0.0, 0.0);
  const auto& after = c.pixels();
  double max_diff = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(before[i]) - after[i]));
  EXPECT_LT(max_diff, 1e-4);
}

TEST(Canvas, AffineTranslationMovesMass) {
  Canvas c(28, 28);
  c.fill_ellipse(0.5, 0.5, 0.15, 0.15);
  c.affine(0.0, 1.0, 6.0, 0.0);
  const auto& px = c.pixels();
  EXPECT_GT(px[14 * 28 + 20], 0.8f);  // moved right
  EXPECT_LT(px[14 * 28 + 8], 0.2f);   // vacated
}

TEST(Canvas, TakeClearsBuffer) {
  Canvas c(8, 8);
  c.fill_rect(0.0, 0.0, 1.0, 1.0);
  const auto img = c.take();
  EXPECT_GT(pixel_sum(img), 0.0);
  EXPECT_EQ(pixel_sum(c.pixels()), 0.0);
}

TEST(Canvas, RejectsEmptyDimensions) {
  EXPECT_THROW(Canvas(0, 5), ContractViolation);
}

// ------------------------------------------------------------------- dataset

class DatasetShape : public ::testing::TestWithParam<Task> {};

TEST_P(DatasetShape, DimensionsAndRanges) {
  const auto ds = make_dataset(GetParam(), 100, 1);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.width, 28u);
  EXPECT_EQ(ds.height, 28u);
  EXPECT_EQ(ds.num_classes, 10u);
  for (const auto& img : ds.images) {
    ASSERT_EQ(img.size(), 784u);
    for (const float p : img) {
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
    }
  }
  for (const auto l : ds.labels) EXPECT_LT(l, 10);
}

TEST_P(DatasetShape, BalancedLabels) {
  const auto ds = make_dataset(GetParam(), 200, 2);
  std::vector<int> counts(10, 0);
  for (const auto l : ds.labels) ++counts[l];
  for (const int c : counts) EXPECT_EQ(c, 20);
}

TEST_P(DatasetShape, DeterministicInSeed) {
  const auto a = make_dataset(GetParam(), 20, 7);
  const auto b = make_dataset(GetParam(), 20, 7);
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.images[i], b.images[i]);
}

TEST_P(DatasetShape, DifferentSeedsDiffer) {
  const auto a = make_dataset(GetParam(), 20, 7);
  const auto b = make_dataset(GetParam(), 20, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
    any_diff = a.images[i] != b.images[i];
  EXPECT_TRUE(any_diff);
}

TEST_P(DatasetShape, SamplesHaveInk) {
  const auto ds = make_dataset(GetParam(), 50, 3);
  for (const auto& img : ds.images) {
    EXPECT_GT(pixel_sum(img), 5.0) << "image is nearly blank";
    EXPECT_LT(pixel_sum(img), 500.0) << "image is nearly full";
  }
}

TEST_P(DatasetShape, IntraClassVariation) {
  // Two samples of the same class must not be identical (jitter + noise).
  const auto ds = make_dataset(GetParam(), 40, 5);
  for (std::size_t i = 0; i < ds.size(); ++i)
    for (std::size_t j = i + 1; j < ds.size(); ++j)
      if (ds.labels[i] == ds.labels[j]) {
        EXPECT_NE(ds.images[i], ds.images[j]);
      }
}

INSTANTIATE_TEST_SUITE_P(Tasks, DatasetShape,
                         ::testing::Values(Task::kDigits, Task::kFashion),
                         [](const auto& info) {
                           return info.param == Task::kDigits ? "Digits"
                                                              : "Fashion";
                         });

TEST(Dataset, TakeDropPartition) {
  const auto ds = make_dataset(Task::kDigits, 30, 4);
  const auto head = ds.take(20);
  const auto tail = ds.drop(20);
  EXPECT_EQ(head.size(), 20u);
  EXPECT_EQ(tail.size(), 10u);
  EXPECT_EQ(head.images[0], ds.images[0]);
  EXPECT_EQ(tail.images[0], ds.images[20]);
  EXPECT_THROW(ds.take(31), ContractViolation);
  EXPECT_THROW(ds.drop(31), ContractViolation);
}

TEST(Dataset, CentroidSeparability) {
  // Class centroids must be more distant across classes than the average
  // within-class spread — the minimal condition for learnability.
  const auto ds = make_dataset(Task::kDigits, 400, 6);
  const auto centroids = class_centroids(ds);
  ASSERT_EQ(centroids.size(), 10u);
  const auto dist = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      d += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(d);
  };
  double min_between = 1e18;
  for (std::size_t a = 0; a < 10; ++a)
    for (std::size_t b = a + 1; b < 10; ++b)
      min_between = std::min(min_between, dist(centroids[a], centroids[b]));
  // Average distance of samples to their own centroid.
  double within = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i)
    within += dist(ds.images[i], centroids[ds.labels[i]]);
  within /= static_cast<double>(ds.size());
  EXPECT_GT(min_between, 0.3 * within)
      << "classes overlap too much to be learnable";
}

TEST(Dataset, FashionHarderThanDigits) {
  // The Fashion task is constructed to have more confusable classes:
  // its minimum between-centroid distance is smaller relative to digits.
  const auto dig = make_dataset(Task::kDigits, 400, 6);
  const auto fash = make_dataset(Task::kFashion, 400, 6);
  const auto min_between = [](const Dataset& ds) {
    const auto cs = class_centroids(ds);
    double m = 1e18;
    for (std::size_t a = 0; a < cs.size(); ++a)
      for (std::size_t b = a + 1; b < cs.size(); ++b) {
        double d = 0.0;
        for (std::size_t i = 0; i < cs[a].size(); ++i)
          d += (cs[a][i] - cs[b][i]) * (cs[a][i] - cs[b][i]);
        m = std::min(m, std::sqrt(d));
      }
    return m;
  };
  EXPECT_LT(min_between(fash), min_between(dig));
}

TEST(Dataset, TaskNames) {
  EXPECT_STREQ(to_string(Task::kDigits), "SynthDigits");
  EXPECT_STREQ(to_string(Task::kFashion), "SynthFashion");
}

}  // namespace
}  // namespace sparkxd::data
