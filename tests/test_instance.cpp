// Unit tests for core/instance.hpp and core/realization.hpp.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "core/scan.hpp"

namespace rdp {
namespace {

TEST(Instance, BuildsFromTasks) {
  Instance inst({{2.0, 3.0}, {5.0, 1.0}}, 4, 1.5);
  EXPECT_EQ(inst.num_tasks(), 2u);
  EXPECT_EQ(inst.num_machines(), 4u);
  EXPECT_DOUBLE_EQ(inst.alpha(), 1.5);
  EXPECT_DOUBLE_EQ(inst.estimate(0), 2.0);
  EXPECT_DOUBLE_EQ(inst.size(1), 1.0);
}

TEST(Instance, BuildsFromEstimatesWithUnitSizes) {
  Instance inst = Instance::from_estimates({1.0, 2.0, 3.0}, 2, 2.0);
  EXPECT_EQ(inst.num_tasks(), 3u);
  for (TaskId j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(inst.size(j), 1.0);
}

TEST(Instance, RejectsZeroMachines) {
  EXPECT_THROW(Instance({{1.0, 1.0}}, 0, 1.5), std::invalid_argument);
}

TEST(Instance, RejectsAlphaBelowOne) {
  EXPECT_THROW(Instance({{1.0, 1.0}}, 2, 0.9), std::invalid_argument);
}

TEST(Instance, RejectsNonPositiveEstimate) {
  EXPECT_THROW(Instance({{0.0, 1.0}}, 2, 1.5), std::invalid_argument);
  EXPECT_THROW(Instance({{-1.0, 1.0}}, 2, 1.5), std::invalid_argument);
}

TEST(Instance, RejectsNegativeSize) {
  EXPECT_THROW(Instance({{1.0, -0.5}}, 2, 1.5), std::invalid_argument);
}

TEST(Instance, AllowsAlphaExactlyOne) {
  EXPECT_NO_THROW(Instance({{1.0, 1.0}}, 1, 1.0));
}

TEST(Instance, Aggregates) {
  Instance inst({{2.0, 3.0}, {5.0, 1.0}, {1.0, 8.0}}, 2, 1.2);
  EXPECT_DOUBLE_EQ(inst.total_estimate(), 8.0);
  EXPECT_DOUBLE_EQ(inst.max_estimate(), 5.0);
  EXPECT_DOUBLE_EQ(inst.total_size(), 12.0);
}

TEST(Instance, EstimatesAndSizesVectors) {
  Instance inst({{2.0, 3.0}, {5.0, 1.0}}, 2, 1.2);
  EXPECT_EQ(inst.estimates(), (std::vector<Time>{2.0, 5.0}));
  EXPECT_EQ(inst.sizes(), (std::vector<double>{3.0, 1.0}));
}

TEST(Instance, SummaryMentionsShape) {
  Instance inst = Instance::from_estimates({1.0}, 3, 2.0);
  const std::string s = inst.summary();
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("m=3"), std::string::npos);
}

TEST(Instance, EmptyInstanceHasZeroAggregates) {
  Instance inst({}, 2, 1.5);
  EXPECT_DOUBLE_EQ(inst.total_estimate(), 0.0);
  EXPECT_DOUBLE_EQ(inst.max_estimate(), 0.0);
}

TEST(Realization, ExactMatchesEstimates) {
  Instance inst = Instance::from_estimates({1.0, 2.0, 3.0}, 2, 2.0);
  const Realization r = exact_realization(inst);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 3.0);
  EXPECT_TRUE(respects_uncertainty(inst, r));
}

TEST(Realization, BandBoundariesAreLegal) {
  Instance inst = Instance::from_estimates({4.0}, 1, 2.0);
  EXPECT_TRUE(respects_uncertainty(inst, Realization{{8.0}}));   // alpha * est
  EXPECT_TRUE(respects_uncertainty(inst, Realization{{2.0}}));   // est / alpha
}

TEST(Realization, OutOfBandDetected) {
  Instance inst = Instance::from_estimates({4.0}, 1, 2.0);
  EXPECT_FALSE(respects_uncertainty(inst, Realization{{8.1}}));
  EXPECT_FALSE(respects_uncertainty(inst, Realization{{1.9}}));
}

TEST(Realization, SizeMismatchDetected) {
  Instance inst = Instance::from_estimates({4.0, 4.0}, 1, 2.0);
  EXPECT_FALSE(respects_uncertainty(inst, Realization{{4.0}}));
}

TEST(Realization, ClampPullsIntoBand) {
  Instance inst = Instance::from_estimates({4.0, 4.0}, 1, 2.0);
  const Realization r = clamp_to_band(inst, Realization{{100.0, 0.1}});
  EXPECT_DOUBLE_EQ(r[0], 8.0);
  EXPECT_DOUBLE_EQ(r[1], 2.0);
  EXPECT_TRUE(respects_uncertainty(inst, r));
}

TEST(Realization, TotalsAndMax) {
  const Realization r{{1.0, 5.0, 2.0}};
  EXPECT_DOUBLE_EQ(total_actual(r), 8.0);
  EXPECT_DOUBLE_EQ(max_scan(r.actual), 5.0);
}

}  // namespace
}  // namespace rdp
