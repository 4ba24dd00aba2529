// Tests for the closed-form theorem bounds (Tables 1 & 2 formulas) and the
// structural properties the paper's Figure 3 / Figure 6 discussions rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/lpt.hpp"
#include "bounds/memaware_bounds.hpp"
#include "bounds/replication_bounds.hpp"

namespace rdp {
namespace {

constexpr double kTol = 1e-12;

TEST(Thm1LowerBound, ClosedFormValues) {
  // alpha=2, m=6: 4*6/(4+5) = 24/9.
  EXPECT_NEAR(thm1_no_replication_lower_bound(2.0, 6), 24.0 / 9.0, kTol);
  // alpha=1 (no uncertainty): 1*m/(1+m-1) = 1, the problem is offline.
  EXPECT_NEAR(thm1_no_replication_lower_bound(1.0, 10), 1.0, kTol);
}

TEST(Thm1LowerBound, ApproachesAlphaSquaredAsMGrows) {
  const double a = 1.7;
  double prev = 0;
  for (MachineId m : {2u, 8u, 64u, 1024u, 65536u}) {
    const double v = thm1_no_replication_lower_bound(a, m);
    EXPECT_GT(v, prev);  // increasing in m
    prev = v;
  }
  // Corollary of Theorem 1: the m -> infinity limit is alpha^2.
  EXPECT_NEAR(prev, a * a, 1e-3);
  EXPECT_LT(prev, a * a);
}

TEST(Thm2LptNoChoice, ClosedFormValues) {
  // alpha=2, m=6: 2*4*6/(8+5) = 48/13.
  EXPECT_NEAR(thm2_lpt_no_choice(2.0, 6), 48.0 / 13.0, kTol);
  EXPECT_NEAR(thm2_lpt_no_choice(1.0, 1), 1.0, kTol);
}

TEST(Thm2LptNoChoice, AlwaysAtLeastTheLowerBound) {
  for (double a : {1.0, 1.1, 1.5, 2.0, 3.0}) {
    for (MachineId m : {1u, 2u, 5u, 30u, 210u}) {
      EXPECT_GE(thm2_lpt_no_choice(a, m),
                thm1_no_replication_lower_bound(a, m) - kTol)
          << "alpha=" << a << " m=" << m;
    }
  }
}

TEST(Thm3LptNoRestriction, RawFormula) {
  // alpha=1.2, m=4: 1 + (3/4)*1.44/2 = 1.54, below Graham's 1.75.
  EXPECT_NEAR(thm3_lpt_no_restriction(1.2, 4), 1.54, kTol);
}

TEST(Thm3LptNoRestriction, CombinedTakesGrahamWhenAlphaLarge) {
  // alpha^2 > 2 => Graham 2-1/m is the better guarantee.
  const MachineId m = 8;
  EXPECT_NEAR(thm3_lpt_no_restriction(2.0, m), graham_list_scheduling(m), kTol);
  // alpha^2 < 2 => the paper's bound is better: 1 + (7/8)*1.21/2.
  EXPECT_NEAR(thm3_lpt_no_restriction(1.1, m), 1.0 + 7.0 / 8.0 * 1.21 / 2.0, kTol);
  EXPECT_LT(thm3_lpt_no_restriction(1.1, m), graham_list_scheduling(m));
}

TEST(Thm4LsGroup, EndpointsBehaveSensibly) {
  const double a = 1.5;
  const MachineId m = 12;
  // k = 1 (one group = replicate everywhere, dispatched by LS):
  // formula reduces to alpha^2*... with k=1: a2/(a2) * 1 + (m-1)/m = 1 + (m-1)/m.
  EXPECT_NEAR(thm4_ls_group(a, m, 1), 1.0 + (12.0 - 1.0) / 12.0, kTol);
  // k = m (singleton groups = no replication choice in phase 2).
  const double km = thm4_ls_group(a, m, m);
  EXPECT_GT(km, thm4_ls_group(a, m, 2));
}

TEST(Thm4LsGroup, RejectsBadK) {
  EXPECT_THROW((void)thm4_ls_group(1.5, 4, 0), std::invalid_argument);
  EXPECT_THROW((void)thm4_ls_group(1.5, 4, 5), std::invalid_argument);
}

TEST(GrahamBounds, Formulas) {
  EXPECT_NEAR(graham_list_scheduling(4), 1.75, kTol);
  EXPECT_NEAR(lpt_guarantee(4), 4.0 / 3.0 - 1.0 / 12.0, kTol);
}

TEST(ReplicationDegrees, DivisorsOf210) {
  const auto degrees = feasible_replication_degrees(210);
  EXPECT_EQ(degrees.size(), 16u);  // 210 = 2*3*5*7 has 16 divisors
  EXPECT_EQ(degrees.front(), 1u);
  EXPECT_EQ(degrees.back(), 210u);
}

TEST(RatioForReplication, MatchesEndpointTheorems) {
  const double a = 1.5;
  const MachineId m = 210;
  EXPECT_NEAR(ratio_for_replication_degree(a, m, 1), thm2_lpt_no_choice(a, m), kTol);
  EXPECT_NEAR(ratio_for_replication_degree(a, m, m), thm3_lpt_no_restriction(a, m),
              kTol);
  EXPECT_NEAR(ratio_for_replication_degree(a, m, 21), thm4_ls_group(a, m, 10), kTol);
  EXPECT_THROW((void)ratio_for_replication_degree(a, m, 4), std::invalid_argument);
}

// The paper's Figure 3 observations, checked as properties of the curves.
class Figure3Property : public ::testing::TestWithParam<double> {};

TEST_P(Figure3Property, FewReplicationsAlreadyImprove) {
  const double alpha = GetParam();
  const MachineId m = 210;
  // More replication never hurts the guarantee dramatically: the k-group
  // guarantee at the largest replication is at most the no-choice bound.
  const double no_choice = thm2_lpt_no_choice(alpha, m);
  const double everywhere = thm3_lpt_no_restriction(alpha, m);
  EXPECT_LE(everywhere, no_choice + kTol);
  // The paper's alpha=2 headline: LS-Group beats even the *lower bound* of
  // the no-replication model using < 50 replicas.
  if (alpha >= 2.0) {
    bool beaten = false;
    for (MachineId r : feasible_replication_degrees(m)) {
      if (r > 1 && r < 50 &&
          ratio_for_replication_degree(alpha, m, r) <
              thm1_no_replication_lower_bound(alpha, m)) {
        beaten = true;
        break;
      }
    }
    EXPECT_TRUE(beaten);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperAlphas, Figure3Property,
                         ::testing::Values(1.1, 1.5, 2.0));

TEST(Figure3, Alpha2QuickDropWithThreeReplicas) {
  // "from more than 7.5 with 1 replica to less than 6 with only 3".
  const MachineId m = 210;
  EXPECT_GT(ratio_for_replication_degree(2.0, m, 1), 7.5);
  EXPECT_LT(ratio_for_replication_degree(2.0, m, 3), 6.0);
}

TEST(CrossoverHelpers, GrahamCrossoverIsSqrtTwo) {
  // 1 + (m-1)/m * a^2/2 = 2 - 1/m  =>  a = sqrt(2), for every m. Just
  // below the crossover the paper's bound wins; just above, Graham.
  const double a = std::sqrt(2.0);
  for (MachineId m : {2u, 8u, 210u}) {
    EXPECT_LT(thm3_lpt_no_restriction(a - 0.01, m), graham_list_scheduling(m));
    EXPECT_DOUBLE_EQ(thm3_lpt_no_restriction(a + 0.01, m), graham_list_scheduling(m));
  }
}

TEST(CrossoverHelpers, MinReplicationBeatingLowerBound) {
  // The paper's alpha=2, m=210 headline: fewer than 50 replicas beat the
  // no-replication lower bound.
  const MachineId r = min_replication_beating_lower_bound(2.0, 210);
  ASSERT_NE(r, 0u);
  EXPECT_LT(r, 50u);
  EXPECT_LT(thm4_ls_group(2.0, 210, 210 / r),
            thm1_no_replication_lower_bound(2.0, 210));
  // And the degree just below r does NOT beat it (minimality).
  const auto degrees = feasible_replication_degrees(210);
  MachineId previous = 1;
  for (MachineId d : degrees) {
    if (d == r) break;
    previous = d;
  }
  if (previous > 1) {
    EXPECT_GE(thm4_ls_group(2.0, 210, 210 / previous),
              thm1_no_replication_lower_bound(2.0, 210));
  }
  // For tiny alpha no amount of grouping beats the (weak) lower bound
  // before full replication.
  EXPECT_EQ(min_replication_beating_lower_bound(1.01, 210), 0u);
}

TEST(MemAwareBounds, SboFormulas) {
  const BiObjectiveGuarantee g = sbo_guarantee(0.5, 4.0 / 3.0, 4.0 / 3.0);
  EXPECT_NEAR(g.makespan, 1.5 * 4.0 / 3.0, kTol);
  EXPECT_NEAR(g.memory, 3.0 * 4.0 / 3.0, kTol);
}

TEST(MemAwareBounds, SaboAddsAlphaSquared) {
  const double delta = 0.5, rho = 1.0, alpha = 2.0;
  const BiObjectiveGuarantee sabo = sabo_guarantee(delta, alpha, rho, rho);
  const BiObjectiveGuarantee sbo = sbo_guarantee(delta, rho, rho);
  EXPECT_NEAR(sabo.makespan, alpha * alpha * sbo.makespan, kTol);
  EXPECT_NEAR(sabo.memory, sbo.memory, kTol);  // memory unaffected by alpha
}

TEST(MemAwareBounds, AboFormulas) {
  // m=5, alpha^2=3, rho=1, delta=1: makespan 2-1/5+3 = 4.8; memory 1+5 = 6.
  const BiObjectiveGuarantee g = abo_guarantee(1.0, std::sqrt(3.0), 5, 1.0, 1.0);
  EXPECT_NEAR(g.makespan, 4.8, 1e-9);
  EXPECT_NEAR(g.memory, 6.0, kTol);
}

TEST(MemAwareBounds, InvalidParamsRejected) {
  EXPECT_THROW((void)sbo_guarantee(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)sbo_guarantee(1.0, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW((void)sabo_guarantee(1.0, 0.5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)abo_guarantee(1.0, 2.0, 0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)impossibility_memory_for_makespan(1.0), std::invalid_argument);
}

TEST(MemAwareBounds, ImpossibilityFrontierIsTheSboCurve) {
  // SBO with rho1=rho2=1 sits exactly on the frontier: for makespan 1+d
  // the minimum memory is 1+1/d.
  for (double delta : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const BiObjectiveGuarantee g = sbo_guarantee(delta, 1.0, 1.0);
    EXPECT_NEAR(impossibility_memory_for_makespan(g.makespan), g.memory, kTol);
  }
}

TEST(MemAwareBounds, GuaranteeCurveMonotoneTradeoff) {
  const auto curve = guarantee_curve(MemAwareAlgorithm::kSabo, 1.5, 5, 4.0 / 3.0,
                                     4.0 / 3.0, 0.1, 10.0, 25);
  ASSERT_EQ(curve.size(), 25u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    // Larger Delta: worse makespan, better memory.
    EXPECT_GT(curve[i].guarantee.makespan, curve[i - 1].guarantee.makespan);
    EXPECT_LT(curve[i].guarantee.memory, curve[i - 1].guarantee.memory);
  }
}

TEST(MemAwareBounds, AboBeatsSaboOnMakespanWhenAlphaRhoLarge) {
  // The paper: "For alpha*rho1 >= 2, ABO always has better guarantee on
  // makespan than SABO" -- checked over a Delta sweep.
  const double alpha = std::sqrt(3.0);
  const double rho = 4.0 / 3.0;  // alpha*rho ~ 2.31 >= 2
  const MachineId m = 5;
  // Compare the *best achievable* makespan: ABO's infimum (Delta -> 0) is
  // 2 - 1/m, below SABO's infimum alpha^2 rho1 whenever alpha^2 rho1 >= 2.
  EXPECT_LT(abo_guarantee(1e-6, alpha, m, rho, rho).makespan,
            sabo_guarantee(1e-6, alpha, rho, rho).makespan);
  // And for any memory target SABO can hit, compare makespans at matched
  // memory guarantees: solve each algorithm's Delta for that memory level.
  for (double mem_target : {4.0, 6.0, 10.0}) {
    // SABO: (1+1/d) rho2 = mem_target -> d = rho2/(mem_target - rho2).
    const double d_sabo = rho / (mem_target - rho);
    // ABO: (1+m/d) rho2 = mem_target -> d = m rho2/(mem_target - rho2).
    const double d_abo = static_cast<double>(m) * rho / (mem_target - rho);
    // Both parametrizations hit the same memory guarantee.
    EXPECT_NEAR(sabo_guarantee(d_sabo, alpha, rho, rho).memory, mem_target, 1e-9);
    EXPECT_NEAR(abo_guarantee(d_abo, alpha, m, rho, rho).memory, mem_target, 1e-9);
  }
}

}  // namespace
}  // namespace rdp
