#include "src/balsa/timeout_policy.h"

#include <gtest/gtest.h>

namespace balsa {
namespace {

TEST(TimeoutPolicyTest, NoTimeoutBeforeFirstIteration) {
  TimeoutPolicy policy;
  EXPECT_LE(policy.CurrentTimeoutMs(), 0);  // iteration 0 runs untimed
}

TEST(TimeoutPolicyTest, SlackAppliedAfterFirstObservation) {
  TimeoutPolicy policy;
  policy.ObserveIteration(1000);
  EXPECT_DOUBLE_EQ(policy.CurrentTimeoutMs(), 2000);
}

TEST(TimeoutPolicyTest, TimeoutTightensMonotonically) {
  TimeoutPolicy policy;
  policy.ObserveIteration(1000);
  policy.ObserveIteration(400);  // better iteration -> tighten
  EXPECT_DOUBLE_EQ(policy.CurrentTimeoutMs(), 800);
  policy.ObserveIteration(900);  // worse iteration -> keep
  EXPECT_DOUBLE_EQ(policy.CurrentTimeoutMs(), 800);
}

TEST(TimeoutPolicyTest, DisabledNeverTimesOut) {
  TimeoutPolicy::Options options;
  options.enabled = false;
  TimeoutPolicy policy(options);
  policy.ObserveIteration(1000);
  EXPECT_LE(policy.CurrentTimeoutMs(), 0);
}

TEST(TimeoutPolicyTest, RelabelValueIsPaperDefault) {
  EXPECT_DOUBLE_EQ(TimeoutPolicy::kRelabelMs, 4096.0 * 1000.0);
}

TEST(TimeoutPolicyTest, IgnoresNonPositiveObservations) {
  TimeoutPolicy policy;
  policy.ObserveIteration(0);
  EXPECT_LE(policy.CurrentTimeoutMs(), 0);
  policy.ObserveIteration(-5);
  EXPECT_LE(policy.CurrentTimeoutMs(), 0);
}

}  // namespace
}  // namespace balsa
