// CostAccount / ThreadCpuTimer / charge_solve: the per-request attribution
// primitives. The serve-layer round trip (account totals == EngineStats on
// the wire) lives in tests/serve/cost_attribution_test.cpp; here we pin the
// obs-level contracts: the thread's account scope and charging discipline.
#include "obs/cost.h"

#include <gtest/gtest.h>

namespace mintc::obs {
namespace {

TEST(CostAccount, StartsZeroAndAccumulates) {
  CostAccount account;
  EXPECT_EQ(account.cpu_us, 0);
  EXPECT_EQ(account.relaxations, 0);
  account.add_cpu_us(120);
  account.add_cpu_us(30);
  account.add_solve(1000, 4);
  account.add_solve(500, 2);
  EXPECT_EQ(account.cpu_us, 150);
  EXPECT_EQ(account.relaxations, 1500);
  EXPECT_EQ(account.sweeps, 6);
  EXPECT_EQ(account.solves, 2);
}

TEST(CostAccount, NegativeCpuDeltasAreDropped) {
  // A CLOCK_THREAD_CPUTIME_ID read can regress across CPU migration on some
  // kernels; the account must never go backwards because of it.
  CostAccount account;
  account.add_cpu_us(-5);
  EXPECT_EQ(account.cpu_us, 0);
}

TEST(CostAccount, CurrentAccountIsNullByDefault) {
  EXPECT_EQ(current_cost_account(), nullptr);
  charge_solve(100, 1);  // must be a safe no-op without an account
  EXPECT_EQ(current_cost_account(), nullptr);
}

TEST(CostAccount, CostScopeCarriesTheAccount) {
  CostAccount account;
  {
    const CostScope scope(&account);
    EXPECT_EQ(current_cost_account(), &account);
    charge_solve(42, 3);
    {
      // A nested scope without an account masks the outer one — exactly the
      // behavior a nested unattributed sub-request needs.
      const CostScope inner(nullptr);
      EXPECT_EQ(current_cost_account(), nullptr);
      charge_solve(1000, 1);  // charged nowhere
    }
    EXPECT_EQ(current_cost_account(), &account);
  }
  EXPECT_EQ(current_cost_account(), nullptr);
  EXPECT_EQ(account.relaxations, 42);
  EXPECT_EQ(account.sweeps, 3);
  EXPECT_EQ(account.solves, 1);
}

TEST(CostAccount, ThreadCpuTimerChargesBusyTime) {
  CostAccount account;
  {
    ThreadCpuTimer timer(&account);
    // Burn a visible amount of thread CPU (~a few ms).
    volatile double sink = 1.0;
    for (int i = 0; i < 4000000; ++i) sink = sink * 1.0000001 + 0.5;
  }
  EXPECT_GT(account.cpu_us, 0);
}

TEST(CostAccount, ThreadCpuTimerWithNullAccountIsANoOp) {
  ThreadCpuTimer timer(nullptr);  // must not crash or read the clock result
  SUCCEED();
}

TEST(CostAccount, ThreadCpuNowIsMonotonicOnThisThread) {
  const std::int64_t a = thread_cpu_now_us();
  volatile long sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  const std::int64_t b = thread_cpu_now_us();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace mintc::obs
