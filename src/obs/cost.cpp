#include "obs/cost.h"

#include <ctime>

namespace mintc::obs {

namespace {

thread_local CostAccount* t_account = nullptr;

}  // namespace

CostAccount* current_cost_account() { return t_account; }

CostScope::CostScope(CostAccount* account) : previous_(t_account) { t_account = account; }

CostScope::~CostScope() { t_account = previous_; }

std::int64_t thread_cpu_now_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1000;
#else
  return 0;
#endif
}

void charge_solve(std::int64_t relaxations, std::int64_t sweeps) {
  if (CostAccount* account = current_cost_account()) {
    account->add_solve(relaxations, sweeps);
  }
}

}  // namespace mintc::obs
