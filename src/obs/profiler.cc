#include "src/obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace renonfs {

CpuProfile CpuProfile::Capture(const CpuResource& cpu, SimTime now) {
  CpuProfile profile;
  for (size_t i = 0; i < kNumCostCategories; ++i) {
    profile.by_category[i] = cpu.category_accum(static_cast<CostCategory>(i));
    profile.busy += profile.by_category[i];
  }
  profile.elapsed = now;
  return profile;
}

CpuProfile CpuProfile::Delta(const CpuProfile& earlier) const {
  CpuProfile delta;
  for (size_t i = 0; i < kNumCostCategories; ++i) {
    delta.by_category[i] = by_category[i] - earlier.by_category[i];
  }
  delta.busy = busy - earlier.busy;
  delta.elapsed = elapsed - earlier.elapsed;
  return delta;
}

double CpuProfile::utilization() const {
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy) / static_cast<double>(elapsed);
}

double CpuProfile::BusyShare(CostCategory category) const {
  if (busy <= 0) {
    return 0.0;
  }
  return static_cast<double>(Time(category)) / static_cast<double>(busy);
}

double CpuProfile::BusyShare(std::initializer_list<CostCategory> categories) const {
  double share = 0.0;
  for (CostCategory category : categories) {
    share += BusyShare(category);
  }
  return share;
}

std::string CpuProfile::FlatTable(std::string_view title) const {
  std::vector<size_t> order(kNumCostCategories);
  for (size_t i = 0; i < kNumCostCategories; ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](size_t a, size_t b) { return by_category[a] > by_category[b]; });

  std::string out = "flat profile: ";
  out.append(title);
  out += "\n  %busy        ms  category\n";
  char line[128];
  for (size_t i : order) {
    if (by_category[i] == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %5.1f  %8.1f  %s\n", BusyShare(static_cast<CostCategory>(i)) * 100.0,
                  static_cast<double>(by_category[i]) / 1e6,
                  CostCategoryName(static_cast<CostCategory>(i)));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  busy %.1f ms of %.1f ms elapsed (%.1f%% utilization, idle %.1f ms)\n",
                static_cast<double>(busy) / 1e6, static_cast<double>(elapsed) / 1e6,
                utilization() * 100.0, static_cast<double>(idle()) / 1e6);
  out += line;
  return out;
}

}  // namespace renonfs
