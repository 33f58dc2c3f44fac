// Simulated kernel profiler.
//
// The paper's tuning work started from flat kernel CPU profiles: Section 3's
// headline is that more than a third of server CPU went to low-level network
// interface code, dominated by data copies and checksums. The simulator
// already charges every cost against a CpuResource; each charge carries a
// CostCategory (src/sim/cpu.h), and a CpuProfile snapshot turns those
// accumulators into the same kind of flat profile — percent of busy time per
// category, plus idle time — so experiments can assert *where* the CPU went,
// not just how busy it was.
#ifndef RENONFS_SRC_OBS_PROFILER_H_
#define RENONFS_SRC_OBS_PROFILER_H_

#include <array>
#include <initializer_list>
#include <string>
#include <string_view>

#include "src/sim/cpu.h"
#include "src/sim/time.h"

namespace renonfs {

struct CpuProfile {
  std::array<SimTime, kNumCostCategories> by_category{};
  SimTime busy = 0;     // sum of by_category, always
  SimTime elapsed = 0;  // simulated wall time covered by this profile

  // Snapshot of a CPU's accumulators since its creation.
  static CpuProfile Capture(const CpuResource& cpu, SimTime now);

  // Profile of the window between `earlier` and this snapshot.
  CpuProfile Delta(const CpuProfile& earlier) const;

  SimTime idle() const { return elapsed > busy ? elapsed - busy : 0; }
  double utilization() const;

  SimTime Time(CostCategory category) const {
    return by_category[static_cast<size_t>(category)];
  }
  // Fraction of *busy* time in the given category (0 when idle throughout).
  double BusyShare(CostCategory category) const;
  double BusyShare(std::initializer_list<CostCategory> categories) const;

  // The paper-style flat-profile table, categories sorted by descending time:
  //   flat profile: <title>
  //     %busy      ms  category
  //      41.2   123.4  checksum
  //      ...
  //   busy 299.9 ms of 400.0 ms elapsed (75.0% utilization)
  std::string FlatTable(std::string_view title) const;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_OBS_PROFILER_H_
