// Sim-core microbenchmark: wall-clock events per second through the
// timing-wheel scheduler and the pooled allocators.
//
// Mixes:
//   schedule_fire    batches of one-shot events at short pseudo-random
//                    delays, drained with Run() — the datapath's dominant
//                    pattern (CPU charges, disk completions, net delivery).
//   schedule_cancel  same, but half the events are cancelled before they
//                    fire — dup-cache timers, abandoned retransmits.
//   timer_churn      a fixed population of Timers re-armed far more often
//                    than they expire — the retransmit/lease-renewal
//                    profile, and the acceptance mix: the wheel must beat
//                    the frozen legacy heap rate by >= 2x here.
//   mbuf_churn       mbuf chain build / zero-copy share / teardown — pure
//                    FixedPool recycling, no scheduler.
//
// Flags: --json FILE writes the measured numbers in BENCH_simcore.json form
// (regression floors = measured/8); --check exits 1 if timer_churn runs
// under 2x kLegacyHeapTimerChurnEps, if BENCH_simcore.json is missing or
// unreadable, or if any mix lands under the floor it records.
//
// Wall-clock timing deliberately uses std::chrono::steady_clock: this bench
// measures the simulator's own speed, not simulated behaviour, and nothing
// here feeds record/replay.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/sim/scheduler.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace renonfs;

namespace {

// The std::priority_queue scheduler's timer_churn rate from its last
// full-mode capture, frozen here when that backend was deleted (CHANGES.md,
// PR 14). The wheel's >= 2x gate compares against it.
constexpr double kLegacyHeapTimerChurnEps = 1'508'223;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// Batched one-shot events: schedule kBatch at delays in [1us, 1ms], drain,
// repeat. Batching keeps a realistic queue depth (~4k outstanding).
double RunScheduleFire(size_t total_events) {
  constexpr size_t kBatch = 4096;
  Scheduler scheduler;
  Rng rng(0x5eedc0de);
  uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  size_t remaining = total_events;
  while (remaining > 0) {
    const size_t batch = remaining < kBatch ? remaining : kBatch;
    for (size_t i = 0; i < batch; ++i) {
      const SimTime delay = Microseconds(1) + static_cast<SimTime>(rng.UniformUint64(99990));
      scheduler.Schedule(delay, [&fired]() { ++fired; });
    }
    scheduler.Run();
    remaining -= batch;
  }
  const auto stop = std::chrono::steady_clock::now();
  CHECK_EQ(fired, total_events);
  return static_cast<double>(total_events) / Seconds(start, stop);
}

// As above, but every second event is cancelled before the drain. Events/sec
// counts scheduled events (fired + cancelled).
double RunScheduleCancel(size_t total_events) {
  constexpr size_t kBatch = 4096;
  Scheduler scheduler;
  Rng rng(0xcafe);
  uint64_t fired = 0;
  std::vector<Scheduler::EventHandle> handles;
  handles.reserve(kBatch);
  const auto start = std::chrono::steady_clock::now();
  size_t remaining = total_events;
  while (remaining > 0) {
    const size_t batch = remaining < kBatch ? remaining : kBatch;
    handles.clear();
    for (size_t i = 0; i < batch; ++i) {
      const SimTime delay = Microseconds(1) + static_cast<SimTime>(rng.UniformUint64(99990));
      handles.push_back(scheduler.Schedule(delay, [&fired]() { ++fired; }));
    }
    for (size_t i = 0; i < handles.size(); i += 2) {
      scheduler.Cancel(handles[i]);
    }
    scheduler.Run();
    remaining -= batch;
  }
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(total_events) / Seconds(start, stop);
}

// The acceptance mix: a fixed population of retransmit-style timers with
// 10-60 ms timeouts, each re-armed every ~0.8 ms of simulated time — the
// paper's NFS retransmit profile, where the timer restarts on every reply
// and almost never expires (~99% of Starts cancel a still-pending event).
// The wheel unlinks the doubly-linked node and restamps it in place.
// Events/sec counts starts + fires.
double RunTimerChurn(size_t total_starts) {
  constexpr size_t kTimers = 2048;
  Scheduler scheduler;
  Rng rng(0x7133);
  uint64_t fires = 0;
  std::vector<std::unique_ptr<Timer>> timers;
  timers.reserve(kTimers);
  for (size_t i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(scheduler, [&fires]() { ++fires; }));
  }
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total_starts; ++i) {
    Timer& timer = *timers[i & (kTimers - 1)];
    timer.Start(Milliseconds(10) + Microseconds(static_cast<SimTime>(rng.UniformUint64(50000))));
    if ((i & 255) == 255) {
      scheduler.RunFor(Microseconds(100));
    }
  }
  scheduler.Run();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(total_starts + fires) / Seconds(start, stop);
}

// Pure allocator churn: build a ~5 KB chain (3 clusters), share a slice of
// it zero-copy into a second chain, tear both down. Ops/sec counts chains.
double RunMbufChurn(size_t total_chains) {
  std::vector<uint8_t> payload(5000, 0xab);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total_chains; ++i) {
    MbufChain chain = MbufChain::FromBytes(payload.data(), payload.size());
    MbufChain shared = chain.CopyRange(100, 4000);
    if (shared.Length() != 4000) {
      std::abort();
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(total_chains) / Seconds(start, stop);
}

struct MixResult {
  std::string name;
  double eps = 0;  // events/sec
};

// Pulls "floor_events_per_sec" for one mix out of the baseline JSON with a
// targeted string search — no JSON parser in tree, and the format is ours.
bool BaselineFloor(const std::string& json, const std::string& mix, double* floor) {
  const size_t mix_at = json.find("\"" + mix + "\"");
  if (mix_at == std::string::npos) {
    return false;
  }
  const size_t key_at = json.find("\"floor_events_per_sec\":", mix_at);
  if (key_at == std::string::npos) {
    return false;
  }
  *floor = std::atof(json.c_str() + key_at + std::strlen("\"floor_events_per_sec\":"));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_file = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check] [--json FILE]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<MixResult> results = {
      {"schedule_fire", RunScheduleFire(2'000'000)},
      {"schedule_cancel", RunScheduleCancel(2'000'000)},
      {"timer_churn", RunTimerChurn(1'000'000)},
      {"mbuf_churn", RunMbufChurn(200'000)},
  };
  const double timer_churn_speedup = results[2].eps / kLegacyHeapTimerChurnEps;  // timer_churn

  TextTable table("sim-core events/sec");
  table.SetHeader({"mix", "ev/s"});
  for (const MixResult& r : results) {
    table.AddRow({r.name, TextTable::Num(r.eps, 0)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("timer_churn vs the frozen legacy heap rate (%.0f ev/s): %.2fx\n",
              kLegacyHeapTimerChurnEps, timer_churn_speedup);

  if (!json_file.empty()) {
    std::ofstream out(json_file);
    out << "{\n  \"bench\": \"sim_core\",\n";
    out << "  \"mode\": \"full\",\n";
    out << "  \"mixes\": {\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const MixResult& r = results[i];
      out << "    \"" << r.name << "\": {\"events_per_sec\": " << static_cast<uint64_t>(r.eps)
          << ", \"floor_events_per_sec\": " << static_cast<uint64_t>(r.eps / 8) << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  },\n  \"acceptance\": {\"timer_churn_speedup_min\": 2.0}\n}\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", json_file.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_file.c_str());
  }

  if (check) {
    Check(timer_churn_speedup >= 2.0,
          "timer_churn: wheel must be >= 2x the frozen legacy heap rate");
    std::ifstream in("BENCH_simcore.json");
    if (!in) {
      Check(false, "BENCH_simcore.json is missing or unreadable; floors not checked");
    } else {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string json = buffer.str();
      for (const MixResult& r : results) {
        double floor = 0;
        if (!BaselineFloor(json, r.name, &floor)) {
          Check(false, "baseline is missing a floor for a mix");
          continue;
        }
        if (r.eps < floor) {
          std::fprintf(stderr, "CHECK FAILED: %s: %.0f ev/s under floor %.0f\n",
                       r.name.c_str(), r.eps, floor);
          ++g_failures;
        }
      }
    }
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_sim_core: %d check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}
