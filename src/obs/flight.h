// Time-series flight recorder.
//
// Final counters say *that* a soak went bad; the flight recorder says
// *when*. A FlightRecorder ticks on a fixed simulated-time cadence, reads
// every MetricsRegistry counter, and keeps the per-tick delta against the
// previous tick in a bounded ring — old frames are evicted, so a recorder
// can stay attached to an arbitrarily long run and still hold the recent
// window when something fails. Chaos/fault failure dumps include the
// timeline next to the profile, trace tail, and metrics they already print.
//
// A stored frame is a vector of deltas in the registry's counter name
// order; names are joined only when a frame is exported. A tick copies no
// string, sorts nothing and searches nothing, and once the ring is full it
// reuses the evicted frame's vector, so it allocates nothing. Because frames
// index the registry's name order, every counter must be registered before
// Start(): Tick() CHECKs that the count has not changed.
//
// The recorder is observation-only: its tick reads counters and writes its
// own ring, never simulation state, so enabling it does not change what the
// simulation does — only (trivially) how many scheduler events exist.
//
// Exports: JSONL (one frame per line, non-zero counter deltas only — the
// `nfsstat --timeline` artifact, validated by scripts/validate_trace.py
// --timeline) and a long-format CSV (at_ms,name,delta).
#ifndef RENONFS_SRC_OBS_FLIGHT_H_
#define RENONFS_SRC_OBS_FLIGHT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace renonfs {

struct FlightOptions {
  SimTime interval = Milliseconds(250);  // tick cadence (simulated time)
  size_t capacity = 240;                 // frames kept (ring)
};

class FlightRecorder {
 public:
  FlightRecorder(Scheduler& scheduler, const MetricsRegistry& registry,
                 FlightOptions options = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Arms the periodic tick; idempotent. Stop() cancels the pending shot.
  void Start();
  void Stop();

  // One frame: the counter deltas accumulated over the tick window ending
  // at `at`, in name order. delta.at holds the window length; frames carry
  // no diagnostics.
  struct Frame {
    SimTime at = 0;
    MetricsSnapshot delta;
  };

  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  uint64_t frames_captured() const { return captured_; }
  uint64_t frames_evicted() const { return captured_ - size(); }

  // Buffered frames, oldest first, built with their names on each call.
  std::vector<Frame> Frames() const;

  std::string ToJsonl() const;
  std::string ToCsv() const;
  // Last `n` frames, one compact human-readable line each (failure dumps).
  std::string Tail(size_t n) const;

 private:
  // deltas[i] belongs to the registry's i-th counter in name order.
  struct StoredFrame {
    SimTime at = 0;
    SimTime window = 0;
    std::vector<uint64_t> deltas;
  };

  void Tick();
  // The i-th buffered frame, oldest first.
  const StoredFrame& Stored(size_t i) const { return ring_[(next_ + i) % ring_.size()]; }

  Scheduler& scheduler_;
  const MetricsRegistry& registry_;
  FlightOptions options_;
  Timer timer_;
  bool running_ = false;
  SimTime last_at_ = 0;
  std::vector<uint64_t> last_;  // counter values at the previous tick
  std::vector<uint64_t> now_;   // this tick's values; swapped into last_
  std::vector<StoredFrame> ring_;
  size_t next_ = 0;  // ring write position once full
  uint64_t captured_ = 0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_OBS_FLIGHT_H_
