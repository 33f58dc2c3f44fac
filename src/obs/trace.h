// Per-RPC trace spans.
//
// A Tracer records timestamped, xid-keyed events from every layer an RPC
// crosses: client send and each retransmit, medium traversal, server
// receive, dup-cache hits, nfsd-slot waits, disk-queue enter/leave, write
// gathering, reply, client completion. Storage is a fixed-size ring — old
// events are overwritten, so a tracer can stay attached to a long chaos soak
// and still hold the window that matters when something fails.
//
// Exports: Chrome-trace JSON (load in chrome://tracing or Perfetto; client
// call spans and server dispatch spans are synthesized from matching
// send/complete and receive/reply pairs per xid), JSONL (one event per
// line), and a human-readable Tail() for failure dumps.
#ifndef RENONFS_SRC_OBS_TRACE_H_
#define RENONFS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace renonfs {

enum class TraceEventKind : uint8_t {
  kClientSend = 0,    // first transmission of a call (arg: proc class)
  kClientRetransmit,  // retransmit / TCP re-issue (arg: tries so far)
  kClientTimeout,     // soft-mount expiry, call resolved with an error
  kClientComplete,    // reply (or error) delivered to the caller (arg: 1=ok)
  kMediumTraverse,    // frame handed to a medium (arg: wire bytes)
  kServerReceive,     // request decoded on the server
  kDupCacheHit,       // arg: 0 = completed-entry replay, 1 = in-progress drop
  kNfsdSlotWait,      // all nfsd slots busy; request queued (arg: total waits)
  kDiskQueueEnter,    // disk op issued (arg: bytes)
  kDiskQueueLeave,    // disk op completed (arg: bytes)
  kGatherJoin,        // WRITE joined an open gather batch (arg: batch size)
  kGatherLead,        // WRITE became a gather leader / solo commit
  kServerReply,       // reply handed to the transport (arg: reply bytes)
  kLeaseGrant,        // lease granted or renewed (arg: lease kind)
  kLeaseDeny,         // lease denied — conflict or grace period (arg: kind)
  kLeaseRecall,       // recall datagram sent to a holder (arg: recall serial)
  kLeaseVacate,       // holder vacated, voluntarily or on recall (arg: serial)
  kLeaseExpire,       // lease aged out / holder evicted at deadline (arg: kind)
  kClientCallStart,   // call entered the transport, before any transmission —
                      // the gap to kClientSend is cwnd/send-queue wait
  kNfsdSlotGrant,     // slot acquired after a recorded kNfsdSlotWait
  kDiskQueueWait,     // queue delay ahead of the next disk op (arg: wait ns);
                      // recorded immediately before its kDiskQueueEnter
};
const char* TraceEventKindName(TraceEventKind kind);

// `s` as the body of a JSON string literal: quotes and backslashes escaped,
// control characters as \u00XX. The trace and timeline exports and the
// scenario-matrix capture escape names with it, so an odd name cannot
// produce malformed JSON.
std::string JsonEscape(const std::string& s);

struct TraceEvent {
  SimTime at = 0;
  uint64_t seq = 0;  // global record order (survives same-timestamp events)
  uint64_t arg = 0;
  uint32_t xid = 0;  // 0 when the event is not tied to one RPC
  uint32_t proc = 0;
  uint16_t track = 0;
  TraceEventKind kind = TraceEventKind::kClientSend;
};

// Observer fed from Tracer::Record before ring eviction can lose the event.
// This is how the span collector (src/obs/span.h) sees the full causal
// stream regardless of ring capacity. Implementations must be passive:
// no scheduling, no state the simulation reads back — observation only.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void OnTraceEvent(const TraceEvent& event) = 0;
  // Per-op CPU annotation: `cost` is the *scaled* cost charged against the
  // server CPU on behalf of `xid`, bucketed by CostCategory ordinal.
  virtual void OnCpuCharge(uint32_t xid, uint8_t category, SimTime cost) = 0;
};

class Tracer {
 public:
  explicit Tracer(Scheduler& scheduler, size_t capacity = 16384);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Tracks are display lanes ("client0.rpc", "server.rpc", "net.lan", ...).
  uint16_t RegisterTrack(std::string name);

  void Record(uint16_t track, TraceEventKind kind, uint32_t xid, uint32_t proc,
              uint64_t arg = 0);

  // Pretty proc numbers in exports (e.g. NfsProcName); optional.
  void set_proc_namer(const char* (*namer)(uint32_t)) { proc_namer_ = namer; }

  // At most one sink; every recorded event is forwarded to it synchronously.
  void set_sink(SpanSink* sink) { sink_ = sink; }
  SpanSink* sink() const { return sink_; }

  size_t capacity() const { return capacity_; }
  size_t size() const;
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return recorded_ - size(); }

  // Buffered events, oldest first.
  std::vector<TraceEvent> Events() const;

  std::string ToChromeJson() const;
  std::string ToJsonl() const;
  // Last `n` events, one human-readable line each (for failure dumps).
  std::string Tail(size_t n) const;

 private:
  // The i-th buffered event, oldest first.
  const TraceEvent& Event(size_t i) const { return ring_[(next_ + i) % ring_.size()]; }
  std::string ProcName(uint32_t proc) const;

  Scheduler& scheduler_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;  // ring write position once full
  uint64_t recorded_ = 0;
  std::vector<std::string> tracks_;
  const char* (*proc_namer_)(uint32_t) = nullptr;
  SpanSink* sink_ = nullptr;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_OBS_TRACE_H_
