// Chaos soak harness: run a real workload (Andrew or a create-delete loop)
// while a deterministic fault schedule plays out underneath it — a server
// crash/reboot mid-run, a flapping link — then audit the damage.
//
// This is the scenario the NFS crash-recovery design exists for: a hard
// mount must ride out the outage (retrying forever, "nfs server not
// responding"/"ok" on the console) and finish with the client-visible file
// contents byte-identical to the server's stable storage; a soft mount must
// surface ETIMEDOUT rather than hang; non-idempotent retries that straddle
// the reboot must be absorbed by the dup cache or the client's 4.3BSD
// retry-error heuristics, never as spurious EEXIST/ENOENT to the workload.
//
// The harness is deterministic: same World seed + same ChaosOptions ⇒ the
// identical fault trace and the identical outcome, so tests can assert on
// both.
#ifndef RENONFS_SRC_WORKLOAD_CHAOS_H_
#define RENONFS_SRC_WORKLOAD_CHAOS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/injector.h"
#include "src/rpc/client.h"
#include "src/workload/andrew.h"
#include "src/workload/opmix.h"
#include "src/workload/world.h"

namespace renonfs {

enum class ChaosWorkload { kAndrew, kCreateDelete, kOpMix };

struct ChaosOptions {
  ChaosWorkload workload = ChaosWorkload::kAndrew;

  // Lease-storm readers (lease mounts only): every client past the first
  // re-opens and re-reads the surviving "chaos_keep" files for the whole
  // run. Each read needs a read lease, so a grinding writer on client 0
  // plus a reader pool yields a continuous stream of write-lease recalls —
  // and with a crash in the schedule, recalls that straddle the reboot and
  // its grace window. Requires WorldOptions::clients > 1.
  bool lease_storm = false;

  // The fault schedule, the harness's only fault input (empty = a clean
  // run). Each spec is scheduled in order against WorldFaultTargets(world).
  // Specs that fire in the same nanosecond fire in list order.
  std::vector<FaultSpec> schedule;

  // Workload knobs.
  AndrewOptions andrew;        // kAndrew
  size_t iterations = 40;      // kCreateDelete
  // kOpMix; shared_files runs it on every client. `opmix.file_bytes` is also
  // the size of each kCreateDelete file.
  OpMixOptions opmix;
};

struct ChaosReport {
  // How the workload itself ended: Ok on a surviving hard mount, kTimeout
  // when a soft mount gave up, kCancelled when interrupted.
  Status workload_status = Status::Ok();

  // Post-recovery audit: every regular file in the server's LocalFs read
  // back through the client and compared byte-for-byte.
  bool integrity_ok = false;
  std::string integrity_error;  // first mismatch; empty when ok
  size_t files_compared = 0;

  // The ordered fault trace (see FaultInjector::trace()): identical across
  // runs with the same options.
  std::vector<std::string> fault_trace;

  // Client-visible op outcomes in issue order (op-mix and create-delete
  // workloads; Andrew logs one summary line). With the seed and the fault
  // trace this is the replayable record of the run: a replay that produces
  // a different log has diverged, line by line.
  std::vector<std::string> op_log;

  // The seed the world actually ran with (after any RENONFS_SEED override)
  // and the FNV-1a hash of the final metrics snapshot — the divergence
  // fingerprint the replay path compares.
  uint64_t seed = 0;
  uint64_t snapshot_hash = 0;

  // Telemetry the registry does not hold as one counter. Every other
  // counter (crashes, dup-cache replays, garbage requests, ENOSPC, nfsd slot
  // waits, lease recalls, stale-lease writes, span conservation, ...) is
  // read from `metrics` by its registry name.
  //
  // Client 0 only (the registry sums every client): recovery episodes and
  // reconnects, EEXIST/ENOENT retry absorption, latched async write errors.
  RpcRecoveryStats recovery;
  uint64_t retry_errors_absorbed = 0;
  uint64_t write_errors_latched = 0;

  // Data-fault detection summed over sources the registry keeps apart or
  // does not hold. The corruption soak tests assert these nonzero — damage
  // that is injected but never counted anywhere is damage that reached the
  // application silently.
  uint64_t frames_corrupted = 0;   // medium-level damage events, whole path
  uint64_t checksum_drops = 0;     // UDP + TCP checksum failures, both ends
  uint64_t corrupted_records = 0;  // TCP record-mark failures, both ends

  // Per-procedure RPC latency percentiles (microseconds), from the world's
  // client.nfs.lat_us.* histograms; only procedures that were called appear.
  struct ProcLatency {
    std::string proc;
    uint64_t count = 0;
    uint64_t p50_us = 0;
    uint64_t p95_us = 0;
    uint64_t p99_us = 0;
  };
  std::vector<ProcLatency> latencies;

  // Critical-path attribution over the whole run: the dominant latency
  // components (name + share of total attributed time, descending) from the
  // world's span collector. The breakdown soaks assert on `top_components` —
  // e.g. a loss storm must be retransmit-backoff-dominated, a slow disk
  // disk-dominated. The rendered tables, the flight-recorder timeline and the
  // trace tail stay in the world (`spans()`, `flight()`, `tracer()`), which
  // is where the failure dumps render them from (DumpObservability).
  std::vector<std::pair<std::string, double>> top_components;

  // Full registry snapshot at the end of the run, where every registry
  // counter is read (`metrics.Value("server.nfs.crashes")`).
  MetricsSnapshot metrics;

  // One-line digest of the run for logs and the chaos demo:
  //   "chaos: seed=1 status=ok integrity=ok files=34 crashes=1 trace=6 replays=2
  //    absorbed=1 frames_corrupted=57 checksum_drops=40 garbage=12
  //    corrupt_records=0 enospc=3 disk_errors=0 latched=1
  //    lat_us[write]=1834/7912/15023" (p50/p95/p99 per called procedure)
  std::string SummaryLine() const;
};

// The world's canonical fault targets: the server, the last medium on the
// client→server path (the 56K line on the slow-link topology, the LAN itself
// on the same-LAN one), the server LocalFs and disk, client 0's node for
// partitions and client 0's UDP stack for garbage datagrams.
FaultTargets WorldFaultTargets(World& world);

// Runs the configured workload on world.client(0) under the fault schedule,
// waits out any remaining scheduled faults, flushes the client, and audits
// integrity. Drives the world's scheduler; call on a fresh World.
ChaosReport RunChaos(World& world, const ChaosOptions& options);

// Dumps the world's observability state — metrics snapshot, server CPU flat
// profile, and the last `tail_events` trace events — for post-mortems when a
// chaos/fault test assertion fails.
void DumpObservability(World& world, std::ostream& out, size_t tail_events = 64);

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_CHAOS_H_
