// Deterministic fault injection driven by the simulation Scheduler.
//
// A FaultInjector owns no simulated hardware; it schedules events that flip
// fault state on objects the caller already owns (FaultTargets): power a
// server node off and lose its volatile state, take a Medium down and up,
// raise a Medium's loss rate or latency for a window (storms), block one
// direction of traffic at a Node (partitions), or break the server's disk.
//
// Every fault is one FaultSpec, scheduled up front from explicit timestamps
// (or derived from a seeded Rng by the caller), and every state change
// appends a line to an ordered trace *at fire time*. Two runs with the same
// seed and the same schedule must therefore produce byte-identical traces —
// the chaos tests assert exactly that.
//
// This module owns the whole fault vocabulary: the kinds (FaultKind) and
// what each does, the declarative entry (FaultSpec) with its one-line text
// form and its horizon, and its scheduling against a set of targets
// (FaultInjector::Schedule).
#ifndef RENONFS_SRC_FAULT_INJECTOR_H_
#define RENONFS_SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/local_fs.h"
#include "src/net/medium.h"
#include "src/net/node.h"
#include "src/nfs/server.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "src/util/statusor.h"

namespace renonfs {

// The fault kinds. Each comment names the FaultSpec fields the kind reads,
// what its events do, and the trace lines they write when they fire
// ("<medium>" is the medium's name, "<node>" the node's).
enum class FaultKind : uint8_t {
  // at, duration = downtime. The server node powers off at `at` and restarts
  // `duration` later: in-flight frames, queued requests and every volatile
  // cache are lost; LocalFs survives. "server crash (<node>)", then
  // "server restart (<node>)".
  kCrash,
  // at. Carrier loss: frames already committed to the wire and any
  // transmitted while down vanish without sender notification.
  // "link down (<medium>)".
  kLinkDown,
  // at. Carrier returns. "link up (<medium>)".
  kLinkUp,
  // at, count = flaps, duration = down window, period = up window. Down at
  // `at`, up `duration` later, the next cycle `period` after that, and so
  // on: one link down and one link up line per flap.
  kLinkFlap,
  // at, duration, magnitude = loss probability. The medium loses frames with
  // probability max(base, magnitude) for the window, then at its base rate
  // again. "loss storm begin (<medium>)", then "loss storm end (<medium>)".
  kLossStorm,
  // at, duration, extra. Every delivery carries `extra` more propagation
  // delay for the window. "latency storm begin|end (<medium>)".
  kLatencyStorm,
  // at, duration, inbound. A one-way partition for the window: with
  // inbound=true the client node drops frames from the server host (the
  // lost reply), with inbound=false frames it would send or forward to it.
  // Asymmetric loss is the classic generator of duplicate non-idempotent
  // requests: the server heard the call, the client never hears the reply.
  // "partition in|out begin|end (<client node> <-> host <server id>)".
  kPartition,
  // at, duration, corruption. For the window each frame on the medium may be
  // bit-flipped, truncated, duplicated or reordered (CorruptionConfig).
  // Loss by corruption feeds the same RTO/backoff machinery as loss by drop:
  // flipped frames die at the UDP/TCP checksum, truncated fragments starve
  // reassembly, and the client retransmits.
  // "corruption storm begin|end (<medium>)".
  kCorruptionStorm,
  // at, blocks. Caps the filesystem's free-block budget (0 = every
  // allocating write fails with ENOSPC at once).
  // "disk full (budget <blocks> blocks)".
  kDiskFull,
  // at. Lifts the free-block cap. "disk restored".
  kDiskRestore,
  // at, op, code, count. Fails the next `count` operations of `op` with
  // `code` (kIo or kNoSpace): a dying disk rather than a full one.
  // "disk error burst (<op> x<count> -> <code>)".
  kDiskErrorBurst,
  // at, duration, magnitude = latency factor. A slow disk rather than a
  // broken one: every operation's latency is multiplied by the factor for
  // the window. The classic generator of nfsd-slot saturation (paper
  // Section 5): requests keep succeeding while every daemon is parked behind
  // the device queue. "disk slow begin (x<factor>)", then "disk slow end".
  kDiskSlow,
  // at, file, offset. Flips one byte (XOR 0xff) at `offset` of `file`,
  // looked up under the filesystem root at fire time, directly in the
  // server's LocalFs. It rots the byte rather than writing it: a write would
  // bump mtime, the client would revalidate and re-read, and both sides of
  // the integrity audit would agree on the poisoned byte. Silent rot leaves
  // every cache consistency rule satisfied while the storage lies, so a soak
  // can be forced to fail its audit deterministically — the fixture for the
  // failure-artifact/replay path. "sabotage (<file> byte <offset> rotted)",
  // or "sabotage missed (...)" when the file or the byte is absent.
  kSabotage,
  // at, duration = spread window, count = datagrams. Hostile traffic rather
  // than a state change: `count` RPC calls with valid headers and
  // undecodable arguments, sent from the client's UDP stack (source port
  // 777) to the server's NFS port at at + duration·i/count, xid
  // 0xfade0000+i. The server must answer GARBAGE_ARGS and count them, never
  // crash; wire corruption alone cannot reach this path, because a damaged
  // frame dies at the transport checksum before the XDR layer. No trace
  // line.
  kGarbageDatagrams,
};

std::string_view FaultKindName(FaultKind kind);
bool FaultKindFromName(std::string_view name, FaultKind* out);

// One fault: its kind, times and magnitudes. The objects it acts on are
// resolved separately (FaultTargets), so a schedule can be parsed from a
// scenario file, stored in a trace artifact, and replayed against a fresh
// World. Which fields matter depends on `kind` (see FaultKind); unused
// fields keep their defaults so specs compare and serialize cleanly.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  SimTime at = 0;
  SimTime duration = 0;
  int count = 0;
  SimTime period = 0;
  double magnitude = 0.0;
  SimTime extra = 0;
  uint64_t blocks = 0;
  FsOp op = FsOp::kWrite;
  ErrorCode code = ErrorCode::kIo;
  CorruptionConfig corruption;
  bool inbound = true;
  std::string file;
  uint64_t offset = 0;

  // Latest sim time (relative to scheduling) at which this spec still
  // changes state; soak harnesses run at least this long before auditing.
  SimTime Horizon() const;
};

// One fault line <-> FaultSpec: "<kind> key=value ...", keys at/dur/count/
// period/mag/extra/blocks/op/code/inbound/file/offset plus the corruption
// knobs flip/trunc/dup/reorder/rdelay, e.g. "crash at=40s dur=20s" or
// "garbage_datagrams at=1s dur=30s count=25". ToString writes only the keys
// its kind reads, and FromString(ToString(spec)) renders back identically.
StatusOr<FaultSpec> FaultSpecFromString(const std::string& line);
std::string FaultSpecToString(const FaultSpec& spec);

// The objects a schedule of FaultSpecs acts on. WorldFaultTargets
// (src/workload/chaos.h) fills it from a World: `medium` is the last medium
// on the client→server path, `client_node`/`server_host` anchor partitions,
// and `client_udp` is the stack garbage datagrams leave from.
struct FaultTargets {
  NfsServer* server = nullptr;
  Medium* medium = nullptr;
  LocalFs* fs = nullptr;
  DiskModel* disk = nullptr;
  Node* client_node = nullptr;
  HostId server_host = 0;
  UdpStack* client_udp = nullptr;
};

class FaultInjector {
 public:
  explicit FaultInjector(Scheduler& scheduler) : scheduler_(scheduler) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules `spec`'s events against `targets`, its times counted from now.
  // Events that fire in the same nanosecond fire in the order they were
  // scheduled, so a schedule's ties fire in list order. A spec whose target
  // pointer is missing is a caller bug and CHECKs.
  void Schedule(const FaultSpec& spec, const FaultTargets& targets);

  // Ordered log of every fault transition, appended when the event fires:
  //   "[12.000s] server crash (server)"
  //   "[33.500s] link up (serial0)"
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  Scheduler& scheduler_;
  std::vector<std::string> trace_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_FAULT_INJECTOR_H_
