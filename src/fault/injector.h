// Deterministic fault injection driven by the simulation Scheduler.
//
// A FaultInjector owns no simulated hardware; it schedules events that flip
// fault state on objects the caller already owns: power a server node off
// and lose its volatile state (NfsServer::Crash/Restart), take a Medium down
// and up (link flap), raise a Medium's loss rate or latency for a window
// (storms), or block one direction of traffic at a Node (partitions).
//
// Every fault is scheduled up front from explicit timestamps (or derived
// from a seeded Rng by the caller), and every state change appends a line to
// an ordered trace *at fire time*. Two runs with the same seed and the same
// schedule must therefore produce byte-identical traces — the chaos tests
// assert exactly that.
//
// This module owns the whole fault vocabulary: the kinds (FaultKind), the
// declarative entry (FaultSpec) with its one-line text form, its horizon,
// and its scheduling against a set of targets (ScheduleSpec).
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

// Declarative fault-schedule entry: one FaultSpec maps onto one FaultInjector
// call, with the target objects resolved separately (FaultTargets) so a
// schedule can be parsed from a scenario file, stored in a trace artifact,
// and replayed against a fresh World. Which fields matter depends on `kind`;
// unused fields keep their defaults so specs compare and serialize cleanly.
enum class FaultKind : uint8_t {
  kCrash,            // at, duration = downtime
  kLinkDown,         // at
  kLinkUp,           // at
  kLinkFlap,         // at, count = flaps, duration = down window, period = up window
  kLossStorm,        // at, duration, magnitude = loss probability
  kLatencyStorm,     // at, duration, extra = added propagation delay
  kPartition,        // at, duration, inbound (client node vs server host)
  kCorruptionStorm,  // at, duration, corruption
  kDiskFull,         // at, blocks = free-block budget
  kDiskRestore,      // at
  kDiskErrorBurst,   // at, op, code, count
  kDiskSlow,         // at, duration, magnitude = latency factor
  kSabotage,         // at, file, offset — flip one byte of stable storage
  kGarbageDatagrams, // at, duration = spread window, count = datagrams
};

std::string_view FaultKindName(FaultKind kind);
bool FaultKindFromName(std::string_view name, FaultKind* out);

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

// The objects a schedule of FaultSpecs acts on. The chaos harness fills this
// from its World: `medium` is the last medium on the client→server path,
// `client_node`/`server_host` anchor partitions (the classic lost-reply
// direction is inbound=true: the client drops frames from the server), and
// `client_udp` is the stack garbage datagrams leave from.
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

  // Crash the server at `crash_at` (from now) and restart it `downtime`
  // later. The node powers off, so in-flight frames and queued requests are
  // lost along with every volatile cache; LocalFs survives.
  void ServerCrashRestartAt(NfsServer* server, SimTime crash_at, SimTime downtime);

  // Carrier loss on a link: frames already committed to the wire and any
  // transmitted while down vanish without sender notification.
  void LinkDownAt(Medium* medium, SimTime at);
  void LinkUpAt(Medium* medium, SimTime at);

  // `flaps` down/up cycles: down at `first_down`, up `down_for` later,
  // next cycle `up_for` after that, and so on.
  void LinkFlapAt(Medium* medium, SimTime first_down, int flaps, SimTime down_for,
                  SimTime up_for);

  // Raises the medium's loss probability to max(base, probability) for the
  // window, then restores the base rate.
  void LossStormAt(Medium* medium, SimTime at, SimTime duration, double probability);

  // Adds `extra` to the medium's propagation delay for the window.
  void LatencyStormAt(Medium* medium, SimTime at, SimTime duration, SimTime extra);

  // One-way partition: `node` drops frames from `peer` (inbound=true) or
  // frames it would send/forward to `peer` (inbound=false) for the window.
  // Asymmetric loss is the classic generator of duplicate non-idempotent
  // requests: the server heard the call, the client never hears the reply.
  void PartitionAt(Node* node, HostId peer, bool inbound, SimTime at, SimTime duration);

  // Corruption storm: for the window, each frame on the medium may be
  // bit-flipped, truncated, duplicated or reordered per `config` (see
  // CorruptionConfig). Loss-by-corruption must feed the same RTO/backoff
  // machinery as loss-by-drop: flipped frames die at the UDP/TCP checksum,
  // truncated fragments starve reassembly, and the client retransmits.
  void CorruptionStormAt(Medium* medium, SimTime at, SimTime duration,
                         CorruptionConfig config);

  // Storage faults. DiskFullAt caps the filesystem's free-block budget (0 =
  // every allocating write fails with ENOSPC immediately); DiskRestoreAt
  // lifts the cap. DiskErrorBurstAt fails the next `count` operations of
  // `op` with `code` (kIo or kNoSpace) — a dying disk rather than a full one.
  void DiskFullAt(LocalFs* fs, SimTime at, uint64_t free_blocks);
  void DiskRestoreAt(LocalFs* fs, SimTime at);
  void DiskErrorBurstAt(LocalFs* fs, SimTime at, FsOp op, ErrorCode code, int count);

  // A slow disk rather than a broken one: every operation's latency is
  // multiplied by `factor` for the window. The classic generator of
  // nfsd-slot saturation (paper Section 5): requests keep succeeding while
  // every daemon is parked behind the device queue.
  void DiskSlowAt(DiskModel* disk, SimTime at, SimTime duration, double factor);

  // Stable-storage sabotage: at `at`, flip one byte (XOR 0xff) at `offset`
  // of `file` (looked up under the filesystem root at fire time) directly in
  // the server's LocalFs, behind every cache and audit. No legitimate
  // component can do this; it exists so a soak can be *forced* to fail its
  // byte-level integrity audit deterministically — the fixture for testing
  // the failure-artifact/replay path itself.
  void SabotageAt(LocalFs* fs, SimTime at, std::string file, uint64_t offset);

  // Hostile traffic rather than a state change: `count` RPC calls with valid
  // headers and undecodable arguments, sent from `udp` (source port 777) to
  // the NFS port of `server_host` at `at` + `duration`·i/`count`, xid
  // 0xfade0000+i. The server must answer GARBAGE_ARGS and count them, never
  // crash; wire corruption alone cannot reach this path, because a damaged
  // frame dies at the transport checksum before the XDR layer. Traffic adds
  // no trace line.
  void GarbageDatagramsAt(UdpStack* udp, HostId server_host, SimTime at, SimTime duration,
                          int count);

  // Schedules one declarative spec against `targets` (see FaultSpec for the
  // field/kind mapping). Specs whose target pointer is missing are a caller
  // bug and CHECK.
  void ScheduleSpec(const FaultSpec& spec, const FaultTargets& targets);

  // Ordered log of every fault transition, appended when the event fires:
  //   "[12.000s] server crash (server)"
  //   "[33.500s] link up (serial0)"
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  void Fire(SimTime at, std::string what);

  Scheduler& scheduler_;
  std::vector<std::string> trace_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_FAULT_INJECTOR_H_
