#include "src/fault/injector.h"

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/nfs/wire.h"
#include "src/rpc/message.h"
#include "src/util/config.h"
#include "src/util/logging.h"
#include "src/xdr/xdr.h"

namespace renonfs {
namespace {

std::string Stamp(SimTime at, const std::string& what) {
  char head[32];
  std::snprintf(head, sizeof(head), "[%" PRId64 ".%03" PRId64 "s] ", at / Seconds(1),
                (at % Seconds(1)) / Milliseconds(1));
  return head + what;
}

struct FaultKindEntry {
  FaultKind kind;
  std::string_view name;
};

// Canonical names, used by the scenario DSL (`fault = crash at=40s ...`).
constexpr FaultKindEntry kFaultKindNames[] = {
    {FaultKind::kCrash, "crash"},
    {FaultKind::kLinkDown, "link_down"},
    {FaultKind::kLinkUp, "link_up"},
    {FaultKind::kLinkFlap, "link_flap"},
    {FaultKind::kLossStorm, "loss_storm"},
    {FaultKind::kLatencyStorm, "latency_storm"},
    {FaultKind::kPartition, "partition"},
    {FaultKind::kCorruptionStorm, "corruption_storm"},
    {FaultKind::kDiskFull, "disk_full"},
    {FaultKind::kDiskRestore, "disk_restore"},
    {FaultKind::kDiskErrorBurst, "disk_error_burst"},
    {FaultKind::kDiskSlow, "disk_slow"},
    {FaultKind::kSabotage, "sabotage"},
    {FaultKind::kGarbageDatagrams, "garbage_datagrams"},
};

// Ceiling on a disk_slow magnitude. DiskModel::OpLatency multiplies each
// op's nominal latency by it, and no disk op's latency may overflow a
// SimTime: at 1000x an op would need a nominal latency above 106 days to
// overflow. The largest factor in the tree is 140.
constexpr double kMaxDiskSlowFactor = 1000.0;

// Fault lines are the scenario DSL's `fault = ...` values, so their parse
// errors carry the DSL's prefix.
Status BadField(const std::string& what) {
  return Status(ErrorCode::kInvalidArgument, "scenario: " + what);
}

// Shortest decimal rendering that survives a strtod round trip, so a
// serialized fault replays with bit-identical parameters.
std::string FormatDouble(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", value);
  if (std::strtod(buf, nullptr) != value) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

bool FsOpFromName(const std::string& name, FsOp* out) {
  for (FsOp op : {FsOp::kRead, FsOp::kWrite, FsOp::kCreate, FsOp::kRemove,
                  FsOp::kSetattr}) {
    if (name == FsOpName(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

// DiskErrorBurst takes exactly these two codes (a dying disk fails with EIO
// or ENOSPC); the DSL names them directly.
bool DiskCodeFromName(const std::string& name, ErrorCode* out) {
  if (name == "io") {
    *out = ErrorCode::kIo;
    return true;
  }
  if (name == "nospace") {
    *out = ErrorCode::kNoSpace;
    return true;
  }
  return false;
}

const char* DiskCodeToken(ErrorCode code) {
  return code == ErrorCode::kNoSpace ? "nospace" : "io";
}

// A call the server must answer with GARBAGE_ARGS: the RPC header is valid
// (right program, version, a known procedure) but the arguments end long
// before the 32-byte file handle LOOKUP expects.
MbufChain GarbageCall(uint32_t xid) {
  MbufChain message;
  XdrEncoder enc(&message);
  RpcCallHeader header;
  header.xid = xid;
  header.prog = kNfsProgram;
  header.vers = kNfsVersion;
  header.proc = kNfsLookup;
  EncodeCallHeader(enc, header);
  enc.PutUint32(0xdeadbeef);  // 4 bytes where a 32-byte fh should start
  return message;
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  for (const FaultKindEntry& entry : kFaultKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "unknown";
}

bool FaultKindFromName(std::string_view name, FaultKind* out) {
  for (const FaultKindEntry& entry : kFaultKindNames) {
    if (entry.name == name) {
      *out = entry.kind;
      return true;
    }
  }
  return false;
}

SimTime FaultSpec::Horizon() const {
  switch (kind) {
    case FaultKind::kCrash:
      return at + duration;
    case FaultKind::kLinkFlap:
      return at + static_cast<SimTime>(count) * (duration + period);
    case FaultKind::kLossStorm:
    case FaultKind::kLatencyStorm:
    case FaultKind::kPartition:
    case FaultKind::kCorruptionStorm:
    case FaultKind::kDiskSlow:
    case FaultKind::kGarbageDatagrams:
      return at + duration;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kDiskFull:
    case FaultKind::kDiskRestore:
    case FaultKind::kDiskErrorBurst:
    case FaultKind::kSabotage:
      return at;
  }
  return at;
}

StatusOr<FaultSpec> FaultSpecFromString(const std::string& line) {
  std::istringstream in(line);
  std::string kind_token;
  in >> kind_token;
  FaultSpec spec;
  if (!FaultKindFromName(kind_token, &spec.kind)) {
    return BadField("unknown fault kind '" + kind_token + "' in '" + line + "'");
  }
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return BadField("fault '" + line + "': expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    auto duration_field = [&](SimTime* out) -> Status {
      auto t_or = ParseDuration(value);
      if (!t_or.ok()) {
        return BadField("fault '" + line + "': bad duration '" + value + "'");
      }
      *out = t_or.value();
      return Status::Ok();
    };
    auto double_field = [&](double* out) -> Status {
      char* end = nullptr;
      *out = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !std::isfinite(*out)) {
        return BadField("fault '" + line + "': bad number '" + value + "'");
      }
      return Status::Ok();
    };
    auto uint_field = [&](uint64_t* out, uint64_t max = UINT64_MAX) -> Status {
      char* end = nullptr;
      *out = std::strtoull(value.c_str(), &end, 0);
      if (end == value.c_str() || *end != '\0' || *out > max) {
        return BadField("fault '" + line + "': bad integer '" + value + "'");
      }
      return Status::Ok();
    };
    Status status = Status::Ok();
    if (key == "at") {
      status = duration_field(&spec.at);
    } else if (key == "dur") {
      status = duration_field(&spec.duration);
    } else if (key == "period") {
      status = duration_field(&spec.period);
    } else if (key == "extra") {
      status = duration_field(&spec.extra);
    } else if (key == "rdelay") {
      status = duration_field(&spec.corruption.reorder_delay);
    } else if (key == "count") {
      // strtoull wraps "-1" to UINT64_MAX, so the int bound also rejects
      // negative counts.
      uint64_t v = 0;
      status = uint_field(&v, INT_MAX);
      spec.count = static_cast<int>(v);
    } else if (key == "blocks") {
      status = uint_field(&spec.blocks);
    } else if (key == "offset") {
      status = uint_field(&spec.offset);
    } else if (key == "mag") {
      status = double_field(&spec.magnitude);
      if (status.ok() && spec.kind == FaultKind::kDiskSlow &&
          spec.magnitude > kMaxDiskSlowFactor) {
        status = BadField("fault '" + line + "': disk_slow magnitude '" + value +
                          "' above the ceiling " + FormatDouble(kMaxDiskSlowFactor));
      }
    } else if (key == "flip") {
      status = double_field(&spec.corruption.bit_flip);
    } else if (key == "trunc") {
      status = double_field(&spec.corruption.truncate);
    } else if (key == "dup") {
      status = double_field(&spec.corruption.duplicate);
    } else if (key == "reorder") {
      status = double_field(&spec.corruption.reorder);
    } else if (key == "inbound") {
      if (value == "true" || value == "1") {
        spec.inbound = true;
      } else if (value == "false" || value == "0") {
        spec.inbound = false;
      } else {
        status = BadField("fault '" + line + "': bad bool '" + value + "'");
      }
    } else if (key == "op") {
      if (!FsOpFromName(value, &spec.op)) {
        status = BadField("fault '" + line + "': unknown fs op '" + value + "'");
      }
    } else if (key == "code") {
      if (!DiskCodeFromName(value, &spec.code)) {
        status = BadField("fault '" + line + "': unknown code '" + value + "'");
      }
    } else if (key == "file") {
      spec.file = value;
    } else {
      status = BadField("fault '" + line + "': unknown key '" + key + "'");
    }
    if (!status.ok()) {
      return status;
    }
  }
  return spec;
}

std::string FaultSpecToString(const FaultSpec& spec) {
  std::string out(FaultKindName(spec.kind));
  out += " at=" + FormatDuration(spec.at);
  switch (spec.kind) {
    case FaultKind::kCrash:
      out += " dur=" + FormatDuration(spec.duration);
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kDiskRestore:
      break;
    case FaultKind::kLinkFlap:
      out += " count=" + std::to_string(spec.count);
      out += " dur=" + FormatDuration(spec.duration);
      out += " period=" + FormatDuration(spec.period);
      break;
    case FaultKind::kLossStorm:
    case FaultKind::kDiskSlow:
      out += " dur=" + FormatDuration(spec.duration);
      out += " mag=" + FormatDouble(spec.magnitude);
      break;
    case FaultKind::kLatencyStorm:
      out += " dur=" + FormatDuration(spec.duration);
      out += " extra=" + FormatDuration(spec.extra);
      break;
    case FaultKind::kPartition:
      out += " dur=" + FormatDuration(spec.duration);
      out += std::string(" inbound=") + (spec.inbound ? "true" : "false");
      break;
    case FaultKind::kCorruptionStorm:
      out += " dur=" + FormatDuration(spec.duration);
      out += " flip=" + FormatDouble(spec.corruption.bit_flip);
      out += " trunc=" + FormatDouble(spec.corruption.truncate);
      out += " dup=" + FormatDouble(spec.corruption.duplicate);
      out += " reorder=" + FormatDouble(spec.corruption.reorder);
      out += " rdelay=" + FormatDuration(spec.corruption.reorder_delay);
      break;
    case FaultKind::kDiskFull:
      out += " blocks=" + std::to_string(spec.blocks);
      break;
    case FaultKind::kDiskErrorBurst:
      out += std::string(" op=") + FsOpName(spec.op);
      out += std::string(" code=") + DiskCodeToken(spec.code);
      out += " count=" + std::to_string(spec.count);
      break;
    case FaultKind::kSabotage:
      out += " file=" + spec.file;
      out += " offset=" + std::to_string(spec.offset);
      break;
    case FaultKind::kGarbageDatagrams:
      out += " dur=" + FormatDuration(spec.duration);
      out += " count=" + std::to_string(spec.count);
      break;
  }
  return out;
}

void FaultInjector::Fire(SimTime at, std::string what) {
  trace_.push_back(Stamp(at, what));
}

void FaultInjector::ServerCrashRestartAt(NfsServer* server, SimTime crash_at,
                                         SimTime downtime) {
  scheduler_.Schedule(crash_at, [this, server]() {
    Fire(scheduler_.now(), "server crash (" + server->node()->name() + ")");
    server->Crash();
  });
  scheduler_.Schedule(crash_at + downtime, [this, server]() {
    Fire(scheduler_.now(), "server restart (" + server->node()->name() + ")");
    server->Restart();
  });
}

void FaultInjector::LinkDownAt(Medium* medium, SimTime at) {
  scheduler_.Schedule(at, [this, medium]() {
    Fire(scheduler_.now(), "link down (" + medium->config().name + ")");
    medium->SetLinkDown(true);
  });
}

void FaultInjector::LinkUpAt(Medium* medium, SimTime at) {
  scheduler_.Schedule(at, [this, medium]() {
    Fire(scheduler_.now(), "link up (" + medium->config().name + ")");
    medium->SetLinkDown(false);
  });
}

void FaultInjector::LinkFlapAt(Medium* medium, SimTime first_down, int flaps,
                               SimTime down_for, SimTime up_for) {
  SimTime at = first_down;
  for (int i = 0; i < flaps; ++i) {
    LinkDownAt(medium, at);
    LinkUpAt(medium, at + down_for);
    at += down_for + up_for;
  }
}

void FaultInjector::LossStormAt(Medium* medium, SimTime at, SimTime duration,
                                double probability) {
  scheduler_.Schedule(at, [this, medium, probability]() {
    Fire(scheduler_.now(), "loss storm begin (" + medium->config().name + ")");
    medium->SetTransientLoss(probability);
  });
  scheduler_.Schedule(at + duration, [this, medium]() {
    Fire(scheduler_.now(), "loss storm end (" + medium->config().name + ")");
    medium->SetTransientLoss(0.0);
  });
}

void FaultInjector::LatencyStormAt(Medium* medium, SimTime at, SimTime duration,
                                   SimTime extra) {
  scheduler_.Schedule(at, [this, medium, extra]() {
    Fire(scheduler_.now(), "latency storm begin (" + medium->config().name + ")");
    medium->SetExtraLatency(extra);
  });
  scheduler_.Schedule(at + duration, [this, medium]() {
    Fire(scheduler_.now(), "latency storm end (" + medium->config().name + ")");
    medium->SetExtraLatency(0);
  });
}

void FaultInjector::CorruptionStormAt(Medium* medium, SimTime at, SimTime duration,
                                      CorruptionConfig config) {
  scheduler_.Schedule(at, [this, medium, config]() {
    Fire(scheduler_.now(), "corruption storm begin (" + medium->config().name + ")");
    medium->SetCorruption(config);
  });
  scheduler_.Schedule(at + duration, [this, medium]() {
    Fire(scheduler_.now(), "corruption storm end (" + medium->config().name + ")");
    medium->SetCorruption(CorruptionConfig{});
  });
}

void FaultInjector::DiskFullAt(LocalFs* fs, SimTime at, uint64_t free_blocks) {
  scheduler_.Schedule(at, [this, fs, free_blocks]() {
    Fire(scheduler_.now(),
         "disk full (budget " + std::to_string(free_blocks) + " blocks)");
    fs->SetFreeBlockBudget(free_blocks);
  });
}

void FaultInjector::DiskRestoreAt(LocalFs* fs, SimTime at) {
  scheduler_.Schedule(at, [this, fs]() {
    Fire(scheduler_.now(), "disk restored");
    fs->SetFreeBlockBudget(std::nullopt);
  });
}

void FaultInjector::DiskErrorBurstAt(LocalFs* fs, SimTime at, FsOp op, ErrorCode code,
                                     int count) {
  scheduler_.Schedule(at, [this, fs, op, code, count]() {
    Fire(scheduler_.now(), "disk error burst (" + std::string(FsOpName(op)) + " x" +
                               std::to_string(count) + " -> " +
                               std::string(ErrorCodeName(code)) + ")");
    fs->InjectOpError(op, code, count);
  });
}

void FaultInjector::DiskSlowAt(DiskModel* disk, SimTime at, SimTime duration,
                               double factor) {
  scheduler_.Schedule(at, [this, disk, factor]() {
    char what[64];
    std::snprintf(what, sizeof(what), "disk slow begin (x%.1f)", factor);
    Fire(scheduler_.now(), what);
    disk->set_slow_factor(factor);
  });
  scheduler_.Schedule(at + duration, [this, disk]() {
    Fire(scheduler_.now(), "disk slow end");
    disk->set_slow_factor(1.0);
  });
}

void FaultInjector::SabotageAt(LocalFs* fs, SimTime at, std::string file,
                               uint64_t offset) {
  scheduler_.Schedule(at, [this, fs, file = std::move(file), offset]() {
    auto ino_or = fs->Lookup(fs->root(), file);
    if (!ino_or.ok()) {
      Fire(scheduler_.now(), "sabotage missed (" + file + " not found)");
      return;
    }
    // Rot, not Write: a write would bump mtime, the client would revalidate
    // and re-read, and both sides of the audit would agree on the poisoned
    // byte. Silent rot leaves every cache consistency rule satisfied while
    // the storage lies — the exact corruption the audit must catch.
    const Status rotted = fs->Rot(ino_or.value(), offset);
    if (!rotted.ok()) {
      Fire(scheduler_.now(),
           "sabotage missed (" + file + " has no byte " + std::to_string(offset) + ")");
      return;
    }
    Fire(scheduler_.now(),
         "sabotage (" + file + " byte " + std::to_string(offset) + " rotted)");
  });
}

void FaultInjector::GarbageDatagramsAt(UdpStack* udp, HostId server_host, SimTime at,
                                       SimTime duration, int count) {
  const SockAddr server_addr{server_host, kNfsPort};
  for (int i = 0; i < count; ++i) {
    const SimTime send_at =
        at + duration * static_cast<SimTime>(i) / static_cast<SimTime>(count);
    const uint32_t xid = 0xfade0000u + static_cast<uint32_t>(i);
    scheduler_.Schedule(send_at, [udp, server_addr, xid]() {
      udp->SendTo(777, server_addr, GarbageCall(xid));
    });
  }
}

void FaultInjector::ScheduleSpec(const FaultSpec& spec, const FaultTargets& targets) {
  switch (spec.kind) {
    case FaultKind::kCrash:
      CHECK(targets.server != nullptr) << "crash spec needs a server target";
      ServerCrashRestartAt(targets.server, spec.at, spec.duration);
      return;
    case FaultKind::kLinkDown:
      CHECK(targets.medium != nullptr) << "link spec needs a medium target";
      LinkDownAt(targets.medium, spec.at);
      return;
    case FaultKind::kLinkUp:
      CHECK(targets.medium != nullptr) << "link spec needs a medium target";
      LinkUpAt(targets.medium, spec.at);
      return;
    case FaultKind::kLinkFlap:
      CHECK(targets.medium != nullptr) << "link spec needs a medium target";
      LinkFlapAt(targets.medium, spec.at, spec.count, spec.duration, spec.period);
      return;
    case FaultKind::kLossStorm:
      CHECK(targets.medium != nullptr) << "storm spec needs a medium target";
      LossStormAt(targets.medium, spec.at, spec.duration, spec.magnitude);
      return;
    case FaultKind::kLatencyStorm:
      CHECK(targets.medium != nullptr) << "storm spec needs a medium target";
      LatencyStormAt(targets.medium, spec.at, spec.duration, spec.extra);
      return;
    case FaultKind::kPartition:
      CHECK(targets.client_node != nullptr) << "partition spec needs a client node";
      PartitionAt(targets.client_node, targets.server_host, spec.inbound, spec.at,
                  spec.duration);
      return;
    case FaultKind::kCorruptionStorm:
      CHECK(targets.medium != nullptr) << "storm spec needs a medium target";
      CorruptionStormAt(targets.medium, spec.at, spec.duration, spec.corruption);
      return;
    case FaultKind::kDiskFull:
      CHECK(targets.fs != nullptr) << "disk spec needs a filesystem target";
      DiskFullAt(targets.fs, spec.at, spec.blocks);
      return;
    case FaultKind::kDiskRestore:
      CHECK(targets.fs != nullptr) << "disk spec needs a filesystem target";
      DiskRestoreAt(targets.fs, spec.at);
      return;
    case FaultKind::kDiskErrorBurst:
      CHECK(targets.fs != nullptr) << "disk spec needs a filesystem target";
      DiskErrorBurstAt(targets.fs, spec.at, spec.op, spec.code, spec.count);
      return;
    case FaultKind::kDiskSlow:
      CHECK(targets.disk != nullptr) << "disk_slow spec needs a disk target";
      DiskSlowAt(targets.disk, spec.at, spec.duration, spec.magnitude);
      return;
    case FaultKind::kSabotage:
      CHECK(targets.fs != nullptr) << "sabotage spec needs a filesystem target";
      SabotageAt(targets.fs, spec.at, spec.file, spec.offset);
      return;
    case FaultKind::kGarbageDatagrams:
      CHECK(targets.client_udp != nullptr) << "garbage spec needs a client UDP stack";
      GarbageDatagramsAt(targets.client_udp, targets.server_host, spec.at, spec.duration,
                         spec.count);
      return;
  }
  CHECK(false) << "unhandled fault kind";
}

void FaultInjector::PartitionAt(Node* node, HostId peer, bool inbound, SimTime at,
                                SimTime duration) {
  const std::string dir = inbound ? "in" : "out";
  scheduler_.Schedule(at, [this, node, peer, inbound, dir]() {
    Fire(scheduler_.now(),
         "partition " + dir + " begin (" + node->name() + " <-> host " +
             std::to_string(peer) + ")");
    if (inbound) {
      node->SetInputBlocked(peer, true);
    } else {
      node->SetOutputBlocked(peer, true);
    }
  });
  scheduler_.Schedule(at + duration, [this, node, peer, inbound, dir]() {
    Fire(scheduler_.now(),
         "partition " + dir + " end (" + node->name() + " <-> host " +
             std::to_string(peer) + ")");
    if (inbound) {
      node->SetInputBlocked(peer, false);
    } else {
      node->SetOutputBlocked(peer, false);
    }
  });
}

}  // namespace renonfs
