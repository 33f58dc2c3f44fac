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

// "<what> begin (<medium>)" or "<what> end (<medium>)".
std::string StormLine(const char* what, bool begin, const Medium& medium) {
  return std::string(what) + (begin ? " begin (" : " end (") + medium.config().name + ")";
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
      // strtoull would wrap "-1" to UINT64_MAX, so a sign is rejected first.
      char* end = nullptr;
      *out = std::strtoull(value.c_str(), &end, 0);
      if (end == value.c_str() || *end != '\0' || value.front() == '-' || *out > max) {
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

void FaultInjector::Schedule(const FaultSpec& spec, const FaultTargets& targets) {
  // One event `at` from now: act() changes the fault state and returns its
  // trace line. The line is built at fire time, so an event holds only
  // target pointers and magnitudes and stays inside the scheduler's inline
  // callable.
  auto edge = [this](SimTime at, auto act) {
    auto event = [this, act]() { trace_.push_back(Stamp(scheduler_.now(), act())); };
    static_assert(sizeof(event) <= Scheduler::EventCallable::kInlineBytes);
    scheduler_.Schedule(at, std::move(event));
  };
  // A window's two edges: set(true) at `at`, set(false) `duration` later.
  auto window = [&edge](SimTime at, SimTime duration, auto set) {
    edge(at, [set]() { return set(true); });
    edge(at + duration, [set]() { return set(false); });
  };
  Medium* medium = targets.medium;
  LocalFs* fs = targets.fs;
  switch (spec.kind) {
    case FaultKind::kCrash: {
      NfsServer* server = targets.server;
      CHECK(server != nullptr) << "crash spec needs a server target";
      window(spec.at, spec.duration, [server](bool crash) {
        if (crash) {
          server->Crash();
          return "server crash (" + server->node()->name() + ")";
        }
        server->Restart();
        return "server restart (" + server->node()->name() + ")";
      });
      return;
    }
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kLinkFlap: {
      CHECK(medium != nullptr) << "link spec needs a medium target";
      auto link = [medium](bool down) {
        medium->SetLinkDown(down);
        return std::string(down ? "link down (" : "link up (") + medium->config().name + ")";
      };
      if (spec.kind != FaultKind::kLinkFlap) {
        const bool down = spec.kind == FaultKind::kLinkDown;
        edge(spec.at, [link, down]() { return link(down); });
        return;
      }
      SimTime at = spec.at;
      for (int i = 0; i < spec.count; ++i) {
        window(at, spec.duration, link);
        at += spec.duration + spec.period;
      }
      return;
    }
    case FaultKind::kLossStorm:
      CHECK(medium != nullptr) << "storm spec needs a medium target";
      window(spec.at, spec.duration, [medium, loss = spec.magnitude](bool begin) {
        medium->SetTransientLoss(begin ? loss : 0.0);
        return StormLine("loss storm", begin, *medium);
      });
      return;
    case FaultKind::kLatencyStorm:
      CHECK(medium != nullptr) << "storm spec needs a medium target";
      window(spec.at, spec.duration, [medium, extra = spec.extra](bool begin) {
        medium->SetExtraLatency(begin ? extra : 0);
        return StormLine("latency storm", begin, *medium);
      });
      return;
    case FaultKind::kCorruptionStorm:
      CHECK(medium != nullptr) << "storm spec needs a medium target";
      window(spec.at, spec.duration, [medium, config = spec.corruption](bool begin) {
        medium->SetCorruption(begin ? config : CorruptionConfig{});
        return StormLine("corruption storm", begin, *medium);
      });
      return;
    case FaultKind::kPartition: {
      Node* node = targets.client_node;
      CHECK(node != nullptr) << "partition spec needs a client node";
      window(spec.at, spec.duration,
             [node, peer = targets.server_host, inbound = spec.inbound](bool begin) {
               if (inbound) {
                 node->SetInputBlocked(peer, begin);
               } else {
                 node->SetOutputBlocked(peer, begin);
               }
               return std::string("partition ") + (inbound ? "in" : "out") +
                      (begin ? " begin (" : " end (") + node->name() + " <-> host " +
                      std::to_string(peer) + ")";
             });
      return;
    }
    case FaultKind::kDiskFull:
      CHECK(fs != nullptr) << "disk spec needs a filesystem target";
      edge(spec.at, [fs, blocks = spec.blocks]() {
        fs->SetFreeBlockBudget(blocks);
        return "disk full (budget " + std::to_string(blocks) + " blocks)";
      });
      return;
    case FaultKind::kDiskRestore:
      CHECK(fs != nullptr) << "disk spec needs a filesystem target";
      edge(spec.at, [fs]() {
        fs->SetFreeBlockBudget(std::nullopt);
        return std::string("disk restored");
      });
      return;
    case FaultKind::kDiskErrorBurst:
      CHECK(fs != nullptr) << "disk spec needs a filesystem target";
      edge(spec.at, [fs, op = spec.op, code = spec.code, count = spec.count]() {
        fs->InjectOpError(op, code, count);
        return "disk error burst (" + std::string(FsOpName(op)) + " x" +
               std::to_string(count) + " -> " + std::string(ErrorCodeName(code)) + ")";
      });
      return;
    case FaultKind::kDiskSlow: {
      DiskModel* disk = targets.disk;
      CHECK(disk != nullptr) << "disk_slow spec needs a disk target";
      window(spec.at, spec.duration, [disk, factor = spec.magnitude](bool begin) {
        disk->set_slow_factor(begin ? factor : 1.0);
        char line[64] = "disk slow end";
        if (begin) {
          std::snprintf(line, sizeof(line), "disk slow begin (x%.1f)", factor);
        }
        return std::string(line);
      });
      return;
    }
    case FaultKind::kSabotage:
      CHECK(fs != nullptr) << "sabotage spec needs a filesystem target";
      edge(spec.at, [fs, file = spec.file, offset = spec.offset]() {
        auto ino_or = fs->Lookup(fs->root(), file);
        if (!ino_or.ok()) {
          return "sabotage missed (" + file + " not found)";
        }
        if (!fs->Rot(ino_or.value(), offset).ok()) {
          return "sabotage missed (" + file + " has no byte " + std::to_string(offset) + ")";
        }
        return "sabotage (" + file + " byte " + std::to_string(offset) + " rotted)";
      });
      return;
    case FaultKind::kGarbageDatagrams: {
      UdpStack* udp = targets.client_udp;
      CHECK(udp != nullptr) << "garbage spec needs a client UDP stack";
      const SockAddr server_addr{targets.server_host, kNfsPort};
      for (int i = 0; i < spec.count; ++i) {
        const SimTime send_at = spec.at + spec.duration * static_cast<SimTime>(i) /
                                              static_cast<SimTime>(spec.count);
        const uint32_t xid = 0xfade0000u + static_cast<uint32_t>(i);
        scheduler_.Schedule(send_at, [udp, server_addr, xid]() {
          udp->SendTo(777, server_addr, GarbageCall(xid));
        });
      }
      return;
    }
  }
  CHECK(false) << "unhandled fault kind";
}

}  // namespace renonfs
