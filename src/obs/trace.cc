#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/obs/span.h"
#include "src/util/logging.h"

namespace renonfs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kClientSend:
      return "client_send";
    case TraceEventKind::kClientRetransmit:
      return "retransmit";
    case TraceEventKind::kClientTimeout:
      return "client_timeout";
    case TraceEventKind::kClientComplete:
      return "client_complete";
    case TraceEventKind::kMediumTraverse:
      return "medium_traverse";
    case TraceEventKind::kServerReceive:
      return "server_receive";
    case TraceEventKind::kDupCacheHit:
      return "dup_cache_hit";
    case TraceEventKind::kNfsdSlotWait:
      return "nfsd_slot_wait";
    case TraceEventKind::kDiskQueueEnter:
      return "disk_queue_enter";
    case TraceEventKind::kDiskQueueLeave:
      return "disk_queue_leave";
    case TraceEventKind::kGatherJoin:
      return "gather_join";
    case TraceEventKind::kGatherLead:
      return "gather_lead";
    case TraceEventKind::kServerReply:
      return "server_reply";
    case TraceEventKind::kLeaseGrant:
      return "lease_grant";
    case TraceEventKind::kLeaseDeny:
      return "lease_deny";
    case TraceEventKind::kLeaseRecall:
      return "lease_recall";
    case TraceEventKind::kLeaseVacate:
      return "lease_vacate";
    case TraceEventKind::kLeaseExpire:
      return "lease_expire";
    case TraceEventKind::kClientCallStart:
      return "client_call_start";
    case TraceEventKind::kNfsdSlotGrant:
      return "nfsd_slot_grant";
    case TraceEventKind::kDiskQueueWait:
      return "disk_queue_wait";
  }
  return "?";
}

Tracer::Tracer(Scheduler& scheduler, size_t capacity)
    : scheduler_(scheduler), capacity_(capacity) {
  CHECK(capacity_ > 0);
  ring_.reserve(capacity_);
}

uint16_t Tracer::RegisterTrack(std::string name) {
  tracks_.push_back(std::move(name));
  return static_cast<uint16_t>(tracks_.size() - 1);
}

void Tracer::Record(uint16_t track, TraceEventKind kind, uint32_t xid, uint32_t proc,
                    uint64_t arg) {
  TraceEvent event;
  event.at = scheduler_.now();
  event.seq = recorded_++;
  event.arg = arg;
  event.xid = xid;
  event.proc = proc;
  event.track = track;
  event.kind = kind;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;  // overwrite the oldest
    next_ = (next_ + 1) % capacity_;
  }
  if (spans_ != nullptr) {
    spans_->OnTraceEvent(event);
  }
}

size_t Tracer::size() const { return ring_.size(); }

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(Event(i));
  }
  return events;
}

std::string Tracer::ProcName(uint32_t proc) const {
  if (proc_namer_ != nullptr) {
    return proc_namer_(proc);
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "proc%u", proc);
  return buf;
}

std::string Tracer::ToChromeJson() const {
  // One instant event per buffered trace event, in record (= time) order, so
  // per-track timestamps are monotonic by construction. Client call lifetimes
  // and server dispatch lifetimes are additionally synthesized as async
  // begin/end pairs keyed by xid. Pairing is resolved in a first pass so a
  // span is only emitted when both its ends survived ring eviction — the
  // validator can then hold the file to strict begin/end balance. Retransmit
  // lineage is exported as a flow (s/t/f) tying every re-send back to the
  // first transmission of the same xid.
  struct Pairing {
    size_t send = SIZE_MAX, complete = SIZE_MAX;
    size_t receive = SIZE_MAX, reply = SIZE_MAX;
    uint32_t retransmits = 0;
  };
  const std::vector<TraceEvent> events = Events();
  std::unordered_map<uint32_t, Pairing> pairs;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.xid == 0) {
      continue;
    }
    Pairing& p = pairs[e.xid];
    switch (e.kind) {
      case TraceEventKind::kClientSend:
        p.send = std::min(p.send, i);
        break;
      case TraceEventKind::kClientComplete:
        p.complete = std::min(p.complete, i);
        break;
      case TraceEventKind::kServerReceive:
        p.receive = std::min(p.receive, i);
        break;
      case TraceEventKind::kServerReply:
        p.reply = std::min(p.reply, i);
        break;
      case TraceEventKind::kClientRetransmit:
        ++p.retransmits;
        break;
      default:
        break;
    }
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  auto append = [&](const char* line) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += line;
  };
  for (size_t i = 0; i < tracks_.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  i, JsonEscape(tracks_[i]).c_str());
    append(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"trace_meta\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                "\"args\":{\"dropped\":%llu}}",
                static_cast<unsigned long long>(dropped()));
  append(buf);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const double ts_us = static_cast<double>(e.at) / 1000.0;
    const std::string proc = JsonEscape(ProcName(e.proc));
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"args\":{\"xid\":%u,\"proc\":\"%s\",\"arg\":%llu}}",
                  TraceEventKindName(e.kind), e.track, ts_us, e.xid, proc.c_str(),
                  static_cast<unsigned long long>(e.arg));
    append(buf);
    const Pairing* p = nullptr;
    if (e.xid != 0) {
      auto it = pairs.find(e.xid);
      if (it != pairs.end()) {
        p = &it->second;
      }
    }
    if (p == nullptr) {
      continue;
    }
    const bool client_pair = p->send != SIZE_MAX && p->complete != SIZE_MAX;
    const bool server_pair = p->receive != SIZE_MAX && p->reply != SIZE_MAX;
    const char* phase = nullptr;
    if ((i == p->send && client_pair) || (i == p->receive && server_pair)) {
      phase = "b";
    } else if ((i == p->complete && client_pair) || (i == p->reply && server_pair)) {
      phase = "e";
    }
    if (phase != nullptr) {
      const std::string track = JsonEscape(tracks_[e.track]);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"id\":%u,\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f}",
                    proc.c_str(), track.c_str(), phase, e.xid, e.track, ts_us);
      append(buf);
    }
    // Retransmit lineage: flow start at the first transmission, a step per
    // re-send, finish at completion. Only emitted when the first send is
    // still in the ring, so every step has its start.
    const bool flow = p->retransmits > 0 && p->send != SIZE_MAX;
    const char* flow_phase = nullptr;
    if (flow && i == p->send) {
      flow_phase = "s";
    } else if (flow && e.kind == TraceEventKind::kClientRetransmit) {
      flow_phase = "t";
    } else if (flow && i == p->complete) {
      flow_phase = "f";
    }
    if (flow_phase != nullptr) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"rpc_attempts\",\"cat\":\"retransmit\",\"ph\":\"%s\","
                    "\"id\":%u,\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"bp\":\"e\"}",
                    flow_phase, e.xid, e.track, ts_us);
      append(buf);
    }
  }
  out += "]}";
  return out;
}

std::string Tracer::Tail(size_t n) const {
  const size_t start = ring_.size() > n ? ring_.size() - n : 0;
  std::string out;
  char buf[192];
  for (size_t i = start; i < ring_.size(); ++i) {
    const TraceEvent& e = Event(i);
    std::snprintf(buf, sizeof(buf), "[%12.3f ms] %-16s %-16s xid=0x%06x proc=%s arg=%llu\n",
                  static_cast<double>(e.at) / 1e6, tracks_[e.track].c_str(),
                  TraceEventKindName(e.kind), e.xid, ProcName(e.proc).c_str(),
                  static_cast<unsigned long long>(e.arg));
    out += buf;
  }
  return out;
}

}  // namespace renonfs
