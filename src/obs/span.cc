#include "src/obs/span.h"

#include <algorithm>
#include <cstdio>

#include "src/util/logging.h"

namespace renonfs {

namespace {

constexpr size_t Idx(LatencyComponent c) { return static_cast<size_t>(c); }

// splitmix64 finalizer: the seeded xid hash behind head sampling and the
// open-addressed table. Pure function of (xid, seed) — same decision in
// every run of the same scenario.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Live-op pool size. A new op that finds the pool exhausted is dropped and
// counted — the collector never falls back to the heap.
constexpr uint32_t kMaxLiveOps = 1024;
// The xid table's slot count: a power of two, so probing can mask.
constexpr size_t kTableSize = 4 * kMaxLiveOps;
static_assert((kTableSize & (kTableSize - 1)) == 0);

}  // namespace

const char* LatencyComponentName(LatencyComponent component) {
  switch (component) {
    case LatencyComponent::kSendWait:
      return "send_wait";
    case LatencyComponent::kNetwork:
      return "network";
    case LatencyComponent::kBackoffWait:
      return "backoff_wait";
    case LatencyComponent::kServerQueue:
      return "server_queue";
    case LatencyComponent::kServerCpu:
      return "server_cpu";
    case LatencyComponent::kDiskQueue:
      return "disk_queue";
    case LatencyComponent::kDiskService:
      return "disk_service";
    case LatencyComponent::kGatherWait:
      return "gather_wait";
  }
  return "?";
}

SpanCollector::SpanCollector(SpanOptions options) : options_(options) {
  pool_.resize(kMaxLiveOps);
  free_.reserve(kMaxLiveOps);
  for (uint32_t i = kMaxLiveOps; i > 0; --i) {
    free_.push_back(i - 1);
  }
  table_.assign(kTableSize, 0);
  table_mask_ = kTableSize - 1;
}

bool SpanCollector::Sampled(uint32_t xid) const {
  if (options_.sample_period == 0) {
    return false;
  }
  if (options_.sample_period == 1) {
    return true;
  }
  return Mix64(xid ^ options_.seed) % options_.sample_period == 0;
}

// Table entries pack (xid << 32 | pool slot + 1); 0 = empty, 1 = tombstone.
SpanCollector::OpRecord* SpanCollector::Find(uint32_t xid) {
  size_t i = Mix64(xid) & table_mask_;
  for (size_t n = 0; n <= table_mask_; ++n) {
    const uint64_t v = table_[i];
    if (v == 0) {
      return nullptr;
    }
    if (v != 1 && (v >> 32) == xid) {
      return &pool_[static_cast<uint32_t>(v) - 1];
    }
    i = (i + 1) & table_mask_;
  }
  return nullptr;
}

void SpanCollector::TableInsert(uint32_t xid, uint32_t slot) {
  size_t i = Mix64(xid) & table_mask_;
  while (true) {
    const uint64_t v = table_[i];
    if (v == 0 || v == 1) {
      if (v == 1) {
        --tombstones_;
      }
      table_[i] = (static_cast<uint64_t>(xid) << 32) | (slot + 1);
      return;
    }
    i = (i + 1) & table_mask_;
  }
}

void SpanCollector::TableErase(uint32_t xid) {
  size_t i = Mix64(xid) & table_mask_;
  while (true) {
    const uint64_t v = table_[i];
    if (v == 0) {
      return;
    }
    if (v != 1 && (v >> 32) == xid) {
      table_[i] = 1;
      ++tombstones_;
      if (tombstones_ > (table_mask_ + 1) / 4) {
        TableRebuild();
      }
      return;
    }
    i = (i + 1) & table_mask_;
  }
}

void SpanCollector::TableRebuild() {
  std::fill(table_.begin(), table_.end(), 0);
  tombstones_ = 0;
  for (uint32_t slot = 0; slot < pool_.size(); ++slot) {
    if (pool_[slot].xid != 0) {
      TableInsert(pool_[slot].xid, slot);
    }
  }
}

SpanCollector::OpRecord* SpanCollector::Begin(uint32_t xid, const TraceEvent& event) {
  OpRecord* existing = Find(xid);
  OpRecord* rec = existing;
  if (rec == nullptr) {
    if (free_.empty()) {
      ++stats_.pool_exhausted_drops;
      return nullptr;
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    rec = &pool_[slot];
    TableInsert(xid, slot);
    ++live_;
    stats_.live_high_water = std::max<uint64_t>(stats_.live_high_water, live_);
  }
  *rec = OpRecord{};
  rec->xid = xid;
  rec->proc = event.proc;
  rec->start = event.at;
  rec->last_at = event.at;
  rec->phase = LatencyComponent::kSendWait;
  ++stats_.ops_started;
  return rec;
}

void SpanCollector::Release(OpRecord& rec) {
  TableErase(rec.xid);
  const uint32_t slot = static_cast<uint32_t>(&rec - pool_.data());
  rec.xid = 0;
  free_.push_back(slot);
  --live_;
}

// The phase machine. Every inter-event interval is charged to exactly one
// component — the phase in effect, with two end-of-interval refinements:
// a transmit interval that ends in another transmit/timeout (instead of a
// server receive) was really the client sitting out its RTO, and an interval
// spent in the disk phase is split queue/service at the FIFO wait recorded
// by the preceding kDiskQueueWait event. Exclusive partition, exact sum.
void SpanCollector::Advance(OpRecord& rec, const TraceEvent& event) {
  const SimTime span = event.at - rec.last_at;
  if (span > 0) {
    if (rec.phase == LatencyComponent::kDiskQueue) {
      const SimTime queued = std::min(span, rec.pending_disk_wait);
      rec.comp[Idx(LatencyComponent::kDiskQueue)] += queued;
      rec.comp[Idx(LatencyComponent::kDiskService)] += span - queued;
      rec.pending_disk_wait -= queued;
    } else if (rec.phase == LatencyComponent::kNetwork &&
               (event.kind == TraceEventKind::kClientRetransmit ||
                event.kind == TraceEventKind::kClientTimeout)) {
      rec.comp[Idx(LatencyComponent::kBackoffWait)] += span;
    } else {
      rec.comp[Idx(rec.phase)] += span;
    }
  }
  rec.last_at = event.at;
  switch (event.kind) {
    case TraceEventKind::kClientSend:
    case TraceEventKind::kClientRetransmit:
      if (rec.attempt_count < kMaxSpanAttempts) {
        rec.attempt_at[rec.attempt_count++] = event.at;
      }
      ++rec.attempts;
      rec.phase = LatencyComponent::kNetwork;
      break;
    case TraceEventKind::kClientTimeout:
      rec.phase = LatencyComponent::kBackoffWait;
      break;
    case TraceEventKind::kServerReceive:
      rec.phase = LatencyComponent::kServerCpu;
      break;
    case TraceEventKind::kDupCacheHit:
      // arg 1 = in-progress drop (client keeps waiting on its RTO);
      // arg 0 = completed-entry replay (a reply is now in flight).
      rec.phase = event.arg == 1 ? LatencyComponent::kBackoffWait
                                 : LatencyComponent::kNetwork;
      break;
    case TraceEventKind::kNfsdSlotWait:
      rec.phase = LatencyComponent::kServerQueue;
      break;
    case TraceEventKind::kNfsdSlotGrant:
      rec.phase = LatencyComponent::kServerCpu;
      break;
    case TraceEventKind::kDiskQueueWait:
      rec.pending_disk_wait = static_cast<SimTime>(event.arg);
      break;
    case TraceEventKind::kDiskQueueEnter:
      rec.phase = LatencyComponent::kDiskQueue;
      break;
    case TraceEventKind::kDiskQueueLeave:
      rec.phase = LatencyComponent::kServerCpu;
      break;
    case TraceEventKind::kGatherJoin:
    case TraceEventKind::kGatherLead:
      rec.phase = LatencyComponent::kGatherWait;
      break;
    case TraceEventKind::kServerReply:
      rec.phase = LatencyComponent::kNetwork;
      break;
    default:
      // Lease traffic and medium events annotate but do not change phase.
      break;
  }
}

void SpanCollector::Retain(const OpRecord& rec, const TraceEvent& complete) {
  const size_t slot = ProcSlot(rec.proc);
  OpBreakdown entry;
  entry.xid = rec.xid;
  entry.proc = rec.proc;
  entry.ok = complete.arg == 1;
  entry.attempts = rec.attempts;
  entry.attempt_count = rec.attempt_count;
  entry.start = rec.start;
  entry.end = complete.at;
  entry.comp = rec.comp;
  entry.cpu = rec.cpu;
  entry.attempt_at = rec.attempt_at;
  if (slow_count_[slot] < kMaxSlowOps) {
    slow_[slot][slow_count_[slot]++] = entry;
    return;
  }
  size_t min_i = 0;
  for (size_t i = 1; i < slow_count_[slot]; ++i) {
    if (slow_[slot][i].total() < slow_[slot][min_i].total()) {
      min_i = i;
    }
  }
  if (entry.total() > slow_[slot][min_i].total()) {
    slow_[slot][min_i] = entry;
  }
}

void SpanCollector::Finish(OpRecord& rec, const TraceEvent& event) {
  Advance(rec, event);  // attribute the final interval; phase update is moot
  const SimTime total = event.at - rec.start;
  SimTime sum = 0;
  for (size_t i = 0; i < kNumLatencyComponents; ++i) {
    sum += rec.comp[i];
  }
  ++stats_.conservation_checks;
  if (sum != total) {
    ++stats_.conservation_failures;
  }
  CHECK(sum == total);  // the partition is exact by construction

  const size_t slot = ProcSlot(rec.proc);
  ProcBreakdown& agg = breakdown_[slot];
  ++agg.ops;
  agg.total += total;
  lat_hist_[slot].Add(static_cast<uint64_t>(total) / 1000);
  for (size_t i = 0; i < kNumLatencyComponents; ++i) {
    agg.comp[i] += rec.comp[i];
  }
  ++stats_.ops_completed;
  Retain(rec, event);
  Release(rec);
}

void SpanCollector::OnTraceEvent(const TraceEvent& event) {
  if (options_.sample_period == 0 || event.xid == 0) {
    return;
  }
  ++stats_.events_seen;
  if (event.kind == TraceEventKind::kClientCallStart) {
    if (!Sampled(event.xid)) {
      ++stats_.sampled_out;
      return;
    }
    Begin(event.xid, event);
    return;
  }
  OpRecord* rec = Find(event.xid);
  if (rec == nullptr) {
    return;  // unsampled, untracked (lease serials, garbage xids), or dropped
  }
  if (event.kind == TraceEventKind::kClientComplete) {
    Finish(*rec, event);
  } else {
    Advance(*rec, event);
  }
}

void SpanCollector::OnCpuCharge(uint32_t xid, uint8_t category, SimTime cost) {
  if (options_.sample_period == 0 || xid == 0) {
    return;
  }
  OpRecord* rec = Find(xid);
  if (rec == nullptr) {
    return;
  }
  ++stats_.cpu_charges;
  if (category < kNumCostCategories) {
    rec->cpu[category] += cost;
  }
}

SpanCollector::ProcBreakdown SpanCollector::TotalBreakdown() const {
  ProcBreakdown out;
  for (const ProcBreakdown& b : breakdown_) {
    out.ops += b.ops;
    out.total += b.total;
    for (size_t i = 0; i < kNumLatencyComponents; ++i) {
      out.comp[i] += b.comp[i];
    }
  }
  return out;
}

std::vector<SpanCollector::ComponentShare> SpanCollector::TopComponents(
    uint32_t proc, size_t n) const {
  const ProcBreakdown& b = breakdown_[ProcSlot(proc)];
  std::vector<ComponentShare> shares;
  if (b.total == 0) {
    return shares;
  }
  for (size_t i = 0; i < kNumLatencyComponents; ++i) {
    if (b.comp[i] > 0) {
      shares.push_back({static_cast<LatencyComponent>(i),
                        static_cast<double>(b.comp[i]) / static_cast<double>(b.total)});
    }
  }
  std::sort(shares.begin(), shares.end(),
            [](const ComponentShare& a, const ComponentShare& c) {
              return a.share > c.share;
            });
  if (shares.size() > n) {
    shares.resize(n);
  }
  return shares;
}

std::vector<OpBreakdown> SpanCollector::SlowOps(uint32_t proc) const {
  const size_t slot = ProcSlot(proc);
  std::vector<OpBreakdown> out(slow_[slot].begin(),
                               slow_[slot].begin() + slow_count_[slot]);
  std::sort(out.begin(), out.end(), [](const OpBreakdown& a, const OpBreakdown& b) {
    return a.total() > b.total();
  });
  return out;
}

std::vector<OpBreakdown> SpanCollector::SlowOps() const {
  std::vector<OpBreakdown> out;
  for (size_t slot = 0; slot < kSpanProcSlots; ++slot) {
    out.insert(out.end(), slow_[slot].begin(), slow_[slot].begin() + slow_count_[slot]);
  }
  std::sort(out.begin(), out.end(), [](const OpBreakdown& a, const OpBreakdown& b) {
    return a.total() > b.total();
  });
  return out;
}

std::string SpanCollector::ProcName(uint32_t proc) const {
  if (proc_namer_ != nullptr) {
    return proc_namer_(proc);
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "proc%u", proc);
  return buf;
}

std::string SpanCollector::BreakdownTable() const {
  std::string out =
      "latency breakdown (sampled ops; exclusive components, sum == wall clock):\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-10s %8s %10s  %s\n", "proc", "ops",
                "mean_ms", "components");
  out += buf;
  for (size_t slot = 0; slot < kSpanProcSlots; ++slot) {
    const ProcBreakdown& b = breakdown_[slot];
    if (b.ops == 0) {
      continue;
    }
    const double mean_ms =
        static_cast<double>(b.total) / static_cast<double>(b.ops) / 1e6;
    std::snprintf(buf, sizeof(buf), "  %-10s %8llu %10.3f  ",
                  ProcName(static_cast<uint32_t>(slot)).c_str(),
                  static_cast<unsigned long long>(b.ops), mean_ms);
    out += buf;
    bool first = true;
    for (const ComponentShare& s : TopComponents(static_cast<uint32_t>(slot), 4)) {
      std::snprintf(buf, sizeof(buf), "%s%s %.0f%%", first ? "" : ", ",
                    LatencyComponentName(s.component), s.share * 100.0);
      out += buf;
      first = false;
    }
    out += '\n';
  }
  out += "tail attribution (retained op nearest each proc's p99):\n";
  for (size_t slot = 0; slot < kSpanProcSlots; ++slot) {
    if (breakdown_[slot].ops == 0 || slow_count_[slot] == 0) {
      continue;
    }
    const SimTime p99_ns =
        static_cast<SimTime>(lat_hist_[slot].Percentile(0.99)) * 1000;
    // The retained op with the smallest total at or above p99, else the
    // slowest one retained.
    const OpBreakdown* pick = nullptr;
    for (size_t i = 0; i < slow_count_[slot]; ++i) {
      const OpBreakdown& op = slow_[slot][i];
      if (op.total() >= p99_ns &&
          (pick == nullptr || op.total() < pick->total())) {
        pick = &op;
      }
    }
    if (pick == nullptr) {
      for (size_t i = 0; i < slow_count_[slot]; ++i) {
        if (pick == nullptr || slow_[slot][i].total() > pick->total()) {
          pick = &slow_[slot][i];
        }
      }
    }
    std::snprintf(buf, sizeof(buf), "  p99 %s = ",
                  ProcName(static_cast<uint32_t>(slot)).c_str());
    out += buf;
    const SimTime total = pick->total() > 0 ? pick->total() : 1;
    bool first = true;
    size_t printed = 0;
    std::array<size_t, kNumLatencyComponents> order;
    for (size_t i = 0; i < kNumLatencyComponents; ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t c) {
      return pick->comp[a] > pick->comp[c];
    });
    for (size_t i : order) {
      if (pick->comp[i] == 0 || printed >= 3) {
        break;
      }
      std::snprintf(buf, sizeof(buf), "%s%.0f%% %s", first ? "" : ", ",
                    static_cast<double>(pick->comp[i]) * 100.0 /
                        static_cast<double>(total),
                    LatencyComponentName(static_cast<LatencyComponent>(i)));
      out += buf;
      first = false;
      ++printed;
    }
    std::snprintf(buf, sizeof(buf), " (xid 0x%06x, %.3f ms, %u tx)\n", pick->xid,
                  static_cast<double>(pick->total()) / 1e6, pick->attempts);
    out += buf;
  }
  return out;
}

}  // namespace renonfs
