#include "src/sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace renonfs {

Scheduler::~Scheduler() = default;  // ~EventCallable destroys pending callables

Scheduler::PoolStats Scheduler::pool_stats() const {
  PoolStats stats;
  stats.nodes_total = nodes_total_;
  stats.nodes_in_use = nodes_in_use_;
  stats.nodes_free = nodes_total_ - nodes_in_use_;
  stats.high_water = nodes_high_water_;
  stats.callable_heap_allocs = callable_heap_allocs_;
  return stats;
}

void Scheduler::GrowArena() {
  slabs_.push_back(std::make_unique<EventNode[]>(kNodesPerSlab));
  EventNode* slab = slabs_.back().get();
  for (size_t i = kNodesPerSlab; i > 0; --i) {
    slab[i - 1].next = free_list_;
    free_list_ = &slab[i - 1];
  }
  nodes_total_ += kNodesPerSlab;
}

Scheduler::EventNode* Scheduler::AcquireNode(SimTime delay) {
  if (wheel_size_ == 0) {
    // The cursor may have drifted past now_ draining cancelled tail events;
    // with nothing pending it can safely snap back to the clock. (Done here,
    // not in InsertWheel: a cascade transiently empties the wheel while
    // re-dealing a slot, and rewinding the cursor mid-cascade would loop.)
    cur_tick_ = now_;
  }
  if (free_list_ == nullptr) {
    GrowArena();
  }
  EventNode* node = free_list_;
  free_list_ = node->next;
  node->next = nullptr;
  node->prev = nullptr;
  node->cancelled = false;
  node->at = now_ + delay;
  node->seq = next_seq_++;
  ++nodes_in_use_;
  if (nodes_in_use_ > nodes_high_water_) {
    nodes_high_water_ = nodes_in_use_;
  }
  return node;
}

void Scheduler::RecycleNode(EventNode* node) {
  ++node->gen;  // stale handles on this node stop reporting pending
  node->fn.Destroy();
  node->next = free_list_;
  free_list_ = node;
  --wheel_size_;
  --nodes_in_use_;
}

void Scheduler::InsertWheel(EventNode* node) {
  const uint64_t diff =
      static_cast<uint64_t>(node->at) ^ static_cast<uint64_t>(cur_tick_);
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const int index = static_cast<int>(
      (static_cast<uint64_t>(node->at) >> (level * kLevelBits)) &
      (kSlotsPerLevel - 1));
  Slot& slot = slots_[level][index];
  node->next = nullptr;
  node->prev = slot.tail;
  if (slot.tail == nullptr) {
    slot.head = node;
  } else {
    slot.tail->next = node;
  }
  slot.tail = node;
  node->wheel_level = static_cast<int8_t>(level);
  node->wheel_slot = static_cast<uint8_t>(index);
  occupied_[level] |= uint64_t{1} << index;
  ++wheel_size_;
}

void Scheduler::UnlinkNode(EventNode* node) {
  Slot& slot = slots_[node->wheel_level][node->wheel_slot];
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    slot.head = node->next;
  }
  if (node->next != nullptr) {
    node->next->prev = node->prev;
  } else {
    slot.tail = node->prev;
  }
  if (slot.head == nullptr) {
    occupied_[node->wheel_level] &= ~(uint64_t{1} << node->wheel_slot);
  }
  node->wheel_level = -1;
  node->next = nullptr;
  node->prev = nullptr;
}

bool Scheduler::FindNextTick(SimTime cap) {
  for (;;) {
    if (wheel_size_ == 0) {
      return false;
    }
    // A node sits at the level of the highest digit where its time differs
    // from the cursor, so a node at level L lies past the cursor's whole
    // level-L block, which holds every node at a lower level. The lowest
    // occupied level therefore holds the earliest event, and its first
    // occupied slot at or after the cursor digit holds it.
    int level = 0;
    while (occupied_[level] == 0) {
      ++level;
      CHECK_LT(level, kLevels);
    }
    const int shift = level * kLevelBits;
    const int cursor = static_cast<int>(
        (static_cast<uint64_t>(cur_tick_) >> shift) & (kSlotsPerLevel - 1));
    const uint64_t mask = occupied_[level] >> cursor;
    CHECK(mask != 0) << "timing wheel: occupied slot behind the cursor";
    const int index = cursor + std::countr_zero(mask);
    const int base_shift = shift + kLevelBits;
    const uint64_t base =
        base_shift >= 64
            ? 0
            : static_cast<uint64_t>(cur_tick_) & ~((uint64_t{1} << base_shift) - 1);
    const SimTime slot_start =
        static_cast<SimTime>(base | (static_cast<uint64_t>(index) << shift));
    if (slot_start > cap) {
      return false;
    }
    if (level == 0) {
      cur_tick_ = slot_start;  // a level-0 slot is one instant
      return true;
    }
    // Jump inside the slot: the cursor moves to its earliest event (slot
    // lists are in insertion order, so walk it), or to the cap if that comes
    // first. The jump stays inside this slot's span, so every other node keeps
    // its level; the slot's own nodes are re-dealt below it, the earliest
    // onto level 0 unless the cap stopped the cursor short.
    Slot& slot = slots_[level][index];
    SimTime earliest = std::numeric_limits<SimTime>::max();
    for (const EventNode* node = slot.head; node != nullptr; node = node->next) {
      earliest = std::min(earliest, node->at);
    }
    cur_tick_ = std::min(earliest, cap);
    EventNode* node = slot.head;
    slot.head = nullptr;
    slot.tail = nullptr;
    occupied_[level] &= ~(uint64_t{1} << index);
    while (node != nullptr) {
      EventNode* next = node->next;
      // Cancelled nodes never sit in slots (Cancel unlinks them eagerly), so
      // every node here is live and re-deals to a strictly lower level.
      --wheel_size_;  // InsertWheel re-counts it
      InsertWheel(node);
      node = next;
    }
  }
}

size_t Scheduler::FireCurrentTick() {
  const int index =
      static_cast<int>(static_cast<uint64_t>(cur_tick_) & (kSlotsPerLevel - 1));
  Slot& slot = slots_[0][index];
  size_t executed = 0;
  // Re-drain after each batch: callbacks may schedule more work for this same
  // instant, and it must fire now (with higher seq), as (time, seq) order
  // demands.
  while (slot.head != nullptr) {
    fire_buf_.clear();
    for (EventNode* node = slot.head; node != nullptr; node = node->next) {
      // Out of the slot list: a Cancel from a callback in this batch falls
      // back to the `cancelled` flag instead of unlinking.
      node->wheel_level = -1;
      fire_buf_.push_back(node);
    }
    slot.head = nullptr;
    slot.tail = nullptr;
    occupied_[0] &= ~(uint64_t{1} << index);
    // Direct inserts arrive in seq order, but a cascade can append an
    // earlier-scheduled node behind a later one; the sort restores exact
    // (time, seq) firing order. Same-tick batches are small, so this stays
    // off the critical path.
    std::sort(fire_buf_.begin(), fire_buf_.end(),
              [](const EventNode* a, const EventNode* b) { return a->seq < b->seq; });
    for (EventNode* node : fire_buf_) {
      if (node->cancelled) {
        RecycleNode(node);
        continue;
      }
      now_ = node->at;
      // Mark consumed before invoking: the handle must read not-pending
      // inside its own callback, and a Cancel from the callback must be a
      // harmless no-op.
      node->cancelled = true;
      current_seq_ = node->seq;
      node->fn.Invoke();
      current_seq_ = std::numeric_limits<uint64_t>::max();
      node->fn.Destroy();
      RecycleNode(node);
      ++executed;
      ++events_executed_;
    }
  }
  return executed;
}

void Scheduler::Cancel(EventHandle& handle) {
  EventNode* node = handle.node_;
  handle.node_ = nullptr;
  if (node == nullptr || node->gen != handle.gen_ || node->cancelled) {
    return;
  }
  if (node->wheel_level >= 0) {
    // Slot-linked: unlink and recycle right now (O(1) via the prev link) —
    // no tombstone for the cascade or fire paths to step over.
    UnlinkNode(node);
    RecycleNode(node);
  } else {
    // Drained into the in-flight fire batch; the fire loop reaps it.
    node->cancelled = true;
  }
}

bool Scheduler::Reschedule(EventHandle& handle, SimTime delay) {
  CHECK_GE(delay, 0);
  EventNode* node = handle.node_;
  if (node == nullptr || node->gen != handle.gen_ || node->cancelled ||
      node->wheel_level < 0) {
    return false;
  }
  UnlinkNode(node);
  --wheel_size_;  // InsertWheel re-counts it
  node->at = now_ + delay;
  node->seq = next_seq_++;
  InsertWheel(node);
  return true;
}

size_t Scheduler::Run() { return RunUntil(std::numeric_limits<SimTime>::max()); }

size_t Scheduler::RunUntil(SimTime deadline) {
  size_t executed = 0;
  while (FindNextTick(deadline)) {
    executed += FireCurrentTick();
  }
  if (deadline != std::numeric_limits<SimTime>::max() && now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace renonfs
