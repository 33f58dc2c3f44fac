#include "src/net/medium.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

void Medium::Attach(HostId node, Receiver receiver) {
  CHECK(!taps_.contains(node)) << config_.name << ": node " << node << " attached twice";
  taps_[node] = std::move(receiver);
}

// Claim and WireTime run once per frame; they are defined ahead of their
// callers, with their rare paths out of line, so that they inline.
inline SimTime Medium::WireTime(size_t wire_bytes) {
  if (wire_bytes >= wire_time_.size()) {
    FillWireTimes(wire_bytes);
  }
  return wire_time_[wire_bytes];
}

inline SimTime Medium::Claim(size_t wire_bytes, SimTime extra_delay) {
  if (Entry(next_frame_id_).state != FrameState::kGone) {
    GrowRing();
  }
  const SimTime start = std::max(busy_until_, scheduler_.now());
  busy_until_ = start + WireTime(wire_bytes);
  stats_.bytes_on_wire += wire_bytes;
  ++occupancy_;
  const SimTime arrival = busy_until_ + config_.propagation_delay + extra_latency_ + extra_delay;
  Entry(next_frame_id_++) = FrameEntry{arrival, FrameState::kQueued};
  return arrival;
}

bool Medium::Transmit(Frame frame) {
  Reap();
  if (down_) {
    // A dead line gives the transmitter no feedback: the frame just never
    // arrives. Returning true keeps the sender's accounting identical to a
    // frame lost in flight.
    ++stats_.frames_dropped_down;
    return true;
  }
  if (occupancy_ >= config_.queue_limit) {
    ++stats_.frames_dropped_queue;
    // Collateral damage: overflow pressure sometimes costs a recently queued
    // frame as well (fragment interleaving on a real store-and-forward
    // gateway — the frames contending with the dropped one arrived around
    // the same time, i.e. near the queue tail; frames at the head are
    // already committed to the line). The victim is the r-th newest frame
    // holding a slot, background frames included; it keeps its slot and line
    // time but never arrives.
    if (occupancy_ > 0 && rng_.Bernoulli(0.4)) {
      uint64_t id = next_frame_id_;
      for (uint64_t r = rng_.UniformUint64(std::min<size_t>(occupancy_, 4)) + 1; r > 0;) {
        r -= Entry(--id).state != FrameState::kGone ? 1 : 0;
      }
      FrameEntry& victim = Entry(id);
      if (victim.state == FrameState::kQueued) {
        victim.state = FrameState::kDamaged;
        ++stats_.frames_damaged;
      }
    }
    return false;
  }
  const double loss = std::max(config_.loss_probability, transient_loss_);
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    // Lost on the wire: it still occupies the sender's bandwidth slot, but
    // never arrives. Model as a queued transmission with no delivery: a
    // run of one frame.
    ++stats_.frames_dropped_loss;
    const size_t wire_bytes = frame.WireBytes(config_.framing_bytes);
    ClaimUndelivered({&wire_bytes, 1});
    return true;
  }
  SimTime extra_delay = 0;
  if (corruption_.Active()) {
    // Data-level faults. Order matters for determinism: every branch draws
    // exactly the probabilities it declares, so the Rng consumption per frame
    // is a pure function of the config and the draws themselves.
    if (corruption_.duplicate > 0.0 && rng_.Bernoulli(corruption_.duplicate)) {
      ++stats_.frames_duplicated;
      Frame copy;
      copy.src = frame.src;
      copy.dst = frame.dst;
      copy.link_next_hop = frame.link_next_hop;
      copy.proto = frame.proto;
      copy.datagram_id = frame.datagram_id;
      copy.frag_offset = frame.frag_offset;
      copy.more_fragments = frame.more_fragments;
      copy.payload = frame.payload.Clone();
      Deliver(std::move(copy), 0);
    }
    if (corruption_.bit_flip > 0.0 && rng_.Bernoulli(corruption_.bit_flip) &&
        !frame.payload.Empty()) {
      // Deep-copy before flipping: the payload's clusters are shared with the
      // sender's retained copy (RPC retransmit buffers, the TCP send buffer),
      // which must keep the original bytes.
      std::vector<uint8_t> bytes = frame.payload.ContiguousCopy();
      const int flips = 1 + static_cast<int>(rng_.UniformUint64(3));
      for (int i = 0; i < flips; ++i) {
        const size_t bit = rng_.UniformUint64(bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      frame.payload = MbufChain::FromBytes(bytes.data(), bytes.size());
      ++stats_.frames_bit_flipped;
    }
    if (corruption_.truncate > 0.0 && rng_.Bernoulli(corruption_.truncate) &&
        !frame.payload.Empty()) {
      std::vector<uint8_t> bytes = frame.payload.ContiguousCopy();
      const size_t keep = rng_.UniformUint64(bytes.size());  // [0, len)
      frame.payload = MbufChain::FromBytes(bytes.data(), keep);
      ++stats_.frames_truncated;
    }
    if (corruption_.reorder > 0.0 && rng_.Bernoulli(corruption_.reorder)) {
      // Held back past its slot: frames transmitted after this one arrive
      // first, which is how a real store-and-forward mesh reorders.
      extra_delay = corruption_.reorder_delay;
      ++stats_.frames_reordered;
    }
  }
  Deliver(std::move(frame), extra_delay);
  return true;
}

void Medium::Deliver(Frame frame, SimTime extra_delay) {
  const uint64_t id = next_frame_id_;
  const SimTime arrival = Claim(frame.WireBytes(config_.framing_bytes), extra_delay);
  auto arrive = [this, id, frame = std::move(frame)]() mutable {
    if (!Depart(id)) {
      return;  // damaged in the queue
    }
    auto tap = taps_.find(frame.link_next_hop);
    if (tap == taps_.end()) {
      // No such neighbor; the frame dies on the segment.
      return;
    }
    ++stats_.frames_delivered;
    if (tracer_ != nullptr) {
      tracer_->Record(trace_track_, TraceEventKind::kMediumTraverse, 0, 0,
                      frame.WireBytes(config_.framing_bytes));
    }
    tap->second(std::move(frame));
  };
  // Runs once per delivered frame: it must fit the event node's inline
  // storage, or every delivery would allocate.
  static_assert(sizeof(arrive) <= Scheduler::EventCallable::kInlineBytes);
  scheduler_.Schedule(arrival - scheduler_.now(), std::move(arrive));
}

void Medium::InjectBurst(std::span<const size_t> wire_bytes) {
  Reap();
  if (down_) {
    stats_.frames_dropped_down += wire_bytes.size();
    return;
  }
  // Every frame claimed now arrives at least one propagation delay later, so
  // none leaves within this instant: once the queue is full, it stays full
  // for the rest of the train.
  const size_t room = occupancy_ < config_.queue_limit ? config_.queue_limit - occupancy_ : 0;
  const size_t fit = std::min(room, wire_bytes.size());
  stats_.frames_dropped_queue += wire_bytes.size() - fit;
  if (fit > 0) {
    stats_.background_frames += fit;
    ClaimUndelivered(wire_bytes.first(fit));
  }
}

void Medium::ClaimUndelivered(std::span<const size_t> wire_bytes) {
  // One seq stands for the whole run. Claimed one call per frame, the
  // frames would take consecutive seqs, since nothing else takes a seq while
  // a train is claimed; no event holds a seq between them, so any event's
  // (time, seq) compares with each frame's (arrival, run seq) as it would
  // with the frame's own seq (DESIGN.md §14).
  UndeliveredRun run{0, scheduler_.ReserveSeq(), next_frame_id_,
                     next_frame_id_ + wire_bytes.size()};
  for (const size_t bytes : wire_bytes) {
    Claim(bytes, 0);
  }
  run.next_arrival = Entry(run.next_id).arrival;
  // Runs normally arrive in claim order, but after a latency storm ends
  // with frames still queued a later run can arrive first.
  runs_.push_back(run);
  std::push_heap(runs_.begin(), runs_.end(), LaterRun);
}

void Medium::Reap() {
  // Events fire in (time, seq) order, so the ones below the running event's
  // (time, seq) have fired; outside any callback current_seq() is the
  // maximum and that means every arrival up to now().
  const SimTime now = scheduler_.now();
  const uint64_t seq = scheduler_.current_seq();
  auto fired = [&](SimTime arrival, uint64_t run_seq) {
    return arrival < now || (arrival == now && run_seq < seq);
  };
  while (!runs_.empty() && fired(runs_.front().next_arrival, runs_.front().seq)) {
    std::pop_heap(runs_.begin(), runs_.end(), LaterRun);
    UndeliveredRun& run = runs_.back();
    do {
      Entry(run.next_id).state = FrameState::kGone;
      --occupancy_;
    } while (++run.next_id != run.end_id && fired(Entry(run.next_id).arrival, run.seq));
    if (run.next_id == run.end_id) {
      runs_.pop_back();
    } else {
      run.next_arrival = Entry(run.next_id).arrival;
      std::push_heap(runs_.begin(), runs_.end(), LaterRun);
    }
  }
}

bool Medium::Depart(uint64_t id) {
  FrameEntry& entry = Entry(id);
  CHECK(entry.state != FrameState::kGone) << config_.name << ": frame " << id << " not queued";
  const bool alive = entry.state == FrameState::kQueued;
  entry.state = FrameState::kGone;
  --occupancy_;
  return alive;
}

void Medium::GrowRing() {
  std::vector<FrameEntry> grown(frames_.size() * 2);
  for (uint64_t id = next_frame_id_ - frames_.size(); id != next_frame_id_; ++id) {
    grown[id & (grown.size() - 1)] = Entry(id);
  }
  frames_ = std::move(grown);
}

void Medium::FillWireTimes(size_t up_to_bytes) {
  const size_t known = wire_time_.size();
  wire_time_.resize(up_to_bytes + 1);
  for (size_t bytes = known; bytes <= up_to_bytes; ++bytes) {
    wire_time_[bytes] = TransmissionTime(bytes, config_.bits_per_sec);
  }
}

}  // namespace renonfs
