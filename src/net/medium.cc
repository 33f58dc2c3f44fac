#include "src/net/medium.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

void Medium::Attach(HostId node, Receiver receiver) {
  CHECK(!taps_.contains(node)) << config_.name << ": node " << node << " attached twice";
  taps_[node] = std::move(receiver);
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
  if (pending_.size() >= config_.queue_limit) {
    ++stats_.frames_dropped_queue;
    // Collateral damage: overflow pressure sometimes costs a recently queued
    // frame as well (fragment interleaving on a real store-and-forward
    // gateway — the frames contending with the dropped one arrived around
    // the same time, i.e. near the queue tail; frames at the head are
    // already committed to the line). The victim keeps its slot and line
    // time but never arrives.
    if (!pending_.empty() && rng_.Bernoulli(0.4)) {
      const size_t tail_window = std::min<size_t>(pending_.size(), 4);
      PendingFrame& victim = pending_[pending_.size() - 1 - rng_.UniformUint64(tail_window)];
      if (victim.alive) {
        victim.alive = false;
        ++stats_.frames_damaged;
      }
    }
    return false;
  }
  const double loss = std::max(config_.loss_probability, transient_loss_);
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    // Lost on the wire: it still occupies the sender's bandwidth slot, but
    // never arrives. Model as a queued transmission with no delivery.
    ++stats_.frames_dropped_loss;
    ClaimUndelivered(frame.WireBytes(config_.framing_bytes));
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
  const SimTime arrival = Claim(frame.WireBytes(config_.framing_bytes), extra_delay);
  auto arrive = [this, id = pending_.back().id, frame = std::move(frame)]() mutable {
    auto entry = FindPending(id);
    const bool alive = entry->alive;
    pending_.erase(entry);
    if (!alive) {
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

void Medium::InjectBackground(size_t wire_bytes) {
  Reap();
  if (down_) {
    ++stats_.frames_dropped_down;
    return;
  }
  if (pending_.size() >= config_.queue_limit) {
    ++stats_.frames_dropped_queue;
    return;
  }
  ++stats_.background_frames;
  ClaimUndelivered(wire_bytes);
}

SimTime Medium::Claim(size_t wire_bytes, SimTime extra_delay) {
  pending_.push_back(PendingFrame{next_frame_id_++});
  const SimTime start = std::max(busy_until_, scheduler_.now());
  busy_until_ = start + TransmissionTime(wire_bytes, config_.bits_per_sec);
  stats_.bytes_on_wire += wire_bytes;
  return busy_until_ + config_.propagation_delay + extra_latency_ + extra_delay;
}

void Medium::ClaimUndelivered(size_t wire_bytes) {
  const UndeliveredFrame frame{Claim(wire_bytes, 0), scheduler_.ReserveSeq(), pending_.back().id};
  // Arrivals ascend unless a latency storm ended with frames still queued;
  // then a later frame can arrive first. The reserved seq is the largest so
  // far, so inserting after every equal arrival keeps (arrival, seq) order.
  auto at = std::upper_bound(
      undelivered_.begin(), undelivered_.end(), frame.arrival,
      [](SimTime arrival, const UndeliveredFrame& queued) { return arrival < queued.arrival; });
  undelivered_.insert(at, frame);
}

void Medium::Reap() {
  // Events fire in (time, seq) order, so the ones below the running event's
  // (time, seq) have fired; outside any callback current_seq() is the
  // maximum and that means every arrival up to now().
  const SimTime now = scheduler_.now();
  const uint64_t seq = scheduler_.current_seq();
  auto gone = undelivered_.begin();
  while (gone != undelivered_.end() &&
         (gone->arrival < now || (gone->arrival == now && gone->seq < seq))) {
    pending_.erase(FindPending(gone->id));
    ++gone;
  }
  undelivered_.erase(undelivered_.begin(), gone);
}

std::vector<Medium::PendingFrame>::iterator Medium::FindPending(uint64_t id) {
  auto entry = std::lower_bound(
      pending_.begin(), pending_.end(), id,
      [](const PendingFrame& pending, uint64_t want) { return pending.id < want; });
  CHECK(entry != pending_.end() && entry->id == id)
      << config_.name << ": frame " << id << " not queued";
  return entry;
}

}  // namespace renonfs
