#include "src/net/node.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

Node::Node(Scheduler& scheduler, HostId id, CostProfile profile, std::string name, Rng rng)
    : scheduler_(scheduler),
      id_(id),
      profile_(profile),
      name_(std::move(name)),
      cpu_(scheduler, profile.cpu_speed_factor),
      disk_(scheduler),
      rng_(rng) {}

void Node::SetInputBlocked(HostId src, bool blocked) {
  if (blocked) {
    blocked_in_.insert(src);
  } else {
    blocked_in_.erase(src);
  }
}

void Node::SetOutputBlocked(HostId dst, bool blocked) {
  if (blocked) {
    blocked_out_.insert(dst);
  } else {
    blocked_out_.erase(dst);
  }
}

void Node::AttachMedium(Medium* medium) {
  medium->Attach(id_, [this, medium](Frame frame) { OnFrameReceived(medium, std::move(frame)); });
}

void Node::AddRoute(HostId dst, Medium* medium, HostId next_hop) {
  routes_[dst] = Route{medium, next_hop};
}

void Node::SetDefaultRoute(Medium* medium, HostId next_hop) {
  default_route_ = Route{medium, next_hop};
}

void Node::RegisterProtocol(uint8_t proto, ProtocolHandler handler) {
  CHECK(!protocols_.contains(proto)) << name_ << ": protocol registered twice";
  protocols_[proto] = std::move(handler);
}

const Node::Route* Node::LookupRoute(HostId dst) const {
  auto it = routes_.find(dst);
  if (it != routes_.end()) {
    return &it->second;
  }
  if (default_route_.has_value()) {
    return &*default_route_;
  }
  return nullptr;
}

void Node::SendDatagram(Datagram datagram) {
  if (!powered_) {
    ++stats_.powered_off_drops;
    return;
  }
  if (blocked_out_.contains(datagram.dst)) {
    ++stats_.partition_out_drops;
    return;
  }
  const Route* route = LookupRoute(datagram.dst);
  if (route == nullptr) {
    ++stats_.send_drops_no_route;
    return;
  }
  ++stats_.datagrams_sent;
  Frame whole;
  whole.src = datagram.src;
  whole.dst = datagram.dst;
  whole.proto = datagram.proto;
  whole.datagram_id = (static_cast<uint32_t>(id_) << 16) | (next_datagram_id_++ & 0xffff);
  whole.frag_offset = 0;
  whole.more_fragments = false;
  whole.payload = std::move(datagram.payload);

  // IP output processing for the datagram as a whole.
  cpu_.ChargeBackground(profile_.ip_output_per_packet, CostCategory::kIp);
  OutputFragments(route->medium, route->next_hop, std::move(whole));
}

void Node::OutputFragments(Medium* medium, HostId next_hop, Frame whole) {
  const size_t max_payload = medium->MaxFragmentPayload() & ~size_t{7};  // 8-byte aligned
  const size_t total = whole.payload.Length();
  if (total <= medium->MaxFragmentPayload()) {
    whole.link_next_hop = next_hop;
    TransmitFrame(medium, std::move(whole));
    return;
  }
  size_t off = 0;
  while (off < total) {
    const size_t take = std::min(max_payload, total - off);
    Frame frag;
    frag.src = whole.src;
    frag.dst = whole.dst;
    frag.proto = whole.proto;
    frag.datagram_id = whole.datagram_id;
    frag.frag_offset = whole.frag_offset + static_cast<uint32_t>(off);
    frag.more_fragments = whole.more_fragments || (off + take < total);
    frag.link_next_hop = next_hop;
    frag.payload = whole.payload.CopyRange(off, take);
    off += take;
    cpu_.ChargeBackground(profile_.ip_output_per_packet / 2, CostCategory::kIp);  // per extra fragment
    TransmitFrame(medium, std::move(frag));
  }
}

void Node::TransmitFrame(Medium* medium, Frame frame) {
  // NIC transmit cost: startup plus getting the bytes to the board. With the
  // tuned interface, clusters are mapped (fixed per-cluster PTE swap) and only
  // small-mbuf bytes are copied; the stock interface copies everything.
  SimTime cost = profile_.nic_txstart_per_packet;
  SimTime copy_cost = 0;
  size_t cluster_bytes = 0;
  size_t cluster_count = 0;
  for (const Mbuf* m = frame.payload.head(); m != nullptr; m = m->next()) {
    if (m->has_cluster()) {
      cluster_bytes += m->length();
      ++cluster_count;
    }
  }
  const size_t small_bytes = frame.payload.Length() - cluster_bytes;
  if (nic_config_.mapped_transmit) {
    cost += profile_.nic_map_per_cluster * static_cast<SimTime>(cluster_count);
    copy_cost = profile_.copy_per_byte * static_cast<SimTime>(small_bytes + kIpHeaderBytes);
  } else {
    copy_cost =
        profile_.copy_per_byte * static_cast<SimTime>(frame.payload.Length() + kIpHeaderBytes);
  }
  if (nic_config_.transmit_interrupts) {
    // Interrupt service after transmission completes; pure CPU accounting.
    cpu_.ChargeBackground(profile_.nic_tx_interrupt, CostCategory::kIfOutput);
  }
  cpu_.ChargeBackground(copy_cost, CostCategory::kCopy);
  auto transmit = [this, medium, frame = std::move(frame)]() mutable {
    ++stats_.frames_sent;
    if (!medium->Transmit(std::move(frame))) {
      ++stats_.send_drops_queue;
    }
  };
  // Runs once per frame per hop: it must fit the event node's inline
  // storage, or every transmit would allocate.
  static_assert(sizeof(transmit) <= Scheduler::EventCallable::kInlineBytes);
  cpu_.Charge(cost, CostCategory::kIfOutput, std::move(transmit));
}

void Node::OnFrameReceived(Medium* medium, Frame frame) {
  (void)medium;
  if (!powered_) {
    // Dead NIC: the frame falls on the floor, no interrupt, no CPU cost.
    ++stats_.powered_off_drops;
    return;
  }
  if (blocked_in_.contains(frame.src)) {
    ++stats_.partition_in_drops;
    return;
  }
  ++stats_.frames_received;
  // Receive interrupt plus copying the frame out of board memory into mbufs,
  // then IP input processing. Charged in category pieces; the queueing delay
  // is identical to a single combined charge.
  cpu_.ChargeBackground(profile_.nic_rx_interrupt, CostCategory::kIfInput);
  cpu_.ChargeBackground(
      profile_.copy_per_byte * static_cast<SimTime>(frame.payload.Length() + kIpHeaderBytes),
      CostCategory::kCopy);
  auto input = [this, frame = std::move(frame)]() mutable { ProcessFrame(std::move(frame)); };
  // Runs once per frame per hop, like the transmit closure above.
  static_assert(sizeof(input) <= Scheduler::EventCallable::kInlineBytes);
  cpu_.Charge(profile_.ip_input_per_packet, CostCategory::kIp, std::move(input));
}

void Node::ProcessFrame(Frame frame) {
  if (frame.dst == id_) {
    DeliverFragment(std::move(frame));
  } else if (forwarding_) {
    ForwardFrame(std::move(frame));
  }
  // Else: not for us and not forwarding; drop silently.
}

void Node::ForwardFrame(Frame frame) {
  if (blocked_out_.contains(frame.dst)) {
    ++stats_.partition_out_drops;
    return;
  }
  const Route* route = LookupRoute(frame.dst);
  if (route == nullptr) {
    ++stats_.send_drops_no_route;
    return;
  }
  ++stats_.frames_forwarded;
  cpu_.ChargeBackground(profile_.ip_forward_per_packet, CostCategory::kIp);
  // A fragment may need further fragmentation entering a smaller-MTU link.
  OutputFragments(route->medium, route->next_hop, std::move(frame));
}

void Node::DeliverFragment(Frame frame) {
  const bool single = frame.frag_offset == 0 && !frame.more_fragments;
  if (single) {
    ++stats_.datagrams_delivered;
    auto handler = protocols_.find(frame.proto);
    if (handler != protocols_.end()) {
      Datagram datagram{frame.src, frame.dst, frame.proto, std::move(frame.payload)};
      handler->second(std::move(datagram));
    }
    return;
  }

  cpu_.ChargeBackground(profile_.ip_reassembly_per_fragment, CostCategory::kIp);
  const ReassemblyKey key{frame.src, frame.proto, frame.datagram_id};
  Reassembly& entry = reassembly_[key];
  if (entry.fragments.empty()) {
    entry.deadline = scheduler_.now() + kReassemblyTimeout;
    scheduler_.Schedule(kReassemblyTimeout, [this]() { ReapReassembly(); });
  }
  if (!frame.more_fragments) {
    entry.total_len = frame.frag_offset + static_cast<uint32_t>(frame.payload.Length());
  }
  entry.fragments[frame.frag_offset] = std::move(frame.payload);

  if (!entry.total_len.has_value()) {
    return;
  }
  // Check contiguous coverage of [0, total_len).
  uint32_t covered = 0;
  for (const auto& [off, chain] : entry.fragments) {
    if (off > covered) {
      return;  // hole
    }
    covered = std::max(covered, off + static_cast<uint32_t>(chain.Length()));
  }
  if (covered < *entry.total_len) {
    return;
  }

  MbufChain assembled;
  uint32_t next = 0;
  for (auto& [off, chain] : entry.fragments) {
    if (off + chain.Length() <= next) {
      continue;  // fully duplicate fragment
    }
    const uint32_t piece_end = off + static_cast<uint32_t>(chain.Length());
    MbufChain piece = std::move(chain);
    if (off < next) {
      piece.TrimFront(next - off);
    }
    next = piece_end;
    assembled.Concat(std::move(piece));
  }
  const uint8_t proto = key.proto;
  const HostId src = key.src;
  reassembly_.erase(key);

  ++stats_.datagrams_delivered;
  auto handler = protocols_.find(proto);
  if (handler != protocols_.end()) {
    Datagram datagram{src, id_, proto, std::move(assembled)};
    handler->second(std::move(datagram));
  }
}

void Node::ReapReassembly() {
  const SimTime now = scheduler_.now();
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    if (it->second.deadline <= now) {
      ++stats_.reassembly_timeouts;
      it = reassembly_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace renonfs
