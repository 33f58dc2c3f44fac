#include "src/mbuf/mbuf.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/pool.h"

namespace renonfs {

namespace {

// Process-wide pool of Mbuf headers; leaked so pooled memory stays valid for
// any static-destruction-order stragglers. World::InitObservability finds it
// by name to export sim.pool.mbuf.* diagnostics.
FixedPool& MbufPool() {
  static FixedPool* pool = new FixedPool("mbuf", sizeof(Mbuf), alignof(Mbuf));
  return *pool;
}

// Allocator handed to std::allocate_shared in NewCluster. allocate_shared
// rebinds it to its internal control-block-plus-Cluster type, so only that
// rebound instantiation ever creates the pool — sized, at first use, for the
// combined block. The Cluster ctor/dtor still run per logical allocation.
template <typename T>
struct ClusterPoolAllocator {
  using value_type = T;

  ClusterPoolAllocator() = default;
  template <typename U>
  explicit ClusterPoolAllocator(const ClusterPoolAllocator<U>&) {}

  static FixedPool& Pool() {
    static FixedPool* pool = new FixedPool("cluster", sizeof(T), alignof(T));
    return *pool;
  }

  T* allocate(size_t n) {
    CHECK_EQ(n, 1u);
    return static_cast<T*>(Pool().Allocate());
  }
  void deallocate(T* p, size_t n) {
    CHECK_EQ(n, 1u);
    Pool().Free(p);
  }
};

template <typename T, typename U>
bool operator==(const ClusterPoolAllocator<T>&, const ClusterPoolAllocator<U>&) {
  return true;
}

}  // namespace

void* Mbuf::operator new(size_t size) {
  CHECK_EQ(size, sizeof(Mbuf));
  return MbufPool().Allocate();
}

void Mbuf::operator delete(void* p) noexcept {
  if (p != nullptr) {
    MbufPool().Free(p);
  }
}

std::shared_ptr<Cluster> NewCluster(const void* owner, const char* layer) {
  return std::allocate_shared<Cluster>(ClusterPoolAllocator<Cluster>{}, owner, layer);
}

MbufStats& MbufStats::Instance() {
  static MbufStats stats;
  return stats;
}

ClusterLedger& ClusterLedger::Instance() {
  static ClusterLedger ledger;
  return ledger;
}

void ClusterLedger::OnAlloc(Cluster* cluster, const void* owner, const char* layer) {
  CHECK(!cluster->ledger_live_) << "cluster ledger: double registration of one cluster";
  ++allocs_;
  ++live_;
  cluster->ledger_live_ = true;
  cluster->ledger_entry_ = Entry{owner, layer};
  cluster->ledger_prev_ = nullptr;
  cluster->ledger_next_ = head_;
  if (head_ != nullptr) {
    head_->ledger_prev_ = cluster;
  }
  head_ = cluster;
}

void ClusterLedger::OnFree(Cluster* cluster) {
  CHECK(cluster->ledger_live_) << "cluster ledger: free of unregistered cluster";
  ++frees_;
  --live_;
  cluster->ledger_live_ = false;
  if (cluster->ledger_prev_ != nullptr) {
    cluster->ledger_prev_->ledger_next_ = cluster->ledger_next_;
  } else {
    head_ = cluster->ledger_next_;
  }
  if (cluster->ledger_next_ != nullptr) {
    cluster->ledger_next_->ledger_prev_ = cluster->ledger_prev_;
  }
  cluster->ledger_prev_ = nullptr;
  cluster->ledger_next_ = nullptr;
}

size_t ClusterLedger::LiveOwnedBy(const void* owner) const {
  size_t n = 0;
  for (const Cluster* c = head_; c != nullptr; c = c->ledger_next_) {
    if (c->ledger_entry_.owner == owner) {
      ++n;
    }
  }
  return n;
}

void ClusterLedger::ForEachLive(
    const std::function<void(const Cluster*, const Entry&)>& fn) const {
  for (const Cluster* c = head_; c != nullptr; c = c->ledger_next_) {
    fn(c, c->ledger_entry_);
  }
}

std::unique_ptr<Mbuf> Mbuf::MakeSmall() {
  ++MbufStats::Instance().small_allocs;
  return std::unique_ptr<Mbuf>(new Mbuf());
}

std::unique_ptr<Mbuf> Mbuf::MakeCluster() {
  ++MbufStats::Instance().cluster_allocs;
  auto mbuf = std::unique_ptr<Mbuf>(new Mbuf());
  mbuf->cluster_ = NewCluster();
  return mbuf;
}

std::unique_ptr<Mbuf> Mbuf::WrapCluster(std::shared_ptr<Cluster> cluster, size_t off, size_t len) {
  CHECK(cluster);
  CHECK_LE(off + len, Cluster::kSize);
  auto& stats = MbufStats::Instance();
  ++stats.cluster_shares;
  stats.bytes_shared += len;
  auto mbuf = std::unique_ptr<Mbuf>(new Mbuf());
  mbuf->cluster_ = std::move(cluster);
  mbuf->off_ = off;
  mbuf->len_ = len;
  return mbuf;
}

MbufChain::MbufChain(MbufChain&& other) noexcept
    : head_(std::move(other.head_)), tail_(other.tail_), length_(other.length_) {
  other.tail_ = nullptr;
  other.length_ = 0;
}

MbufChain& MbufChain::operator=(MbufChain&& other) noexcept {
  head_ = std::move(other.head_);
  tail_ = other.tail_;
  length_ = other.length_;
  other.tail_ = nullptr;
  other.length_ = 0;
  return *this;
}

MbufChain MbufChain::FromBytes(const void* bytes, size_t len) {
  MbufChain chain;
  chain.Append(bytes, len);
  return chain;
}

size_t MbufChain::MbufCount() const {
  size_t n = 0;
  for (const Mbuf* m = head_.get(); m != nullptr; m = m->next()) {
    ++n;
  }
  return n;
}

size_t MbufChain::ClusterCount() const {
  size_t n = 0;
  for (const Mbuf* m = head_.get(); m != nullptr; m = m->next()) {
    if (m->has_cluster()) {
      ++n;
    }
  }
  return n;
}

void MbufChain::AppendMbuf(std::unique_ptr<Mbuf> mbuf) {
  length_ += mbuf->length();
  if (tail_ == nullptr) {
    head_ = std::move(mbuf);
    tail_ = head_.get();
  } else {
    tail_->next_ = std::move(mbuf);
    tail_ = tail_->next_.get();
  }
}

Mbuf* MbufChain::EnsureTail(size_t want_contiguous, bool prefer_cluster) {
  if (tail_ != nullptr && tail_->writable() && tail_->trailing_space() >= want_contiguous) {
    return tail_;
  }
  auto mbuf = prefer_cluster ? Mbuf::MakeCluster() : Mbuf::MakeSmall();
  AppendMbuf(std::move(mbuf));
  return tail_;
}

void MbufChain::Append(const void* bytes, size_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(bytes);
  auto& stats = MbufStats::Instance();
  while (len > 0) {
    Mbuf* tail = tail_;
    if (tail == nullptr || !tail->writable() || tail->trailing_space() == 0) {
      tail = EnsureTail(1, /*prefer_cluster=*/len > Mbuf::kSmallCapacity);
    }
    const size_t take = std::min(len, tail->trailing_space());
    std::memcpy(tail->storage() + tail->off_ + tail->len_, src, take);
    tail->len_ += take;
    length_ += take;
    stats.bytes_copied += take;
    src += take;
    len -= take;
  }
}

void MbufChain::AppendZeros(size_t len) {
  while (len > 0) {
    Mbuf* tail = tail_;
    if (tail == nullptr || !tail->writable() || tail->trailing_space() == 0) {
      tail = EnsureTail(1, /*prefer_cluster=*/len > Mbuf::kSmallCapacity);
    }
    const size_t take = std::min(len, tail->trailing_space());
    std::memset(tail->storage() + tail->off_ + tail->len_, 0, take);
    tail->len_ += take;
    length_ += take;
    len -= take;
  }
}

uint8_t* MbufChain::AppendSpace(size_t len) {
  CHECK_LE(len, Mbuf::kSmallCapacity);
  Mbuf* tail = EnsureTail(len, /*prefer_cluster=*/false);
  uint8_t* ptr = tail->storage() + tail->off_ + tail->len_;
  tail->len_ += len;
  length_ += len;
  return ptr;
}

void MbufChain::AppendSharedCluster(std::shared_ptr<Cluster> cluster, size_t off, size_t len) {
  if (len == 0) {
    return;
  }
  AppendMbuf(Mbuf::WrapCluster(std::move(cluster), off, len));
}

uint8_t* MbufChain::Prepend(size_t len) {
  CHECK_LE(len, Mbuf::kSmallCapacity);
  if (head_ != nullptr && head_->writable() && head_->leading_space() >= len) {
    head_->off_ -= len;
    head_->len_ += len;
    length_ += len;
    return head_->data();
  }
  auto mbuf = Mbuf::MakeSmall();
  // Leave room for further prepends.
  mbuf->off_ = Mbuf::kSmallCapacity - len;
  mbuf->len_ = len;
  mbuf->next_ = std::move(head_);
  head_ = std::move(mbuf);
  if (tail_ == nullptr) {
    tail_ = head_.get();
  }
  length_ += len;
  return head_->data();
}

void MbufChain::Concat(MbufChain&& other) {
  if (other.head_ == nullptr) {
    return;
  }
  if (tail_ == nullptr) {
    head_ = std::move(other.head_);
    tail_ = other.tail_;
  } else {
    tail_->next_ = std::move(other.head_);
    tail_ = other.tail_;
  }
  length_ += other.length_;
  other.tail_ = nullptr;
  other.length_ = 0;
}

bool MbufChain::CopyOut(size_t off, size_t len, void* dst) const {
  if (off + len > length_) {
    return false;
  }
  uint8_t* out = static_cast<uint8_t*>(dst);
  const Mbuf* m = head_.get();
  // Skip to the mbuf containing `off`.
  while (m != nullptr && off >= m->length()) {
    off -= m->length();
    m = m->next();
  }
  while (len > 0) {
    CHECK(m != nullptr);
    const size_t take = std::min(len, m->length() - off);
    std::memcpy(out, m->data() + off, take);
    out += take;
    len -= take;
    off = 0;
    m = m->next();
  }
  return true;
}

std::vector<uint8_t> MbufChain::ContiguousCopy() const {
  std::vector<uint8_t> out(length_);
  if (length_ > 0) {
    CHECK(CopyOut(0, length_, out.data()));
  }
  return out;
}

MbufChain MbufChain::CopyRange(size_t off, size_t len) const {
  CHECK_LE(off + len, length_);
  MbufChain out;
  auto& stats = MbufStats::Instance();
  const Mbuf* m = head_.get();
  while (m != nullptr && off >= m->length()) {
    off -= m->length();
    m = m->next();
  }
  while (len > 0) {
    CHECK(m != nullptr);
    const size_t take = std::min(len, m->length() - off);
    if (m->has_cluster()) {
      // Share the cluster: refcount bump, no data movement.
      auto wrapped = Mbuf::WrapCluster(m->cluster_, m->off_ + off, take);
      out.AppendMbuf(std::move(wrapped));
    } else {
      out.Append(m->data() + off, take);
      (void)stats;
    }
    len -= take;
    off = 0;
    m = m->next();
  }
  return out;
}

void MbufChain::TrimFront(size_t len) {
  CHECK_LE(len, length_);
  length_ -= len;
  while (len > 0) {
    CHECK(head_ != nullptr);
    if (len >= head_->length()) {
      len -= head_->length();
      head_ = std::move(head_->next_);
      if (head_ == nullptr) {
        tail_ = nullptr;
      }
    } else {
      head_->off_ += len;
      head_->len_ -= len;
      len = 0;
    }
  }
}

void MbufChain::TrimBack(size_t len) {
  CHECK_LE(len, length_);
  size_t keep = length_ - len;
  length_ = keep;
  Mbuf* m = head_.get();
  Mbuf* last_kept = nullptr;
  while (m != nullptr && keep > 0) {
    if (keep >= m->length()) {
      keep -= m->length();
      last_kept = m;
      m = m->next();
    } else {
      m->len_ = keep;
      last_kept = m;
      keep = 0;
    }
  }
  if (last_kept == nullptr) {
    head_.reset();
    tail_ = nullptr;
  } else {
    last_kept->next_.reset();
    tail_ = last_kept;
  }
}

MbufChain MbufChain::SplitOff(size_t at) {
  CHECK_LE(at, length_);
  MbufChain rest = CopyRange(at, length_ - at);
  TrimBack(length_ - at);
  return rest;
}

namespace {

// Sums n bytes as host-order 16-bit words, a lone last byte padded with a
// zero byte. Each 64-bit load is added as its two 32-bit halves; since
// 2^32 == 2^16 == 1 (mod 0xffff), the result is congruent to the 16-bit
// word sum, and neither accumulator can overflow below 32 GB. memcpy keeps
// loads at unaligned cluster offsets defined.
uint64_t HostOrderWordSum(const uint8_t* p, size_t n) {
  uint64_t sum0 = 0;
  uint64_t sum1 = 0;
  for (; n >= 16; p += 16, n -= 16) {
    uint64_t w0;
    uint64_t w1;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    sum0 += (w0 & 0xffffffff) + (w0 >> 32);
    sum1 += (w1 & 0xffffffff) + (w1 >> 32);
  }
  uint64_t sum = sum0 + sum1;
  if (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    sum += (w & 0xffffffff) + (w >> 32);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    sum += w;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    uint16_t w;
    std::memcpy(&w, p, 2);
    sum += w;
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    uint16_t w = 0;
    std::memcpy(&w, p, 1);
    sum += w;
  }
  return sum;
}

// End-around-carry fold to 16 bits. Only a zero sum folds to 0.
uint16_t FoldOnesComplement(uint64_t sum) {
  while ((sum >> 16) != 0) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(sum);
}

uint16_t ByteSwap16(uint16_t v) { return static_cast<uint16_t>(v << 8 | v >> 8); }

}  // namespace

uint16_t MbufChain::InternetChecksum() const {
  // RFC 1071 §2, as 4.3BSD's in_cksum() sums an mbuf chain: each mbuf is
  // summed in host order, and a segment that starts at an odd chain offset
  // has its bytes in the other halves of the network-order words, so its
  // folded sum is byte-swapped (§2(B)) before it joins the total.
  uint64_t sum = 0;
  size_t offset = 0;
  for (const Mbuf* m = head_.get(); m != nullptr; m = m->next()) {
    const uint16_t folded = FoldOnesComplement(HostOrderWordSum(m->data(), m->length()));
    sum += (offset & 1) != 0 ? ByteSwap16(folded) : folded;
    offset += m->length();
  }
  uint16_t total = FoldOnesComplement(sum);
  if constexpr (std::endian::native == std::endian::little) {
    total = ByteSwap16(total);  // host-order words to network order
  }
  return static_cast<uint16_t>(~total);
}

}  // namespace renonfs
