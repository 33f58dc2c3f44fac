#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/util/rng.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return out;
}

class MbufTest : public ::testing::Test {
 protected:
  void SetUp() override { MbufStats::Instance().Reset(); }
};

TEST_F(MbufTest, AppendAndCopyOutRoundTrip) {
  const auto data = Pattern(5000);
  MbufChain chain;
  chain.Append(data.data(), data.size());
  EXPECT_EQ(chain.Length(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(chain.CopyOut(0, data.size(), out.data()));
  EXPECT_EQ(out, data);
}

TEST_F(MbufTest, LargeAppendUsesClusters) {
  MbufChain chain;
  const auto data = Pattern(8192);
  chain.Append(data.data(), data.size());
  EXPECT_GE(chain.ClusterCount(), 4u);  // 8 KB / 2 KB clusters
  EXPECT_EQ(chain.ContiguousCopy(), data);
}

TEST_F(MbufTest, CopyOutOfRangeFails) {
  MbufChain chain = MbufChain::FromString("abc");
  uint8_t buf[8];
  EXPECT_FALSE(chain.CopyOut(1, 3, buf));
  EXPECT_TRUE(chain.CopyOut(1, 2, buf));
  EXPECT_EQ(buf[0], 'b');
}

TEST_F(MbufTest, PrependUsesLeadingSpaceAfterTrim) {
  MbufChain chain = MbufChain::FromString("XXheader-body");
  chain.TrimFront(2);
  uint8_t* hdr = chain.Prepend(2);
  hdr[0] = 'A';
  hdr[1] = 'B';
  auto bytes = chain.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "ABheader-body");
}

TEST_F(MbufTest, PrependAllocatesWhenNoSpace) {
  MbufChain chain = MbufChain::FromString("data");
  const size_t before = chain.MbufCount();
  uint8_t* hdr = chain.Prepend(4);
  std::memcpy(hdr, "HDR:", 4);
  EXPECT_GE(chain.MbufCount(), before + 1);
  auto bytes = chain.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "HDR:data");
}

TEST_F(MbufTest, CopyRangeSharesClusters) {
  MbufChain chain;
  const auto data = Pattern(6000);
  chain.Append(data.data(), data.size());
  MbufStats::Instance().Reset();

  MbufChain slice = chain.CopyRange(1000, 4000);
  EXPECT_EQ(slice.Length(), 4000u);
  EXPECT_GT(MbufStats::Instance().cluster_shares, 0u);
  EXPECT_GT(MbufStats::Instance().bytes_shared, 0u);
  // Sharing, not copying: no cluster-sized copy happened.
  EXPECT_LT(MbufStats::Instance().bytes_copied, 200u);

  std::vector<uint8_t> expect(data.begin() + 1000, data.begin() + 5000);
  EXPECT_EQ(slice.ContiguousCopy(), expect);
}

TEST_F(MbufTest, SharedClusterNotWritable) {
  MbufChain chain;
  const auto data = Pattern(3000);
  chain.Append(data.data(), data.size());
  MbufChain clone = chain.Clone();
  // Appending to the original must not corrupt the clone.
  const auto more = Pattern(100, 99);
  chain.Append(more.data(), more.size());
  std::vector<uint8_t> expect = data;
  EXPECT_EQ(clone.ContiguousCopy(), expect);
  expect.insert(expect.end(), more.begin(), more.end());
  EXPECT_EQ(chain.ContiguousCopy(), expect);
}

TEST_F(MbufTest, TrimFrontAcrossMbufs) {
  MbufChain chain;
  const auto data = Pattern(5000);
  chain.Append(data.data(), data.size());
  chain.TrimFront(2500);
  EXPECT_EQ(chain.Length(), 2500u);
  std::vector<uint8_t> expect(data.begin() + 2500, data.end());
  EXPECT_EQ(chain.ContiguousCopy(), expect);
}

TEST_F(MbufTest, TrimBackAcrossMbufs) {
  MbufChain chain;
  const auto data = Pattern(5000);
  chain.Append(data.data(), data.size());
  chain.TrimBack(2500);
  EXPECT_EQ(chain.Length(), 2500u);
  std::vector<uint8_t> expect(data.begin(), data.begin() + 2500);
  EXPECT_EQ(chain.ContiguousCopy(), expect);
  // Chain still usable for appends afterwards.
  chain.Append("zz", 2);
  EXPECT_EQ(chain.Length(), 2502u);
}

TEST_F(MbufTest, TrimAllEmptiesChain) {
  MbufChain chain = MbufChain::FromString("abcdef");
  chain.TrimFront(6);
  EXPECT_TRUE(chain.Empty());
  chain.Append("x", 1);
  EXPECT_EQ(chain.Length(), 1u);
}

TEST_F(MbufTest, SplitOffPreservesBothHalves) {
  MbufChain chain;
  const auto data = Pattern(4096);
  chain.Append(data.data(), data.size());
  MbufChain rest = chain.SplitOff(1500);
  EXPECT_EQ(chain.Length(), 1500u);
  EXPECT_EQ(rest.Length(), 4096u - 1500u);
  std::vector<uint8_t> lo(data.begin(), data.begin() + 1500);
  std::vector<uint8_t> hi(data.begin() + 1500, data.end());
  EXPECT_EQ(chain.ContiguousCopy(), lo);
  EXPECT_EQ(rest.ContiguousCopy(), hi);
}

TEST_F(MbufTest, ConcatMovesBytes) {
  MbufChain a = MbufChain::FromString("hello ");
  MbufChain b = MbufChain::FromString("world");
  a.Concat(std::move(b));
  auto bytes = a.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello world");
  EXPECT_TRUE(b.Empty());  // NOLINT(bugprone-use-after-move): moved-from is valid-empty
}

TEST_F(MbufTest, AppendSharedClusterZeroCopy) {
  auto cluster = NewCluster();
  const auto data = Pattern(2048);
  std::memcpy(cluster->data(), data.data(), data.size());
  MbufStats::Instance().Reset();

  MbufChain chain;
  chain.AppendSharedCluster(cluster, 100, 1000);
  EXPECT_EQ(chain.Length(), 1000u);
  EXPECT_EQ(MbufStats::Instance().bytes_copied, 0u);
  EXPECT_EQ(MbufStats::Instance().bytes_shared, 1000u);
  std::vector<uint8_t> expect(data.begin() + 100, data.begin() + 1100);
  EXPECT_EQ(chain.ContiguousCopy(), expect);
}

TEST_F(MbufTest, AppendSpaceContiguous) {
  MbufChain chain;
  uint8_t* p = chain.AppendSpace(4);
  std::memcpy(p, "abcd", 4);
  uint8_t* q = chain.AppendSpace(4);
  std::memcpy(q, "efgh", 4);
  auto bytes = chain.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "abcdefgh");
}

TEST_F(MbufTest, AppendZeros) {
  MbufChain chain;
  chain.AppendZeros(3000);
  EXPECT_EQ(chain.Length(), 3000u);
  auto bytes = chain.ContiguousCopy();
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; }));
}

// RFC 1071's definition, one network-order byte pair at a time over
// contiguous bytes: an independent reference for the chain's word-at-a-time
// sum.
uint16_t ReferenceChecksum(const std::vector<uint8_t>& data) {
  uint64_t sum = 0;
  for (size_t i = 0; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (data.size() % 2 != 0) {
    sum += static_cast<uint64_t>(data.back()) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

// Builds `data` behind `lead` bytes that are then trimmed off the front, as
// pieces of 1..max_piece bytes. Each piece is a CopyRange of one contiguous
// chain, so a cluster-backed piece keeps its source offset inside the
// cluster; with an odd `lead`, the head starts at an odd address and the
// source's cluster boundaries fall at odd chain offsets.
MbufChain BuildChain(const std::vector<uint8_t>& data, size_t lead, size_t max_piece, Rng& rng) {
  std::vector<uint8_t> bytes(lead, 0xa5);
  bytes.insert(bytes.end(), data.begin(), data.end());
  const MbufChain whole = MbufChain::FromBytes(bytes.data(), bytes.size());
  MbufChain chain;
  for (size_t off = 0; off < bytes.size();) {
    const size_t n = std::min<size_t>(bytes.size() - off, 1 + rng.UniformUint64(max_piece));
    chain.Concat(whole.CopyRange(off, n));
    off += n;
  }
  chain.TrimFront(lead);
  return chain;
}

TEST_F(MbufTest, InternetChecksumMatchesReference) {
  // Seeded sweep over lengths, contents and mbuf layouts. The chain sums
  // each mbuf a word at a time and byte-swaps segments that start at odd
  // chain offsets; every layout of the same bytes must give the reference's
  // value, so the checksum cannot depend on how the bytes are fragmented.
  // Every combination runs up to 40 bytes; longer chains, up to 9000 bytes
  // with the cluster-size edges among them, each draw one combination.
  constexpr int kFills[] = {-1, 0x00, 0xff};  // random, all-zero, all-0xff
  constexpr size_t kOnePiece = size_t{1} << 20;  // the source chain's own layout
  constexpr size_t kMaxPieces[] = {3, 2100, kOnePiece};
  struct Case {
    size_t length;
    int fill;
    size_t max_piece;
    size_t lead;
  };
  Rng rng(1071);
  std::vector<Case> cases;
  for (size_t length = 0; length <= 40; ++length) {
    for (const int fill : kFills) {
      for (const size_t max_piece : kMaxPieces) {
        for (size_t lead = 0; lead < 4; ++lead) {
          cases.push_back({length, fill, max_piece, lead});
        }
      }
    }
  }
  std::vector<size_t> long_lengths = {2047, 2048, 2049, 4095, 4097, 8191, 8192, 8193, 9000};
  for (int i = 0; i < 300; ++i) {
    long_lengths.push_back(41 + rng.UniformUint64(9000 - 40));
  }
  for (const size_t length : long_lengths) {
    cases.push_back({length, kFills[rng.UniformUint64(3)], kMaxPieces[rng.UniformUint64(3)],
                     rng.UniformUint64(4)});
  }
  size_t odd_lengths = 0;
  size_t odd_offset_segments = 0;
  for (const Case& c : cases) {
    odd_lengths += c.length % 2;
    std::vector<uint8_t> data(c.length, static_cast<uint8_t>(c.fill));
    if (c.fill < 0) {
      for (uint8_t& b : data) {
        b = static_cast<uint8_t>(rng.UniformUint64(256));
      }
    }
    const uint16_t expected = ReferenceChecksum(data);
    if (c.fill == 0x00) {
      EXPECT_EQ(expected, 0xffff);  // one's-complement zero: only all-zero data
    }
    const MbufChain chain = BuildChain(data, c.lead, c.max_piece, rng);
    ASSERT_EQ(chain.Length(), c.length);
    EXPECT_EQ(chain.InternetChecksum(), expected)
        << "length " << c.length << " fill " << c.fill << " max_piece " << c.max_piece
        << " lead " << c.lead;
    size_t offset = 0;
    for (const Mbuf* m = chain.head(); m != nullptr; m = m->next()) {
      odd_offset_segments += offset % 2;
      offset += m->length();
    }
  }
  EXPECT_GT(odd_lengths, 0u);
  EXPECT_GT(odd_offset_segments, 0u);
}

TEST_F(MbufTest, ChecksumInvariantUnderFragmentationLayout) {
  // The checksum must not depend on how bytes are spread across mbufs.
  const auto data = Pattern(4321);
  MbufChain whole;
  whole.Append(data.data(), data.size());

  MbufChain pieces;
  size_t off = 0;
  Rng rng(21);
  while (off < data.size()) {
    const size_t n = std::min<size_t>(data.size() - off, 1 + rng.UniformUint64(700));
    pieces.Concat(whole.CopyRange(off, n));
    off += n;
  }
  EXPECT_EQ(pieces.InternetChecksum(), whole.InternetChecksum());
}

TEST_F(MbufTest, InternetChecksumDetectsEverySingleBitFlip) {
  // A one-bit flip moves the one's-complement sum by 2^k (mod 0xffff), which
  // is never 0, so the checksum must change for every bit of the chain.
  Rng rng(8192);
  std::vector<uint8_t> data(8192);
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>(rng.UniformUint64(256));
  }
  MbufChain chain = BuildChain(data, 1, 2100, rng);
  const uint16_t original = chain.InternetChecksum();
  ASSERT_EQ(original, ReferenceChecksum(data));
  size_t flips = 0;
  for (Mbuf* m = chain.head(); m != nullptr; m = m->next()) {
    for (size_t i = 0; i < m->length(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        m->data()[i] ^= static_cast<uint8_t>(1u << bit);
        ASSERT_NE(chain.InternetChecksum(), original) << "byte " << i << " bit " << bit;
        m->data()[i] ^= static_cast<uint8_t>(1u << bit);
        ++flips;
      }
    }
  }
  EXPECT_EQ(flips, data.size() * 8);
  EXPECT_EQ(chain.InternetChecksum(), original);
}

// Property-style sweep: random op sequences preserve a byte-accurate model.
class MbufPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbufPropertyTest, RandomOpsMatchVectorModel) {
  Rng rng(GetParam());
  MbufChain chain;
  std::vector<uint8_t> model;
  for (int step = 0; step < 200; ++step) {
    const uint64_t op = rng.UniformUint64(5);
    switch (op) {
      case 0: {  // append
        const auto data = Pattern(rng.UniformUint64(3000), static_cast<uint8_t>(step));
        chain.Append(data.data(), data.size());
        model.insert(model.end(), data.begin(), data.end());
        break;
      }
      case 1: {  // trim front
        const size_t n = rng.UniformUint64(model.size() + 1);
        chain.TrimFront(n);
        model.erase(model.begin(), model.begin() + n);
        break;
      }
      case 2: {  // trim back
        const size_t n = rng.UniformUint64(model.size() + 1);
        chain.TrimBack(n);
        model.resize(model.size() - n);
        break;
      }
      case 3: {  // clone a range and self-concat
        if (model.empty()) {
          break;
        }
        const size_t off = rng.UniformUint64(model.size());
        const size_t n = rng.UniformUint64(model.size() - off + 1);
        MbufChain slice = chain.CopyRange(off, n);
        chain.Concat(std::move(slice));
        model.insert(model.end(), model.begin() + off, model.begin() + off + n);
        break;
      }
      case 4: {  // split and rejoin (identity)
        const size_t at = rng.UniformUint64(model.size() + 1);
        MbufChain rest = chain.SplitOff(at);
        chain.Concat(std::move(rest));
        break;
      }
    }
    ASSERT_EQ(chain.Length(), model.size()) << "step " << step;
  }
  EXPECT_EQ(chain.ContiguousCopy(), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbufPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace renonfs
