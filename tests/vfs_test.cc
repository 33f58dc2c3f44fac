#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/vfs/attr_cache.h"
#include "src/vfs/buf_cache.h"
#include "src/vfs/name_cache.h"

namespace renonfs {
namespace {

// --- NameCache --------------------------------------------------------------

TEST(NameCacheTest, HitAfterEnter) {
  NameCache cache;
  cache.Enter(1, "passwd", 42);
  auto hit = cache.Lookup(1, "passwd");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(NameCacheTest, MissOnUnknownAndWrongDir) {
  NameCache cache;
  cache.Enter(1, "a", 10);
  EXPECT_FALSE(cache.Lookup(1, "b").has_value());
  EXPECT_FALSE(cache.Lookup(2, "a").has_value());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(NameCacheTest, LongNamesNotCached) {
  // The 31-character NCHNAMLEN limit: Nhfsstone's long names defeat it.
  NameCache cache;
  const std::string long_name(32, 'x');
  cache.Enter(1, long_name, 7);
  EXPECT_FALSE(cache.Lookup(1, long_name).has_value());
  EXPECT_GE(cache.stats().too_long, 2u);
  const std::string max_name(31, 'y');
  cache.Enter(1, max_name, 8);
  EXPECT_TRUE(cache.Lookup(1, max_name).has_value());
}

TEST(NameCacheTest, LruEviction) {
  NameCacheOptions options;
  options.capacity = 3;
  NameCache cache(options);
  cache.Enter(1, "a", 1);
  cache.Enter(1, "b", 2);
  cache.Enter(1, "c", 3);
  ASSERT_TRUE(cache.Lookup(1, "a").has_value());  // refresh "a"
  cache.Enter(1, "d", 4);                         // evicts "b"
  EXPECT_TRUE(cache.Lookup(1, "a").has_value());
  EXPECT_FALSE(cache.Lookup(1, "b").has_value());
  EXPECT_TRUE(cache.Lookup(1, "c").has_value());
  EXPECT_TRUE(cache.Lookup(1, "d").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(NameCacheTest, InvalidateEntryAndDir) {
  NameCache cache;
  cache.Enter(5, "x", 50);
  cache.Enter(5, "y", 51);
  cache.Enter(6, "z", 5);  // target is dir 5
  cache.Invalidate(5, "x");
  EXPECT_FALSE(cache.Lookup(5, "x").has_value());
  EXPECT_TRUE(cache.Lookup(5, "y").has_value());
  cache.InvalidateDir(5);
  EXPECT_FALSE(cache.Lookup(5, "y").has_value());
  EXPECT_FALSE(cache.Lookup(6, "z").has_value());  // pointed at dir 5
}

TEST(NameCacheTest, DisabledCachesNothing) {
  NameCacheOptions options;
  options.enabled = false;
  NameCache cache(options);
  cache.Enter(1, "a", 1);
  EXPECT_FALSE(cache.Lookup(1, "a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NameCacheTest, UpdateExistingEntry) {
  NameCache cache;
  cache.Enter(1, "a", 1);
  cache.Enter(1, "a", 99);
  EXPECT_EQ(*cache.Lookup(1, "a"), 99u);
  EXPECT_EQ(cache.size(), 1u);
}

// --- AttrCache ---------------------------------------------------------------

FileAttr MakeAttr(uint64_t size) {
  FileAttr attr;
  attr.size = size;
  attr.mtime = Seconds(100);
  return attr;
}

TEST(AttrCacheTest, HitWithinTtl) {
  AttrCache cache;
  cache.Put(7, MakeAttr(123), Seconds(10));
  auto attr = cache.Get(7, Seconds(14));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->size, 123u);
}

TEST(AttrCacheTest, ExpiresAfterFiveSeconds) {
  AttrCache cache;  // default TTL = 5 s, per the paper
  cache.Put(7, MakeAttr(1), Seconds(10));
  EXPECT_TRUE(cache.Get(7, Seconds(15)).has_value());
  EXPECT_FALSE(cache.Get(7, Seconds(16)).has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(AttrCacheTest, InvalidateRemoves) {
  AttrCache cache;
  cache.Put(7, MakeAttr(1), 0);
  cache.Invalidate(7);
  EXPECT_FALSE(cache.Get(7, 0).has_value());
}

TEST(AttrCacheTest, PutRefreshesTtl) {
  AttrCache cache;
  cache.Put(7, MakeAttr(1), Seconds(0));
  cache.Put(7, MakeAttr(2), Seconds(4));
  auto attr = cache.Get(7, Seconds(8));
  ASSERT_TRUE(attr.has_value());  // fresh from the second Put
  EXPECT_EQ(attr->size, 2u);
}

// --- BufCache ----------------------------------------------------------------

TEST(BufCacheTest, CreateFindRoundTrip) {
  BufCache cache;
  auto buf = cache.Create(1, 0);
  ASSERT_TRUE(buf.ok());
  (*buf)->CopyIn(0, "hello", 5);
  (*buf)->set_valid(5);
  Buf* found = cache.Find(1, 0);
  ASSERT_NE(found, nullptr);
  char out[5];
  found->CopyOut(0, out, 5);
  EXPECT_EQ(std::memcmp(out, "hello", 5), 0);
  EXPECT_EQ(found->valid(), 5u);
  EXPECT_EQ(cache.Find(1, 1), nullptr);
  EXPECT_EQ(cache.Find(2, 0), nullptr);
}

TEST(BufCacheTest, DirtyRegionTracking) {
  BufCache cache;
  Buf* buf = *cache.Create(1, 0);
  EXPECT_FALSE(buf->dirty());
  buf->MarkDirty(100, 200);
  EXPECT_TRUE(buf->dirty());
  EXPECT_EQ(buf->dirty_lo(), 100u);
  EXPECT_EQ(buf->dirty_hi(), 200u);
  // Dirtiness does not imply validity: the caller tracks that separately.
  EXPECT_EQ(buf->valid(), 0u);
  // Extending with an overlapping/adjacent range unions.
  buf->MarkDirty(50, 100);
  EXPECT_EQ(buf->dirty_lo(), 50u);
  EXPECT_EQ(buf->dirty_hi(), 200u);
  buf->MarkDirty(150, 300);
  EXPECT_EQ(buf->dirty_hi(), 300u);
  buf->set_valid(300);
  buf->MarkClean();
  EXPECT_FALSE(buf->dirty());
  EXPECT_EQ(buf->valid(), 300u);  // validity survives cleaning
}

TEST(BufCacheTest, EvictsLruCleanBuffer) {
  BufCacheOptions options;
  options.capacity_blocks = 3;
  BufCache cache(options);
  (void)*cache.Create(1, 0);
  (void)*cache.Create(1, 1);
  (void)*cache.Create(1, 2);
  ASSERT_NE(cache.Find(1, 0), nullptr);  // make block 0 recently used
  ASSERT_TRUE(cache.Create(1, 3).ok());  // evicts block 1 (LRU clean)
  EXPECT_NE(cache.Find(1, 0), nullptr);
  EXPECT_EQ(cache.Find(1, 1), nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(BufCacheTest, DirtyBuffersNotEvicted) {
  BufCacheOptions options;
  options.capacity_blocks = 2;
  BufCache cache(options);
  Buf* a = *cache.Create(1, 0);
  a->MarkDirty(0, 10);
  (void)*cache.Create(1, 1);
  ASSERT_TRUE(cache.Create(1, 2).ok());  // evicts clean block 1
  EXPECT_NE(cache.Find(1, 0), nullptr);  // dirty block survived
  EXPECT_EQ(cache.Find(1, 1), nullptr);
}

TEST(BufCacheTest, AllDirtyFailsWithNoSpace) {
  BufCacheOptions options;
  options.capacity_blocks = 2;
  BufCache cache(options);
  (*cache.Create(1, 0))->MarkDirty(0, 1);
  (*cache.Create(1, 1))->MarkDirty(0, 1);
  auto result = cache.Create(1, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNoSpace);
}

TEST(BufCacheTest, InvalidateFileDropsAllItsBlocks) {
  BufCache cache;
  (void)*cache.Create(1, 0);
  (void)*cache.Create(1, 1);
  (void)*cache.Create(2, 0);
  EXPECT_EQ(cache.InvalidateFile(1), 2u);
  EXPECT_EQ(cache.Find(1, 0), nullptr);
  EXPECT_EQ(cache.Find(1, 1), nullptr);
  EXPECT_NE(cache.Find(2, 0), nullptr);
  EXPECT_EQ(cache.FileBufCount(1), 0u);
}

TEST(BufCacheTest, DirtyBufsOldestFirst) {
  BufCache cache;
  Buf* a = *cache.Create(1, 0);
  Buf* b = *cache.Create(1, 1);
  Buf* c = *cache.Create(2, 0);
  a->MarkDirty(0, 1);
  b->MarkDirty(0, 1);
  c->MarkDirty(0, 1);
  auto all = cache.DirtyBufs();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], a);  // least recently used first
  auto file1 = cache.DirtyBufs(1);
  ASSERT_EQ(file1.size(), 2u);
  EXPECT_EQ(file1[0], a);
  EXPECT_EQ(file1[1], b);
  EXPECT_EQ(cache.dirty_count(), 3u);
}

// A file's chain stays in creation order (Find's scan cost depends on it),
// so once an older block is used after a newer one the chain and the LRU
// disagree. DirtyBufs(file) must follow the LRU, which a plain chain walk
// would not.
TEST(BufCacheTest, DirtyBufsFollowsRecencyNotChainOrder) {
  BufCache cache;
  Buf* a = *cache.Create(1, 0);
  Buf* b = *cache.Create(1, 1);
  Buf* other = *cache.Create(2, 0);
  ASSERT_EQ(cache.Find(1, 0), a);  // block 0 is now the more recently used
  a->MarkDirty(0, 1);
  b->MarkDirty(0, 1);
  other->MarkDirty(0, 1);
  auto file1 = cache.DirtyBufs(1);
  ASSERT_EQ(file1.size(), 2u);
  EXPECT_EQ(file1[0], b);
  EXPECT_EQ(file1[1], a);
  auto all = cache.DirtyBufs();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], b);
  EXPECT_EQ(all[1], other);
  EXPECT_EQ(all[2], a);
  // The chain itself kept creation order: block 1 is still second.
  ASSERT_EQ(cache.Find(1, 1), b);
  EXPECT_EQ(cache.last_scan_length(), 2u);
}

TEST(BufCacheTest, InvalidateFileKeepsOtherFilesLruOrder) {
  BufCacheOptions options;
  options.capacity_blocks = 4;
  BufCache cache(options);
  (void)*cache.Create(1, 0);
  Buf* b0 = *cache.Create(2, 0);
  (void)*cache.Create(1, 1);
  Buf* b1 = *cache.Create(2, 1);
  ASSERT_EQ(cache.Find(2, 0), b0);  // file 2, oldest first: block 1, block 0
  EXPECT_EQ(cache.InvalidateFile(1), 2u);
  EXPECT_EQ(cache.InvalidateFile(1), 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.FileBufCount(1), 0u);
  EXPECT_EQ(cache.FileBufCount(2), 2u);

  b0->MarkDirty(0, 1);
  b1->MarkDirty(0, 1);
  auto all = cache.DirtyBufs();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], b1);
  EXPECT_EQ(all[1], b0);
  b0->MarkClean();
  b1->MarkClean();

  // Refill the freed slots; the next eviction takes the survivors' LRU end.
  (void)*cache.Create(3, 0);
  (void)*cache.Create(3, 1);
  ASSERT_TRUE(cache.Create(3, 2).ok());
  EXPECT_EQ(cache.FileBufCount(2), 1u);
  EXPECT_EQ(cache.Find(2, 1), nullptr);
  EXPECT_EQ(cache.Find(2, 0), b0);
}

// Random Create/Find/MarkDirty/MarkClean/Remove/InvalidateFile traffic with
// evictions: after every step the per-file walk must agree with the LRU
// walk filtered to that file, and OldestDirty with the LRU walk's first
// buffer, in both search modes.
TEST(BufCacheTest, PerFileDirtyWalkMatchesLruWalkUnderRandomTraffic) {
  constexpr uint64_t kFiles = 5;
  constexpr uint32_t kBlocks = 6;
  for (const bool chained : {true, false}) {
    BufCacheOptions options;
    options.capacity_blocks = 12;
    options.vnode_chained = chained;
    BufCache cache(options);
    Rng rng(20240611);
    for (int step = 0; step < 4000; ++step) {
      const uint64_t file = rng.UniformUint64(kFiles);
      const uint32_t block = static_cast<uint32_t>(rng.UniformUint64(kBlocks));
      const uint64_t op = rng.UniformUint64(100);
      if (op < 30) {
        if (cache.Find(file, block) == nullptr) {
          (void)cache.Create(file, block);  // may evict, or fail all-dirty
        }
      } else if (op < 55) {
        (void)cache.Find(file, block);
      } else if (op < 92) {
        Buf* buf = cache.Find(file, block);
        if (buf != nullptr && op < 80) {
          buf->MarkDirty(0, 1 + rng.UniformUint64(100));
        } else if (buf != nullptr) {
          buf->MarkClean();
        }
      } else if (op < 97) {
        cache.Remove(file, block);
      } else {
        cache.InvalidateFile(file);
      }

      const std::vector<Buf*> all = cache.DirtyBufs();
      ASSERT_EQ(all.size(), cache.dirty_count()) << "step " << step;
      ASSERT_EQ(cache.OldestDirty(), all.empty() ? nullptr : all.front()) << "step " << step;
      size_t cached = 0;
      for (uint64_t f = 0; f < kFiles; ++f) {
        std::vector<Buf*> expected;
        for (Buf* dirty : all) {
          if (dirty->file() == f) {
            expected.push_back(dirty);
          }
        }
        ASSERT_EQ(cache.DirtyBufs(f), expected) << "step " << step << " file " << f;
        cached += cache.FileBufCount(f);
      }
      ASSERT_EQ(cached, cache.size()) << "step " << step;
    }
  }
}

TEST(BufCacheTest, VnodeChainedScanOnlyTouchesOwnBuffers) {
  BufCacheOptions options;
  options.vnode_chained = true;
  options.capacity_blocks = 128;
  BufCache cache(options);
  // 50 buffers of file 9, 3 of file 1.
  for (uint32_t i = 0; i < 50; ++i) {
    (void)*cache.Create(9, i);
  }
  for (uint32_t i = 0; i < 3; ++i) {
    (void)*cache.Create(1, i);
  }
  ASSERT_NE(cache.Find(1, 2), nullptr);
  EXPECT_LE(cache.last_scan_length(), 3u);
}

TEST(BufCacheTest, LinearScanTouchesEverything) {
  BufCacheOptions options;
  options.vnode_chained = false;
  options.capacity_blocks = 128;
  BufCache cache(options);
  for (uint32_t i = 0; i < 50; ++i) {
    (void)*cache.Create(9, i);
  }
  (void)*cache.Create(1, 0);
  // Make file 1's buffer the LRU tail so a linear scan must walk past all
  // 50 other buffers.
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_NE(cache.Find(9, i), nullptr);
  }
  ASSERT_NE(cache.Find(1, 0), nullptr);
  EXPECT_GT(cache.last_scan_length(), 40u);
}

TEST(BufCacheTest, MissScansWholeList) {
  BufCacheOptions options;
  options.vnode_chained = false;
  BufCache cache(options);
  for (uint32_t i = 0; i < 10; ++i) {
    (void)*cache.Create(1, i);
  }
  EXPECT_EQ(cache.Find(1, 99), nullptr);
  EXPECT_EQ(cache.last_scan_length(), 10u);
}

TEST(BufCacheTest, RemoveSpecificBlock) {
  BufCache cache;
  (void)*cache.Create(1, 0);
  (void)*cache.Create(1, 1);
  cache.Remove(1, 0);
  EXPECT_EQ(cache.Find(1, 0), nullptr);
  EXPECT_NE(cache.Find(1, 1), nullptr);
  EXPECT_EQ(cache.FileBufCount(1), 1u);
}

}  // namespace
}  // namespace renonfs
