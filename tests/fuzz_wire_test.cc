// Deterministic wire fuzz harness.
//
// Replays thousands of seeded mutations of valid RPC/NFS messages against
// every decoding layer — the XDR cursor, the RPC call/reply headers, the NFS
// argument codecs — and against live servers on both transports. The
// contract under test: malformed input yields a clean Status (surfacing as a
// GARBAGE_ARGS reply or a silent drop) and NEVER a crash, hang, or memory
// fault. Run under the asan preset these tests double as a memory-safety
// sweep of the entire receive path.
//
// The mutation stream is a pure function of the seed (default fixed; override
// with RENONFS_FUZZ_SEED=<n>, or the repo-wide RENONFS_SEED, to explore), so
// any failure replays exactly.
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/nfs/wire.h"
#include "src/rpc/client.h"
#include "src/rpc/message.h"
#include "src/util/fuzz.h"
#include "src/util/seed.h"
#include "src/xdr/xdr.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

uint64_t FuzzSeed() {
  // Fixed default so CI failures replay exactly; RENONFS_FUZZ_SEED wins over
  // the repo-wide RENONFS_SEED override.
  return EffectiveSeed("RENONFS_FUZZ_SEED", 0x5eed4f2c0ffeeULL);
}

std::vector<uint8_t> EncodeCall(uint32_t xid, uint32_t proc,
                                const std::function<void(XdrEncoder&)>& put_args) {
  MbufChain message;
  XdrEncoder enc(&message);
  RpcCallHeader header;
  header.xid = xid;
  header.prog = kNfsProgram;
  header.vers = kNfsVersion;
  header.proc = proc;
  EncodeCallHeader(enc, header);
  if (put_args) {
    put_args(enc);
  }
  return message.ContiguousCopy();
}

// One valid call per interesting procedure: the corpus the mutator damages.
std::vector<std::vector<uint8_t>> BuildCallCorpus(const NfsFh& root) {
  std::vector<std::vector<uint8_t>> corpus;
  uint32_t xid = 0x1000;
  corpus.push_back(EncodeCall(xid++, kNfsNull, nullptr));
  corpus.push_back(EncodeCall(xid++, kNfsGetattr, [&](XdrEncoder& e) { EncodeFh(e, root); }));
  corpus.push_back(EncodeCall(xid++, kNfsSetattr, [&](XdrEncoder& e) {
    SetattrArgs args;
    args.file = root;
    args.attrs.mode = 0644;
    EncodeSetattrArgs(e, args);
  }));
  corpus.push_back(EncodeCall(xid++, kNfsLookup, [&](XdrEncoder& e) {
    EncodeDirOpArgs(e, DirOpArgs{root, "fuzzfile"});
  }));
  corpus.push_back(EncodeCall(xid++, kNfsRead, [&](XdrEncoder& e) {
    ReadArgs args;
    args.file = root;
    args.count = kNfsMaxData;
    EncodeReadArgs(e, args);
  }));
  corpus.push_back(EncodeCall(xid++, kNfsWrite, [&](XdrEncoder& e) {
    WriteArgs args;
    args.file = root;
    args.offset = 0;
    std::vector<uint8_t> payload(512, 0xAB);
    args.data = MbufChain::FromBytes(payload.data(), payload.size());
    EncodeWriteArgs(e, std::move(args));
  }));
  corpus.push_back(EncodeCall(xid++, kNfsCreate, [&](XdrEncoder& e) {
    CreateArgs args;
    args.dir = root;
    args.name = "newfile";
    args.attrs.mode = 0644;
    EncodeCreateArgs(e, args);
  }));
  corpus.push_back(EncodeCall(xid++, kNfsRemove, [&](XdrEncoder& e) {
    EncodeDirOpArgs(e, DirOpArgs{root, "newfile"});
  }));
  corpus.push_back(EncodeCall(xid++, kNfsRename, [&](XdrEncoder& e) {
    EncodeRenameArgs(e, RenameArgs{root, "a", root, "b"});
  }));
  corpus.push_back(EncodeCall(xid++, kNfsLink, [&](XdrEncoder& e) {
    EncodeLinkArgs(e, LinkArgs{root, root, "hardlink"});
  }));
  corpus.push_back(EncodeCall(xid++, kNfsSymlink, [&](XdrEncoder& e) {
    SymlinkArgs args;
    args.dir = root;
    args.name = "sym";
    args.target = "/over/there";
    EncodeSymlinkArgs(e, args);
  }));
  corpus.push_back(EncodeCall(xid++, kNfsReaddir, [&](XdrEncoder& e) {
    ReaddirArgs args;
    args.dir = root;
    args.count = 4096;
    EncodeReaddirArgs(e, args);
  }));
  corpus.push_back(EncodeCall(xid++, kNfsStatfs, [&](XdrEncoder& e) { EncodeFh(e, root); }));
  return corpus;
}

// Valid replies, for fuzzing the client-side decoders.
std::vector<std::vector<uint8_t>> BuildReplyCorpus(const NfsFh& root) {
  std::vector<std::vector<uint8_t>> corpus;
  FileAttr attr;
  attr.size = 12345;
  attr.fileid = 7;

  auto encode_reply = [](uint32_t xid, const std::function<void(XdrEncoder&)>& put_body) {
    MbufChain message;
    XdrEncoder enc(&message);
    RpcReplyHeader header;
    header.xid = xid;
    header.stat = RpcAcceptStat::kSuccess;
    EncodeReplyHeader(enc, header);
    if (put_body) {
      put_body(enc);
    }
    return message.ContiguousCopy();
  };

  corpus.push_back(encode_reply(0x2001, [&](XdrEncoder& e) {
    EncodeNfsStat(e, NfsStat::kOk);
    EncodeFattr(e, attr);
  }));
  corpus.push_back(encode_reply(0x2002, [&](XdrEncoder& e) {
    EncodeNfsStat(e, NfsStat::kOk);
    EncodeDirOpReply(e, DirOpReply{root, attr});
  }));
  corpus.push_back(encode_reply(0x2003, [&](XdrEncoder& e) {
    EncodeNfsStat(e, NfsStat::kOk);
    ReadReply reply;
    reply.attr = attr;
    std::vector<uint8_t> payload(1024, 0x5C);
    reply.data = MbufChain::FromBytes(payload.data(), payload.size());
    EncodeReadReply(e, std::move(reply));
  }));
  corpus.push_back(encode_reply(0x2004, [&](XdrEncoder& e) {
    EncodeNfsStat(e, NfsStat::kOk);
    ReaddirReply reply;
    reply.entries.push_back(ReaddirEntry{2, ".", 1});
    reply.entries.push_back(ReaddirEntry{3, "somefile", 2});
    reply.eof = true;
    EncodeReaddirReply(e, reply);
  }));
  corpus.push_back(encode_reply(0x2005, [&](XdrEncoder& e) {
    EncodeNfsStat(e, NfsStat::kOk);
    EncodeStatfsReply(e, StatfsReply{});
  }));
  corpus.push_back(encode_reply(0x2006, [&](XdrEncoder& e) {
    EncodeNfsStat(e, NfsStat::kNoSpc);
  }));
  return corpus;
}

// Decodes a mutated call the way RpcServer + NfsServer::Dispatch do; the only
// requirement is that every path returns (Status or value) without faulting.
// With a CoverageMap the observable branch outcomes — header result, procedure
// discriminator, argument result, consumed-length bucket — become coverage
// sites for the guided mode; the map folds consecutive sites into path edges.
void DecodeCallLikeServer(const std::vector<uint8_t>& bytes,
                          CoverageMap* cov = nullptr) {
  const auto observe = [cov](uint64_t site, uint64_t outcome) {
    if (cov != nullptr) {
      cov->Observe(site | outcome << 8);
    }
  };
  MbufChain message = MbufChain::FromBytes(bytes.data(), bytes.size());
  XdrDecoder dec(&message);
  auto header_or = DecodeCallHeader(dec);
  observe(1, header_or.ok() ? 1 : 0);
  if (!header_or.ok()) {
    return;  // the server counts garbage and drops
  }
  const uint32_t proc = header_or->proc % kNfsProcCount;
  observe(2, proc);
  MbufChain args =
      message.CopyRange(dec.Consumed(), message.Length() - dec.Consumed());
  XdrDecoder adec(&args);
  bool args_ok = true;
  switch (proc) {
    case kNfsGetattr:
    case kNfsStatfs:
    case kNfsReadlink:
      args_ok = DecodeFh(adec).ok();
      break;
    case kNfsSetattr:
      args_ok = DecodeSetattrArgs(adec).ok();
      break;
    case kNfsLookup:
    case kNfsRemove:
    case kNfsRmdir:
      args_ok = DecodeDirOpArgs(adec).ok();
      break;
    case kNfsRead:
      args_ok = DecodeReadArgs(adec).ok();
      break;
    case kNfsWrite:
      args_ok = DecodeWriteArgs(adec).ok();
      break;
    case kNfsCreate:
    case kNfsMkdir:
      args_ok = DecodeCreateArgs(adec).ok();
      break;
    case kNfsRename:
      args_ok = DecodeRenameArgs(adec).ok();
      break;
    case kNfsLink:
      args_ok = DecodeLinkArgs(adec).ok();
      break;
    case kNfsSymlink:
      args_ok = DecodeSymlinkArgs(adec).ok();
      break;
    case kNfsReaddir:
      args_ok = DecodeReaddirArgs(adec).ok();
      break;
    default:
      break;
  }
  observe(3, args_ok ? 1 : 0);
  observe(4, adec.Consumed() / 32);
}

void DecodeReplyLikeClient(const std::vector<uint8_t>& bytes) {
  MbufChain message = MbufChain::FromBytes(bytes.data(), bytes.size());
  XdrDecoder dec(&message);
  auto header_or = DecodeReplyHeader(dec);
  if (!header_or.ok()) {
    return;
  }
  MbufChain body =
      message.CopyRange(dec.Consumed(), message.Length() - dec.Consumed());
  // Try every reply decoder against the same bytes: the client picks one by
  // xid, but a corrupt reply can arrive for any call, so all of them must be
  // safe on arbitrary input.
  {
    XdrDecoder d(&body);
    if (DecodeNfsStat(d).ok()) {
      (void)DecodeFattr(d);
    }
  }
  {
    XdrDecoder d(&body);
    if (DecodeNfsStat(d).ok()) {
      (void)DecodeDirOpReply(d);
    }
  }
  {
    XdrDecoder d(&body);
    if (DecodeNfsStat(d).ok()) {
      (void)DecodeReadReply(d);
    }
  }
  {
    XdrDecoder d(&body);
    if (DecodeNfsStat(d).ok()) {
      (void)DecodeReaddirReply(d);
    }
  }
  {
    XdrDecoder d(&body);
    if (DecodeNfsStat(d).ok()) {
      (void)DecodeStatfsReply(d);
    }
  }
}

TEST(FuzzTest, MutatorIsSeedStable) {
  const std::vector<uint8_t> base = EncodeCall(1, kNfsGetattr, nullptr);
  FuzzMutator a(FuzzSeed());
  FuzzMutator b(FuzzSeed());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.Mutate(base), b.Mutate(base)) << "diverged at iteration " << i;
  }
  // A different seed must take a different path almost immediately.
  FuzzMutator c(FuzzSeed() + 1);
  int differing = 0;
  FuzzMutator a2(FuzzSeed());
  for (int i = 0; i < 100; ++i) {
    if (a2.Mutate(base) != c.Mutate(base)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 50);
}

TEST(FuzzTest, DecodersSurviveMutatedMessages) {
  const NfsFh root = NfsFh::Make(1, 1);
  const auto calls = BuildCallCorpus(root);
  const auto replies = BuildReplyCorpus(root);
  FuzzMutator mutator(FuzzSeed());
  for (int i = 0; i < 20000; ++i) {
    DecodeCallLikeServer(mutator.Mutate(calls[i % calls.size()]));
    DecodeReplyLikeClient(mutator.Mutate(replies[i % replies.size()]));
  }
  // Unmutated corpus entries must decode, proving the corpus exercises the
  // success paths too (a corpus of garbage would make the fuzz vacuous).
  for (const auto& bytes : calls) {
    MbufChain m = MbufChain::FromBytes(bytes.data(), bytes.size());
    XdrDecoder dec(&m);
    ASSERT_TRUE(DecodeCallHeader(dec).ok());
  }
}

// The coverage-guided mode must (a) grow the corpus beyond the seeds by
// keeping mutants that light up new edges, (b) out-cover the seeds alone,
// and (c) stay a pure function of the seed so campaigns replay exactly.
TEST(FuzzTest, CoverageGuidedCorpusGrowsAndReplays) {
  const NfsFh root = NfsFh::Make(1, 1);
  const auto executor = [](const std::vector<uint8_t>& input, CoverageMap& cov) {
    DecodeCallLikeServer(input, &cov);
  };
  constexpr uint64_t kIterations = 4000;

  // Baseline: the edges the unmutated corpus reaches by itself.
  CoverageGuidedFuzzer baseline(FuzzSeed(), BuildCallCorpus(root));
  const auto seed_stats = baseline.Run(0, executor);
  EXPECT_GT(seed_stats.distinct_edges, 0u);

  CoverageGuidedFuzzer fuzzer(FuzzSeed(), BuildCallCorpus(root));
  const auto stats = fuzzer.Run(kIterations, executor);
  EXPECT_EQ(stats.executions, stats.seed_inputs + kIterations);
  EXPECT_GT(stats.kept_inputs, 0u);
  EXPECT_EQ(fuzzer.corpus().size(), stats.seed_inputs + stats.kept_inputs);
  EXPECT_GT(stats.distinct_edges, seed_stats.distinct_edges)
      << "guided mutants found no behavior beyond the seed corpus";

  // Growth report, for the CI log and for eyeballing coverage plateaus.
  std::printf("coverage-guided: %llu execs, corpus %zu -> %zu, edges %zu -> %zu\n",
              static_cast<unsigned long long>(stats.executions),
              stats.seed_inputs, fuzzer.corpus().size(),
              seed_stats.distinct_edges, stats.distinct_edges);

  // Same seed, same campaign — byte-for-byte.
  CoverageGuidedFuzzer replay(FuzzSeed(), BuildCallCorpus(root));
  const auto replay_stats = replay.Run(kIterations, executor);
  EXPECT_EQ(replay_stats.kept_inputs, stats.kept_inputs);
  EXPECT_EQ(replay_stats.distinct_edges, stats.distinct_edges);
  EXPECT_EQ(replay.corpus().size(), fuzzer.corpus().size());
  ASSERT_FALSE(fuzzer.corpus().empty());
  EXPECT_EQ(replay.corpus().back(), fuzzer.corpus().back());
}

TEST(FuzzTest, UdpServerSurvivesMutatedDatagrams) {
  World world(QuietWorld());
  // Finite disk: a mutated WRITE/SETATTR carrying a 2 GB offset must bounce
  // off the block budget with ENOSPC, not materialize a 2 GB file.
  world.fs().SetFreeBlockBudget(4096);
  const auto corpus = BuildCallCorpus(world.server().RootFh());
  FuzzMutator mutator(FuzzSeed());

  UdpStack& udp = *world.client_udp(0);
  const uint16_t fuzz_port = 5999;
  uint64_t replies_seen = 0;
  udp.Bind(fuzz_port, [&](SockAddr, MbufChain) { ++replies_seen; });

  const SockAddr server_addr{world.topology().server->id(), kNfsPort};
  uint32_t xid = 0x9000;
  constexpr int kDatagrams = 5500;
  for (int i = 0; i < kDatagrams; ++i) {
    std::vector<uint8_t> bytes = mutator.Mutate(corpus[i % corpus.size()]);
    if (i % 8 == 0) {
      // Interleave pristine calls (fresh xid so the dup cache can't absorb
      // them): the server must keep answering mid-storm.
      bytes = EncodeCall(xid++, kNfsGetattr,
                         [&](XdrEncoder& e) { EncodeFh(e, world.server().RootFh()); });
    }
    udp.SendTo(fuzz_port, server_addr, MbufChain::FromBytes(bytes.data(), bytes.size()));
    world.scheduler().RunFor(Milliseconds(2));
  }
  world.scheduler().RunFor(Seconds(2));

  // The server survived (we are still running), dropped/GARBAGE'd the
  // mutants, and answered the valid interleaved calls.
  EXPECT_GT(world.server().rpc_stats().garbage_requests, 0u);
  EXPECT_GT(replies_seen, static_cast<uint64_t>(kDatagrams / 8 / 2));

  // And a real client still gets service afterwards.
  auto task = world.client().Getattr(world.server().RootFh());
  auto attr_or = world.Run(task, Seconds(60));
  EXPECT_TRUE(attr_or.ok());

  // Drain the stragglers: mutants that decoded as real ops may still be
  // suspended on simulated CPU/disk, and tearing the world down under a
  // live server coroutine leaks its frame (LeakSanitizer objects).
  world.scheduler().RunFor(Seconds(120));
}

TEST(FuzzTest, TcpServerSurvivesMutatedRecordBodies) {
  World world(QuietWorld());
  world.fs().SetFreeBlockBudget(4096);  // see the UDP test
  const auto corpus = BuildCallCorpus(world.server().RootFh());
  FuzzMutator mutator(FuzzSeed());

  TcpStack& tcp = *world.client_tcp(0);
  uint64_t reply_bytes = 0;
  TcpConnection* conn =
      tcp.Connect(tcp.AllocateEphemeralPort(), SockAddr{world.topology().server->id(), kNfsPort},
                  []() {}, TcpConfig{});
  conn->set_data_handler([&](MbufChain data) { reply_bytes += data.Length(); });
  world.scheduler().RunFor(Milliseconds(50));

  constexpr int kRecords = 5200;
  uint32_t xid = 0xA000;
  for (int i = 0; i < kRecords; ++i) {
    std::vector<uint8_t> body = mutator.Mutate(corpus[i % corpus.size()]);
    if (i % 8 == 0) {
      body = EncodeCall(xid++, kNfsGetattr,
                        [&](XdrEncoder& e) { EncodeFh(e, world.server().RootFh()); });
    }
    // Valid record mark, damaged body: the stream framing survives, so one
    // connection carries the whole storm and every body hits the decoders.
    MbufChain record = MbufChain::FromBytes(body.data(), body.size());
    const uint32_t mark = 0x80000000u | static_cast<uint32_t>(record.Length());
    uint8_t* rm = record.Prepend(4);
    rm[0] = static_cast<uint8_t>(mark >> 24);
    rm[1] = static_cast<uint8_t>(mark >> 16);
    rm[2] = static_cast<uint8_t>(mark >> 8);
    rm[3] = static_cast<uint8_t>(mark);
    conn->Send(std::move(record));
    world.scheduler().RunFor(Milliseconds(2));
  }
  world.scheduler().RunFor(Seconds(2));

  EXPECT_GT(world.server().rpc_stats().garbage_requests, 0u);
  EXPECT_GT(reply_bytes, 0u);  // valid interleaved calls were answered

  // The NFS client (own connection) still gets service.
  auto task = world.client().Getattr(world.server().RootFh());
  auto attr_or = world.Run(task, Seconds(60));
  EXPECT_TRUE(attr_or.ok());

  // Drain the stragglers (see the UDP test) before the world dies.
  world.scheduler().RunFor(Seconds(120));
}

TEST(FuzzTest, TcpServerPoisonsConnectionsWithCorruptMarks) {
  World world(QuietWorld());
  TcpStack& tcp = *world.client_tcp(0);
  Rng rng(FuzzSeed());

  constexpr int kConnections = 40;
  for (int i = 0; i < kConnections; ++i) {
    TcpConnection* conn = tcp.Connect(tcp.AllocateEphemeralPort(),
                                      SockAddr{world.topology().server->id(), kNfsPort},
                                      []() {}, TcpConfig{});
    conn->set_data_handler([](MbufChain) {});
    world.scheduler().RunFor(Milliseconds(20));

    // Either the fragment bit is clear or the claimed length is absurd; both
    // mean the framing is gone and the server must poison just this
    // connection.
    uint8_t evil[8];
    if (i % 2 == 0) {
      const uint32_t mark = 0x00001000u;  // fragment bit clear
      evil[0] = static_cast<uint8_t>(mark >> 24);
      evil[1] = static_cast<uint8_t>(mark >> 16);
      evil[2] = static_cast<uint8_t>(mark >> 8);
      evil[3] = static_cast<uint8_t>(mark);
    } else {
      const uint32_t mark = 0x80000000u | 0x7fffffffu;  // 2 GB record
      evil[0] = static_cast<uint8_t>(mark >> 24);
      evil[1] = static_cast<uint8_t>(mark >> 16);
      evil[2] = static_cast<uint8_t>(mark >> 8);
      evil[3] = static_cast<uint8_t>(mark);
    }
    for (int j = 4; j < 8; ++j) {
      evil[j] = static_cast<uint8_t>(rng.NextUint64());
    }
    conn->Send(MbufChain::FromBytes(evil, sizeof(evil)));
    world.scheduler().RunFor(Milliseconds(20));
  }
  world.scheduler().RunFor(Seconds(1));

  EXPECT_EQ(world.server().rpc_stats().corrupted_records,
            static_cast<uint64_t>(kConnections));

  // Poisoned connections must not have taken the server down for anyone else.
  auto task = world.client().Getattr(world.server().RootFh());
  auto attr_or = world.Run(task, Seconds(60));
  EXPECT_TRUE(attr_or.ok());
}

MbufChain RecordMarked(const std::vector<uint8_t>& body) {
  MbufChain record = MbufChain::FromBytes(body.data(), body.size());
  const uint32_t mark = 0x80000000u | static_cast<uint32_t>(record.Length());
  uint8_t* rm = record.Prepend(4);
  rm[0] = static_cast<uint8_t>(mark >> 24);
  rm[1] = static_cast<uint8_t>(mark >> 16);
  rm[2] = static_cast<uint8_t>(mark >> 8);
  rm[3] = static_cast<uint8_t>(mark);
  return record;
}

// A corrupt mark followed in the same stream by a perfectly valid call. The
// old behavior went read-deaf at the bad mark and stayed that way; the
// resync hunt must find the call's boundary and answer it on the same
// connection, no reconnect needed.
TEST(FuzzTest, TcpServerResynchronizesAfterCorruptMark) {
  World world(QuietWorld());
  TcpStack& tcp = *world.client_tcp(0);
  TcpConnection* conn = tcp.Connect(tcp.AllocateEphemeralPort(),
                                    SockAddr{world.topology().server->id(), kNfsPort},
                                    []() {}, TcpConfig{});
  uint64_t reply_bytes = 0;
  conn->set_data_handler([&](MbufChain data) { reply_bytes += data.Length(); });
  world.scheduler().RunFor(Milliseconds(20));

  uint8_t evil[8] = {0x00, 0x00, 0x10, 0x00, 0xde, 0xad, 0xbe, 0xef};
  MbufChain stream = MbufChain::FromBytes(evil, sizeof(evil));
  stream.Concat(RecordMarked(EncodeCall(
      0xBEEF, kNfsGetattr, [&](XdrEncoder& e) { EncodeFh(e, world.server().RootFh()); })));
  conn->Send(std::move(stream));
  world.scheduler().RunFor(Seconds(1));

  EXPECT_EQ(world.server().rpc_stats().corrupted_records, 1u);
  EXPECT_EQ(world.server().rpc_stats().resync_hunts, 1u);
  EXPECT_EQ(world.server().rpc_stats().resync_successes, 1u);
  EXPECT_EQ(world.server().rpc_stats().resync_failures, 0u);
  EXPECT_GT(reply_bytes, 0u);  // the hunted-out call was answered in place
}

// The hunt tests each offset once, on the arrival that completes the
// offset's 16-byte window. A boundary whose header straddles two arrivals
// must still be found and its call answered, wherever the split falls.
TEST(FuzzTest, TcpServerResynchronizesWhenBoundaryStraddlesArrivals) {
  World world(QuietWorld());
  TcpStack& tcp = *world.client_tcp(0);
  const RpcServerStats& stats = world.server().rpc_stats();
  constexpr size_t kHeader = 16;  // mark, xid, msg_type, rpcvers
  std::vector<uint64_t> reply_bytes(kHeader + 1, 0);
  for (size_t split = 0; split <= kHeader; ++split) {
    TcpConnection* conn = tcp.Connect(tcp.AllocateEphemeralPort(),
                                      SockAddr{world.topology().server->id(), kNfsPort},
                                      []() {}, TcpConfig{});
    conn->set_data_handler(
        [&reply_bytes, split](MbufChain data) { reply_bytes[split] += data.Length(); });
    world.scheduler().RunFor(Milliseconds(20));

    const uint8_t evil[8] = {0x00, 0x00, 0x10, 0x00, 0xde, 0xad, 0xbe, 0xef};
    std::vector<uint8_t> stream(evil, evil + sizeof(evil));
    const std::vector<uint8_t> call =
        RecordMarked(EncodeCall(0xBEEF, kNfsGetattr,
                                [&](XdrEncoder& e) { EncodeFh(e, world.server().RootFh()); }))
            .ContiguousCopy();
    stream.insert(stream.end(), call.begin(), call.end());
    const size_t cut = sizeof(evil) + split;

    conn->Send(MbufChain::FromBytes(stream.data(), cut));
    world.scheduler().RunFor(Milliseconds(50));
    EXPECT_EQ(stats.corrupted_records, split + 1) << "split " << split;
    // Only a whole header in the first arrival can be recognised there.
    EXPECT_EQ(stats.resync_successes, split + (split == kHeader ? 1 : 0)) << "split " << split;

    conn->Send(MbufChain::FromBytes(stream.data() + cut, stream.size() - cut));
    world.scheduler().RunFor(Seconds(1));
    EXPECT_EQ(stats.resync_successes, split + 1) << "split " << split;
    EXPECT_GT(reply_bytes[split], 0u) << "split " << split;
  }
  EXPECT_EQ(stats.resync_hunts, kHeader + 1);
  EXPECT_EQ(stats.resync_failures, 0u);
}

// When the hunted stream never yields a believable boundary, the hunt must
// give up at its window — the old poison behavior, now with the failure
// counted — and the server must keep serving everyone else.
TEST(FuzzTest, TcpServerPoisonsConnectionWhenHuntOverruns) {
  World world(QuietWorld());
  TcpStack& tcp = *world.client_tcp(0);
  TcpConnection* conn = tcp.Connect(tcp.AllocateEphemeralPort(),
                                    SockAddr{world.topology().server->id(), kNfsPort},
                                    []() {}, TcpConfig{});
  uint64_t reply_bytes = 0;
  conn->set_data_handler([&](MbufChain data) { reply_bytes += data.Length(); });
  world.scheduler().RunFor(Milliseconds(20));

  uint8_t evil[4] = {0x00, 0x00, 0x10, 0x00};  // fragment bit clear
  conn->Send(MbufChain::FromBytes(evil, sizeof(evil)));
  // Three maximal records of zeros: no candidate mark anywhere (the fragment
  // bit never appears), overrunning the two-record hunt window.
  std::vector<uint8_t> zeros(3 * kMaxRpcRecordBytes, 0);
  conn->Send(MbufChain::FromBytes(zeros.data(), zeros.size()));
  world.scheduler().RunFor(Seconds(5));

  EXPECT_EQ(world.server().rpc_stats().corrupted_records, 1u);
  EXPECT_EQ(world.server().rpc_stats().resync_hunts, 1u);
  EXPECT_EQ(world.server().rpc_stats().resync_successes, 0u);
  EXPECT_EQ(world.server().rpc_stats().resync_failures, 1u);

  // A valid call after the overrun goes unanswered: the stream is poisoned.
  conn->Send(RecordMarked(EncodeCall(
      0xBEEF, kNfsGetattr, [&](XdrEncoder& e) { EncodeFh(e, world.server().RootFh()); })));
  world.scheduler().RunFor(Seconds(1));
  EXPECT_EQ(reply_bytes, 0u);

  // The poisoned connection must not take the server down for anyone else.
  auto task = world.client().Getattr(world.server().RootFh());
  auto attr_or = world.Run(task, Seconds(60));
  EXPECT_TRUE(attr_or.ok());
}

// Client-side resync: the server's reply stream delivers garbage with an
// invalid mark, then a valid reply for the in-flight call. The old behavior
// cycled the connection (losing the call on a plain mount); the hunt must
// find the reply and resolve the call with zero reconnects.
TEST(FuzzTest, TcpClientResynchronizesAfterCorruptReplyMark) {
  World world(QuietWorld());
  const uint16_t port = 4444;
  world.server_tcp()->Listen(port, [&](TcpConnection* conn) {
    conn->set_data_handler([conn](MbufChain data) {
      if (data.Length() < 8) {
        return;
      }
      uint8_t head[8];
      CHECK(data.CopyOut(0, 8, head));
      const uint32_t xid = static_cast<uint32_t>(head[4]) << 24 |
                           static_cast<uint32_t>(head[5]) << 16 |
                           static_cast<uint32_t>(head[6]) << 8 | static_cast<uint32_t>(head[7]);
      uint8_t junk[8] = {0x00, 0x12, 0x34, 0x56, 0xba, 0xdc, 0x0f, 0xfe};
      MbufChain out = MbufChain::FromBytes(junk, sizeof(junk));
      MbufChain reply;
      XdrEncoder enc(&reply);
      EncodeReplyHeader(enc, RpcReplyHeader{xid, RpcAcceptStat::kSuccess});
      const uint32_t mark = 0x80000000u | static_cast<uint32_t>(reply.Length());
      uint8_t* rm = reply.Prepend(4);
      rm[0] = static_cast<uint8_t>(mark >> 24);
      rm[1] = static_cast<uint8_t>(mark >> 16);
      rm[2] = static_cast<uint8_t>(mark >> 8);
      rm[3] = static_cast<uint8_t>(mark);
      out.Concat(std::move(reply));
      conn->Send(std::move(out));
    });
  });

  TcpRpcOptions options;  // plain mount: a reconnect would lose the call
  TcpRpcTransport transport(world.client_tcp(0), 893,
                            SockAddr{world.topology().server->id(), port}, options);

  auto task = transport.Call(kNfsNull, RpcTimerClass::kOther, MbufChain());
  auto result = world.Run(task, Seconds(30));

  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(transport.stats().corrupted_records, 1u);
  EXPECT_EQ(transport.stats().resync_hunts, 1u);
  EXPECT_EQ(transport.stats().resync_successes, 1u);
  EXPECT_EQ(transport.stats().resync_failures, 0u);
  EXPECT_EQ(transport.recovery_stats().reconnects, 0u);
}

TEST(FuzzTest, TcpClientSurvivesHostileServer) {
  World world(QuietWorld());
  // A hostile listener on the server node: whatever arrives, it answers with
  // bytes whose record mark is invalid.
  const uint16_t hostile_port = 3333;
  world.server_tcp()->Listen(hostile_port, [&](TcpConnection* conn) {
    conn->set_data_handler([conn](MbufChain) {
      uint8_t garbage[16] = {0x00, 0x12, 0x34, 0x56, 0xde, 0xad, 0xbe, 0xef,
                             0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
      conn->Send(MbufChain::FromBytes(garbage, sizeof(garbage)));
    });
  });

  TcpRpcOptions options;  // plain mount: no recovery, no retained wire
  TcpRpcTransport transport(world.client_tcp(0), 891,
                            SockAddr{world.topology().server->id(), hostile_port}, options);

  auto task = transport.Call(kNfsNull, RpcTimerClass::kOther, MbufChain());
  auto result = world.Run(task, Seconds(120));

  // The corrupt reply stream must resolve the call with an error — not a
  // CHECK-abort, not an eternal hang.
  EXPECT_FALSE(result.ok());
  EXPECT_GE(transport.stats().corrupted_records, 1u);
  EXPECT_GE(transport.recovery_stats().reconnects, 1u);
}

}  // namespace
}  // namespace renonfs
