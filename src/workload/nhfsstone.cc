#include "src/workload/nhfsstone.h"

#include <algorithm>

#include "src/util/logging.h"

namespace renonfs {

namespace {
constexpr SimTime kWarmup = Seconds(5);       // run before the measurement window
constexpr uint32_t kReadBytes = kNfsMaxData;  // full 8 KB reads
// Test subtree shape (preloaded before the run).
constexpr size_t kDirectories = 4;
constexpr size_t kFilesPerDirectory = 12;
constexpr size_t kFileBytes = 16384;

std::string FileName(size_t index) {
  std::string name = "nhfsstone_test_file_" + std::to_string(index);
  // Pad past the 31-character name-cache limit (Appendix caveat 1).
  while (name.size() < 40) {
    name += 'x';
  }
  return name;
}
}  // namespace

// --- RawNfsCaller -------------------------------------------------------------

CoTask<StatusOr<FileAttr>> RawNfsCaller::Getattr(NfsFh file) {
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeFh(enc, file);
  auto reply =
      co_await transport_->Call(kNfsGetattr, TimerClassForProc(kNfsGetattr), std::move(args));
  co_return DecodeReply(reply, "getattr", DecodeFattr);
}

CoTask<StatusOr<DirOpReply>> RawNfsCaller::Lookup(NfsFh dir, std::string name) {
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeDirOpArgs(enc, DirOpArgs{dir, name});
  auto reply =
      co_await transport_->Call(kNfsLookup, TimerClassForProc(kNfsLookup), std::move(args));
  co_return DecodeReply(reply, "lookup", DecodeDirOpReply);
}

CoTask<StatusOr<size_t>> RawNfsCaller::Read(NfsFh file, uint32_t offset, uint32_t count) {
  MbufChain args;
  XdrEncoder enc(&args);
  ReadArgs read_args;
  read_args.file = file;
  read_args.offset = offset;
  read_args.count = count;
  EncodeReadArgs(enc, read_args);
  auto reply = co_await transport_->Call(kNfsRead, TimerClassForProc(kNfsRead), std::move(args));
  co_return DecodeReply(reply, "read", [](XdrDecoder& dec) -> StatusOr<size_t> {
    ASSIGN_OR_RETURN(const ReadReply read, DecodeReadReply(dec));
    return read.data.Length();
  });
}

// --- Nhfsstone ------------------------------------------------------------------

void Nhfsstone::PreloadTree() {
  LocalFs& fs = world_.fs();
  std::vector<uint8_t> payload(kFileBytes);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  size_t file_index = 0;
  for (size_t d = 0; d < kDirectories; ++d) {
    const std::string dir_name = "nhfsstone_dir_" + std::to_string(d);
    auto dir_ino = fs.Mkdir(fs.root(), dir_name, 0755);
    if (!dir_ino.ok() && dir_ino.status().code() == ErrorCode::kExist) {
      dir_ino = fs.Lookup(fs.root(), dir_name);  // reuse an existing subtree
    }
    CHECK(dir_ino.ok()) << dir_ino.status();
    const NfsFh dir_fh = NfsFh::Make(1, dir_ino.value());
    for (size_t f = 0; f < kFilesPerDirectory; ++f) {
      const std::string name = FileName(file_index++);
      auto ino = fs.Create(dir_ino.value(), name, 0644);
      if (!ino.ok() && ino.status().code() == ErrorCode::kExist) {
        ino = fs.Lookup(dir_ino.value(), name);
      }
      CHECK(ino.ok()) << ino.status();
      // Preload with real data so reads are not of empty files (caveat 2).
      CHECK(fs.Write(ino.value(), 0, payload.data(), payload.size()).ok());
      files_.emplace_back(dir_fh, NfsFh::Make(1, ino.value()));
      file_names_.push_back(name);
    }
  }
}

CoTask<Status> Nhfsstone::OneOperation(Rng& rng) {
  CHECK(!files_.empty()) << "PreloadTree() must run first";
  const size_t pick = rng.UniformUint64(files_.size());
  const auto& [dir_fh, file_fh] = files_[pick];
  const std::string& name = file_names_[pick];

  double roll = rng.UniformDouble();
  const NhfsstoneMix& mix = options_.mix;
  const SimTime start = world_.scheduler().now();
  Status status = Status::Ok();
  bool is_read = false;
  bool is_lookup = false;

  if ((roll -= mix.lookup) < 0) {
    is_lookup = true;
    auto reply = co_await caller_.Lookup(dir_fh, name);
    status = reply.status();
  } else if ((roll -= mix.read) < 0) {
    is_read = true;
    constexpr uint32_t kMaxOffset = kFileBytes - kReadBytes;
    const uint32_t offset = static_cast<uint32_t>(rng.UniformUint64(kMaxOffset / 512 + 1)) * 512;
    auto reply = co_await caller_.Read(file_fh, offset, kReadBytes);
    status = reply.status();
  } else {
    auto reply = co_await caller_.Getattr(file_fh);
    status = reply.status();
  }

  if (measuring_ && status.ok()) {
    const double rtt_ms = ToMilliseconds(world_.scheduler().now() - start);
    result_.rtt_ms.Add(rtt_ms);
    if (is_lookup) {
      result_.lookup_rtt_ms.Add(rtt_ms);
    }
    if (is_read) {
      result_.read_rtt_ms.Add(rtt_ms);
      result_.read_ops_per_sec += 1;  // converted to a rate at the end
    }
  }
  co_return status;
}

CoTask<void> Nhfsstone::Child(int index) {
  Rng rng(options_.seed * 1000003 + static_cast<uint64_t>(index));
  const double child_rate = options_.target_ops_per_sec / options_.children;
  const double mean_gap_s = 1.0 / child_rate;
  while (!stop_) {
    const double gap = rng.Exponential(mean_gap_s);
    co_await world_.scheduler().Delay(static_cast<SimTime>(gap * 1e9));
    if (stop_) {
      break;
    }
    Status status = co_await OneOperation(rng);
    (void)status;  // errors (soft timeouts) show up in the transport stats
  }
}

NhfsstoneResult Nhfsstone::Run() {
  CHECK(!files_.empty()) << "PreloadTree() must run first";
  stop_ = false;
  measuring_ = false;
  result_ = NhfsstoneResult{};
  result_.offered_ops_per_sec = options_.target_ops_per_sec;

  std::vector<CoTask<void>> children;
  children.reserve(options_.children);
  for (int i = 0; i < options_.children; ++i) {
    children.push_back(Child(i));
  }

  Scheduler& sched = world_.scheduler();
  sched.RunFor(kWarmup);

  const uint64_t calls_before = caller_.transport()->stats().calls;
  const uint64_t retrans_before = caller_.transport()->stats().retransmits;
  const uint64_t timeouts_before = caller_.transport()->stats().soft_timeouts;
  const CpuProfile cpu_before = world_.ServerCpuProfile();
  const SimTime t0 = sched.now();

  measuring_ = true;
  sched.RunFor(options_.duration);
  measuring_ = false;
  stop_ = true;
  // Drain in-flight operations.
  sched.RunFor(Seconds(60));

  const double elapsed_s = ToSeconds(options_.duration);
  result_.calls = caller_.transport()->stats().calls - calls_before;
  result_.retransmits = caller_.transport()->stats().retransmits - retrans_before;
  result_.soft_timeouts = caller_.transport()->stats().soft_timeouts - timeouts_before;
  result_.achieved_ops_per_sec = static_cast<double>(result_.rtt_ms.count()) / elapsed_s;
  result_.read_ops_per_sec /= elapsed_s;
  result_.retry_fraction =
      result_.calls == 0 ? 0 : static_cast<double>(result_.retransmits) /
                                   static_cast<double>(result_.calls);
  result_.server_profile = world_.ServerCpuProfile().Delta(cpu_before);
  const SimTime cpu_busy = result_.server_profile.busy;
  result_.server_cpu_utilization = ToSeconds(cpu_busy) / elapsed_s;
  result_.server_cpu_ms_per_op =
      result_.rtt_ms.count() == 0
          ? 0
          : ToMilliseconds(cpu_busy) / static_cast<double>(result_.rtt_ms.count());
  (void)t0;
  return result_;
}

}  // namespace renonfs
