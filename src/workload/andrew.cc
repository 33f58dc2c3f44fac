#include "src/workload/andrew.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/workload/fill.h"

namespace renonfs {
namespace {

constexpr size_t kIoChunkBytes = 4096;  // cp/cc write in buffer-sized syscalls

// CPU charged per byte processed by the user-level tools, in nominal
// MicroVAXII nanoseconds (see CostProfile). Calibrated so phases I-IV and
// V land in the right regime on a 0.9 MIPS client (Table #2).
constexpr SimTime kCopyCpuPerByte = 30'000;        // cp
constexpr SimTime kScanCpuPerByte = 80'000;        // grep + wc
constexpr SimTime kStatCpuPerEntry = Milliseconds(60);
constexpr SimTime kCompileCpuPerByte = 5'000'000;  // cc on a 0.9 MIPS machine
constexpr double kObjectSizeFactor = 0.7;          // .o size relative to source

}  // namespace

std::string AndrewBenchmark::SourcePath(const SourceFile& source) const {
  return "andrew_src/dir" + std::to_string(source.directory) + "/" + source.name;
}

void AndrewBenchmark::PreloadSource() {
  LocalFs& fs = world_.fs();
  Rng rng(options_.seed);
  auto src_root_ino = fs.Mkdir(fs.root(), "andrew_src", 0755);
  CHECK(src_root_ino.ok());
  source_root_ = NfsFh::Make(1, src_root_ino.value());

  std::vector<Ino> dir_inos;
  for (size_t d = 0; d < options_.directories; ++d) {
    auto dir_ino = fs.Mkdir(src_root_ino.value(), "dir" + std::to_string(d), 0755);
    CHECK(dir_ino.ok());
    dir_inos.push_back(dir_ino.value());
  }

  for (size_t f = 0; f < options_.source_files; ++f) {
    SourceFile source;
    source.directory = f % options_.directories;
    source.name = "file" + std::to_string(f) + ".c";
    // Size distribution: mostly small sources with an occasional large one.
    const double draw = rng.Exponential(static_cast<double>(options_.mean_file_bytes));
    source.bytes = std::clamp<size_t>(static_cast<size_t>(draw), 256, 24 * 1024);
    auto ino = fs.Create(dir_inos[source.directory], source.name, 0644);
    CHECK(ino.ok());
    std::vector<uint8_t> bytes(source.bytes);
    FillAlphabet(bytes, f);
    CHECK(fs.Write(ino.value(), 0, bytes.data(), bytes.size()).ok());
    sources_.push_back(std::move(source));
  }
}

CoTask<StatusOr<size_t>> AndrewBenchmark::ReadWholeFile(NfsClient& client, NfsFh file) {
  Status open_status = co_await client.Open(file);
  if (!open_status.ok()) {
    co_return open_status;
  }
  size_t total = 0;
  for (;;) {
    auto read_or = co_await client.Read(file, total, kNfsMaxData, nullptr);
    if (!read_or.ok()) {
      co_return read_or.status();
    }
    if (read_or.value() == 0) {
      break;
    }
    total += read_or.value();
  }
  Status close_status = co_await client.Close(file);
  if (!close_status.ok()) {
    co_return close_status;
  }
  co_return total;
}

CoTask<Status> AndrewBenchmark::PhaseMkdir(NfsClient& client, std::vector<NfsFh>* target_dirs) {
  auto root_or = co_await client.Mkdir(client.root(), "andrew_tgt");
  if (!root_or.ok()) {
    co_return root_or.status();
  }
  target_dirs->push_back(root_or.value());
  for (size_t d = 0; d < options_.directories; ++d) {
    auto dir_or = co_await client.Mkdir(root_or.value(), "dir" + std::to_string(d));
    if (!dir_or.ok()) {
      co_return dir_or.status();
    }
    target_dirs->push_back(dir_or.value());
  }
  co_return Status::Ok();
}

CoTask<Status> AndrewBenchmark::PhaseCopy(NfsClient& client,
                                          const std::vector<NfsFh>& target_dirs) {
  Node* node = world_.topology().client;
  for (const SourceFile& source : sources_) {
    // cp resolves the full pathname, component by component.
    auto src_or = co_await client.LookupPath(SourcePath(source));
    if (!src_or.ok()) {
      co_return src_or.status();
    }
    Status open_status = co_await client.Open(src_or.value());
    if (!open_status.ok()) {
      co_return open_status;
    }
    std::vector<uint8_t> bytes(source.bytes);
    auto read_or = co_await client.Read(src_or.value(), 0, bytes.size(), bytes.data());
    if (!read_or.ok()) {
      co_return read_or.status();
    }
    co_await client.Close(src_or.value());

    auto dst_or = co_await client.Create(target_dirs[1 + source.directory], source.name);
    if (!dst_or.ok()) {
      co_return dst_or.status();
    }
    Status dst_open = co_await client.Open(dst_or.value());
    if (!dst_open.ok()) {
      co_return dst_open;
    }
    // cp's user/kernel CPU, then the data in buffer-sized write syscalls.
    co_await node->cpu().Use(kCopyCpuPerByte * static_cast<SimTime>(source.bytes));
    size_t written = 0;
    while (written < read_or.value()) {
      const size_t chunk = std::min<size_t>(kIoChunkBytes, read_or.value() - written);
      Status write_status =
          co_await client.Write(dst_or.value(), written, bytes.data() + written, chunk);
      if (!write_status.ok()) {
        co_return write_status;
      }
      written += chunk;
    }
    Status close_status = co_await client.Close(dst_or.value());
    if (!close_status.ok()) {
      co_return close_status;
    }
  }
  co_return Status::Ok();
}

CoTask<Status> AndrewBenchmark::PhaseStat(NfsClient& client) {
  Node* node = world_.topology().client;
  // Recursive ls -l over both trees: list each directory, stat every entry.
  std::vector<NfsFh> roots = {source_root_};
  auto tgt_or = co_await client.Lookup(client.root(), "andrew_tgt");
  if (tgt_or.ok()) {
    roots.push_back(tgt_or.value());
  }
  for (NfsFh root : roots) {
    auto entries_or = co_await client.Readdir(root);
    if (!entries_or.ok()) {
      co_return entries_or.status();
    }
    for (const ReaddirEntry& dir_entry : entries_or.value()) {
      auto dir_or = co_await client.Lookup(root, dir_entry.name);
      if (!dir_or.ok()) {
        continue;
      }
      co_await node->cpu().Use(kStatCpuPerEntry);
      auto listing_or = co_await client.Readdir(dir_or.value());
      if (!listing_or.ok()) {
        continue;  // a file, not a directory
      }
      for (const ReaddirEntry& entry : listing_or.value()) {
        auto file_or = co_await client.Lookup(dir_or.value(), entry.name);
        if (!file_or.ok()) {
          co_return file_or.status();
        }
        auto attr_or = co_await client.Getattr(file_or.value());
        if (!attr_or.ok()) {
          co_return attr_or.status();
        }
        co_await node->cpu().Use(kStatCpuPerEntry / 4);
      }
    }
  }
  co_return Status::Ok();
}

CoTask<Status> AndrewBenchmark::PhaseRead(NfsClient& client) {
  Node* node = world_.topology().client;
  // grep pass + wc pass over every source file.
  for (int pass = 0; pass < 2; ++pass) {
    for (const SourceFile& source : sources_) {
      auto src_or = co_await client.LookupPath(SourcePath(source));
      if (!src_or.ok()) {
        co_return src_or.status();
      }
      auto total_or = co_await ReadWholeFile(client, src_or.value());
      if (!total_or.ok()) {
        co_return total_or.status();
      }
      co_await node->cpu().Use(kScanCpuPerByte *
                               static_cast<SimTime>(total_or.value()));
    }
  }
  co_return Status::Ok();
}

CoTask<Status> AndrewBenchmark::PhaseCompile(NfsClient& client,
                                             const std::vector<NfsFh>& target_dirs) {
  Node* node = world_.topology().client;
  size_t total_object_bytes = 0;
  for (const SourceFile& source : sources_) {
    auto src_or = co_await client.LookupPath(SourcePath(source));
    if (!src_or.ok()) {
      co_return src_or.status();
    }
    auto total_or = co_await ReadWholeFile(client, src_or.value());
    if (!total_or.ok()) {
      co_return total_or.status();
    }
    // The compiler itself.
    co_await node->cpu().Use(kCompileCpuPerByte *
                             static_cast<SimTime>(total_or.value()));

    // cc emits an assembler temporary, reads it back (as), then unlinks it.
    // With push-on-close the temporary's blocks hit the server before the
    // delete; the no-consistency mount discards them — a large slice of
    // Table #3's write-RPC difference.
    {
      const size_t temp_bytes = source.bytes + source.bytes / 2;
      auto tmp_or = co_await client.Create(target_dirs[0], "cc.tmp");
      if (!tmp_or.ok()) {
        co_return tmp_or.status();
      }
      Status tmp_open = co_await client.Open(tmp_or.value());
      if (!tmp_open.ok()) {
        co_return tmp_open;
      }
      std::vector<uint8_t> temp(temp_bytes, 0x2e);
      size_t temp_written = 0;
      while (temp_written < temp.size()) {
        const size_t chunk =
            std::min<size_t>(kIoChunkBytes, temp.size() - temp_written);
        Status temp_status = co_await client.Write(tmp_or.value(), temp_written,
                                                   temp.data() + temp_written, chunk);
        if (!temp_status.ok()) {
          co_return temp_status;
        }
        temp_written += chunk;
      }
      Status close_status = co_await client.Close(tmp_or.value());
      if (!close_status.ok()) {
        co_return close_status;
      }
      auto back_or = co_await ReadWholeFile(client, tmp_or.value());
      if (!back_or.ok()) {
        co_return back_or.status();
      }
      Status remove_status = co_await client.Remove(target_dirs[0], "cc.tmp");
      if (!remove_status.ok()) {
        co_return remove_status;
      }
    }

    const size_t object_bytes =
        static_cast<size_t>(static_cast<double>(source.bytes) * kObjectSizeFactor);
    total_object_bytes += object_bytes;
    const std::string object_name = source.name.substr(0, source.name.size() - 2) + ".o";
    auto obj_or = co_await client.Create(target_dirs[1 + source.directory], object_name);
    if (!obj_or.ok()) {
      co_return obj_or.status();
    }
    Status obj_open = co_await client.Open(obj_or.value());
    if (!obj_open.ok()) {
      co_return obj_open;
    }
    std::vector<uint8_t> object(object_bytes, 0x4f);
    size_t written = 0;
    while (written < object.size()) {
      const size_t chunk = std::min<size_t>(kIoChunkBytes, object.size() - written);
      Status write_status =
          co_await client.Write(obj_or.value(), written, object.data() + written, chunk);
      if (!write_status.ok()) {
        co_return write_status;
      }
      written += chunk;
    }
    Status close_status = co_await client.Close(obj_or.value());
    if (!close_status.ok()) {
      co_return close_status;
    }
  }

  // Link step: read every object back, write the executable.
  for (const SourceFile& source : sources_) {
    const std::string object_name = source.name.substr(0, source.name.size() - 2) + ".o";
    auto obj_or = co_await client.LookupPath("andrew_tgt/dir" +
                                             std::to_string(source.directory) + "/" +
                                             object_name);
    if (!obj_or.ok()) {
      co_return obj_or.status();
    }
    auto total_or = co_await ReadWholeFile(client, obj_or.value());
    if (!total_or.ok()) {
      co_return total_or.status();
    }
  }
  co_await node->cpu().Use(kCompileCpuPerByte / 8 *
                           static_cast<SimTime>(total_object_bytes));
  auto exe_or = co_await client.Create(target_dirs[0], "a.out");
  if (!exe_or.ok()) {
    co_return exe_or.status();
  }
  Status exe_open = co_await client.Open(exe_or.value());
  if (!exe_open.ok()) {
    co_return exe_open;
  }
  std::vector<uint8_t> exe(total_object_bytes / 2, 0x7f);
  Status write_status = co_await client.Write(exe_or.value(), 0, exe.data(), exe.size());
  if (!write_status.ok()) {
    co_return write_status;
  }
  co_return co_await client.Close(exe_or.value());
}

CoTask<Status> AndrewBenchmark::RunAllPhases(NfsClient& client, AndrewResult* result) {
  Scheduler& sched = world_.scheduler();
  std::vector<NfsFh> target_dirs;

  const SimTime t0 = sched.now();
  Status status = co_await PhaseMkdir(client, &target_dirs);
  if (!status.ok()) {
    co_return status;
  }
  const SimTime t1 = sched.now();
  status = co_await PhaseCopy(client, target_dirs);
  if (!status.ok()) {
    co_return status;
  }
  const SimTime t2 = sched.now();
  status = co_await PhaseStat(client);
  if (!status.ok()) {
    co_return status;
  }
  const SimTime t3 = sched.now();
  status = co_await PhaseRead(client);
  if (!status.ok()) {
    co_return status;
  }
  const SimTime t4 = sched.now();
  status = co_await PhaseCompile(client, target_dirs);
  if (!status.ok()) {
    co_return status;
  }
  const SimTime t5 = sched.now();

  result->phase_seconds[0] = ToSeconds(t1 - t0);
  result->phase_seconds[1] = ToSeconds(t2 - t1);
  result->phase_seconds[2] = ToSeconds(t3 - t2);
  result->phase_seconds[3] = ToSeconds(t4 - t3);
  result->phase_seconds[4] = ToSeconds(t5 - t4);
  result->phases_1_to_4_seconds = ToSeconds(t4 - t0);
  result->phase_5_seconds = ToSeconds(t5 - t4);
  co_return Status::Ok();
}

AndrewResult AndrewBenchmark::Run(size_t client_index) {
  auto result_or = TryRun(client_index);
  CHECK(result_or.ok()) << "Andrew benchmark failed: " << result_or.status();
  return std::move(result_or).value();
}

StatusOr<AndrewResult> AndrewBenchmark::TryRun(size_t client_index) {
  CHECK(!sources_.empty()) << "PreloadSource() must run first";
  CHECK_EQ(client_index, 0u) << "the Andrew model charges tool CPU to client 0's node";
  NfsClient& client = world_.client(client_index);
  AndrewResult result;
  const auto rpc_before = client.stats().rpc_counts;

  auto task = RunAllPhases(client, &result);
  Status status = world_.Run(task);
  if (!status.ok()) {
    return status;
  }

  for (size_t proc = 0; proc < kNfsProcCount; ++proc) {
    result.rpc_counts[proc] = client.stats().rpc_counts[proc] - rpc_before[proc];
  }
  return result;
}

}  // namespace renonfs
