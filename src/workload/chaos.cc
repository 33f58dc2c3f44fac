#include "src/workload/chaos.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/local_fs.h"
#include "src/nfs/wire.h"
#include "src/workload/fill.h"

namespace renonfs {
namespace {

// The create-delete soak: each iteration creates a scratch file, writes it,
// and deletes it — the classic generator of non-idempotent retries when the
// server reboots between execution and reply. Every 8th iteration also
// leaves a "keep" file behind so the post-run integrity audit has durable
// data to compare.
CoTask<Status> CreateDeleteLoop(NfsClient& client, size_t iterations, size_t file_bytes,
                                std::vector<std::string>* op_log) {
  auto log = [op_log](const std::string& what, const Status& status) {
    op_log->push_back("cdloop " + what + " = " +
                      (status.ok() ? "ok" : std::string(ErrorCodeName(status.code()))));
  };
  std::vector<uint8_t> data(file_bytes);
  for (size_t i = 0; i < iterations; ++i) {
    FillAlphabet(data, i);
    const std::string name = "chaos_tmp" + std::to_string(i);
    auto fh_or = co_await client.Create(client.root(), name);
    log("create " + name, fh_or.status());
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    Status status = co_await client.Open(fh_or.value());
    if (!status.ok()) {
      log("open " + name, status);
      co_return status;
    }
    if (!data.empty()) {
      status = co_await client.Write(fh_or.value(), 0, data.data(), data.size());
      log("write " + name, status);
      if (!status.ok()) {
        co_return status;
      }
    }
    status = co_await client.Close(fh_or.value());
    log("close " + name, status);
    if (!status.ok()) {
      co_return status;
    }
    if (i % 8 == 0) {
      const std::string keep = "chaos_keep" + std::to_string(i);
      auto keep_or = co_await client.Create(client.root(), keep);
      log("create " + keep, keep_or.status());
      if (!keep_or.ok()) {
        co_return keep_or.status();
      }
      status = co_await client.Open(keep_or.value());
      if (!status.ok()) {
        log("open " + keep, status);
        co_return status;
      }
      if (!data.empty()) {
        status = co_await client.Write(keep_or.value(), 0, data.data(), data.size());
        log("write " + keep, status);
        if (!status.ok()) {
          co_return status;
        }
      }
      status = co_await client.Close(keep_or.value());
      log("close " + keep, status);
      if (!status.ok()) {
        co_return status;
      }
    }
    status = co_await client.Remove(client.root(), name);
    log("remove " + name, status);
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return Status::Ok();
}

// Pause between a lease-storm reader's passes over the kept files.
constexpr SimTime kLeaseReadInterval = Milliseconds(300);

// One lease-storm reader: loop over the server's surviving "chaos_keep"
// files (ground truth from LocalFs, same shortcut the integrity audit takes)
// and read each one through this client. Under a lease mount every pass asks
// for a read lease, which recalls whatever write lease the grinder on
// client 0 is caching behind — the recall storm the soak exists to create.
// Failures are expected mid-fault (ENOENT races, crash windows) and ignored;
// the soak's assertions live in the lease counters and the integrity audit.
CoTask<void> LeaseStormReader(World& world, NfsClient& client, const bool* stop) {
  Scheduler& sched = world.scheduler();
  uint8_t buf[kNfsMaxData];
  while (!*stop) {
    auto entries_or = world.fs().Readdir(world.fs().root(), 0, 1u << 20);
    if (entries_or.ok()) {
      for (const DirEntry& entry : entries_or.value()) {
        if (*stop) {
          break;
        }
        if (entry.name.rfind("chaos_keep", 0) != 0) {
          continue;
        }
        const NfsFh fh = NfsFh::Make(1, entry.ino);
        Status status = co_await client.Open(fh);
        if (!status.ok()) {
          continue;
        }
        (void)co_await client.Read(fh, 0, sizeof(buf), buf);
        (void)co_await client.Close(fh);
      }
    }
    co_await sched.Delay(kLeaseReadInterval);
  }
}

CoTask<StatusOr<std::vector<uint8_t>>> ReadAllThroughClient(NfsClient& client, NfsFh fh) {
  std::vector<uint8_t> bytes;
  Status status = co_await client.Open(fh);
  if (!status.ok()) {
    co_return status;
  }
  uint8_t buf[kNfsMaxData];
  for (;;) {
    auto n_or = co_await client.Read(fh, bytes.size(), sizeof(buf), buf);
    if (!n_or.ok()) {
      co_return n_or.status();
    }
    if (n_or.value() == 0) {
      break;
    }
    bytes.insert(bytes.end(), buf, buf + n_or.value());
  }
  status = co_await client.Close(fh);
  if (!status.ok()) {
    co_return status;
  }
  co_return bytes;
}

// Walks the server's LocalFs (stable storage, the ground truth) and reads
// every regular file back through the client, comparing byte-for-byte.
CoTask<Status> VerifyTree(World& world, NfsClient& client, Ino dir, size_t* files_compared) {
  auto entries_or = world.fs().Readdir(dir, 0, 1u << 20);
  if (!entries_or.ok()) {
    co_return entries_or.status();
  }
  for (const DirEntry& entry : entries_or.value()) {
    auto attr_or = world.fs().Getattr(entry.ino);
    if (!attr_or.ok()) {
      co_return attr_or.status();
    }
    if (attr_or.value().type == FileType::kDirectory) {
      Status status = co_await VerifyTree(world, client, entry.ino, files_compared);
      if (!status.ok()) {
        co_return status;
      }
      continue;
    }
    if (attr_or.value().type != FileType::kRegular) {
      continue;
    }
    auto truth_or = world.fs().Read(entry.ino, 0, attr_or.value().size);
    if (!truth_or.ok()) {
      co_return truth_or.status();
    }
    auto seen_or = co_await ReadAllThroughClient(client, NfsFh::Make(1, entry.ino));
    if (!seen_or.ok()) {
      co_return Status(ErrorCode::kIo,
                       "chaos: client read of " + entry.name + " failed: " +
                           seen_or.status().ToString());
    }
    if (seen_or.value() != truth_or.value()) {
      std::string detail;
      if (seen_or.value().size() != truth_or.value().size()) {
        detail = "client sees " + std::to_string(seen_or.value().size()) +
                 " bytes, server has " + std::to_string(truth_or.value().size());
      } else {
        size_t at = 0;
        while (at < seen_or.value().size() &&
               seen_or.value()[at] == truth_or.value()[at]) {
          ++at;
        }
        detail = "first divergence at byte " + std::to_string(at);
      }
      co_return Status(ErrorCode::kIo, "chaos: " + entry.name + " differs: " + detail);
    }
    ++*files_compared;
  }
  co_return Status::Ok();
}

CoTask<Status> FlushAndVerify(World& world, NfsClient& client, size_t* files_compared) {
  // Flush every client's write-behind before reading the truth back. A flush
  // may surface ESTALE when the dirty data's file was removed by another
  // client (shared-namespace soaks): BSD semantics latch the error and
  // discard the doomed buffers, so the audit tolerates exactly that verdict
  // and retries — FlushAll stops at the first failure, and the files behind
  // it still need their push. Any other verdict fails the audit.
  for (size_t i = 0; i < world.client_count(); ++i) {
    for (;;) {
      Status status = co_await world.client(i).FlushAll();
      if (status.ok()) {
        break;
      }
      if (status.code() != ErrorCode::kStale) {
        co_return Status(ErrorCode::kIo,
                         "chaos: post-run flush failed: " + status.ToString());
      }
    }
  }
  co_return co_await VerifyTree(world, client, world.fs().root(), files_compared);
}

}  // namespace

std::string ChaosReport::SummaryLine() const {
  std::string line = "chaos: seed=" + std::to_string(seed);
  line += " status=";
  line += workload_status.ok() ? "ok" : workload_status.ToString();
  line += " integrity=";
  line += integrity_ok ? "ok" : "FAILED";
  line += " files=" + std::to_string(files_compared);
  auto counter = [this](const char* name) { return std::to_string(metrics.Value(name)); };
  line += " crashes=" + counter("server.nfs.crashes");
  line += " trace=" + std::to_string(fault_trace.size());
  line += " replays=" + counter("server.rpc.duplicate_cache_replays");
  line += " absorbed=" + std::to_string(retry_errors_absorbed);
  line += " frames_corrupted=" + std::to_string(frames_corrupted);
  line += " checksum_drops=" + std::to_string(checksum_drops);
  line += " garbage=" + counter("server.rpc.garbage_requests");
  line += " corrupt_records=" + std::to_string(corrupted_records);
  line += " enospc=" + counter("fs.enospc_errors");
  line += " disk_errors=" + counter("fs.injected_errors");
  line += " latched=" + std::to_string(write_errors_latched);
  line += " slot_waits=" + counter("server.rpc.nfsd_slot_waits");
  // Server lease grants, grace reclaims included.
  const uint64_t grants =
      metrics.Value("server.lease.granted") + metrics.Value("server.lease.reclaimed");
  if (grants > 0 || metrics.Value("server.lease.recalls_sent") > 0) {
    line += " leases=" + std::to_string(grants);
    line += " recalls=" + counter("server.lease.recalls_sent");
    line += " vacated=" + counter("server.lease.vacated");
    line += " lease_evictions=" + counter("server.lease.evictions");
    line += " stale_discards=" + counter("client.lease.stale_discards");
    line += " stale_lease_writes=" + counter("client.lease.stale_lease_writes");
  }
  for (const ProcLatency& lat : latencies) {
    line += " lat_us[" + lat.proc + "]=" + std::to_string(lat.p50_us) + "/" +
            std::to_string(lat.p95_us) + "/" + std::to_string(lat.p99_us);
  }
  return line;
}

void DumpObservability(World& world, std::ostream& out, size_t tail_events) {
  const SimTime now = world.scheduler().now();
  out << "=== metrics @" << now / 1000000 << "ms ===\n";
  out << world.metrics().DumpText(now);
  out << world.ServerCpuProfile().FlatTable("server CPU by category");
  out << "=== latency attribution (" << world.spans().stats().ops_completed
      << " ops) ===\n";
  out << world.spans().BreakdownTable();
  if (world.flight().size() > 0) {
    out << "=== flight recorder (" << world.flight().size() << " of "
        << world.flight().frames_captured() << " frames) ===\n";
    out << world.flight().Tail(8);
  }
  out << "=== trace tail (" << tail_events << " of " << world.tracer().recorded()
      << " recorded, " << world.tracer().dropped() << " evicted) ===\n";
  out << world.tracer().Tail(tail_events);
  out.flush();
}

FaultTargets WorldFaultTargets(World& world) {
  FaultTargets targets;
  targets.server = &world.server();
  targets.medium = world.topology().path_media.back();
  targets.fs = &world.fs();
  targets.disk = &world.server_node()->disk();
  targets.client_node = world.topology().client;
  targets.server_host = world.server_node()->id();
  targets.client_udp = world.client_udp(0);
  return targets;
}

ChaosReport RunChaos(World& world, const ChaosOptions& options) {
  ChaosReport report;
  Scheduler& sched = world.scheduler();
  const SimTime t0 = sched.now();

  // Arm the flight recorder for the whole soak: when an assertion trips, the
  // report carries the counter time series that led up to it.
  world.flight().Start();

  FaultInjector injector(sched);
  const FaultTargets targets = WorldFaultTargets(world);
  SimTime horizon = 0;
  for (const FaultSpec& spec : options.schedule) {
    injector.Schedule(spec, targets);
    horizon = std::max(horizon, spec.Horizon());
  }

  bool stop_readers = false;
  std::vector<CoTask<void>> readers;
  if (options.lease_storm) {
    for (size_t i = 1; i < world.client_count(); ++i) {
      readers.push_back(LeaseStormReader(world, world.client(i), &stop_readers));
    }
  }

  if (options.workload == ChaosWorkload::kAndrew) {
    AndrewBenchmark andrew(world, options.andrew);
    andrew.PreloadSource();
    auto result_or = andrew.TryRun();
    report.workload_status = result_or.status();
    report.op_log.push_back(
        "andrew = " + (result_or.ok() ? std::string("ok")
                                      : std::string(ErrorCodeName(result_or.status().code()))));
  } else if (options.workload == ChaosWorkload::kOpMix) {
    // One mix rng stream per client, all forked from the world seed, so the
    // op sequences are stable whether or not extra clients join.
    Rng mix_rng(world.seed() ^ 0x6f706d69785f3701ull);
    std::vector<CoTask<Status>> mixers;
    mixers.push_back(RunOpMix(world, world.client(0), 0, options.opmix, mix_rng.Fork(),
                              &report.op_log));
    if (options.opmix.shared_files) {
      for (size_t i = 1; i < world.client_count(); ++i) {
        mixers.push_back(RunOpMix(world, world.client(i), i, options.opmix,
                                  mix_rng.Fork(), &report.op_log));
      }
    }
    report.workload_status = world.Run(mixers[0]);
    for (size_t i = 1; i < mixers.size(); ++i) {
      const Status status = world.Run(mixers[i]);
      if (report.workload_status.ok() && !status.ok()) {
        report.workload_status = status;
      }
    }
  } else {
    auto task = CreateDeleteLoop(world.client(), options.iterations, options.opmix.file_bytes,
                                 &report.op_log);
    report.workload_status = world.Run(task);
  }

  // A failed (soft) workload can exit while faults are still scheduled; let
  // the rest of the schedule play out so the audit runs against a healed
  // world — the server is up and every link restored.
  if (sched.now() < t0 + horizon) {
    sched.RunUntil(t0 + horizon + Seconds(1));
  }

  // Stop the reader pool before the audit: a reader mid-pass finishes its
  // current file (the world is healed by now, so nothing blocks forever) and
  // exits at the next loop check.
  stop_readers = true;
  for (CoTask<void>& reader : readers) {
    while (!reader.done()) {
      sched.RunUntil(sched.now() + Milliseconds(100));
    }
  }

  size_t files_compared = 0;
  auto verify = FlushAndVerify(world, world.client(), &files_compared);
  Status verify_status = world.Run(verify);
  report.integrity_ok = verify_status.ok();
  if (!verify_status.ok()) {
    report.integrity_error = verify_status.ToString();
  }
  report.files_compared = files_compared;

  report.fault_trace = injector.trace();
  report.recovery = world.client().recovery_stats();
  report.retry_errors_absorbed = world.client().stats().retry_errors_absorbed;

  for (Medium* medium : world.topology().path_media) {
    report.frames_corrupted += medium->stats().FramesCorrupted();
  }
  report.checksum_drops = world.server_udp()->stats().checksum_failures +
                          world.client_udp(0)->stats().checksum_failures +
                          world.server_tcp()->stack_stats().checksum_drops +
                          world.client_tcp(0)->stack_stats().checksum_drops;
  report.corrupted_records = world.server().rpc_stats().corrupted_records +
                             world.client().transport_stats().corrupted_records;
  report.write_errors_latched = world.client().stats().write_errors_latched;

  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    const Log2Histogram* hist =
        world.metrics().FindHistogram(std::string("client.nfs.lat_us.") + NfsProcName(proc));
    if (hist == nullptr || hist->count() == 0) {
      continue;
    }
    ChaosReport::ProcLatency lat;
    lat.proc = NfsProcName(proc);
    lat.count = hist->count();
    lat.p50_us = hist->Percentile(0.50);
    lat.p95_us = hist->Percentile(0.95);
    lat.p99_us = hist->Percentile(0.99);
    report.latencies.push_back(std::move(lat));
  }
  // Critical-path attribution: where the run's client-visible latency went,
  // summed across every proc and ranked by share of the attributed total.
  const SpanCollector& spans = world.spans();
  const SpanCollector::ProcBreakdown attributed = spans.TotalBreakdown();
  if (attributed.total > 0) {
    for (size_t c = 0; c < kNumLatencyComponents; ++c) {
      if (attributed.comp[c] == 0) {
        continue;
      }
      report.top_components.emplace_back(
          LatencyComponentName(static_cast<LatencyComponent>(c)),
          static_cast<double>(attributed.comp[c]) / static_cast<double>(attributed.total));
    }
    std::sort(report.top_components.begin(), report.top_components.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
  }

  world.flight().Stop();

  report.metrics = world.MetricsNow();
  report.snapshot_hash = report.metrics.Hash();
  report.seed = world.seed();
  return report;
}

}  // namespace renonfs
