// The paper's experiments as one driver: every graph, table and ablation
// the paper reports is a named cell, listed once in kCells.
//
//   ./build/bench/bench_paper                 # every cell, in table order
//   ./build/bench/bench_paper graph3 table1   # the named cells, in that order
//
// Each cell prints its table or trace with the paper's numbers alongside and
// writes nothing else. An unknown cell name prints the cell list on stderr
// and exits 2 before any cell runs. scripts/check.sh compares the full run
// with BENCH_paper.txt byte for byte.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/table.h"
#include "src/workload/andrew.h"
#include "src/workload/create_delete.h"
#include "src/workload/experiment.h"

using namespace renonfs;

namespace {

// Shared sweep driver for the Section 4 transport graphs (#1-#5): for each
// offered load, run the Nhfsstone mix over each transport and print the
// average RTT series, twice per configuration (the paper plots two runs of
// every (transport, internetwork) tuple).
struct GraphSweepConfig {
  std::string title;
  TopologyKind topology;
  NhfsstoneMix mix;
  std::vector<double> loads;
  SimTime duration = Seconds(120);
  int runs = 2;
  std::vector<NfsTransportKind> transports = {NfsTransportKind::kUdpFixedRto,
                                              NfsTransportKind::kUdpDynamicRto,
                                              NfsTransportKind::kTcp};
};

void RunGraphSweep(const GraphSweepConfig& config) {
  TextTable table(config.title);
  std::vector<std::string> header = {"offered rpc/s"};
  for (NfsTransportKind transport : config.transports) {
    for (int run = 1; run <= config.runs; ++run) {
      header.push_back(std::string(TransportKindName(transport)) + " #" + std::to_string(run) +
                       " (ms)");
    }
  }
  header.push_back("achieved rpc/s (best)");
  table.SetHeader(header);

  for (double load : config.loads) {
    std::vector<std::string> row = {TextTable::Num(load, 0)};
    double best_achieved = 0;
    for (NfsTransportKind transport : config.transports) {
      for (int run = 1; run <= config.runs; ++run) {
        ExperimentPoint point;
        point.topology = config.topology;
        point.transport = transport;
        point.mix = config.mix;
        point.load_ops_per_sec = load;
        point.duration = config.duration;
        point.seed = static_cast<uint64_t>(load * 10) + static_cast<uint64_t>(run) * 7919;
        const NhfsstoneResult r = RunNhfsstonePoint(point).nhfsstone;
        row.push_back(TextTable::Num(r.rtt_ms.mean(), 1));
        best_achieved = std::max(best_achieved, r.achieved_ops_per_sec);
      }
    }
    row.push_back(TextTable::Num(best_achieved, 1));
    table.AddRow(row);
    std::fflush(stdout);
  }
  std::printf("%s\n", table.Render().c_str());
}

AndrewResult RunAndrew(const WorldOptions& world_options) {
  World world(world_options);
  AndrewBenchmark bench(world, AndrewOptions{});
  bench.PreloadSource();
  return bench.Run();
}

// Graph #1: average RTT vs offered load, 100% lookup mix, client and server
// on the same uncongested Ethernet. Expected shape: all three transports
// flat until the server CPU saturates; TCP sits a constant ~few ms above
// both UDP variants (the extra per-segment processing on a 0.9 MIPS host);
// the two UDP RTO policies are indistinguishable because nothing is lost.
void Graph1() {
  GraphSweepConfig config;
  config.title = "Graph #1 — Nhfsstone 100% lookup mix, same LAN (avg RTT, ms)";
  config.topology = TopologyKind::kSameLan;
  config.mix = NhfsstoneMix::PureLookup();
  config.loads = {5, 10, 15, 20, 30, 40, 55, 70};
  RunGraphSweep(config);
}

// Graph #2: average RTT vs offered load, 50/50 read/lookup mix, same LAN.
// Expected: TCP ~10 ms above UDP (mostly its higher CPU cost per 8 KB read:
// ~7 ms/RPC on a MicroVAXII), saturation at a lower rate than Graph #1
// because reads are far more expensive than lookups.
void Graph2() {
  GraphSweepConfig config;
  config.title = "Graph #2 — Nhfsstone 50/50 read/lookup mix, same LAN (avg RTT, ms)";
  config.topology = TopologyKind::kSameLan;
  config.mix = NhfsstoneMix::ReadLookup();
  config.loads = {4, 8, 12, 16, 20, 24, 28};
  RunGraphSweep(config);
}

// Graph #3: 100% lookup mix across two Ethernets joined by the 80 Mbit
// token ring and two IP routers. Expected: TCP curves nearly identical run
// to run (stable); dynamic-RTO UDP equal or better on average (lower CPU
// overhead) but more variable; fixed 1 s RTO erratic — each loss stalls a
// request for the full constant timeout.
void Graph3() {
  GraphSweepConfig config;
  config.title = "Graph #3 — Nhfsstone 100% lookup mix, token ring + 2 routers (avg RTT, ms)";
  config.topology = TopologyKind::kTokenRingPath;
  config.mix = NhfsstoneMix::PureLookup();
  config.loads = {5, 10, 15, 20, 30, 40, 55};
  RunGraphSweep(config);
}

// Graph #4: 50/50 read/lookup mix across the token-ring path. The 8 KB read
// replies fragment (6 Ethernet frames / 5 ring frames per datagram), so any
// single lost fragment costs the whole reply. Expected: UDP with dynamic
// RTO + congestion window delivers ~30% better read throughput than either
// fixed-RTO UDP (long stalls) or TCP (higher CPU per RPC); see Table #1.
void Graph4() {
  GraphSweepConfig config;
  config.title = "Graph #4 — Nhfsstone 50/50 read/lookup mix, token ring + 2 routers (avg RTT, ms)";
  config.topology = TopologyKind::kTokenRingPath;
  config.mix = NhfsstoneMix::ReadLookup();
  config.loads = {4, 8, 12, 16, 20, 24};
  RunGraphSweep(config);
}

// Graph #5: 100% lookup mix across the 56 Kbps path (three IP routers).
// The paper could only run the lookup mix here — an 8 KB read takes longer
// than a second of line time. Expected: TCP consistently well-behaved;
// dynamic-RTO UDP usually equal to TCP but occasionally unstable; fixed
// 1 s RTO clearly worse (every loss or queue spike costs >= 1 s, and
// retransmissions make the congestion worse).
void Graph5() {
  GraphSweepConfig config;
  config.title = "Graph #5 — Nhfsstone 100% lookup mix, 56Kbps + 3 routers (avg RTT, ms)";
  config.topology = TopologyKind::kSlowLinkPath;
  config.mix = NhfsstoneMix::PureLookup();
  config.loads = {1, 2, 3, 4, 5, 6, 8};
  config.duration = Seconds(180);
  RunGraphSweep(config);
}

// Graph #6: server CPU overhead per RPC, UDP vs TCP, for an Nhfsstone read
// mix on the same LAN. The paper's headline: TCP costs ~7 ms more CPU per
// 8 KB read RPC on a MicroVAXII, about 20% over UDP overall, and ~1 ms more
// per lookup RPC.
//
// CPU accounting comes from CpuProfile snapshots over the measurement
// window (src/obs/profiler.h), which also attributes the TCP premium: the
// extra ms/op shows up almost entirely in the tcp + checksum + copy rows.
NhfsstoneResult Graph6Measure(NfsTransportKind transport, NhfsstoneMix mix, double load) {
  ExperimentPoint point;
  point.topology = TopologyKind::kSameLan;
  point.transport = transport;
  point.mix = mix;
  point.load_ops_per_sec = load;
  point.duration = Seconds(180);
  point.seed = 42;
  return RunNhfsstonePoint(point).nhfsstone;
}

void Graph6() {
  TextTable table("Graph #6 — server CPU per RPC (ms), UDP vs TCP, same LAN");
  table.SetHeader({"mix", "load rpc/s", "UDP (ms/op)", "TCP (ms/op)", "TCP/UDP", "TCP-UDP (ms)",
                   "UDP proto %", "TCP proto %"});

  struct Row {
    const char* name;
    NhfsstoneMix mix;
    double load;
  };
  const Row rows[] = {
      {"read-heavy", NhfsstoneMix::ReadHeavy(), 6},
      {"read-heavy", NhfsstoneMix::ReadHeavy(), 12},
      {"50/50 read/lookup", NhfsstoneMix::ReadLookup(), 10},
      {"100% lookup", NhfsstoneMix::PureLookup(), 20},
  };
  // "proto %": share of busy server CPU below RPC — interface, IP, transport,
  // checksums and copies — i.e. what the transport choice can change.
  const std::initializer_list<CostCategory> kProtocol = {
      CostCategory::kCopy,    CostCategory::kChecksum, CostCategory::kIfInput,
      CostCategory::kIfOutput, CostCategory::kIp,      CostCategory::kUdp,
      CostCategory::kTcp};
  NhfsstoneResult last_udp, last_tcp;
  for (const Row& row : rows) {
    const NhfsstoneResult udp = Graph6Measure(NfsTransportKind::kUdpFixedRto, row.mix, row.load);
    const NhfsstoneResult tcp = Graph6Measure(NfsTransportKind::kTcp, row.mix, row.load);
    const double udp_ms = udp.server_cpu_ms_per_op;
    const double tcp_ms = tcp.server_cpu_ms_per_op;
    table.AddRow({row.name, TextTable::Num(row.load, 0), TextTable::Num(udp_ms, 2),
                  TextTable::Num(tcp_ms, 2), TextTable::Num(tcp_ms / udp_ms, 2),
                  TextTable::Num(tcp_ms - udp_ms, 2),
                  TextTable::Num(100.0 * udp.server_profile.BusyShare(kProtocol), 1),
                  TextTable::Num(100.0 * tcp.server_profile.BusyShare(kProtocol), 1)});
    last_udp = udp;
    last_tcp = tcp;
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("%s\n", last_udp.server_profile.FlatTable("100% lookup, UDP").c_str());
  std::printf("%s\n", last_tcp.server_profile.FlatTable("100% lookup, TCP").c_str());
  std::printf("Paper: ~7 ms/RPC extra CPU for the read mix, ~1 ms for lookups;\n"
              "overall TCP CPU overhead about 20%% above UDP.\n");
}

// Graph #7: a sample trace of read-RPC round-trip time and the dynamic
// retransmit timeout (RTO = A + 4D) over the token-ring path. The RTO
// should ride above the RTT samples, widening after variance spikes and
// converging when the path is quiet — with occasional RTT peaks pushing
// toward a second, which is why the paper kept the 1 s floor for the
// constant-RTO transport.
void Graph7() {
  struct Sample {
    double rtt_ms;
    double rto_ms;
  };
  std::vector<Sample> trace;

  ExperimentPoint point;
  point.topology = TopologyKind::kTokenRingPath;
  point.transport = NfsTransportKind::kUdpDynamicRto;
  point.mix = NhfsstoneMix::ReadLookup();
  point.load_ops_per_sec = 10;
  point.duration = Seconds(120);
  point.seed = 1991;

  point.rtt_probe = [&trace](RpcTimerClass cls, SimTime rtt, SimTime rto) {
    if (cls == RpcTimerClass::kRead) {
      trace.push_back(Sample{ToMilliseconds(rtt), ToMilliseconds(rto)});
    }
  };
  const NhfsstoneResult r = RunNhfsstonePoint(point).nhfsstone;

  std::printf("Graph #7 — read RPC RTT and RTO=A+4D trace, token-ring path\n");
  std::printf("%-8s %-12s %-12s %s\n", "sample", "RTT (ms)", "RTO (ms)", "RTT bar");
  const size_t step = trace.size() > 120 ? trace.size() / 120 : 1;
  for (size_t i = 0; i < trace.size(); i += step) {
    const int bar = static_cast<int>(trace[i].rtt_ms / 4);
    std::printf("%-8zu %-12.1f %-12.1f %.*s\n", i, trace[i].rtt_ms, trace[i].rto_ms,
                bar > 60 ? 60 : bar, "############################################################");
  }
  std::printf("\nsamples=%zu  mean RTT=%.1f ms  mean RTO headroom=%.1f ms\n", trace.size(),
              r.read_rtt_ms.mean(),
              [&trace] {
                double acc = 0;
                for (const auto& sample : trace) {
                  acc += sample.rto_ms - sample.rtt_ms;
                }
                return trace.empty() ? 0.0 : acc / static_cast<double>(trace.size());
              }());
  std::printf("Paper: RTO tracks above RTT; read RTT peaks approach 1 s, so the 1 s\n"
              "constant for the fixed-RTO transport could not safely be lowered.\n");
}

// Graphs #8-#9: server lookup performance, 4.3BSD Reno server vs the
// Ultrix-2.2-class reference port, with the Reno server's name cache on and
// off. The paper's finding: the Reno server is much faster, but disabling
// its name cache closes only a small fraction of the gap — the rest comes
// from vnode-chained buffer lists (cheap buffer-cache searches) versus the
// reference port's global linear scan, plus the layered XDR copies.
void Graph8And9() {
  struct ServerConfig {
    const char* name;
    NfsServerOptions options;
    bool name_cache;
  };
  const ServerConfig configs[] = {
      {"Reno", NfsServerOptions::Reno(), true},
      {"Reno, no name cache", NfsServerOptions::Reno(), false},
      {"Ultrix-like (reference port)", NfsServerOptions::ReferencePort(), false},
  };
  const double loads[] = {10, 20, 30, 40, 55, 70};

  TextTable rtt_table("Graphs #8-9 — Nhfsstone 100% lookup mix, same LAN: avg RTT (ms)");
  TextTable cpu_table("Graphs #8-9 — server CPU per lookup RPC (ms)");
  std::vector<std::string> header = {"offered rpc/s"};
  for (const ServerConfig& config : configs) {
    header.push_back(config.name);
  }
  rtt_table.SetHeader(header);
  cpu_table.SetHeader(header);

  for (double load : loads) {
    std::vector<std::string> rtt_row = {TextTable::Num(load, 0)};
    std::vector<std::string> cpu_row = {TextTable::Num(load, 0)};
    for (const ServerConfig& config : configs) {
      ExperimentPoint point;
      point.topology = TopologyKind::kSameLan;
      point.transport = NfsTransportKind::kUdpFixedRto;
      point.mix = NhfsstoneMix::PureLookup();
      point.load_ops_per_sec = load;
      point.duration = Seconds(120);
      point.seed = static_cast<uint64_t>(load) * 31 + 5;
      point.server = config.options;
      point.server_name_cache = config.name_cache;
      const NhfsstoneResult r = RunNhfsstonePoint(point).nhfsstone;
      rtt_row.push_back(TextTable::Num(r.rtt_ms.mean(), 1));
      cpu_row.push_back(TextTable::Num(r.server_cpu_ms_per_op, 2));
    }
    rtt_table.AddRow(rtt_row);
    cpu_table.AddRow(cpu_row);
    std::fflush(stdout);
  }
  std::printf("%s\n%s\n", rtt_table.Render().c_str(), cpu_table.Render().c_str());
  std::printf("Paper: Reno >> Ultrix on lookups; disabling the Reno name cache closes\n"
              "only a small fraction of the gap (vnode-chained buffer lists explain\n"
              "the rest). Note Nhfsstone's long names already defeat name caching\n"
              "(Appendix caveat 1), which is why the middle column barely moves.\n");
}

// Table #1: read rates (reads completed per second) by transport and
// internetwork configuration, under a 50/50 read/lookup offered load near
// each path's capacity. Expected shape:
//   * same LAN — all three transports nearly equal;
//   * token ring + 2 routers — UDP with dynamic RTO + congestion window
//     ~30% better than fixed-RTO UDP and TCP (which roughly tie: TCP's
//     congestion-control gains are cancelled by its CPU overhead);
//   * 56 Kbps path — TCP and dynamic UDP more than 3x fixed-RTO UDP.
void Table1() {
  struct TopoRow {
    TopologyKind kind;
    double load;
    SimTime duration;
  };
  // Loads sit near each path's capacity: read-rate differences between the
  // transports only appear once losses and stalls cost real throughput.
  const TopoRow rows[] = {
      {TopologyKind::kSameLan, 24, Seconds(120)},
      {TopologyKind::kTokenRingPath, 44, Seconds(600)},
      {TopologyKind::kSlowLinkPath, 4.0, Seconds(900)},
  };
  const NfsTransportKind transports[] = {NfsTransportKind::kUdpFixedRto,
                                         NfsTransportKind::kUdpDynamicRto,
                                         NfsTransportKind::kTcp};

  TextTable table("Table #1 — read rate (read RPCs completed/sec), 50/50 read/lookup mix");
  table.SetHeader({"internetwork", "offered rpc/s", "UDP rto=1s", "UDP rto=A+4D", "TCP",
                   "A+4D vs fixed"});
  for (const TopoRow& row : rows) {
    std::vector<double> rates;
    for (NfsTransportKind transport : transports) {
      ExperimentPoint point;
      point.topology = row.kind;
      point.transport = transport;
      point.mix = NhfsstoneMix::ReadLookup();
      point.load_ops_per_sec = row.load;
      point.children = row.kind == TopologyKind::kSlowLinkPath
                           ? 8
                           : (row.kind == TopologyKind::kTokenRingPath ? 16 : 0);
      point.duration = row.duration;
      point.seed = 77;
      rates.push_back(RunNhfsstonePoint(point).nhfsstone.read_ops_per_sec);
      std::fflush(stdout);
    }
    table.AddRow({TopologyKindName(row.kind), TextTable::Num(row.load, 1),
                  TextTable::Num(rates[0], 2), TextTable::Num(rates[1], 2),
                  TextTable::Num(rates[2], 2),
                  rates[0] > 0 ? TextTable::Num(rates[1] / rates[0], 2) + "x" : "-"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Paper: ring path — dynamic UDP ~1.3x fixed UDP and TCP;\n"
              "56 Kbps path — TCP and dynamic UDP > 3x fixed UDP.\n");
}

// Table #2: Modified Andrew Benchmark wall time on a MicroVAXII client,
// phases I-IV and phase V, for the four client configurations the paper
// compares. Expected shape: Reno and Reno-TCP within a couple of percent;
// Reno-nopush slightly faster in I-IV (no close-time flush stalls);
// Ultrix slower in I-IV (no name cache: every path walk pays RPC round
// trips) but marginally faster in V (no push-before-read re-reads).
void Table2() {
  struct Config {
    const char* name;
    NfsMountOptions mount;
  };
  const Config configs[] = {
      {"Reno", NfsMountOptions::Reno()},
      {"Reno-TCP", NfsMountOptions::RenoTcp()},
      {"Reno-nopush", NfsMountOptions::RenoNoPush()},
      {"Ultrix2.2", NfsMountOptions::UltrixLike()},
  };

  TextTable table("Table #2 — Modified Andrew Benchmark, MicroVAXII client (seconds)");
  table.SetHeader({"OS/Phase", "I-IV", "V", "I", "II", "III", "IV"});
  for (const Config& config : configs) {
    WorldOptions world_options;
    world_options.mount = config.mount;
    const AndrewResult result = RunAndrew(world_options);
    table.AddRow({config.name, TextTable::Num(result.phases_1_to_4_seconds, 0),
                  TextTable::Num(result.phase_5_seconds, 0),
                  TextTable::Num(result.phase_seconds[0], 1),
                  TextTable::Num(result.phase_seconds[1], 1),
                  TextTable::Num(result.phase_seconds[2], 1),
                  TextTable::Num(result.phase_seconds[3], 1)});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Paper: Reno 145/1253, Reno-TCP 143/1265, Reno-nopush 132/1208,\n"
              "Ultrix2.2 184/1183 (seconds, I-IV / V).\n");
}

// Table #3: Modified Andrew Benchmark RPC counts by procedure, for Reno,
// Reno with the no-cache-consistency mount, and the Ultrix-like client.
// The paper's key relationships:
//   * lookups — Ultrix ~2x Reno (the VFS name cache halves them);
//   * reads   — Reno ~1.5x Ultrix (push-dirty-before-read re-reads the
//               client's own writes);
//   * writes  — no-consistency ~0.7x Reno (no push-on-close, so delayed
//               writes coalesce), Ultrix ~1.4x Reno (async policy pushes
//               blocks repeatedly);
//   * getattr/readdir/others — roughly equal everywhere.
void Table3() {
  WorldOptions world_options;  // a Reno mount
  const AndrewResult reno = RunAndrew(world_options);
  world_options.mount = NfsMountOptions::RenoNoConsist();
  const AndrewResult noconsist = RunAndrew(world_options);
  world_options.mount = NfsMountOptions::UltrixLike();
  const AndrewResult ultrix = RunAndrew(world_options);

  auto other = [](const AndrewResult& r) {
    return r.TotalRpcs() - r.Rpcs(kNfsGetattr) - r.Rpcs(kNfsSetattr) - r.Rpcs(kNfsRead) -
           r.Rpcs(kNfsWrite) - r.Rpcs(kNfsLookup) - r.Rpcs(kNfsReaddir);
  };

  TextTable table("Table #3 — Modified Andrew Benchmark RPC counts");
  table.SetHeader({"RPC", "Reno", "Reno-noconsist", "Ultrix2.2", "paper Reno", "paper nocons.",
                   "paper Ultrix"});
  struct Row {
    const char* name;
    uint32_t proc;
    const char* paper[3];
  };
  const Row rows[] = {
      {"Getattr", kNfsGetattr, {"822", "780", "877"}},
      {"Setattr", kNfsSetattr, {"22", "22", "22"}},
      {"Read", kNfsRead, {"1050", "619", "691"}},
      {"Write", kNfsWrite, {"501", "340", "703"}},
      {"Lookup", kNfsLookup, {"872", "918", "1782"}},
      {"Readdir", kNfsReaddir, {"146", "144", "150"}},
  };
  for (const Row& row : rows) {
    table.AddRow({row.name, TextTable::Int(static_cast<long long>(reno.Rpcs(row.proc))),
                  TextTable::Int(static_cast<long long>(noconsist.Rpcs(row.proc))),
                  TextTable::Int(static_cast<long long>(ultrix.Rpcs(row.proc))), row.paper[0],
                  row.paper[1], row.paper[2]});
  }
  table.AddRow({"Other", TextTable::Int(static_cast<long long>(other(reno))),
                TextTable::Int(static_cast<long long>(other(noconsist))),
                TextTable::Int(static_cast<long long>(other(ultrix))), "127", "128", "127"});
  table.AddRow({"Total", TextTable::Int(static_cast<long long>(reno.TotalRpcs())),
                TextTable::Int(static_cast<long long>(noconsist.TotalRpcs())),
                TextTable::Int(static_cast<long long>(ultrix.TotalRpcs())), "3540", "2951",
                "4352"});
  std::printf("%s\n", table.Render().c_str());

  std::printf("Key ratios (measured vs paper):\n");
  std::printf("  Ultrix/Reno lookups: %.2f (paper 2.04)\n",
              static_cast<double>(ultrix.Rpcs(kNfsLookup)) /
                  static_cast<double>(reno.Rpcs(kNfsLookup)));
  std::printf("  Reno/Ultrix reads:   %.2f (paper 1.52)\n",
              static_cast<double>(reno.Rpcs(kNfsRead)) /
                  static_cast<double>(ultrix.Rpcs(kNfsRead)));
  std::printf("  noconsist/Reno writes: %.2f (paper 0.68)\n",
              static_cast<double>(noconsist.Rpcs(kNfsWrite)) /
                  static_cast<double>(reno.Rpcs(kNfsWrite)));
  std::printf("  Ultrix/Reno writes:  %.2f (paper 1.40)\n",
              static_cast<double>(ultrix.Rpcs(kNfsWrite)) /
                  static_cast<double>(reno.Rpcs(kNfsWrite)));
}

// Table #4: Modified Andrew Benchmark on a DECstation 3100 client against
// the Reno and Ultrix-class servers. With a ~13x faster client CPU, "real
// work" stops being CPU bound and the server difference shows through:
// the paper measured 20-30% (88/180 s vs 123/226 s).
void Table4() {
  TextTable table("Table #4 — Modified Andrew Benchmark, DECstation 3100 client (seconds)");
  table.SetHeader({"OS/Phase", "I-IV", "V", "paper I-IV", "paper V"});

  WorldOptions ds3100;  // a Reno mount against the Reno server
  ds3100.topology_options.host_profile = CostProfile::DecStation3100();
  ds3100.topology_options.server_profile = CostProfile::MicroVax2();
  const AndrewResult reno = RunAndrew(ds3100);
  table.AddRow({"Reno", TextTable::Num(reno.phases_1_to_4_seconds, 0),
                TextTable::Num(reno.phase_5_seconds, 0), "88", "180"});
  std::fflush(stdout);
  ds3100.server = NfsServerOptions::ReferencePort();
  const AndrewResult ultrix = RunAndrew(ds3100);
  table.AddRow({"Ultrix2.2", TextTable::Num(ultrix.phases_1_to_4_seconds, 0),
                TextTable::Num(ultrix.phase_5_seconds, 0), "123", "226"});

  std::printf("%s\n", table.Render().c_str());
  std::printf("Server difference: I-IV %.0f%%, V %.0f%% (paper: 20-30%%)\n",
              100.0 * (ultrix.phases_1_to_4_seconds / reno.phases_1_to_4_seconds - 1.0),
              100.0 * (ultrix.phase_5_seconds / reno.phase_5_seconds - 1.0));
}

// Table #5: the Create-Delete benchmark (ms per create/write/close/delete
// cycle) for local files and five NFS configurations. Expected shape:
//   * empty files — all NFS configurations equal (~2x local);
//   * 100 KB — asynchronous writes ~20% faster than write-through or
//     delayed (the biods overlap pushes with the writing loop);
//   * no-consistency — dramatic win at all sizes with data (the delete
//     discards the delayed writes before they are ever pushed).
void Table5() {
  const size_t sizes[] = {0, 10 * 1024, 100 * 1024};

  NfsMountOptions write_through = NfsMountOptions::Reno();
  write_through.biods = 0;
  NfsMountOptions async4 = NfsMountOptions::Reno();
  async4.write_policy = WritePolicy::kAsync;
  async4.biods = 4;
  NfsMountOptions async16 = NfsMountOptions::Reno();
  async16.write_policy = WritePolicy::kAsync;
  async16.biods = 16;
  NfsMountOptions delayed = NfsMountOptions::Reno();  // delayed is the default

  struct Config {
    const char* name;
    NfsMountOptions mount;
    bool local;            // the baseline: runs on the server's own file system
    const char* paper[3];  // paper values for 0 / 10K / 100K
  };
  const Config rows[] = {
      {"Local", NfsMountOptions::Reno(), true, {"120", "216", "1170"}},
      {"write thru", write_through, false, {"210", "475", "2401"}},
      {"async,4biod", async4, false, {"216", "470", "1940"}},
      {"async,16biod", async16, false, {"210", "464", "2094"}},
      {"delay wrt.", delayed, false, {"216", "468", "2230"}},
      {"no consist", NfsMountOptions::RenoNoConsist(), false, {"218", "244", "329"}},
  };

  TextTable table("Table #5 — Create-Delete benchmark, MicroVAXII (ms per iteration)");
  table.SetHeader({"Config", "No data", "10Kbytes", "100Kbytes", "paper (0/10K/100K)"});
  for (const Config& row : rows) {
    std::vector<double> ms;
    for (size_t bytes : sizes) {
      WorldOptions world_options;
      world_options.mount = row.mount;
      World world(world_options);
      CreateDeleteOptions options;
      options.iterations = 25;
      options.file_bytes = bytes;
      ms.push_back((row.local ? RunCreateDeleteLocal(world, options)
                              : RunCreateDeleteNfs(world, options))
                       .ms_per_iteration);
    }
    table.AddRow({row.name, TextTable::Num(ms[0], 0), TextTable::Num(ms[1], 0),
                  TextTable::Num(ms[2], 0),
                  std::string(row.paper[0]) + "/" + row.paper[1] + "/" + row.paper[2]});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.Render().c_str());
}

// Section 3: server CPU reduction from the two network-interface changes —
// mapping mbuf clusters into the interface by page-table-entry swaps
// instead of copying, and removing the transmit interrupt service routine.
// The paper measured ~12% total server CPU saved under heavy NFS load,
// almost all of it memory-to-memory copying.
NhfsstoneResult Section3Point(NicConfig nic, NhfsstoneMix mix, double load) {
  WorldOptions world_options;
  world_options.topology_options.server_nic = nic;
  World world(world_options);
  ExperimentPoint point;  // only used for transport construction defaults
  auto transport = MakeRawTransport(world, NfsTransportKind::kUdpFixedRto, point);
  RawNfsCaller caller(transport.get());
  NhfsstoneOptions options;
  options.target_ops_per_sec = load;
  options.mix = mix;
  options.duration = Seconds(180);
  Nhfsstone bench(world, caller, options);
  bench.PreloadTree();
  return bench.Run();
}

void Section3() {
  TextTable table("Section 3 — server CPU per RPC (ms) vs network-interface tuning");
  table.SetHeader({"mix", "stock NIC", "mapped tx", "no tx intr", "both (tuned)", "saving"});

  struct Row {
    const char* name;
    NhfsstoneMix mix;
    double load;
  };
  const Row rows[] = {
      {"read-heavy", NhfsstoneMix::ReadHeavy(), 10},
      {"50/50 read/lookup", NhfsstoneMix::ReadLookup(), 14},
      {"100% lookup", NhfsstoneMix::PureLookup(), 30},
  };

  CpuProfile stock_profile, tuned_profile;
  for (const Row& row : rows) {
    const NhfsstoneResult stock_run = Section3Point(NicConfig{false, true}, row.mix, row.load);
    const double stock = stock_run.server_cpu_ms_per_op;
    const double mapped =
        Section3Point(NicConfig{true, true}, row.mix, row.load).server_cpu_ms_per_op;
    const double no_intr =
        Section3Point(NicConfig{false, false}, row.mix, row.load).server_cpu_ms_per_op;
    const NhfsstoneResult tuned_run = Section3Point(NicConfig{true, false}, row.mix, row.load);
    const double tuned = tuned_run.server_cpu_ms_per_op;
    if (&row == &rows[0]) {  // keep the read-heavy profiles for the flat tables
      stock_profile = stock_run.server_profile;
      tuned_profile = tuned_run.server_profile;
    }
    char saving[32];
    std::snprintf(saving, sizeof(saving), "%.1f%%", 100.0 * (1.0 - tuned / stock));
    table.AddRow({row.name, TextTable::Num(stock, 2), TextTable::Num(mapped, 2),
                  TextTable::Num(no_intr, 2), TextTable::Num(tuned, 2), saving});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.Render().c_str());
  // The paper-style flat profiles behind the headline number: with the stock
  // interface the copy+checksum+if_* rows are the ones the tuning attacks.
  std::printf("%s\n", stock_profile.FlatTable("read-heavy, stock NIC").c_str());
  std::printf("%s\n", tuned_profile.FlatTable("read-heavy, tuned NIC").c_str());
  std::printf("Paper: mapped transmit + disabled transmit interrupts cut total server\n"
              "CPU by ~12%% under read-heavy NFS load, mostly copy avoidance.\n");
}

// Section 4 transport tuning ablations:
//   1. "A+2D" vs "A+4D" for the big RPC classes — the initial dynamic-RTO
//      code retried reads 2-4x as often as fixed-RTO UDP because the RTO
//      undershot the high variance of big RPCs; A+4D fixed it.
//   2. Slow start on the RPC congestion window — the paper found it hurt
//      and removed it (+1 per RTT only, halve on timeout).
NhfsstoneResult Section4Variant(int big_multiplier, bool slow_start, NfsTransportKind transport,
                                uint64_t seed) {
  // The 56 Kbps path: this is where big-RPC round-trip variance dwarfs the
  // mean and the choice of deviation multiplier matters.
  ExperimentPoint point;
  point.topology = TopologyKind::kSlowLinkPath;
  point.transport = transport;
  point.mix = NhfsstoneMix::ReadLookup();
  point.load_ops_per_sec = 1.5;
  point.children = 4;
  point.duration = Seconds(600);
  point.seed = seed;
  point.big_rto_multiplier = big_multiplier;
  point.cwnd_slow_start = slow_start;
  return RunNhfsstonePoint(point).nhfsstone;
}

void Section4() {
  TextTable table("Section 4 — RTO estimator and congestion-window ablation (56Kbps path, read mix)");
  table.SetHeader({"transport variant", "retry fraction", "avg RTT (ms)", "read rate/s",
                   "achieved rpc/s"});

  struct Variant {
    const char* name;
    NfsTransportKind transport;
    int multiplier;
    bool slow_start;
  };
  const Variant variants[] = {
      {"UDP fixed rto=1s (baseline)", NfsTransportKind::kUdpFixedRto, 4, false},
      {"UDP dynamic, big rto=A+2D", NfsTransportKind::kUdpDynamicRto, 2, false},
      {"UDP dynamic, big rto=A+4D", NfsTransportKind::kUdpDynamicRto, 4, false},
      {"UDP dynamic, A+4D + slow start", NfsTransportKind::kUdpDynamicRto, 4, true},
  };
  for (const Variant& variant : variants) {
    // Average two runs, as the paper did.
    NhfsstoneResult a =
        Section4Variant(variant.multiplier, variant.slow_start, variant.transport, 11);
    NhfsstoneResult b =
        Section4Variant(variant.multiplier, variant.slow_start, variant.transport, 23);
    table.AddRow({variant.name,
                  TextTable::Num(100.0 * (a.retry_fraction + b.retry_fraction) / 2, 2) + "%",
                  TextTable::Num((a.rtt_ms.mean() + b.rtt_ms.mean()) / 2, 1),
                  TextTable::Num((a.read_ops_per_sec + b.read_ops_per_sec) / 2, 2),
                  TextTable::Num((a.achieved_ops_per_sec + b.achieved_ops_per_sec) / 2, 1)});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Paper: A+2D retried reads 2-4x as often as fixed-RTO UDP; A+4D brought\n"
              "the retry rate back in line. Slow start degraded performance and was\n"
              "removed from the congestion window.\n");
}

struct Cell {
  const char* name;
  void (*run)();
};

// Graphs, then tables, then the Section 3 and 4 ablations: the order of a
// run with no argument, and of BENCH_paper.txt.
constexpr Cell kCells[] = {
    {"graph1", Graph1},
    {"graph2", Graph2},
    {"graph3", Graph3},
    {"graph4", Graph4},
    {"graph5", Graph5},
    {"graph6", Graph6},
    {"graph7", Graph7},
    {"graph8_9", Graph8And9},
    {"table1", Table1},
    {"table2", Table2},
    {"table3", Table3},
    {"table4", Table4},
    {"table5", Table5},
    {"section3", Section3},
    {"section4", Section4},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Cell*> selected;
  for (int i = 1; i < argc; ++i) {
    const Cell* match = nullptr;
    for (const Cell& cell : kCells) {
      if (std::strcmp(argv[i], cell.name) == 0) {
        match = &cell;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "bench_paper: no cell named '%s'\nusage: %s [cell...]\ncells:",
                   argv[i], argv[0]);
      for (const Cell& cell : kCells) {
        std::fprintf(stderr, " %s", cell.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(match);
  }
  if (selected.empty()) {
    for (const Cell& cell : kCells) {
      selected.push_back(&cell);
    }
  }
  for (const Cell* cell : selected) {
    cell->run();
  }
  return 0;
}
