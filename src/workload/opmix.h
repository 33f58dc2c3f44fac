// Parameterized NFS operation-mix workload generator.
//
// Where the Andrew benchmark replays one fixed personality and the
// create-delete loop grinds one pathological pattern, the op-mix generator is
// the scenario matrix's configurable personality: a weighted mix of NFS
// operations over a file population with selectable popularity skew
// (uniform or zipfian) and arrival shaping (steady, bursty, or a diurnal
// swing), plus metadata-heavy and shared-file modes.
//
// Determinism contract: every random draw comes from the Rng the caller
// passes in (forked from the World seed), inter-op gaps come from the
// scheduler, and every client-visible outcome is appended to the op log in
// issue order — so one (seed, OpMixOptions) pair fully determines both the
// op sequence and the log, and a replay can compare logs line by line.
#ifndef RENONFS_SRC_WORKLOAD_OPMIX_H_
#define RENONFS_SRC_WORKLOAD_OPMIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/world.h"

namespace renonfs {

struct OpMixOptions {
  // Metadata-heavy mode: reweight toward lookup/getattr/readdir and
  // namespace churn (the "everything is a stat" personality that makes
  // attribute caching and lease traffic the bottleneck). The two weight
  // tables are in opmix.cc.
  bool metadata_heavy = false;

  size_t operations = 400;  // ops issued per client running the mix
  size_t files = 16;        // file population size
  size_t file_bytes = 8 * 1024;  // bytes written by a write op (also max size)

  // File popularity across the population.
  enum class Skew { kUniform, kZipfian };
  Skew skew = Skew::kUniform;
  double zipf_s = 1.1;  // zipfian exponent; rank r drawn ∝ 1/(r+1)^s

  // Arrival shaping.
  enum class Arrival { kSteady, kBurst, kDiurnal };
  Arrival arrival = Arrival::kSteady;
  SimTime mean_gap = Milliseconds(25);  // exponential mean between ops
  size_t burst_len = 16;                // kBurst: ops per burst...
  SimTime burst_gap = Seconds(2);       // ...then idle this long
  SimTime diurnal_period = Seconds(40);  // kDiurnal: gap swings 1/4x..4x over this

  // Shared-file mode: every client running the mix uses one shared
  // population ("mix_<i>"), so writes collide and leases recall; otherwise
  // each client gets a private namespace ("mix_c<client>_<i>").
  bool shared_files = false;
};

const char* OpMixSkewName(OpMixOptions::Skew skew);
const char* OpMixArrivalName(OpMixOptions::Arrival arrival);
bool OpMixSkewFromName(const std::string& name, OpMixOptions::Skew* out);
bool OpMixArrivalFromName(const std::string& name, OpMixOptions::Arrival* out);

// Runs the mix on `client`. `client_index` selects the private namespace in
// non-shared mode and labels log lines; `rng` must be forked deterministically
// from the world seed by the caller. Mid-fault op failures are expected — the
// outcome is logged (one "opmix[c<i>] <op> <file> = <result>" line per op,
// appended to *op_log) and the mix moves on; the returned status is non-ok
// only when the preload cannot create the population at all.
CoTask<Status> RunOpMix(World& world, NfsClient& client, size_t client_index,
                        OpMixOptions options, Rng rng,
                        std::vector<std::string>* op_log);

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_OPMIX_H_
