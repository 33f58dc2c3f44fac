// Modified Andrew Benchmark [Ousterhout90], as used for Tables #2-#4.
//
// The benchmark is modelled as the file-operation trace its five phases
// generate, executed through the caching NFS client, plus CPU charges for
// the "real work" (copying, scanning, compiling) that made the MicroVAXII
// runs CPU bound. The RPC *counts* of Table #3 are then an emergent
// property of the client's caching policies acting on the operation
// stream — the name cache halves lookups, push-before-read re-reads the
// client's own writes, and so on.
//
//   Phase I   — create the target directory tree (mkdir);
//   Phase II  — copy every source file into the tree;
//   Phase III — stat every file (recursive ls -l);
//   Phase IV  — read every file twice (grep + wc);
//   Phase V   — "compile": read each source, burn compiler CPU, write the
//               object file; finally read all objects and write an a.out.
#ifndef RENONFS_SRC_WORKLOAD_ANDREW_H_
#define RENONFS_SRC_WORKLOAD_ANDREW_H_

#include <array>
#include <string>
#include <vector>

#include "src/nfs/client.h"
#include "src/util/rng.h"
#include "src/workload/world.h"

namespace renonfs {

struct AndrewOptions {
  size_t directories = 8;
  size_t source_files = 70;
  size_t mean_file_bytes = 2900;  // ~200 KB of "source" in total
  uint64_t seed = 7;
};

struct AndrewResult {
  // Wall-clock (simulated) seconds per phase.
  std::array<double, 5> phase_seconds{};
  double phases_1_to_4_seconds = 0;
  double phase_5_seconds = 0;
  // RPCs issued during the run, by procedure (the Table #3 row).
  std::array<uint64_t, kNfsProcCount> rpc_counts{};

  uint64_t Rpcs(uint32_t proc) const { return rpc_counts[proc]; }
  uint64_t TotalRpcs() const {
    uint64_t total = 0;
    for (uint64_t count : rpc_counts) {
      total += count;
    }
    return total;
  }
};

class AndrewBenchmark {
 public:
  AndrewBenchmark(World& world, AndrewOptions options) : world_(world), options_(options) {}

  // Builds the source tree directly in the server file system.
  void PreloadSource();

  // Runs all five phases on the given client; drives the scheduler.
  AndrewResult Run(size_t client_index = 0);

  // Like Run(), but returns the failing Status instead of CHECK-failing.
  // The chaos harness uses this: on a soft mount, a mid-run server crash is
  // *supposed* to surface as ETIMEDOUT from some phase.
  StatusOr<AndrewResult> TryRun(size_t client_index = 0);

 private:
  struct SourceFile {
    size_t directory;
    std::string name;
    size_t bytes;
  };

  CoTask<Status> RunAllPhases(NfsClient& client, AndrewResult* result);
  CoTask<Status> PhaseMkdir(NfsClient& client, std::vector<NfsFh>* target_dirs);
  CoTask<Status> PhaseCopy(NfsClient& client, const std::vector<NfsFh>& target_dirs);
  CoTask<Status> PhaseStat(NfsClient& client);
  CoTask<Status> PhaseRead(NfsClient& client);
  CoTask<Status> PhaseCompile(NfsClient& client, const std::vector<NfsFh>& target_dirs);

  // Reads a whole file through the client; returns the byte count.
  CoTask<StatusOr<size_t>> ReadWholeFile(NfsClient& client, NfsFh file);
  std::string SourcePath(const SourceFile& source) const;

  World& world_;
  AndrewOptions options_;
  std::vector<SourceFile> sources_;
  NfsFh source_root_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_ANDREW_H_
