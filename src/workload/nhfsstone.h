// Nhfsstone-style NFS load generator [Legato89].
//
// Like the original benchmark, this drives the *server* (and the transport)
// with a controlled mix of NFS RPCs at a target aggregate rate, bypassing
// client caching: operations are generated directly at the RPC layer by a
// RawNfsCaller, and — per the first Appendix caveat — file names are long
// enough (> 31 characters) to defeat name caching on both ends. Per the
// second caveat, the test subtree is preloaded with identical non-empty
// files before each run so read RPCs move real data rather than hitting
// empty files.
//
// Several child processes issue requests in a paced closed loop (sleep
// drawn from an exponential with the child's share of the target rate, then
// one RPC awaited), which is how the real tool approximates an offered
// load; when the server saturates, the achieved rate falls below the
// offered rate and the RTT climbs — the shape of graphs #1-#5.
#ifndef RENONFS_SRC_WORKLOAD_NHFSSTONE_H_
#define RENONFS_SRC_WORKLOAD_NHFSSTONE_H_

#include <string>
#include <vector>

#include "src/nfs/wire.h"
#include "src/rpc/client.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/world.h"

namespace renonfs {

// Thin cache-free NFS caller: one RPC per operation, straight to the wire.
class RawNfsCaller {
 public:
  explicit RawNfsCaller(RpcClientTransport* transport) : transport_(transport) {}

  CoTask<StatusOr<FileAttr>> Getattr(NfsFh file);
  CoTask<StatusOr<DirOpReply>> Lookup(NfsFh dir, std::string name);
  // Returns bytes received.
  CoTask<StatusOr<size_t>> Read(NfsFh file, uint32_t offset, uint32_t count);

  RpcClientTransport* transport() { return transport_; }

 private:
  RpcClientTransport* transport_;
};

// Operation mix: the LOOKUP and READ fractions; GETATTR takes the rest.
struct NhfsstoneMix {
  double lookup = 0;
  double read = 0;

  // The mixes the paper's experiments use.
  static NhfsstoneMix PureLookup() {
    NhfsstoneMix m;
    m.lookup = 1.0;
    return m;
  }
  static NhfsstoneMix ReadLookup() {
    NhfsstoneMix m;
    m.lookup = 0.5;
    m.read = 0.5;
    return m;
  }
  static NhfsstoneMix ReadHeavy() {
    NhfsstoneMix m;
    m.read = 0.85;  // and 0.15 GETATTR
    return m;
  }
};

struct NhfsstoneOptions {
  double target_ops_per_sec = 10.0;
  NhfsstoneMix mix = NhfsstoneMix::PureLookup();
  int children = 4;
  SimTime duration = Seconds(60);  // measured, after a fixed warmup
  uint64_t seed = 1;
};

struct NhfsstoneResult {
  double offered_ops_per_sec = 0;
  double achieved_ops_per_sec = 0;
  double read_ops_per_sec = 0;
  RunningStat rtt_ms;         // all operations
  RunningStat lookup_rtt_ms;  // per-class views
  RunningStat read_rtt_ms;
  uint64_t calls = 0;
  uint64_t retransmits = 0;
  uint64_t soft_timeouts = 0;
  double retry_fraction = 0;  // retransmits / calls
  double server_cpu_utilization = 0;
  double server_cpu_ms_per_op = 0;
  // Flat server CPU profile over the measurement window (warmup excluded):
  // the per-category attribution behind the two scalars above.
  CpuProfile server_profile;
};

class Nhfsstone {
 public:
  // The caller owns the transport; Nhfsstone owns the run.
  Nhfsstone(World& world, RawNfsCaller& caller, NhfsstoneOptions options)
      : world_(world), caller_(caller), options_(options) {}

  // Builds the test subtree directly in the server's file system (the tree
  // pre-exists the measurement, as in the real benchmark) and collects file
  // handles for the generators.
  void PreloadTree();

  // Runs warmup + measurement; drives the scheduler internally.
  NhfsstoneResult Run();

 private:
  CoTask<void> Child(int index);
  CoTask<Status> OneOperation(Rng& rng);

  World& world_;
  RawNfsCaller& caller_;
  NhfsstoneOptions options_;
  std::vector<std::pair<NfsFh, NfsFh>> files_;  // (dir, file)
  std::vector<std::string> file_names_;
  bool stop_ = false;
  bool measuring_ = false;
  NhfsstoneResult result_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_NHFSSTONE_H_
