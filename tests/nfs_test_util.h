// Shared helpers for tests that build a whole NFS installation (World).
#ifndef RENONFS_TESTS_NFS_TEST_UTIL_H_
#define RENONFS_TESTS_NFS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <iostream>
#include <utility>

#include "src/workload/chaos.h"
#include "src/workload/world.h"

namespace renonfs {

// One server plus `clients` mounts on a quiet same-LAN topology. The seed is
// pinned: an exported RENONFS_SEED must not re-seed tests that assert exact
// counts.
inline WorldOptions QuietWorld(size_t clients = 1, NfsMountOptions mount = NfsMountOptions::Reno(),
                               NfsServerOptions server = NfsServerOptions::Reno()) {
  WorldOptions options;
  options.topology_options = TopologyOptions::Quiet();
  options.mount = std::move(mount);
  options.server = std::move(server);
  options.clients = clients;
  options.seed_from_env = false;
  return options;
}

// When the enclosing test fails, dumps the world's metrics, server CPU
// profile, latency attribution and trace tail to stderr, so failures are
// debuggable from the CI logs alone.
class DumpOnFailure {
 public:
  explicit DumpOnFailure(World& world) : world_(world) {}
  ~DumpOnFailure() {
    if (::testing::Test::HasFailure()) {
      DumpObservability(world_, std::cerr);
    }
  }

 private:
  World& world_;
};

}  // namespace renonfs

#endif  // RENONFS_TESTS_NFS_TEST_UTIL_H_
