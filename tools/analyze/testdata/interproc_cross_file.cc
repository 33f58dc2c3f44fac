// Golden fixture: the Buf*-across-helper shape with the helper in another
// file. SettleDiskQueue() pumps simulated time, but its definition lives in
// interproc_await.cc; nothing in this file suspends on its own. The finding
// below is reported only when the whole-tree context carries the helper's
// may-suspend fact across files. Scanned alone, this fixture reports it
// MISSED.

#include "src/nfs/server.h"

namespace renonfs {

Status NfsServer::WriteBackAcrossFiles(uint64_t file) {
  Buf* buf = cache_.Find(file, 0);
  if (buf == nullptr) {
    return Status::Stale();
  }
  SettleDiskQueue();
  buf->MarkValid();  // analyze:expect(await-stale)
  return OkStatus();
}

}  // namespace renonfs
