// In-memory Unix-like filesystem used as the NFS server's backing store
// (the role the UFS/FFS on the RD53 disks played on the paper's servers).
//
// LocalFs is a pure data structure: operations are instantaneous and
// deterministic. The *costs* of touching it — disk I/O for cache misses,
// CPU for directory scans and buffer-cache searches — are charged by the
// server cache layer (src/vfs) and the NFS server (src/nfs), which is where
// the paper's implementation differences live.
//
// Semantics follow Unix closely enough for NFS v2: hard links with nlink
// accounting, sticky mtime/ctime updates, rename-over-existing, non-empty
// rmdir refusal, symlinks, sparse writes with zero fill.
#ifndef RENONFS_SRC_FS_LOCAL_FS_H_
#define RENONFS_SRC_FS_LOCAL_FS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace renonfs {

using Ino = uint32_t;
inline constexpr Ino kInvalidIno = 0;
inline constexpr size_t kMaxNameLen = 255;   // NFS_MAXNAMLEN
inline constexpr size_t kMaxPathLen = 1024;  // NFS_MAXPATHLEN
inline constexpr uint32_t kFsBlockSize = 8192;

enum class FileType : uint32_t { kRegular = 1, kDirectory = 2, kSymlink = 5 };

struct FileAttr {
  FileType type = FileType::kRegular;
  uint32_t mode = 0644;
  uint32_t nlink = 1;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;
  uint32_t blocksize = kFsBlockSize;
  uint32_t blocks = 0;  // 512-byte sectors, like st_blocks
  uint32_t fsid = 1;
  uint32_t fileid = 0;  // == ino
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;
};

struct DirEntry {
  std::string name;
  Ino ino = kInvalidIno;
  uint64_t cookie = 0;  // opaque resume point for readdir
};

struct SetAttrRequest {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> size;  // truncate/extend
  std::optional<SimTime> atime;
  std::optional<SimTime> mtime;
};

struct FsStat {
  uint32_t tsize = kFsBlockSize;  // preferred transfer size
  uint32_t bsize = kFsBlockSize;
  uint32_t blocks = 16 * 1024;  // ~128 MB volume, RD53-ish
  uint32_t bfree = 12 * 1024;
  uint32_t bavail = 11 * 1024;
};

// Operation classes for injected storage faults (see InjectOpError).
enum class FsOp : uint32_t { kRead, kWrite, kCreate, kRemove, kSetattr };
const char* FsOpName(FsOp op);

// Storage fault-injection telemetry.
struct FsFaultStats {
  uint64_t enospc_errors = 0;    // writes refused by the free-block budget
  uint64_t injected_errors = 0;  // failures from InjectOpError schedules
};

class LocalFs {
 public:
  explicit LocalFs(Scheduler& scheduler);
  LocalFs(const LocalFs&) = delete;
  LocalFs& operator=(const LocalFs&) = delete;

  Ino root() const { return root_; }

  StatusOr<Ino> Lookup(Ino dir, const std::string& name) const;
  StatusOr<FileAttr> Getattr(Ino ino) const;
  Status Setattr(Ino ino, const SetAttrRequest& request);

  StatusOr<Ino> Create(Ino dir, const std::string& name, uint32_t mode);
  StatusOr<Ino> Mkdir(Ino dir, const std::string& name, uint32_t mode);
  StatusOr<Ino> Symlink(Ino dir, const std::string& name, const std::string& target);
  StatusOr<std::string> Readlink(Ino ino) const;

  Status Remove(Ino dir, const std::string& name);
  Status Rmdir(Ino dir, const std::string& name);
  Status Rename(Ino from_dir, const std::string& from_name, Ino to_dir,
                const std::string& to_name);
  Status Link(Ino target, Ino dir, const std::string& name);

  // Reads up to `len` bytes at `offset`; short reads at EOF.
  StatusOr<std::vector<uint8_t>> Read(Ino ino, uint64_t offset, size_t len) const;
  Status Write(Ino ino, uint64_t offset, const uint8_t* data, size_t len);

  // Entries with cookie > `cookie`, up to `max_entries`, in cookie order.
  StatusOr<std::vector<DirEntry>> Readdir(Ino dir, uint64_t cookie, size_t max_entries) const;

  FsStat Statfs() const;

  // Fault-injection backdoor: flip one byte of a regular file's stable
  // storage in place, with no mtime/ctime/size update — silent media
  // corruption (bit rot). The chaos audit exists to catch exactly this
  // shape: every consistency rule says the client's cached copy is still
  // valid, yet it no longer matches the storage. Out-of-range offsets and
  // non-regular files are errors.
  Status Rot(Ino ino, uint64_t offset);

  // --- storage fault injection (see src/fault/injector.h) -----------------
  // Free-block budget: when set, operations that would allocate data blocks
  // beyond the budget fail with ENOSPC (no partial writes). Freeing data
  // (truncate, remove) credits the budget back. nullopt = unlimited (the
  // default, and the pre-fault behavior).
  void SetFreeBlockBudget(std::optional<uint64_t> blocks) { free_blocks_ = blocks; }

  // Fails the next `count` operations of class `op` with `code` (kIo and
  // kNoSpace model a dying and a full disk respectively). Schedules stack:
  // re-arming an op replaces its previous schedule.
  void InjectOpError(FsOp op, ErrorCode code, int count);

  const FsFaultStats& fault_stats() const { return fault_stats_; }

  // Number of entries in a directory; the NFS server uses this to charge the
  // linear directory-scan cost of a lookup without a name-cache hit.
  StatusOr<size_t> EntryCount(Ino dir) const;

  bool Exists(Ino ino) const { return inodes_.contains(ino); }

 private:
  struct DirSlot {
    Ino ino = kInvalidIno;
    uint64_t cookie = 0;
  };
  struct Inode {
    FileAttr attr;
    std::vector<uint8_t> data;               // regular file contents
    std::map<std::string, DirSlot> entries;  // directory contents
    std::string symlink_target;
    Ino parent = kInvalidIno;  // directories: ".."
    uint64_t next_cookie = 1;
  };

  SimTime now() const { return scheduler_.now(); }
  Inode* Find(Ino ino);
  const Inode* Find(Ino ino) const;
  static Status ValidateName(const std::string& name);
  // Data blocks (kFsBlockSize units) a file of `size` bytes occupies.
  static uint64_t DataBlocks(uint64_t size) {
    return (size + kFsBlockSize - 1) / kFsBlockSize;
  }
  // Charges `want` data blocks against the budget (ENOSPC when exhausted);
  // negative `want` credits blocks back.
  Status ChargeBlocks(int64_t want);
  // Consumes one scheduled error for `op`, if armed. Const because read-side
  // faults must fire from const accessors; the schedule is mutable state.
  Status ConsumeOpError(FsOp op) const;
  StatusOr<Ino> AddEntry(Ino dir, const std::string& name, FileType type, uint32_t mode);
  void TouchCtime(Inode& inode) { inode.attr.ctime = now(); }
  static void UpdateBlockCount(Inode& inode);

  struct OpErrorSchedule {
    ErrorCode code = ErrorCode::kIo;
    int remaining = 0;
  };

  Scheduler& scheduler_;
  std::unordered_map<Ino, Inode> inodes_;
  Ino root_;
  Ino next_ino_ = 2;
  FsStat statfs_;
  std::optional<uint64_t> free_blocks_;  // fault injection; nullopt = unlimited
  mutable std::map<FsOp, OpErrorSchedule> op_errors_;
  mutable FsFaultStats fault_stats_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_FS_LOCAL_FS_H_
