// Sun RPC (RFC 1057) message headers: CALL with AUTH_UNIX credentials and
// accepted/denied REPLY, encoded with the mbuf-chain XDR codec.
#ifndef RENONFS_SRC_RPC_MESSAGE_H_
#define RENONFS_SRC_RPC_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/xdr/xdr.h"

namespace renonfs {

inline constexpr uint32_t kRpcVersion = 2;
// The one program every client and server of this RPC layer speaks: NFS
// version 2 (RFC 1094).
inline constexpr uint32_t kNfsProgram = 100003;
inline constexpr uint32_t kNfsVersion = 2;
inline constexpr uint32_t kAuthNull = 0;
inline constexpr uint32_t kAuthUnix = 1;
// msg_type discriminants, exposed so the TCP record-resync hunt can judge
// whether a candidate record boundary opens a believable CALL or REPLY.
inline constexpr uint32_t kRpcMsgCall = 0;
inline constexpr uint32_t kRpcMsgReply = 1;

// Upper bound on a sane TCP record: the largest legitimate message is an 8 KB
// NFS write plus headers, so a record mark claiming more than this means the
// stream framing is corrupt (or the peer is hostile) and the connection must
// be abandoned rather than buffered against.
inline constexpr size_t kMaxRpcRecordBytes = 64 * 1024;

struct RpcCredentials {
  uint32_t stamp = 0;
  std::string machine_name = "uvax";
  uint32_t uid = 0;
  uint32_t gid = 0;
  std::vector<uint32_t> gids;
};

struct RpcCallHeader {
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  RpcCredentials cred;
};

enum class RpcAcceptStat : uint32_t {
  kSuccess = 0,
  kProgUnavail = 1,
  kProgMismatch = 2,
  kProcUnavail = 3,
  kGarbageArgs = 4,
  kSystemErr = 5,
};

struct RpcReplyHeader {
  uint32_t xid = 0;
  RpcAcceptStat stat = RpcAcceptStat::kSuccess;
};

// Serializes a call header; the caller appends the procedure arguments.
void EncodeCallHeader(XdrEncoder& enc, const RpcCallHeader& header);
StatusOr<RpcCallHeader> DecodeCallHeader(XdrDecoder& dec);

void EncodeReplyHeader(XdrEncoder& enc, const RpcReplyHeader& header);
StatusOr<RpcReplyHeader> DecodeReplyHeader(XdrDecoder& dec);

// Maps a handler Status to the RPC accept_stat for error replies.
RpcAcceptStat AcceptStatForStatus(const Status& status);
Status StatusForAcceptStat(RpcAcceptStat stat);

}  // namespace renonfs

#endif  // RENONFS_SRC_RPC_MESSAGE_H_
