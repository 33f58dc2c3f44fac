// XDR (RFC 1014) encoding directly in mbuf chains.
//
// XdrEncoder is the analogue of 4.3BSD Reno's nfsm_build macro family: it
// writes big-endian 4-byte-aligned XDR items straight into the trailing
// space of an mbuf chain, allocating as needed, with no intermediate
// marshalling buffer. PutVarOpaqueChain attaches bulk data (e.g. the 8 KB
// payload of a read reply) by *sharing* its clusters — the zero-copy path
// the paper's implementation gets from handling RPCs in mbuf data areas.
//
// XdrDecoder is the analogue of nfsm_disect: a cursor over a chain that
// extracts items across mbuf boundaries and fails cleanly (Status) on
// truncated or malformed input, mapping to the RPC GARBAGE_ARGS reply.
//
// BufferedXdrEncoder/Decoder model the Sun reference port's layered
// user-mode-library approach: marshal through a contiguous buffer, then copy
// into the network buffers. Functionally identical; the extra copy is what
// the personalities charge for.
#ifndef RENONFS_SRC_XDR_XDR_H_
#define RENONFS_SRC_XDR_XDR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace renonfs {

inline constexpr size_t XdrPad(size_t n) { return (4 - (n & 3)) & 3; }

class XdrEncoder {
 public:
  explicit XdrEncoder(MbufChain* chain) : chain_(chain) {}

  void PutUint32(uint32_t value);
  void PutInt32(int32_t value) { PutUint32(static_cast<uint32_t>(value)); }
  void PutUint64(uint64_t value) {
    PutUint32(static_cast<uint32_t>(value >> 32));
    PutUint32(static_cast<uint32_t>(value));
  }
  void PutBool(bool value) { PutUint32(value ? 1 : 0); }

  // Fixed-length opaque: bytes plus zero padding to a 4-byte boundary.
  void PutFixedOpaque(const void* bytes, size_t len);
  // Variable-length opaque: 4-byte length, bytes, padding.
  void PutVarOpaque(const void* bytes, size_t len);
  void PutString(std::string_view s) { PutVarOpaque(s.data(), s.size()); }
  // Variable-length opaque whose body is an existing chain; clusters are
  // shared rather than copied.
  void PutVarOpaqueChain(MbufChain data);

 private:
  MbufChain* chain_;
};

class XdrDecoder {
 public:
  explicit XdrDecoder(const MbufChain* chain) : chain_(chain), remaining_(chain->Length()) {}

  size_t Consumed() const { return consumed_; }
  size_t Remaining() const { return remaining_; }

  StatusOr<uint32_t> GetUint32();
  StatusOr<int32_t> GetInt32();
  StatusOr<uint64_t> GetUint64();
  StatusOr<bool> GetBool();

  Status GetFixedOpaque(void* dst, size_t len);
  StatusOr<std::vector<uint8_t>> GetVarOpaque(size_t max_len);
  StatusOr<std::string> GetString(size_t max_len);
  // Returns the opaque body as a chain sharing the underlying clusters.
  StatusOr<MbufChain> GetVarOpaqueChain(size_t max_len);

  Status Skip(size_t len);

 private:
  const MbufChain* chain_;
  size_t consumed_ = 0;
  size_t remaining_ = 0;
};

// --- Sun-reference-port style buffered codec -------------------------------

class BufferedXdrEncoder {
 public:
  void PutUint32(uint32_t value);
  void PutInt32(int32_t value) { PutUint32(static_cast<uint32_t>(value)); }
  void PutUint64(uint64_t value) {
    PutUint32(static_cast<uint32_t>(value >> 32));
    PutUint32(static_cast<uint32_t>(value));
  }
  void PutBool(bool value) { PutUint32(value ? 1 : 0); }
  void PutFixedOpaque(const void* bytes, size_t len);
  void PutVarOpaque(const void* bytes, size_t len);
  void PutString(std::string_view s) { PutVarOpaque(s.data(), s.size()); }

  // The copy the reference port pays: buffer contents into a fresh chain.
  MbufChain CopyIntoChain() const;

 private:
  std::vector<uint8_t> buffer_;
};

class BufferedXdrDecoder {
 public:
  // Flattens the chain into a contiguous buffer (the reference port's copy).
  explicit BufferedXdrDecoder(const MbufChain& chain) : buffer_(chain.ContiguousCopy()) {}

  StatusOr<uint32_t> GetUint32();
  Status GetFixedOpaque(void* dst, size_t len);
  StatusOr<std::string> GetString(size_t max_len);
  size_t Remaining() const { return buffer_.size() - cursor_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t cursor_ = 0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_XDR_XDR_H_
