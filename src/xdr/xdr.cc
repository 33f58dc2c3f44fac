#include "src/xdr/xdr.h"

#include <cstring>

#include "src/util/logging.h"

namespace renonfs {

namespace {
constexpr uint8_t kZeroPad[4] = {0, 0, 0, 0};
}  // namespace

void XdrEncoder::PutUint32(uint32_t value) {
  uint8_t* p = chain_->AppendSpace(4);
  p[0] = static_cast<uint8_t>(value >> 24);
  p[1] = static_cast<uint8_t>(value >> 16);
  p[2] = static_cast<uint8_t>(value >> 8);
  p[3] = static_cast<uint8_t>(value);
}

void XdrEncoder::PutFixedOpaque(const void* bytes, size_t len) {
  chain_->Append(bytes, len);
  const size_t pad = XdrPad(len);
  if (pad > 0) {
    chain_->Append(kZeroPad, pad);
  }
}

void XdrEncoder::PutVarOpaque(const void* bytes, size_t len) {
  PutUint32(static_cast<uint32_t>(len));
  PutFixedOpaque(bytes, len);
}

void XdrEncoder::PutVarOpaqueChain(MbufChain data) {
  const size_t len = data.Length();
  PutUint32(static_cast<uint32_t>(len));
  chain_->Concat(std::move(data));
  const size_t pad = XdrPad(len);
  if (pad > 0) {
    chain_->Append(kZeroPad, pad);
  }
}

StatusOr<uint32_t> XdrDecoder::GetUint32() {
  if (remaining_ < 4) {
    return GarbageArgsError("xdr: truncated uint32");
  }
  uint8_t raw[4];
  CHECK(chain_->CopyOut(consumed_, 4, raw));
  consumed_ += 4;
  remaining_ -= 4;
  return (static_cast<uint32_t>(raw[0]) << 24) | (static_cast<uint32_t>(raw[1]) << 16) |
         (static_cast<uint32_t>(raw[2]) << 8) | static_cast<uint32_t>(raw[3]);
}

StatusOr<int32_t> XdrDecoder::GetInt32() {
  ASSIGN_OR_RETURN(uint32_t raw, GetUint32());
  return static_cast<int32_t>(raw);
}

StatusOr<uint64_t> XdrDecoder::GetUint64() {
  ASSIGN_OR_RETURN(uint32_t hi, GetUint32());
  ASSIGN_OR_RETURN(uint32_t lo, GetUint32());
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

StatusOr<bool> XdrDecoder::GetBool() {
  ASSIGN_OR_RETURN(uint32_t raw, GetUint32());
  if (raw > 1) {
    return GarbageArgsError("xdr: bad bool");
  }
  return raw == 1;
}

Status XdrDecoder::GetFixedOpaque(void* dst, size_t len) {
  const size_t padded = len + XdrPad(len);
  if (remaining_ < padded) {
    return GarbageArgsError("xdr: truncated opaque");
  }
  CHECK(chain_->CopyOut(consumed_, len, dst));
  consumed_ += padded;
  remaining_ -= padded;
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> XdrDecoder::GetVarOpaque(size_t max_len) {
  ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > max_len) {
    return GarbageArgsError("xdr: opaque too long");
  }
  std::vector<uint8_t> out(len);
  RETURN_IF_ERROR(GetFixedOpaque(out.data(), len));
  return out;
}

StatusOr<std::string> XdrDecoder::GetString(size_t max_len) {
  ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > max_len) {
    return GarbageArgsError("xdr: string too long");
  }
  std::string out(len, '\0');
  RETURN_IF_ERROR(GetFixedOpaque(out.data(), len));
  return out;
}

StatusOr<MbufChain> XdrDecoder::GetVarOpaqueChain(size_t max_len) {
  ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > max_len) {
    return GarbageArgsError("xdr: opaque too long");
  }
  const size_t padded = len + XdrPad(len);
  if (remaining_ < padded) {
    return GarbageArgsError("xdr: truncated opaque body");
  }
  MbufChain body = chain_->CopyRange(consumed_, len);
  consumed_ += padded;
  remaining_ -= padded;
  return body;
}

Status XdrDecoder::Skip(size_t len) {
  if (remaining_ < len) {
    return GarbageArgsError("xdr: skip past end");
  }
  consumed_ += len;
  remaining_ -= len;
  return Status::Ok();
}

// --- buffered codec ---------------------------------------------------------

void BufferedXdrEncoder::PutUint32(uint32_t value) {
  buffer_.push_back(static_cast<uint8_t>(value >> 24));
  buffer_.push_back(static_cast<uint8_t>(value >> 16));
  buffer_.push_back(static_cast<uint8_t>(value >> 8));
  buffer_.push_back(static_cast<uint8_t>(value));
}

void BufferedXdrEncoder::PutFixedOpaque(const void* bytes, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(bytes);
  buffer_.insert(buffer_.end(), p, p + len);
  buffer_.insert(buffer_.end(), XdrPad(len), 0);
}

void BufferedXdrEncoder::PutVarOpaque(const void* bytes, size_t len) {
  PutUint32(static_cast<uint32_t>(len));
  PutFixedOpaque(bytes, len);
}

MbufChain BufferedXdrEncoder::CopyIntoChain() const {
  return MbufChain::FromBytes(buffer_.data(), buffer_.size());
}

StatusOr<uint32_t> BufferedXdrDecoder::GetUint32() {
  if (buffer_.size() - cursor_ < 4) {
    return GarbageArgsError("xdr: truncated uint32");
  }
  const uint8_t* raw = buffer_.data() + cursor_;
  cursor_ += 4;
  return (static_cast<uint32_t>(raw[0]) << 24) | (static_cast<uint32_t>(raw[1]) << 16) |
         (static_cast<uint32_t>(raw[2]) << 8) | static_cast<uint32_t>(raw[3]);
}

Status BufferedXdrDecoder::GetFixedOpaque(void* dst, size_t len) {
  const size_t padded = len + XdrPad(len);
  if (buffer_.size() - cursor_ < padded) {
    return GarbageArgsError("xdr: truncated opaque");
  }
  std::memcpy(dst, buffer_.data() + cursor_, len);
  cursor_ += padded;
  return Status::Ok();
}

StatusOr<std::string> BufferedXdrDecoder::GetString(size_t max_len) {
  ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > max_len) {
    return GarbageArgsError("xdr: string too long");
  }
  std::string out(len, '\0');
  RETURN_IF_ERROR(GetFixedOpaque(out.data(), len));
  return out;
}

}  // namespace renonfs
