// The byte pattern the workloads write into the files they create.
#ifndef RENONFS_SRC_WORKLOAD_FILL_H_
#define RENONFS_SRC_WORKLOAD_FILL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace renonfs {

// Fills `data` with the lowercase alphabet: byte b holds
// 'a' + (b + salt) % 26. The pattern repeats every 26 bytes, so whole
// alphabets are copied from a doubled one, starting at the salt's letter,
// with no per-byte arithmetic.
inline void FillAlphabet(std::vector<uint8_t>& data, size_t salt) {
  static constexpr char kTwice[] = "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz";
  if (data.empty()) {
    return;
  }
  const char* run = kTwice + salt % 26;
  size_t b = 0;
  for (; b + 26 <= data.size(); b += 26) {
    std::memcpy(data.data() + b, run, 26);
  }
  std::memcpy(data.data() + b, run, data.size() - b);
}

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_FILL_H_
