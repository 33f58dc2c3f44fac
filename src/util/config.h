// Minimal line-oriented key=value configuration format.
//
// This is the storage layer under the scenario DSL (src/scenario) and the
// deterministic trace artifacts the chaos/scenario harnesses write on
// failure: one `key = value` pair per line, '#' starts a comment, blank
// lines are ignored, keys may repeat (a fault schedule is a sequence of
// `fault = ...` lines). Nothing here knows what the keys mean — callers
// layer their grammar on top.
//
// The format is deliberately trivial: a failure artifact must be readable
// in a pager and diffable between a red and a green run, and the parser
// must be boring enough that the replay path introduces no surface of its
// own.
#ifndef RENONFS_SRC_UTIL_CONFIG_H_
#define RENONFS_SRC_UTIL_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace renonfs {

class KvConfig {
 public:
  // Parses `text`. Fails with kInvalidArgument on a non-comment line without
  // '=' or with an empty key; values may be empty. Whitespace around keys
  // and values is trimmed.
  static StatusOr<KvConfig> Parse(std::string_view text);

  // Pairs in file order, repeats preserved.
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  bool Has(std::string_view key) const;
  // Last occurrence wins for scalar lookups (so a later line can override).
  const std::string* Find(std::string_view key) const;
  // Every value for a repeatable key, in file order.
  std::vector<std::string> Values(std::string_view key) const;

  // Typed getters: return `fallback` when the key is absent, fail with
  // kInvalidArgument when present but unparsable.
  StatusOr<std::string> GetString(std::string_view key, std::string fallback) const;
  StatusOr<uint64_t> GetUint(std::string_view key, uint64_t fallback) const;
  StatusOr<double> GetDouble(std::string_view key, double fallback) const;
  StatusOr<bool> GetBool(std::string_view key, bool fallback) const;  // true/false/1/0
  // Durations accept a unit suffix: "250ns", "10us", "8ms", "2s", or a bare
  // integer nanosecond count.
  StatusOr<SimTime> GetDuration(std::string_view key, SimTime fallback) const;

  void Add(std::string_view key, std::string_view value);
  void AddUint(std::string_view key, uint64_t value);
  void AddDouble(std::string_view key, double value);
  void AddBool(std::string_view key, bool value);
  void AddDuration(std::string_view key, SimTime value);

  // One `key = value` line per entry, in insertion order.
  std::string Serialize() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// "2s" / "8ms" / "10us" / "250ns" / bare nanoseconds.
StatusOr<SimTime> ParseDuration(std::string_view text);
// Canonical rendering: the largest unit that divides evenly.
std::string FormatDuration(SimTime t);

}  // namespace renonfs

#endif  // RENONFS_SRC_UTIL_CONFIG_H_
