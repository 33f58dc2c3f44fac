#include "src/util/config.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace renonfs {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

Status BadValue(std::string_view key, std::string_view value, const char* want) {
  return Status(ErrorCode::kInvalidArgument,
                "config: key '" + std::string(key) + "': cannot parse '" +
                    std::string(value) + "' as " + want);
}

}  // namespace

StatusOr<KvConfig> KvConfig::Parse(std::string_view text) {
  KvConfig config;
  size_t line_number = 0;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++line_number;

    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status(ErrorCode::kInvalidArgument,
                    "config: line " + std::to_string(line_number) +
                        ": expected 'key = value', got '" + std::string(line) + "'");
    }
    const std::string_view key = Trim(line.substr(0, eq));
    if (key.empty()) {
      return Status(ErrorCode::kInvalidArgument,
                    "config: line " + std::to_string(line_number) + ": empty key");
    }
    config.Add(key, Trim(line.substr(eq + 1)));
  }
  return config;
}

bool KvConfig::Has(std::string_view key) const { return Find(key) != nullptr; }

const std::string* KvConfig::Find(std::string_view key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : entries_) {
    if (k == key) {
      found = &v;
    }
  }
  return found;
}

std::vector<std::string> KvConfig::Values(std::string_view key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : entries_) {
    if (k == key) {
      values.push_back(v);
    }
  }
  return values;
}

StatusOr<std::string> KvConfig::GetString(std::string_view key,
                                          std::string fallback) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : std::move(fallback);
}

StatusOr<uint64_t> KvConfig::GetUint(std::string_view key, uint64_t fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value->c_str(), &end, 0);
  if (errno != 0 || end == value->c_str() || *end != '\0' || value->front() == '-') {
    return BadValue(key, *value, "an unsigned integer");
  }
  return static_cast<uint64_t>(parsed);
}

StatusOr<double> KvConfig::GetDouble(std::string_view key, double fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (errno != 0 || end == value->c_str() || *end != '\0') {
    return BadValue(key, *value, "a number");
  }
  return parsed;
}

StatusOr<bool> KvConfig::GetBool(std::string_view key, bool fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (*value == "true" || *value == "1") {
    return true;
  }
  if (*value == "false" || *value == "0") {
    return false;
  }
  return BadValue(key, *value, "a bool (true/false/1/0)");
}

StatusOr<SimTime> KvConfig::GetDuration(std::string_view key, SimTime fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) {
    return fallback;
  }
  auto parsed = ParseDuration(*value);
  if (!parsed.ok()) {
    return BadValue(key, *value, "a duration (e.g. 8ms, 2s, 500us, 250ns)");
  }
  return parsed.value();
}

void KvConfig::Add(std::string_view key, std::string_view value) {
  entries_.emplace_back(std::string(key), std::string(value));
}

void KvConfig::AddUint(std::string_view key, uint64_t value) {
  Add(key, std::to_string(value));
}

void KvConfig::AddDouble(std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Add(key, buf);
}

void KvConfig::AddBool(std::string_view key, bool value) {
  Add(key, value ? "true" : "false");
}

void KvConfig::AddDuration(std::string_view key, SimTime value) {
  Add(key, FormatDuration(value));
}

std::string KvConfig::Serialize() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  }
  return out;
}

StatusOr<SimTime> ParseDuration(std::string_view text) {
  text = Trim(text);
  if (text.empty()) {
    return Status(ErrorCode::kInvalidArgument, "duration: empty");
  }
  // No text form holds a negative duration, so a sign is not a number.
  size_t digits = 0;
  while (digits < text.size() && std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "duration: no number in '" + std::string(text) + "'");
  }
  errno = 0;
  char* end = nullptr;
  const std::string number(text.substr(0, digits));
  const long long magnitude = std::strtoll(number.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') {
    return Status(ErrorCode::kInvalidArgument,
                  "duration: bad number in '" + std::string(text) + "'");
  }
  const std::string_view unit = text.substr(digits);
  SimTime scale = 0;
  if (unit.empty() || unit == "ns") {
    scale = Nanoseconds(1);
  } else if (unit == "us") {
    scale = Microseconds(1);
  } else if (unit == "ms") {
    scale = Milliseconds(1);
  } else if (unit == "s") {
    scale = Seconds(1);
  } else {
    return Status(ErrorCode::kInvalidArgument,
                  "duration: unknown unit '" + std::string(unit) + "'");
  }
  // The text comes from scenario, fault and trace files: a magnitude whose
  // nanosecond count does not fit a SimTime is an error, not a wrapped value.
  if (magnitude > std::numeric_limits<SimTime>::max() / scale) {
    return Status(ErrorCode::kInvalidArgument,
                  "duration: out of range in '" + std::string(text) + "'");
  }
  return magnitude * scale;
}

std::string FormatDuration(SimTime t) {
  if (t != 0 && t % Seconds(1) == 0) {
    return std::to_string(t / Seconds(1)) + "s";
  }
  if (t != 0 && t % Milliseconds(1) == 0) {
    return std::to_string(t / Milliseconds(1)) + "ms";
  }
  if (t != 0 && t % Microseconds(1) == 0) {
    return std::to_string(t / Microseconds(1)) + "us";
  }
  return std::to_string(t) + "ns";
}

}  // namespace renonfs
