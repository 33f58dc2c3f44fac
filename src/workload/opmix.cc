#include "src/workload/opmix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/nfs/wire.h"
#include "src/workload/fill.h"

namespace renonfs {
namespace {

enum class Op { kLookup, kGetattr, kRead, kWrite, kCreate, kRemove, kReaddir };

// Relative weights of the op mix, in Op declaration order. The default
// approximates the paper's nhfsstone mix: reads and attribute traffic
// dominate, writes matter, namespace churn is the tail.
constexpr double kDefaultWeights[7] = {0.13, 0.22, 0.30, 0.20, 0.05, 0.04, 0.06};
// The "everything is a stat" personality: namespace and attribute traffic
// dominate, data ops are the tail.
constexpr double kMetadataHeavyWeights[7] = {0.25, 0.30, 0.05, 0.03, 0.12, 0.10, 0.15};

struct Mix {
  // Cumulative weights in Op declaration order, normalized to the last entry.
  double cdf[7];

  explicit Mix(const OpMixOptions& options) {
    const double* w = options.metadata_heavy ? kMetadataHeavyWeights : kDefaultWeights;
    double acc = 0.0;
    for (int i = 0; i < 7; ++i) {
      acc += w[i];
      cdf[i] = acc;
    }
  }

  Op Pick(Rng& rng) const {
    const double draw = rng.UniformDouble() * cdf[6];
    for (int i = 0; i < 7; ++i) {
      if (draw < cdf[i]) {
        return static_cast<Op>(i);
      }
    }
    return Op::kReaddir;
  }
};

// File-rank sampler: uniform, or zipfian via a precomputed CDF over ranks
// (rank r drawn with probability ∝ 1/(r+1)^s — rank 0 is the hot file).
class FilePicker {
 public:
  explicit FilePicker(const OpMixOptions& options)
      : uniform_(options.skew == OpMixOptions::Skew::kUniform),
        files_(std::max<size_t>(options.files, 1)) {
    if (!uniform_) {
      zipf_cdf_.reserve(files_);
      double acc = 0.0;
      for (size_t r = 0; r < files_; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), options.zipf_s);
        zipf_cdf_.push_back(acc);
      }
    }
  }

  size_t Pick(Rng& rng) const {
    if (uniform_) {
      return rng.UniformUint64(files_);
    }
    const double draw = rng.UniformDouble() * zipf_cdf_.back();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), draw);
    return std::min(static_cast<size_t>(it - zipf_cdf_.begin()), files_ - 1);
  }

 private:
  bool uniform_;
  size_t files_;
  std::vector<double> zipf_cdf_;
};

// Inter-op gap under the configured arrival shape. All randomness comes from
// `rng`; the diurnal swing is a deterministic function of sim time.
SimTime NextGap(const OpMixOptions& options, Rng& rng, Scheduler& sched, size_t op_index) {
  const double mean = static_cast<double>(std::max<SimTime>(options.mean_gap, 1));
  switch (options.arrival) {
    case OpMixOptions::Arrival::kSteady:
      return static_cast<SimTime>(rng.Exponential(mean));
    case OpMixOptions::Arrival::kBurst: {
      const size_t len = std::max<size_t>(options.burst_len, 1);
      if (op_index != 0 && op_index % len == 0) {
        return options.burst_gap;  // idle between bursts
      }
      return static_cast<SimTime>(rng.Exponential(mean / 8.0));  // back-to-back
    }
    case OpMixOptions::Arrival::kDiurnal: {
      // Gap swings smoothly between mean/4 (peak) and 4*mean (trough) once
      // per diurnal_period of sim time.
      const double period = static_cast<double>(std::max<SimTime>(options.diurnal_period, 1));
      const double phase = 2.0 * 3.14159265358979323846 *
                           (static_cast<double>(sched.now()) / period);
      const double factor = std::exp(std::log(4.0) * std::sin(phase));
      return static_cast<SimTime>(rng.Exponential(mean * factor));
    }
  }
  return static_cast<SimTime>(rng.Exponential(mean));
}

std::string OutcomeName(const Status& status) {
  return status.ok() ? "ok" : std::string(ErrorCodeName(status.code()));
}

}  // namespace

const char* OpMixSkewName(OpMixOptions::Skew skew) {
  return skew == OpMixOptions::Skew::kZipfian ? "zipfian" : "uniform";
}

const char* OpMixArrivalName(OpMixOptions::Arrival arrival) {
  switch (arrival) {
    case OpMixOptions::Arrival::kSteady: return "steady";
    case OpMixOptions::Arrival::kBurst: return "burst";
    case OpMixOptions::Arrival::kDiurnal: return "diurnal";
  }
  return "steady";
}

bool OpMixSkewFromName(const std::string& name, OpMixOptions::Skew* out) {
  if (name == "uniform") {
    *out = OpMixOptions::Skew::kUniform;
    return true;
  }
  if (name == "zipfian") {
    *out = OpMixOptions::Skew::kZipfian;
    return true;
  }
  return false;
}

bool OpMixArrivalFromName(const std::string& name, OpMixOptions::Arrival* out) {
  if (name == "steady") {
    *out = OpMixOptions::Arrival::kSteady;
    return true;
  }
  if (name == "burst") {
    *out = OpMixOptions::Arrival::kBurst;
    return true;
  }
  if (name == "diurnal") {
    *out = OpMixOptions::Arrival::kDiurnal;
    return true;
  }
  return false;
}

CoTask<Status> RunOpMix(World& world, NfsClient& client, size_t client_index,
                        OpMixOptions options, Rng rng,
                        std::vector<std::string>* op_log) {
  Scheduler& sched = world.scheduler();
  const Mix mix(options);
  const FilePicker picker(options);
  const std::string prefix =
      options.shared_files ? "mix_" : "mix_c" + std::to_string(client_index) + "_";
  auto file_name = [&prefix](size_t rank) { return prefix + std::to_string(rank); };
  auto log = [op_log, client_index](const std::string& what, const Status& status) {
    op_log->push_back("opmix[c" + std::to_string(client_index) + "] " + what + " = " +
                      OutcomeName(status));
  };

  // Preload the population so reads have something to hit. In shared mode
  // only client 0 creates the files; the others wait one mean gap so the
  // population exists before their first op.
  std::vector<uint8_t> data(options.file_bytes);
  if (!options.shared_files || client_index == 0) {
    for (size_t i = 0; i < options.files; ++i) {
      auto fh_or = co_await client.Create(client.root(), file_name(i));
      if (!fh_or.ok()) {
        log("preload " + file_name(i), fh_or.status());
        co_return fh_or.status();
      }
      Status status = co_await client.Open(fh_or.value());
      if (status.ok() && !data.empty()) {
        FillAlphabet(data, i);
        status = co_await client.Write(fh_or.value(), 0, data.data(), data.size());
      }
      if (status.ok()) {
        status = co_await client.Close(fh_or.value());
      }
      if (!status.ok()) {
        log("preload " + file_name(i), status);
        co_return status;
      }
    }
  } else if (options.files > 0) {
    // Wait until client 0's sequential preload has published the whole
    // population — the last name appearing means every earlier one exists.
    // A fixed delay would race the preload whenever create+write+close runs
    // slower than the guess (lease recalls, early faults), and the loser
    // would then collide with it: this client's create op wins the name and
    // client 0's preload dies on EEXIST.
    for (;;) {
      auto fh_or = co_await client.Lookup(client.root(), file_name(options.files - 1));
      if (fh_or.ok()) {
        break;
      }
      co_await sched.Delay(options.mean_gap);
    }
  }

  uint8_t read_buf[kNfsMaxData];
  for (size_t i = 0; i < options.operations; ++i) {
    co_await sched.Delay(NextGap(options, rng, sched, i));
    const Op op = mix.Pick(rng);
    const size_t rank = picker.Pick(rng);
    const std::string name = file_name(rank);

    switch (op) {
      case Op::kLookup: {
        auto fh_or = co_await client.Lookup(client.root(), name);
        log("lookup " + name, fh_or.status());
        break;
      }
      case Op::kGetattr: {
        auto fh_or = co_await client.Lookup(client.root(), name);
        if (!fh_or.ok()) {
          log("getattr " + name, fh_or.status());
          break;
        }
        auto attr_or = co_await client.Getattr(fh_or.value());
        log("getattr " + name, attr_or.status());
        break;
      }
      case Op::kRead: {
        auto fh_or = co_await client.Lookup(client.root(), name);
        if (!fh_or.ok()) {
          log("read " + name, fh_or.status());
          break;
        }
        Status status = co_await client.Open(fh_or.value());
        if (status.ok()) {
          const size_t len = std::min<size_t>(options.file_bytes, sizeof(read_buf));
          auto n_or = co_await client.Read(fh_or.value(), 0, len, read_buf);
          status = n_or.status();
          Status close_status = co_await client.Close(fh_or.value());
          if (status.ok()) {
            status = close_status;
          }
        }
        log("read " + name, status);
        break;
      }
      case Op::kWrite: {
        auto fh_or = co_await client.Lookup(client.root(), name);
        if (!fh_or.ok()) {
          log("write " + name, fh_or.status());
          break;
        }
        // Block-aligned slice inside the file; deterministic pattern salted
        // by writer and iteration so divergent replays change bytes, not
        // just metadata.
        const size_t block = 4096;
        const size_t blocks_in_file = std::max<size_t>(options.file_bytes / block, 1);
        const uint64_t offset =
            static_cast<uint64_t>(rng.UniformUint64(blocks_in_file)) * block;
        const size_t len =
            std::min<size_t>(block, options.file_bytes > offset
                                        ? options.file_bytes - static_cast<size_t>(offset)
                                        : block);
        std::vector<uint8_t> slice(len);
        FillAlphabet(slice, rank + i + client_index * 7);
        Status status = co_await client.Open(fh_or.value());
        if (status.ok()) {
          status = co_await client.Write(fh_or.value(), offset, slice.data(), slice.size());
          Status close_status = co_await client.Close(fh_or.value());
          if (status.ok()) {
            status = close_status;
          }
        }
        log("write " + name + "@" + std::to_string(offset), status);
        break;
      }
      case Op::kCreate: {
        auto fh_or = co_await client.Create(client.root(), name);
        if (!fh_or.ok()) {
          log("create " + name, fh_or.status());
          break;
        }
        Status status = co_await client.Open(fh_or.value());
        if (status.ok()) {
          std::vector<uint8_t> head(std::min<size_t>(options.file_bytes, 512));
          FillAlphabet(head, rank);
          if (!head.empty()) {
            status = co_await client.Write(fh_or.value(), 0, head.data(), head.size());
          }
          Status close_status = co_await client.Close(fh_or.value());
          if (status.ok()) {
            status = close_status;
          }
        }
        log("create " + name, status);
        break;
      }
      case Op::kRemove: {
        Status status = co_await client.Remove(client.root(), name);
        log("remove " + name, status);
        break;
      }
      case Op::kReaddir: {
        auto entries_or = co_await client.Readdir(client.root());
        log("readdir .", entries_or.status());
        break;
      }
    }
  }
  co_return Status::Ok();
}

}  // namespace renonfs
