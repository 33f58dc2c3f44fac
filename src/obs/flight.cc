#include "src/obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace renonfs {

FlightRecorder::FlightRecorder(Scheduler& scheduler, const MetricsRegistry& registry,
                               FlightOptions options)
    : scheduler_(scheduler),
      registry_(registry),
      options_(options),
      timer_(scheduler, [this]() { Tick(); }) {
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
  if (options_.interval <= 0) {
    options_.interval = Milliseconds(250);
  }
  ring_.reserve(options_.capacity);
}

FlightRecorder::~FlightRecorder() { Stop(); }

void FlightRecorder::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  last_at_ = scheduler_.now();
  last_.resize(registry_.counter_count());
  registry_.ReadCounters(last_.data());
  now_.resize(last_.size());
  timer_.Start(options_.interval);
}

void FlightRecorder::Stop() {
  running_ = false;
  timer_.Stop();
}

void FlightRecorder::Tick() {
  CHECK(registry_.counter_count() == last_.size())
      << "flight: counter registered after Start(): " << registry_.counter_count()
      << " counters, " << last_.size() << " at Start()";
  registry_.ReadCounters(now_.data());
  StoredFrame* frame;
  if (ring_.size() < options_.capacity) {
    frame = &ring_.emplace_back();
  } else {
    frame = &ring_[next_];  // overwrite the oldest, reusing its vector
    next_ = (next_ + 1) % options_.capacity;
  }
  frame->at = scheduler_.now();
  frame->window = frame->at - last_at_;
  frame->deltas.resize(now_.size());
  for (size_t i = 0; i < now_.size(); ++i) {
    frame->deltas[i] = now_[i] - last_[i];
  }
  last_.swap(now_);
  last_at_ = frame->at;
  ++captured_;
  if (running_) {
    timer_.Start(options_.interval);
  }
}

size_t FlightRecorder::size() const { return ring_.size(); }

std::vector<FlightRecorder::Frame> FlightRecorder::Frames() const {
  std::vector<Frame> frames(ring_.size());
  for (size_t k = 0; k < ring_.size(); ++k) {
    const StoredFrame& stored = Stored(k);
    frames[k].at = stored.at;
    frames[k].delta.at = stored.window;
    frames[k].delta.counters.reserve(stored.deltas.size());
    for (size_t i = 0; i < stored.deltas.size(); ++i) {
      frames[k].delta.counters.emplace_back(registry_.counter_name(i), stored.deltas[i]);
    }
  }
  return frames;
}

std::string FlightRecorder::ToJsonl() const {
  std::vector<std::string> names(registry_.counter_count());
  for (size_t i = 0; i < names.size(); ++i) {
    names[i] = JsonEscape(registry_.counter_name(i));
  }
  std::string out;
  char buf[192];
  for (size_t k = 0; k < ring_.size(); ++k) {
    const StoredFrame& f = Stored(k);
    std::snprintf(buf, sizeof(buf), "{\"at_ms\":%.3f,\"window_ms\":%.3f,\"counters\":{",
                  static_cast<double>(f.at) / 1e6, static_cast<double>(f.window) / 1e6);
    out += buf;
    bool first = true;
    for (size_t i = 0; i < f.deltas.size(); ++i) {
      if (f.deltas[i] == 0) {
        continue;  // quiet counters stay out of the timeline
      }
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",", names[i].c_str(),
                    static_cast<unsigned long long>(f.deltas[i]));
      out += buf;
      first = false;
    }
    out += "}}\n";
  }
  return out;
}

std::string FlightRecorder::ToCsv() const {
  std::string out = "at_ms,name,delta\n";
  char buf[192];
  for (size_t k = 0; k < ring_.size(); ++k) {
    const StoredFrame& f = Stored(k);
    for (size_t i = 0; i < f.deltas.size(); ++i) {
      if (f.deltas[i] == 0) {
        continue;
      }
      std::snprintf(buf, sizeof(buf), "%.3f,%s,%llu\n", static_cast<double>(f.at) / 1e6,
                    registry_.counter_name(i).c_str(),
                    static_cast<unsigned long long>(f.deltas[i]));
      out += buf;
    }
  }
  return out;
}

std::string FlightRecorder::Tail(size_t n) const {
  const size_t start = ring_.size() > n ? ring_.size() - n : 0;
  std::string out;
  char buf[160];
  std::vector<size_t> top;
  for (size_t k = start; k < ring_.size(); ++k) {
    const StoredFrame& f = Stored(k);
    // The few biggest movers of the window, largest delta first.
    top.clear();
    for (size_t i = 0; i < f.deltas.size(); ++i) {
      if (f.deltas[i] != 0) {
        top.push_back(i);
      }
    }
    std::sort(top.begin(), top.end(),
              [&f](size_t a, size_t b) { return f.deltas[a] > f.deltas[b]; });
    std::snprintf(buf, sizeof(buf), "[%12.3f ms]", static_cast<double>(f.at) / 1e6);
    out += buf;
    const size_t shown = std::min<size_t>(top.size(), 5);
    for (size_t j = 0; j < shown; ++j) {
      std::snprintf(buf, sizeof(buf), " %s=+%llu", registry_.counter_name(top[j]).c_str(),
                    static_cast<unsigned long long>(f.deltas[top[j]]));
      out += buf;
    }
    if (top.size() > shown) {
      std::snprintf(buf, sizeof(buf), " (+%zu more)", top.size() - shown);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace renonfs
