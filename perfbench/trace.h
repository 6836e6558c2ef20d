// Span recorder and sample statistics for the benchmark driver.
//
// Spans wrap only the calls the benchmark itself makes into the modules'
// public functions (name, start, end, parent span, operation id). They are
// kept in memory and written out once, when the run ends, so recording
// costs two clock reads and a vector append per span.
#ifndef OZZ_PERFBENCH_TRACE_H_
#define OZZ_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // "<layer>.<module>[.<what>]"; static storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 at top level
  uint64_t op = 0;      // id of the benchmark operation the span belongs to
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  void Enable(bool on) { on_ = on; }
  bool on() const { return on_; }
  void SetOp(uint64_t op) { op_ = op; }

  int32_t Begin(const char* name) {
    Span s;
    s.name = name;
    s.start_ns = Now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    spans_.push_back(s);
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = Now();
    stack_.pop_back();
  }

  // Durations (microseconds) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  // Self time (milliseconds) per layer, the first component of the span
  // name: a span's duration minus the part its direct children cover.
  std::map<std::string, double> SelfMsByLayer() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      out[name.substr(0, name.find('.'))] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  std::size_t size() const { return spans_.size(); }

  // One JSON object per line. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const Span& s : spans_) {
      std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,\"op\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.parent, static_cast<unsigned long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                epoch_)
        .count();
  }

  const std::chrono::steady_clock::time_point epoch_;
  bool on_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// Records one span around its lifetime when the tracer is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) {
    if (tracer.on()) {
      tracer_ = &tracer;
      idx_ = tracer.Begin(name);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->End(idx_);
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  int32_t idx_ = -1;
};

// Linear interpolation between closest ranks; `p` in [0, 100].
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;  // samples above the percentile
};

// The highest percentile of a fixed ladder that leaves at least ten samples
// beyond it (a tail estimate resting on fewer is mostly noise). The ladder is
// coarse, and stops at p99, so that the tail lands among the slowest kind of
// operation of a pass rather than in host scheduling jitter.
inline Tail HighestTail(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.0, 90.0, 75.0, 50.0};
  Tail t;
  for (double p : kLadder) {
    const auto beyond = static_cast<std::size_t>(static_cast<double>(v.size()) * (1.0 - p / 100.0));
    if (beyond >= 10 || p == 50.0) {
      t.pct = p;
      t.beyond = beyond;
      t.value = Percentile(v, p);
      break;
    }
  }
  return t;
}

}  // namespace perfbench

#endif  // OZZ_PERFBENCH_TRACE_H_
