// Shared helpers of the bench_suite program: clocks and percentiles, the
// content digest used for inputs and outputs, the in-memory span tracer,
// and the result printer that emits the one-line JSON result.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc.h"

namespace clickinc::suite {

// The CPU time of the whole process, over all its threads. bench_suite
// times every operation and set-up with it: the service runs single-
// threaded and never blocks, so on an idle host an operation's CPU time is
// its wall time, but time the hypervisor takes the vCPU away (steal) is
// not counted. On the reference host steal came and went over seconds and
// slowed the wall clock by up to 1.7x; it moved pkt_wide's 10-seed p50
// spread from 0.023 on this clock to 0.53 on the wall clock.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 +
                               ts.tv_nsec));
  }
};
using Clock = CpuClock;
// Wall time: the traced run's spans, which locate time rather than compare
// it, and what CPU time cannot show, the speedup of a thread pool.
using WallClock = std::chrono::steady_clock;

template <typename TimePoint>
double msBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
template <typename TimePoint>
double msSince(TimePoint t0) {
  return msBetween(t0, TimePoint::clock::now());
}

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

// Order-sensitive 64-bit content digest (mix64 chain).
class Digest {
 public:
  void add(std::uint64_t v) { h_ = mix64(h_ ^ v); }
  void addInt(long v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0x5C17EB3C4D1A2F00ULL;
};

// Peak resident set of this process in MB (VmHWM), 0 when unavailable.
inline double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// In-memory span recorder for the traced run, on the wall clock. Spans are
// recorded around calls into each layer's public functions, from the
// benchmark's side; nothing inside the program is instrumented.
class Tracer {
 public:
  struct Span {
    const char* name;
    long request;  // request id shared by the spans of one request
    int parent;    // index of the enclosing span, -1 for a root
    WallClock::time_point start, end;
  };

  // RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, long request) : t_(t) {
      idx_ = static_cast<int>(t_->spans_.size());
      prev_ = t_->open_;
      t_->spans_.push_back({name, request, prev_, WallClock::now(), {}});
      t_->open_ = idx_;
    }
    ~Scope() {
      t_->spans_[static_cast<std::size_t>(idx_)].end = WallClock::now();
      t_->open_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
    int prev_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  static double durationMs(const Span& s) { return msBetween(s.start, s.end); }

  // Per span: its duration minus the time its direct children cover.
  std::vector<double> selfTimesMs() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = durationMs(spans_[i]);
    }
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= durationMs(s);
      }
    }
    return self;
  }

  // Self-time samples of every span with this name.
  std::vector<double> selfTimesOf(std::string_view name) const {
    const auto self = selfTimesMs();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) out.push_back(self[i]);
    }
    return out;
  }

  // Per layer: span count, self-time p50 and share of all root time.
  std::string summary() const {
    const auto self = selfTimesMs();
    double root_total = 0;
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) root_total += durationMs(spans_[i]);
      by_name[spans_[i].name].push_back(self[i]);
    }
    std::string out = "layer                     spans   self p50 ms   share\n";
    for (const auto& [name, v] : by_name) {
      double sum = 0;
      for (double x : v) sum += x;
      char line[160];
      std::snprintf(line, sizeof line, "%-24s %6zu %13.4f %6.1f%%\n",
                    name.c_str(), v.size(), percentile(v, 0.5),
                    100.0 * ratio(sum, root_total));
      out += line;
    }
    return out;
  }

  // Spans as JSON lines: name, request, parent, start/end in ns since the
  // first span.
  bool writeJsonLines(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const auto t0 = spans_.empty() ? WallClock::time_point{} : spans_[0].start;
    auto ns = [&](WallClock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
          .count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
        << "}\n";
    }
    return f.good();
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// One named metric value with its unit, in print order.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// The result contract: the last stdout line is one JSON object with
// exactly the keys correct, attempted, failed and metrics.
inline void printResult(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace clickinc::suite
