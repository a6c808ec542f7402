#pragma once
// Measurement plumbing for the spbc_bench driver: peak-RSS reader, a
// host-speed reference, a steady-clock span recorder that writes Chrome
// trace-event JSON, and a named metric list printed as `name value unit`
// lines and written as JSON.
//
// Header-only and dependency-free on purpose: the benchmark package links the
// repository's `spbc` library and adds only this header and the driver.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace spbc::benchm {

/// Peak resident set size of this process (VmHWM) in KiB; 0 when
/// /proc/self/status is unavailable.
inline uint64_t vm_hwm_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%" SCNu64, &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Seconds on the steady clock since an arbitrary process-wide origin.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

/// Host-speed reference: a fixed mix of register arithmetic, a dependent
/// pointer chase over 16 MiB and a sort of 2 MiB. On a shared host the same
/// work runs 30-60 % slower in stretches of seconds to minutes. Timed next
/// to a pass, it says how fast the host was during that pass. The buffers
/// are built once; measure() allocates nothing, so the simulator's heap
/// cannot slow it down.
class HostRef {
 public:
  /// Typical measure() on a 4-vCPU 2.1 GHz Xeon VM, in seconds: the host
  /// speed that host-normalized times are scaled to.
  static constexpr double kNominalS = 0.070;

  HostRef() : chase_(kChaseSlots), keys_(kSortKeys), work_(kSortKeys) {
    // Sattolo's algorithm: one cycle through every slot, so the chase
    // visits the whole buffer in an order no prefetcher predicts.
    for (uint32_t i = 0; i < kChaseSlots; ++i) chase_[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kChaseSlots - 1; i > 0; --i) {
      x = xorshift(x);
      std::swap(chase_[i], chase_[x % i]);
    }
    for (uint64_t& k : keys_) k = x = xorshift(x);
  }

  /// Seconds for one round of the mix.
  double measure() {
    const double t0 = now_s();
    uint64_t x = 88172645463325252ull, acc = 0;
    for (int i = 0; i < kMixSteps; ++i) {
      x = xorshift(x);
      acc += (x * 0x9e3779b97f4a7c15ull) >> 61;
    }
    uint32_t c = 0;
    for (int i = 0; i < kChaseSteps; ++i) c = chase_[c];
    std::copy(keys_.begin(), keys_.end(), work_.begin());
    std::sort(work_.begin(), work_.end());
    sink_ = acc + c + work_[kSortKeys / 2];
    return now_s() - t0;
  }

 private:
  static constexpr uint32_t kChaseSlots = 1u << 22;  // 16 MiB of uint32_t
  static constexpr int kChaseSteps = 200000;
  static constexpr int kMixSteps = 10000000;
  static constexpr size_t kSortKeys = 1u << 18;  // 2 MiB of uint64_t

  static uint64_t xorshift(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::vector<uint32_t> chase_;
  std::vector<uint64_t> keys_, work_;
  volatile uint64_t sink_ = 0;  // keeps the mix from being optimized away
};

/// Nested wall-clock spans recorded in memory (single-threaded). A span's
/// parent is the span open when it began; self time is its duration minus
/// the time its direct children cover. A disabled recorder records nothing,
/// so untraced runs pay one branch per call site.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (-1 when disabled).
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_s(), 0.0, parent, 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.dur = now_s() - s.start;
    if (s.parent >= 0) spans_[static_cast<size_t>(s.parent)].child_time += s.dur;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// RAII span for a scope.
  class Scope {
   public:
    Scope(Spans& spans, std::string name)
        : spans_(spans), id_(spans.begin(std::move(name))) {}
    ~Scope() { spans_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  /// Sum of self time over every closed span named `name`, in seconds.
  double self_time(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans_)
      if (s.name == name) t += s.dur - s.child_time;
    return t;
  }

  /// Sum of durations over every closed span named `name`, in seconds.
  double total_time(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans_)
      if (s.name == name) t += s.dur;
    return t;
  }

  /// Writes every span as a Chrome trace "complete" event (ph "X", times in
  /// microseconds), loadable in chrome://tracing or Perfetto. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"spbc_bench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"self_us\":%.3f,\"parent\":%d}}",
                   i ? "," : "", s.name.c_str(), s.start * 1e6, s.dur * 1e6,
                   (s.dur - s.child_time) * 1e6, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double dur;
    int parent;
    double child_time;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Named metrics in insertion order. Names are [A-Za-z0-9_.-], units short
/// tokens such as `s`, `MB`, `1/s` or `count`.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back(Entry{name, value, unit});
  }

  /// One `name value unit` line per metric, values at full precision.
  std::string str() const {
    std::string out;
    char buf[64];
    for (const Entry& e : entries_) {
      std::snprintf(buf, sizeof(buf), " %.17g ", e.value);
      out += e.name + buf + e.unit + "\n";
    }
    return out;
  }

  /// Appends every entry of `other` (replacing same-named entries).
  void merge(const Metrics& other) {
    for (const Entry& e : other.entries_) add(e.name, e.value, e.unit);
  }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  /// Non-finite values are written as null. Returns false on I/O failure.
  bool write_json(const std::string& path, bool correct, uint64_t attempted,
                  uint64_t failed) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"metrics\": {",
                 correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "%s\n  \"%s\": {\"value\": ", i ? "," : "", e.name.c_str());
      if (std::isfinite(e.value))
        std::fprintf(f, "%.17g", e.value);
      else
        std::fprintf(f, "null");
      std::fprintf(f, ", \"unit\": \"%s\"}", e.unit.c_str());
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace spbc::benchm
