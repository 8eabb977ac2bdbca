// Lightweight run-metrics registry: named counters, accumulated timers,
// log2-bucketed histograms and (x, y) series, collected process-wide and
// dumped as JSON (`wbist --metrics-json`, `wbist_bench`).
//
// Design constraints, in order:
//   1. Observation only. Nothing in this module feeds back into any
//      computation, so an instrumented run is bit-identical to an
//      uninstrumented one by construction.
//   2. Negligible overhead. Hot paths accumulate locally and flush once per
//      call (one relaxed atomic add per metric per fault-simulation run, not
//      per event); registry lookups happen per run, never per cycle.
//   3. Stable references. counter()/timer()/... return references that stay
//      valid for the registry's lifetime — reset() zeroes values in place and
//      never destroys entries, so cached references survive a reset (the
//      bench harness resets the global registry between circuits).
//
// Thread-safety: value updates are atomic (Series/Histogram bucket appends
// take a short mutex); find-or-create takes the registry mutex.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wbist::util {

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Accumulated wall time plus the number of contributing intervals.
class TimerStat {
 public:
  void add_seconds(double s) {
    nanos_.fetch_add(static_cast<std::uint64_t>(s * 1e9),
                     std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() {
    nanos_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Power-of-two histogram: record(v) lands in bucket bit_width(v), i.e.
/// bucket k counts samples in [2^(k-1), 2^k) (bucket 0 counts v == 0).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::array<std::uint64_t, kBuckets> buckets() const;

  /// Quantile estimate (q in [0, 1]) from the log2 buckets, linearly
  /// interpolated inside the containing bucket's [2^(k-1), 2^k) range.
  /// Returns 0 for an empty histogram; the result is clamped to max(), so
  /// quantile(1.0) is the exact observed maximum.
  double quantile(double q) const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Append-only (x, y) series — e.g. coverage over elapsed seconds. Points
/// are appended rarely (once per kept weight assignment), so a mutex is fine.
///
/// Growth is bounded: a series holds at most kMaxPoints points. When a push
/// would exceed the bound the series is decimated by 2 (every second point
/// is dropped) before the new point is appended, so long campaigns keep a
/// progressively coarser but bounded curve. The first point ever pushed and
/// the most recent push always survive decimation.
class Series {
 public:
  static constexpr std::size_t kMaxPoints = 4096;

  void push(double x, double y);
  std::vector<std::pair<double, double>> snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> points_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry the library instrumentation writes to.
  static MetricsRegistry& global();

  /// Find-or-create. References remain valid for the registry's lifetime,
  /// across reset() calls included.
  Counter& counter(std::string_view name);
  TimerStat& timer(std::string_view name);
  Histogram& histogram(std::string_view name);
  Series& series(std::string_view name);

  /// Set a string-valued annotation (e.g. the evaluation kernel).
  /// Last write wins; labels are cleared by reset().
  void set_label(std::string_view name, std::string_view value);

  /// Point-in-time snapshots for exporters (the serve `stats` job). The
  /// Histogram pointers stay valid for the registry's lifetime, like the
  /// references handed out by histogram().
  std::map<std::string, std::uint64_t> counter_values() const;
  std::vector<std::pair<std::string, const Histogram*>> histogram_entries()
      const;

  /// Zero every metric in place (entries and references survive).
  void reset();

  /// Stable JSON snapshot: keys sorted, fixed shape
  /// {"schema":"wbist.metrics/1","counters":{...},"timers":{...},
  ///  "histograms":{...},"series":{...},"labels":{...}}.
  std::string to_json() const;
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<TimerStat>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
  std::map<std::string, std::string, std::less<>> labels_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

/// RAII phase scope: adds the enclosed wall time to `registry.timer(name)`.
class PhaseScope {
 public:
  explicit PhaseScope(std::string_view name,
                      MetricsRegistry& registry = MetricsRegistry::global())
      : timer_(&registry.timer(name)),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseScope() {
    timer_->add_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TimerStat* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wbist::util
