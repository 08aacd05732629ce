// Shared pieces of the EPIM benchmark: clocks, nearest-rank percentiles,
// the seeded arrival schedule, the benchmark's own span log, the metric
// report and the result line every workload prints.
//
// Everything here is measured from OUTSIDE the library: the benchmark times
// calls into each layer's public functions and never reaches into src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------- percentiles ---

/// Rank (1-based) of the nearest-rank q-th percentile of n samples:
/// ceil(q/100 * n), clamped to [1, n]. n must be positive.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(
      std::clamp(r, 1.0, static_cast<double>(n)));
}

/// Samples strictly above the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail estimate rests on a handful of points.
inline constexpr std::size_t kMinSamplesBeyond = 10;

inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank q-th percentile; 0 for an empty sample (no work, no time).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------- arrival schedule ---

/// splitmix64: a tiny, fully specified generator, so the arrival schedule
/// is a function of the seed alone (no dependence on the standard library's
/// distribution implementations).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

struct Arrival {
  double at_s = 0.0;   ///< due time, seconds from the start of the loop
  bool bulk = false;   ///< a kBulk burst (else one kInteractive request)
  std::vector<int> images;  ///< indices into the workload's image pool
};

struct ScheduleSpec {
  double seconds = 10.0;
  double interactive_per_s = 200.0;  ///< single kInteractive requests
  double bulk_bursts_per_s = 20.0;   ///< kBulk submit_batch bursts
  int burst = 16;                    ///< images per bulk burst
  int pool = 128;                    ///< images to draw from
};

/// Open-loop arrival schedule: two Poisson streams merged in due order.
/// Each stream holds exactly round(rate * seconds) arrivals placed
/// uniformly at random -- a Poisson process conditioned on its count -- so
/// the offered load is the same for every seed and only the placement of
/// arrivals (and so their collisions) changes with it.
inline std::vector<Arrival> make_schedule(const ScheduleSpec& spec,
                                          std::uint64_t seed) {
  SplitMix64 rng(seed * 0x2545F4914F6CDD1Dull + 0x5EED);
  std::vector<Arrival> out;
  const auto add_stream = [&](double rate, bool bulk) {
    const auto n = static_cast<std::int64_t>(std::llround(rate * spec.seconds));
    for (std::int64_t i = 0; i < n; ++i) {
      Arrival a;
      a.at_s = rng.uniform() * spec.seconds;
      a.bulk = bulk;
      const int count = bulk ? spec.burst : 1;
      for (int k = 0; k < count; ++k) {
        a.images.push_back(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(spec.pool))));
      }
      out.push_back(std::move(a));
    }
  };
  add_stream(spec.interactive_per_s, false);
  add_stream(spec.bulk_bursts_per_s, true);
  std::stable_sort(out.begin(), out.end(), [](const Arrival& a,
                                              const Arrival& b) {
    return a.at_s < b.at_s;
  });
  return out;
}

/// Seeded choice of `count` distinct indices from [0, pool), in seeded order.
inline std::vector<int> choose_distinct(int pool, int count,
                                        std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
  std::vector<int> idx(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = pool - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(i) + 1));
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  idx.resize(static_cast<std::size_t>(std::min(count, pool)));
  return idx;
}

// ------------------------------------------------------------- digests ---

/// FNV-1a digest over the bits of reference logits and their clip counts,
/// in order: pins the logits bit for bit.
std::string reference_digest(const std::vector<epim::Tensor>& logits,
                             const std::vector<std::int64_t>& clips);

/// Bit-for-bit tensor equality (shape and every float's bits).
bool same_bits(const epim::Tensor& a, const epim::Tensor& b);

/// Exact decimal rendering of a double for pins ("%.17g").
std::string exact(double v);

// ------------------------------------------------------------ CPU time ---
//
// On a shared virtual machine the hypervisor can take ("steal") CPU from the
// guest in bursts lasting minutes. Wall-clock rates of compute-bound work
// then swing by a third between runs, while the CPU time a thread actually
// receives excludes stolen time. The bounded end-to-end figures are
// therefore taken on CPU clocks (or, for the open loop, are rates the
// schedule fixes); wall-clock figures are still measured and reported next
// to the stolen share of the machine's CPU time.

/// CPU time of the whole process, in ms.
double process_cpu_ms();

/// CPU time of the calling thread, in ms.
double thread_cpu_ms();

/// CPU clocks of every thread of this process, for critical-path timing:
/// the busiest thread's CPU time over a parallel call is what the call
/// would take on CPUs nobody else uses.
class ThreadClocks {
 public:
  /// Enumerates the process's threads now (start pools first).
  ThreadClocks();
  /// CPU ms of every enumerated thread.
  std::vector<double> read() const;
  /// Largest per-thread CPU increase between two read()s.
  static double busiest_ms(const std::vector<double>& before,
                           const std::vector<double>& after);
  /// Sum of the per-thread CPU increases between two read()s.
  static double total_ms(const std::vector<double>& before,
                         const std::vector<double>& after);

 private:
  std::vector<int> clocks_;  ///< clockid_t of each thread
};

/// Share of the machine's CPU time the hypervisor stole between two
/// samples of /proc/stat (0 when unavailable).
class StealMeter {
 public:
  StealMeter();
  double share() const;

 private:
  static bool sample(std::uint64_t& steal, std::uint64_t& total);
  std::uint64_t steal0_ = 0, total0_ = 0;
  bool ok_ = false;
};

// ------------------------------------------------------------ span log ---

/// The benchmark's own spans, recorded around calls into the library's
/// layers. Kept in memory; aggregated into per-layer metrics at the end.
struct Span {
  int layer = 0;      ///< caller-defined layer index
  double t0_ms = 0;   ///< steady clock, ms since the log's epoch
  double t1_ms = 0;
  double ms() const { return t1_ms - t0_ms; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }
  double now_ms() const { return ms_between(epoch_, Clock::now()); }
  void add(int layer, double t0_ms, double t1_ms) {
    spans_.push_back(Span{layer, t0_ms, t1_ms});
  }
  /// Durations of every span of one layer, in record order.
  std::vector<double> durations(int layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.layer == layer) out.push_back(s.ms());
    }
    return out;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- report ---

/// Metric names follow `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters long.
bool valid_metric_name(const std::string& name);

/// What a workload run produces. `metrics` holds the JSON-line metrics (the
/// end-to-end set untraced, the per-layer set traced); `table` holds every
/// figure the run measured, printed by name and unit for a reader,
/// including the workload-specific ones the JSON line does not carry.
struct Report {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Value> metrics;
  std::vector<std::pair<std::string, Value>> table;
  std::map<std::string, std::string> pins;  ///< exact simulated statistics
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
  void pin(const std::string& name, const std::string& value) {
    pins[name] = value;
  }
  void pin(const std::string& name, std::int64_t value) {
    pins[name] = std::to_string(value);
  }
  void fail(const std::string& why);
};

/// The run's settings, shared by every workload.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for artifacts
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Live threads of this process (from /proc/self/status), 0 if unknown.
int live_threads();

/// The per-layer metric names every traced run reports, in order. Layers a
/// workload bypasses report zero work (0) for theirs. The "e2e." entries
/// are wall-clock end-to-end figures from the untraced half of the traced
/// run: too exposed to stolen CPU time to carry a bound.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Set every per-layer metric the workload did not measure to 0.
void zero_fill_per_layer(Report& report);

// Workloads. Each sets up (several times, reporting the median set-up
// time), measures for args.seconds and checks its outputs.
void run_serve_mixed(const RunArgs& args, Report& report);
void run_infer_offline(const RunArgs& args, Report& report);
void run_design_search(const RunArgs& args, Report& report);

}  // namespace perfbench
