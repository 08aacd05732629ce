// Implementation of the shared benchmark pieces declared in
// bench_common.hpp.
#include "bench_common.hpp"

#include <dirent.h>
#include <sys/resource.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <cstring>
#include <fstream>

namespace perfbench {

bool same_bits(const epim::Tensor& a, const epim::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

namespace {

/// FNV-1a over raw bytes.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001B3ull;
    }
  }
  void add(const epim::Tensor& t) {
    add_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  void add(std::int64_t v) { add_bytes(&v, sizeof v); }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace

std::string reference_digest(const std::vector<epim::Tensor>& logits,
                             const std::vector<std::int64_t>& clips) {
  Digest d;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    d.add(logits[i]);
    d.add(clips[i]);
  }
  return d.hex();
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) fail("invalid metric name '" + name + "'");
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics[name] = Value{std::isfinite(value) ? value : 0.0, unit};
  note(name, value, unit);
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  table.emplace_back(name, Value{value, unit});
}

void Report::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

namespace {
double clock_ms(clockid_t c) {
  timespec ts{};
  clock_gettime(c, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}
}  // namespace

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

ThreadClocks::ThreadClocks() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* e = readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid <= 0) continue;
    // Linux encodes a thread's CPU clock as ~tid << 3 | PERTHREAD | SCHED
    // (the same id pthread_getcpuclockid returns for that thread).
    clocks_.push_back(
        static_cast<int>((~static_cast<unsigned>(tid) << 3) | 6u));
  }
  closedir(dir);
}

std::vector<double> ThreadClocks::read() const {
  std::vector<double> out;
  out.reserve(clocks_.size());
  for (const int c : clocks_) out.push_back(clock_ms(c));
  return out;
}

double ThreadClocks::busiest_ms(const std::vector<double>& before,
                                const std::vector<double>& after) {
  double most = 0.0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    most = std::max(most, after[i] - before[i]);
  }
  return most;
}

double ThreadClocks::total_ms(const std::vector<double>& before,
                              const std::vector<double>& after) {
  double sum = 0.0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    sum += after[i] - before[i];
  }
  return sum;
}

StealMeter::StealMeter() { ok_ = sample(steal0_, total0_); }

bool StealMeter::sample(std::uint64_t& steal, std::uint64_t& total) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return false;
  steal = total = 0;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return false;
    total += v;
    if (field == 7) steal = v;
  }
  return true;
}

double StealMeter::share() const {
  std::uint64_t steal = 0, total = 0;
  if (!ok_ || !sample(steal, total) || total <= total0_) return 0.0;
  return static_cast<double>(steal - steal0_) /
         static_cast<double>(total - total0_);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int live_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"serve.queue_wait_ms.interactive.p50", "ms"},
      {"serve.queue_wait_ms.interactive.p99", "ms"},
      {"serve.queue_wait_ms.bulk.p50", "ms"},
      {"serve.queue_wait_ms.bulk.p99", "ms"},
      {"serve.handoff_ms.p50", "ms"},
      {"serve.run_ms.p50", "ms"},
      {"serve.run_ms.p99", "ms"},
      {"serve.fulfil_ms.p50", "ms"},
      {"serve.batch_size.mean", "count"},
      {"serve.worker_busy_ratio", "ratio"},
      {"serve.gen_lag_ms.p99", "ms"},
      {"registry.submit_us.p50", "us"},
      {"registry.submit_us.p99", "us"},
      {"registry.materialize_ms", "ms"},
      {"artifact.save_ms", "ms"},
      {"artifact.load_ms", "ms"},
      {"setup.train_s", "s"},
      {"runtime.forward_ms_per_image", "ms"},
      {"runtime.other_ms", "ms"},
      {"datapath.block1_ms", "ms"},
      {"datapath.block2_ms", "ms"},
      {"datapath.block3_ms", "ms"},
      {"pim.mvm_ns.block1", "ns"},
      {"pim.mvm_ns.block2", "ns"},
      {"pim.mvm_ns.block3", "ns"},
      {"pim.mvm_calls_per_image", "count"},
      {"pim.mvm_share", "ratio"},
      {"pipeline.compile_ms", "ms"},
      {"estimator.eval_network_us", "us"},
      {"search.iteration_ms", "ms"},
      {"trace.unaccounted_share", "ratio"},
      {"trace.spans_lost", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"e2e.wall_items_per_s", "1/s"},
      {"e2e.latency_p50_ms", "ms"},
      {"e2e.latency_tail_ms", "ms"},
      {"e2e.bulk_p50_ms", "ms"},
      {"e2e.bulk_p99_ms", "ms"},
      {"e2e.slo_miss_ratio", "ratio"},
      {"e2e.fail_ratio", "ratio"},
      {"host.steal_share", "ratio"},
  };
  return names;
}

void zero_fill_per_layer(Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (report.metrics.count(name) == 0) {
      report.metrics[name] = Report::Value{0.0, unit};
    }
  }
}

}  // namespace perfbench
