// Unit tests of the benchmark's own arithmetic: nearest-rank percentiles
// and the "ten samples beyond" rule, seed-determinism of the open-loop
// arrival schedule, and the metric-name grammar. Run with
//
//   .bench_build/perfbench/perfbench_tests
//
// (perfbench/run.py --self-test builds and runs it). Exits non-zero on the
// first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "test_perfbench.cpp:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void test_nearest_rank() {
  // 1..100: the q-th percentile is q itself.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 99) == 99);
  EXPECT(percentile(v, 100) == 100);
  EXPECT(percentile(v, 0) == 1);
  // Nearest rank rounds the rank up: n = 10, p50 -> rank 5, p51 -> rank 6.
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT(percentile(ten, 50) == 5);
  EXPECT(percentile(ten, 51) == 6);
  EXPECT(percentile(ten, 90) == 9);
  EXPECT(percentile(ten, 91) == 10);
  EXPECT(percentile({7.5}, 99) == 7.5);
  EXPECT(percentile({}, 50) == 0);
  EXPECT(median({3, 1, 2}) == 2);
  // Exact ranks must not be pushed up by floating-point noise.
  EXPECT(nearest_rank(1000, 99) == 990);
  EXPECT(nearest_rank(300, 99) == 297);
}

void test_samples_beyond() {
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(percentile_supported(1000, 99));
  EXPECT(!percentile_supported(999, 99));  // rank 990, only 9 beyond
  EXPECT(samples_beyond(100, 90) == 10);
  EXPECT(percentile_supported(100, 90));
  EXPECT(!percentile_supported(99, 90));
  EXPECT(percentile_supported(40, 75));
  EXPECT(!percentile_supported(39, 75));
  EXPECT(!percentile_supported(0, 50));
  EXPECT(samples_beyond(0, 50) == 0);
}

void test_schedule_determinism() {
  ScheduleSpec spec;
  spec.seconds = 5;
  const std::vector<Arrival> a = make_schedule(spec, 7);
  const std::vector<Arrival> b = make_schedule(spec, 7);
  const std::vector<Arrival> c = make_schedule(spec, 8);
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_s == b[i].at_s && a[i].bulk == b[i].bulk &&
           a[i].images == b[i].images;
  }
  EXPECT(same);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_s != c[i].at_s || a[i].images != c[i].images;
  }
  EXPECT(differs);
  // The offered load is fixed: exact counts per class, for every seed.
  for (std::uint64_t seed : {1u, 2u, 99u}) {
    const std::vector<Arrival> s = make_schedule(spec, seed);
    std::size_t interactive = 0, bursts = 0;
    bool sorted = true, in_range = true, pool_ok = true;
    for (std::size_t i = 0; i < s.size(); ++i) {
      (s[i].bulk ? bursts : interactive) += 1;
      sorted = sorted && (i == 0 || s[i - 1].at_s <= s[i].at_s);
      in_range = in_range && s[i].at_s >= 0 && s[i].at_s < spec.seconds;
      pool_ok = pool_ok && s[i].images.size() ==
                               static_cast<std::size_t>(
                                   s[i].bulk ? spec.burst : 1);
      for (int idx : s[i].images) {
        pool_ok = pool_ok && idx >= 0 && idx < spec.pool;
      }
    }
    EXPECT(interactive == 1000);
    EXPECT(bursts == 100);
    EXPECT(sorted);
    EXPECT(in_range);
    EXPECT(pool_ok);
  }
}

void test_choose_distinct() {
  const std::vector<int> a = choose_distinct(128, 64, 3);
  EXPECT(a == choose_distinct(128, 64, 3));
  EXPECT(a != choose_distinct(128, 64, 4));
  EXPECT(std::set<int>(a.begin(), a.end()).size() == 64);
}

void test_metric_names() {
  EXPECT(valid_metric_name("latency_p50_ms"));
  EXPECT(valid_metric_name("serve.queue_wait_ms.interactive.p99"));
  EXPECT(valid_metric_name("pim.mvm_ns.block1"));
  EXPECT(valid_metric_name("a-b_c.d9"));
  EXPECT(valid_metric_name("9lives"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name(".hidden"));
  EXPECT(!valid_metric_name("_x"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/name"));
  EXPECT(!valid_metric_name("quote\"name"));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  std::set<std::string> seen;
  for (const auto& [name, unit] : per_layer_metrics()) {
    EXPECT(valid_metric_name(name));
    EXPECT(seen.insert(name).second);
    EXPECT(!unit.empty() && unit.size() <= 16);
  }
}

}  // namespace

int main() {
  test_nearest_rank();
  test_samples_beyond();
  test_schedule_determinism();
  test_choose_distinct();
  test_metric_names();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
