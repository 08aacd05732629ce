// EPIM benchmark binary. Usually started through perfbench/run.py,
// which builds it, checks its pinned statistics and prints the final result
// line. Direct use:
//
//   perfbench --workload serve_mixed|infer_offline|design_search
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints a host/build record, a table of every measured figure (name,
// value, unit) and, last, one JSON line with correct/attempted/failed, the
// metrics of the run (end-to-end untraced, per-layer traced) and the pins.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "common/build_info.hpp"
#include "common/parallel.hpp"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void print_result(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  bool first = true;
  for (const auto& [name, v] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
  std::printf("}, \"pins\": {");
  first = true;
  for (const auto& [name, v] : r.pins) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(),
                json_escape(v).c_str());
    first = false;
  }
  std::printf("}, \"errors\": [");
  first = true;
  for (const std::string& e : r.errors) {
    std::printf("%s\"%s\"", first ? "" : ", ", json_escape(e).c_str());
    first = false;
  }
  std::printf("]}\n");
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  in >> one;
  return one;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_mixed|infer_offline|design_search --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  if (argc % 2 == 0) return usage("arguments come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--workdir") {
      args.workdir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workdir.empty()) return usage("--workdir is required");
  if (!(args.seconds >= 1.0 && args.seconds <= 120.0)) {
    return usage("--seconds must lie in [1, 120]");
  }

  // Host and build record.
  const std::string flavor = epim::build_flavor();
  std::printf("# host: cpus=%u loadavg_1m=%.2f build=%s lock_debug=%d\n",
              std::thread::hardware_concurrency(), load_average(),
              flavor.c_str(), epim::kLockDebugBuild ? 1 : 0);
  if (!args.trace && (flavor != "release" || epim::kLockDebugBuild)) {
    std::fprintf(stderr,
                 "perfbench: refusing to report end-to-end numbers from a "
                 "'%s'%s build; build Release without EPIM_LOCK_DEBUG\n",
                 flavor.c_str(), epim::kLockDebugBuild ? " lockdep" : "");
    return 5;
  }

  Report report;
  if (args.workload == "serve_mixed") {
    run_serve_mixed(args, report);
  } else if (args.workload == "infer_offline") {
    run_infer_offline(args, report);
  } else if (args.workload == "design_search") {
    run_design_search(args, report);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace) zero_fill_per_layer(report);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d "
              "pool_threads=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, epim::num_threads());
  for (const auto& [name, v] : report.table) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stdout);
  print_result(report);
  return 0;
}
