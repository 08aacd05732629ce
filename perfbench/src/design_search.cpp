// design_search: Pipeline::compile(resnet50()) followed by
// CompiledModel::search() at a compute pool of 2 threads, with the
// design_space_exploration example's settings: population 40, 25
// iterations, 10 parents, a crossbar budget of 60% of the uniform design,
// wrap_output candidates and the latency objective. That is 1000 candidates
// per search. It runs only the estimator and the search -- no crossbar
// simulation -- so it bypasses runtime, datapath, pim, registry and serve.
//
// The search seed is fixed, so every search must find the same design; the
// run's seed does not change this workload's inputs.
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "nn/resnet.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr int kPoolThreads = 2;
constexpr double kTailPercentile = 95.0;

struct Outcome {
  std::int64_t evaluations = 0;
  std::int64_t crossbars = 0;
  double latency_ms = 0, energy_mj = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome(const epim::EvoSearchResult& r) {
  return Outcome{r.evaluations, r.best_cost.num_crossbars,
                 r.best_cost.latency_ms, r.best_cost.energy_mj()};
}

struct Setup {
  epim::Network net;
  std::unique_ptr<epim::Pipeline> pipeline;
  epim::NetworkCost uniform;
  /// The reference search: the design every timed search must find.
  Outcome want;
  double cpu_s = 0;  ///< process CPU time of the whole set-up
  double wall_s = 0;
};

std::unique_ptr<Setup> set_up() {
  const auto t0 = Clock::now();
  const double c0 = process_cpu_ms();
  auto s = std::make_unique<Setup>(
      Setup{epim::resnet50(), nullptr, {}, {}, 0, 0});
  const epim::PipelineConfig base_cfg;
  const epim::Pipeline base(base_cfg);
  const epim::CompiledModel uniform = base.compile(s->net);
  s->uniform =
      base.estimator().eval_network(uniform.assignment(), uniform.precision());

  epim::PipelineConfig cfg;
  cfg.search.enabled = true;
  cfg.search.evo.population = 40;
  cfg.search.evo.iterations = 25;
  cfg.search.evo.parents = 10;
  cfg.search.evo.crossbar_budget = s->uniform.num_crossbars * 6 / 10;
  cfg.search.evo.candidates.wrap_output = true;
  cfg.search.evo.objective = epim::SearchObjective::kLatency;
  s->pipeline = std::make_unique<epim::Pipeline>(cfg);
  epim::CompiledModel model = s->pipeline->compile(s->net);
  s->want = outcome(model.search());
  s->cpu_s = (process_cpu_ms() - c0) * 1e-3;
  s->wall_s = seconds_since(t0);
  return s;
}

struct LoopStats {
  std::vector<double> wall_ms;     ///< per compile + search
  std::vector<double> cpu_ms;      ///< per op, busiest thread's CPU time
  std::vector<double> total_cpu_ms;  ///< per op, all threads' CPU time
  std::vector<double> compile_ms;  ///< busiest thread's CPU time
  std::vector<double> search_ms;   ///< busiest thread's CPU time
  std::int64_t candidates = 0, mismatches = 0;
  double candidates_per_s = 0;       ///< from the median busiest-thread CPU
  double wall_candidates_per_s = 0;  ///< from the median wall time
  double wall_loop_ms = 0;           ///< the whole loop, checks included
  double steal_share = 0;
};

/// Closed loop of compile + search for `seconds`. `spans` (when non-null)
/// receives a "pipeline" span (layer 0) around compile and a "search" span
/// (layer 1) around search.
LoopStats run_loop(const Setup& s, double seconds, SpanLog* spans) {
  LoopStats st;
  const ThreadClocks threads;
  const StealMeter steal;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const double s0 = spans != nullptr ? spans->now_ms() : 0.0;
    const std::vector<double> c0 = threads.read();
    const auto t0 = Clock::now();
    epim::CompiledModel model = s.pipeline->compile(s.net);
    const std::vector<double> c1 = threads.read();
    const double s1 = spans != nullptr ? spans->now_ms() : 0.0;
    const epim::EvoSearchResult r = model.search();
    const std::vector<double> c2 = threads.read();
    st.wall_ms.push_back(ms_between(t0, Clock::now()));
    if (spans != nullptr) {
      spans->add(0, s0, s1);
      spans->add(1, s1, spans->now_ms());
    }
    st.compile_ms.push_back(ThreadClocks::busiest_ms(c0, c1));
    st.search_ms.push_back(ThreadClocks::busiest_ms(c1, c2));
    st.cpu_ms.push_back(ThreadClocks::busiest_ms(c0, c2));
    st.total_cpu_ms.push_back(ThreadClocks::total_ms(c0, c2));
    st.candidates += r.evaluations;
    if (outcome(r) != s.want) ++st.mismatches;
  }
  st.wall_loop_ms = ms_between(start, Clock::now());
  st.steal_share = steal.share();
  const auto n = static_cast<double>(s.want.evaluations);
  st.candidates_per_s = n / (median(st.cpu_ms) * 1e-3);
  st.wall_candidates_per_s = n / (median(st.wall_ms) * 1e-3);
  return st;
}

void check_loop(const LoopStats& st, Report& report) {
  report.attempted += st.candidates;
  if (st.mismatches > 0) {
    report.fail(std::to_string(st.mismatches) +
                " searches found a different design than the first");
  }
}

}  // namespace

void run_design_search(const RunArgs& args, Report& report) {
  epim::set_num_threads(kPoolThreads);
  std::unique_ptr<Setup> s;
  std::vector<double> cpu_s, wall_s;
  for (int k = 0; k < kSetups; ++k) {
    const Outcome previous = s ? s->want : Outcome{};
    s.reset();
    s = set_up();
    cpu_s.push_back(s->cpu_s);
    wall_s.push_back(s->wall_s);
    if (k > 0 && s->want != previous) {
      report.fail("set-up is not deterministic");
    }
  }
  report.pin("search.uniform_crossbars", s->uniform.num_crossbars);
  report.pin("search.uniform_latency_ms", exact(s->uniform.latency_ms));
  report.pin("search.uniform_energy_mj", exact(s->uniform.energy_mj()));
  report.pin("search.crossbar_budget",
             s->pipeline->config().search.evo.crossbar_budget);
  report.pin("search.evaluations", s->want.evaluations);
  report.pin("search.best_crossbars", s->want.crossbars);
  report.pin("search.best_latency_ms", exact(s->want.latency_ms));
  report.pin("search.best_energy_mj", exact(s->want.energy_mj));

  if (!args.trace) {
    const LoopStats st = run_loop(*s, args.seconds, nullptr);
    check_loop(st, report);
    report.metric("throughput_per_s", st.candidates_per_s, "1/s");
    report.metric("cpu_ms_per_item",
                  median(st.total_cpu_ms) /
                      static_cast<double>(s->want.evaluations),
                  "ms");
    report.metric("setup_s", median(cpu_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("candidates_per_s", st.candidates_per_s, "1/s");
    report.note("wall_candidates_per_s", st.wall_candidates_per_s, "1/s");
    report.note("op_cpu_ms.p50", percentile(st.cpu_ms, 50), "ms");
    report.note("op_wall_ms.p50", percentile(st.wall_ms, 50), "ms");
    report.note("op_wall_ms.p95", percentile(st.wall_ms, kTailPercentile),
                "ms");
    report.note("searches", static_cast<double>(st.wall_ms.size()), "count");
    report.note("setup_wall_s", median(wall_s), "s");
    report.note("host.steal_share", st.steal_share, "ratio");
    report.note("host.threads_live", live_threads(), "count");
    report.note("host.pool_threads", epim::num_threads(), "count");
    return;
  }

  // Traced run: half untraced, half traced (compile and search spans).
  const LoopStats plain = run_loop(*s, args.seconds / 2, nullptr);
  check_loop(plain, report);
  report.metric("e2e.wall_items_per_s", plain.wall_candidates_per_s, "1/s");
  report.metric("e2e.latency_p50_ms", percentile(plain.wall_ms, 50), "ms");
  report.metric("e2e.latency_tail_ms",
                percentile(plain.wall_ms, kTailPercentile), "ms");
  report.metric("host.steal_share", plain.steal_share, "ratio");
  SpanLog spans;
  const LoopStats traced = run_loop(*s, args.seconds / 2, &spans);
  check_loop(traced, report);
  report.metric("trace.overhead_ratio",
                plain.candidates_per_s / traced.candidates_per_s, "ratio");
  report.metric("trace.spans_lost", 0.0, "count");
  const double search_ms = median(traced.search_ms);
  report.metric("pipeline.compile_ms", median(traced.compile_ms), "ms");
  report.metric("search.iteration_ms",
                search_ms / s->pipeline->config().search.evo.iterations, "ms");
  // Share of the traced loop's wall time outside the compile/search spans.
  double spanned = 0;
  for (const Span& sp : spans.spans()) spanned += sp.ms();
  report.metric("trace.unaccounted_share", 1.0 - spanned / traced.wall_loop_ms,
                "ratio");

  // One estimator evaluation of the uniform design, on this thread's clock.
  const epim::PipelineConfig base_cfg;
  const epim::CompiledModel uniform = epim::Pipeline(base_cfg).compile(s->net);
  const epim::PimEstimator& est = s->pipeline->estimator();
  std::vector<double> eval_us;
  constexpr int kCalls = 50;
  for (int rep = 0; rep < 7; ++rep) {
    const double c0 = thread_cpu_ms();
    for (int i = 0; i < kCalls; ++i) {
      const epim::NetworkCost c =
          est.eval_network(uniform.assignment(), uniform.precision());
      if (c.num_crossbars != s->uniform.num_crossbars) {
        report.fail("estimator is not deterministic");
      }
    }
    eval_us.push_back((thread_cpu_ms() - c0) * 1e3 / kCalls);
  }
  const double eval_network_us = median(eval_us);
  report.metric("estimator.eval_network_us", eval_network_us, "us");
  report.note("search.estimator_share",
              static_cast<double>(s->want.evaluations) * eval_network_us *
                  1e-3 / (search_ms * kPoolThreads),
              "ratio");
}

}  // namespace perfbench
