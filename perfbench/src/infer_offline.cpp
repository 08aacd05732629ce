// infer_offline: a closed loop in which one caller runs
// DeployedModel::forward_batch over a fixed 64-image batch of 16x16 inputs
// (the default SmallNet geometry) at a compute pool of 2 threads.
//
// The work is all runtime / datapath / pim compute; registry and serve are
// bypassed, so a serving-only change should move nothing here. The seed
// picks which 64 of the 128 pooled test images form the batch, and in what
// order.
#include <numeric>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "layer_probe.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using epim::Tensor;

constexpr int kPool = 128;
constexpr int kBatch = 64;
constexpr int kSetups = 3;
constexpr int kPoolThreads = 2;
/// Fixed percentile of call latency reported as the tail: the largest that
/// keeps at least ten samples beyond it at this workload's call rate (about
/// 90 calls in 20 s).
constexpr double kTailPercentile = 75.0;

struct Setup {
  epim::SyntheticData data;
  std::unique_ptr<epim::SmallEpitomeNet> net;
  std::unique_ptr<epim::DeployedModel> chip;
  std::vector<Tensor> pool;
  std::vector<Tensor> reference;
  std::vector<std::int64_t> reference_clips;
  std::string digest;
  double cpu_s = 0;    ///< process CPU time of the whole set-up
  double wall_s = 0;
  double train_s = 0;  ///< process CPU time of training
};

std::unique_ptr<Setup> set_up(Report& report) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  const double c0 = process_cpu_ms();
  epim::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.train_per_class = 12;
  dspec.test_per_class = kPool / 4;
  s->data = epim::make_synthetic_data(dspec);
  epim::SmallNetConfig nc;
  nc.num_classes = 4;
  s->net = std::make_unique<epim::SmallEpitomeNet>(nc);
  epim::TrainConfig tcfg;
  tcfg.epochs = 2;
  const double c_train = process_cpu_ms();
  epim::train_model(*s->net, s->data, tcfg);
  s->train_s = (process_cpu_ms() - c_train) * 1e-3;
  const epim::PipelineConfig cfg;
  s->chip = std::make_unique<epim::DeployedModel>(
      epim::Pipeline(cfg).deploy(*s->net, s->data.train));
  for (std::int64_t i = 0; i < s->data.test.size(); ++i) {
    s->pool.push_back(s->data.test.sample(i));
  }
  s->reference = s->chip->forward_batch(s->pool, &s->reference_clips);
  s->cpu_s = (process_cpu_ms() - c0) * 1e-3;
  s->wall_s = seconds_since(t0);

  s->digest = reference_digest(s->reference, s->reference_clips);
  report.pin("offline.logits_digest", s->digest);
  report.pin("offline.clip_sum",
             std::accumulate(s->reference_clips.begin(),
                             s->reference_clips.end(), std::int64_t{0}));
  return s;
}

struct LoopStats {
  std::vector<double> wall_ms;  ///< per call
  std::vector<double> cpu_ms;   ///< per call, busiest thread's CPU time
  std::vector<double> total_cpu_ms;  ///< per call, all threads' CPU time
  std::int64_t images = 0, wrong = 0;
  double images_per_s = 0;       ///< from the median busiest-thread CPU
  double wall_images_per_s = 0;  ///< from the median wall time
  double steal_share = 0;
};

/// Closed loop for `seconds`: one forward_batch after another, each checked
/// bit for bit against the set-up reference. `spans` (when non-null)
/// receives one "runtime" span (layer 0) per call.
LoopStats run_loop(const Setup& s, const std::vector<Tensor>& batch,
                   const std::vector<int>& idx, double seconds,
                   SpanLog* spans) {
  LoopStats st;
  std::vector<std::int64_t> clips;
  const ThreadClocks threads;  // the caller and the pool's workers
  const StealMeter steal;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const double s0 = spans != nullptr ? spans->now_ms() : 0.0;
    const std::vector<double> c0 = threads.read();
    const auto t0 = Clock::now();
    const std::vector<Tensor> logits = s.chip->forward_batch(batch, &clips);
    st.wall_ms.push_back(ms_between(t0, Clock::now()));
    const std::vector<double> c1 = threads.read();
    st.cpu_ms.push_back(ThreadClocks::busiest_ms(c0, c1));
    st.total_cpu_ms.push_back(ThreadClocks::total_ms(c0, c1));
    if (spans != nullptr) spans->add(0, s0, spans->now_ms());
    st.images += static_cast<std::int64_t>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto j = static_cast<std::size_t>(idx[i]);
      if (!same_bits(logits[i], s.reference[j]) ||
          clips[i] != s.reference_clips[j]) {
        ++st.wrong;
      }
    }
  }
  st.steal_share = steal.share();
  const auto n = static_cast<double>(batch.size());
  st.images_per_s = n / (median(st.cpu_ms) * 1e-3);
  st.wall_images_per_s = n / (median(st.wall_ms) * 1e-3);
  return st;
}

void check_loop(const LoopStats& st, Report& report) {
  report.attempted += st.images;
  if (st.wrong > 0) {
    report.fail(std::to_string(st.wrong) +
                " logits or clip counts differ from the reference");
  }
}

}  // namespace

void run_infer_offline(const RunArgs& args, Report& report) {
  epim::set_num_threads(kPoolThreads);
  std::unique_ptr<Setup> s;
  std::vector<double> cpu_s, wall_s, train_s;
  std::string digest;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();
    s = set_up(report);
    cpu_s.push_back(s->cpu_s);
    wall_s.push_back(s->wall_s);
    train_s.push_back(s->train_s);
    if (k == 0) digest = s->digest;
    if (s->digest != digest) report.fail("set-up is not deterministic");
  }
  const epim::PipelineConfig cfg;
  const epim::Pipeline pipeline(cfg);
  const DeployedUnderTest model{s->net.get(), &s->data.train, s->chip.get(),
                                &pipeline.estimator()};
  pin_simulated_stats(model, report);

  const std::vector<int> idx = choose_distinct(kPool, kBatch, args.seed);
  std::vector<Tensor> batch;
  std::vector<Tensor> reference;
  for (const int i : idx) {
    batch.push_back(s->pool[static_cast<std::size_t>(i)]);
    reference.push_back(s->reference[static_cast<std::size_t>(i)]);
  }
  (void)s->chip->forward_batch(batch);  // warm caches and start the pool

  if (!args.trace) {
    const LoopStats st = run_loop(*s, batch, idx, args.seconds, nullptr);
    check_loop(st, report);
    report.metric("throughput_per_s", st.images_per_s, "1/s");
    report.metric("cpu_ms_per_item",
                  median(st.total_cpu_ms) / static_cast<double>(batch.size()),
                  "ms");
    report.metric("setup_s", median(cpu_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("images_per_s", st.images_per_s, "1/s");
    report.note("wall_images_per_s", st.wall_images_per_s, "1/s");
    report.note("call_cpu_ms.p50", percentile(st.cpu_ms, 50), "ms");
    report.note("call_wall_ms.p50", percentile(st.wall_ms, 50), "ms");
    report.note("call_wall_ms.p75", percentile(st.wall_ms, kTailPercentile),
                "ms");
    report.note("calls", static_cast<double>(st.wall_ms.size()), "count");
    report.note("setup_wall_s", median(wall_s), "s");
    report.note("host.steal_share", st.steal_share, "ratio");
    report.note("host.threads_live", live_threads(), "count");
    report.note("host.pool_threads", epim::num_threads(), "count");
    return;
  }

  // Traced run: half untraced, half with a span around every call.
  const LoopStats plain = run_loop(*s, batch, idx, args.seconds / 2, nullptr);
  check_loop(plain, report);
  report.metric("e2e.wall_items_per_s", plain.wall_images_per_s, "1/s");
  report.metric("e2e.latency_p50_ms", percentile(plain.wall_ms, 50), "ms");
  report.metric("e2e.latency_tail_ms",
                percentile(plain.wall_ms, kTailPercentile), "ms");
  report.metric("host.steal_share", plain.steal_share, "ratio");
  SpanLog spans;
  const LoopStats traced = run_loop(*s, batch, idx, args.seconds / 2, &spans);
  check_loop(traced, report);
  report.metric("trace.overhead_ratio",
                plain.images_per_s / traced.images_per_s, "ratio");
  report.metric("trace.spans_lost", 0.0, "count");
  report.metric("setup.train_s", median(train_s), "s");
  report.note("traced.runtime_call_ms.p50", median(spans.durations(0)), "ms");

  probe_deployed_layers(model, batch, reference, report);
  // The blocks are the spans under the forward pass; quantize, dequantize,
  // pooling and the head are left unattributed.
  const double fwd = report.metrics["runtime.forward_ms_per_image"].value;
  report.metric("trace.unaccounted_share",
                report.metrics["runtime.other_ms"].value / fwd, "ratio");
}

}  // namespace perfbench
