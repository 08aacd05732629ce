// serve_mixed: an open loop through Router::submit / submit_batch ->
// ModelRegistry -> InferenceService -> Scheduler -> forward_batch.
//
// Model: the 8x8 small net, trained, deployed, saved as a `.epim` artifact
// and registered with register_artifact. Service: 2 workers, max_batch 16,
// 2 ms flush, compute pool of 1 thread. Threads: this generator, one
// completion collector and the 2 batch workers.
//
// Traffic: kInteractive singles at 200/s and kBulk bursts of 16 at 20/s
// (client "bulk"), about 520 images/s, due on a seeded schedule that never
// waits for the system. Each request is timed from its due time to the
// moment its future is ready; the collector polls futures every ~0.05 ms
// instead of waiting on them in submit order. The first second is warm-up.
#include <pthread.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "layer_probe.hpp"
#include "registry/registry.hpp"
#include "telemetry/trace.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using epim::Tensor;

constexpr double kInteractivePerS = 200.0;
constexpr double kBulkBurstsPerS = 20.0;
constexpr int kBurst = 16;
constexpr int kPool = 128;
constexpr double kSloMs = 25.0;
/// Requests due in the first second are warm-up (shorter runs: a tenth).
constexpr double kWarmupS = 1.0;
constexpr int kSetups = 3;
constexpr int kPoolThreads = 1;
constexpr int kWorkers = 2;
constexpr double kDrainLimitS = 30.0;
const char* const kModel = "small";

double warmup_s(const ScheduleSpec& spec) {
  return std::min(kWarmupS, spec.seconds / 10.0);
}

epim::ServeConfig serve_config() {
  epim::ServeConfig s = epim::RegistryConfig::default_serve();
  s.workers = kWorkers;
  s.max_batch = 16;
  s.flush_deadline_ms = 2.0;
  return s;
}

/// Everything one set-up builds; the last one serves the measured traffic.
struct Setup {
  epim::SyntheticData data;
  std::unique_ptr<epim::SmallEpitomeNet> net;
  std::unique_ptr<epim::DeployedModel> chip;  ///< loaded back from the file
  std::unique_ptr<epim::ModelRegistry> registry;
  std::unique_ptr<epim::Router> router;
  std::vector<Tensor> pool;
  std::vector<Tensor> reference;
  std::vector<std::int64_t> reference_clips;
  std::string digest;
  double cpu_s = 0;    ///< process CPU time of the whole set-up
  double wall_s = 0;
  double train_s = 0;  ///< process CPU time of training
  double materialize_ms = 0;
};

bool matches(const epim::InferenceResult& got, const Setup& s, int image) {
  return same_bits(got.logits, s.reference[static_cast<std::size_t>(image)]) &&
         got.clip_count ==
             s.reference_clips[static_cast<std::size_t>(image)];
}

std::unique_ptr<Setup> set_up(const std::string& artifact, Report& report) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  const double c0 = process_cpu_ms();
  epim::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 12;
  dspec.test_per_class = kPool / 4;
  s->data = epim::make_synthetic_data(dspec);
  epim::SmallNetConfig nc;
  nc.num_classes = 4;
  nc.image_size = 8;
  s->net = std::make_unique<epim::SmallEpitomeNet>(nc);
  epim::TrainConfig tcfg;
  tcfg.epochs = 2;
  const double c_train = process_cpu_ms();
  epim::train_model(*s->net, s->data, tcfg);
  s->train_s = (process_cpu_ms() - c_train) * 1e-3;

  epim::PipelineConfig cfg;
  cfg.serve = serve_config();
  epim::Pipeline(cfg).deploy(*s->net, s->data.train).save(artifact);
  s->registry = std::make_unique<epim::ModelRegistry>();
  s->registry->register_artifact(kModel, "v1", artifact, serve_config());
  s->router = std::make_unique<epim::Router>(*s->registry);

  // The direct forward_batch reference every served logit must match.
  s->chip = std::make_unique<epim::DeployedModel>(
      epim::Pipeline::load_deployed(artifact));
  for (std::int64_t i = 0; i < s->data.test.size(); ++i) {
    s->pool.push_back(s->data.test.sample(i));
  }
  s->reference = s->chip->forward_batch(s->pool, &s->reference_clips);

  // First request on the cold entry materializes it; a warm one follows.
  const auto t_cold = Clock::now();
  const epim::InferenceResult cold = s->router->submit(kModel, s->pool[0]).get();
  const double cold_ms = ms_between(t_cold, Clock::now());
  const auto t_warm = Clock::now();
  const epim::InferenceResult warm = s->router->submit(kModel, s->pool[1]).get();
  s->materialize_ms = cold_ms - ms_between(t_warm, Clock::now());
  s->cpu_s = (process_cpu_ms() - c0) * 1e-3;
  s->wall_s = seconds_since(t0);

  if (!matches(cold, *s, 0) || !matches(warm, *s, 1)) {
    report.fail("set-up requests differ from the forward_batch reference");
  }
  s->digest = reference_digest(s->reference, s->reference_clips);
  report.pin("serve.logits_digest", s->digest);
  report.pin("serve.clip_sum",
             std::accumulate(s->reference_clips.begin(),
                             s->reference_clips.end(), std::int64_t{0}));
  return s;
}

/// One request of the open loop, as the generator and collector see it.
struct Request {
  const Arrival* arrival = nullptr;
  Clock::time_point due, submit0, submit1;
  std::vector<Clock::time_point> ready;  ///< per image
  std::vector<char> ok;                  ///< per image: served and correct
  bool refused = false;
  int failed = 0;
  int wrong = 0;
};

struct LoopResult {
  Clock::time_point epoch;
  std::vector<Request> requests;
  int threads_live = 0;
  /// Per second of the schedule (the last one partial): CPU time of the
  /// process without the collector's polling -- the serving stack's own
  /// cost; the generator adds only the router call and a few copies -- per
  /// image due.
  std::vector<double> cpu_ms_per_image;
  double steal_share = 0;
};

struct Pending {
  std::size_t request = 0;
  std::vector<std::future<epim::InferenceResult>> futures;
  std::vector<char> done;
};

/// Runs the schedule open-loop against the router and collects every
/// result. Readiness is stamped by polling, so a slow request never delays
/// the stamp of a fast one behind it.
LoopResult run_open_loop(Setup& s, const std::vector<Arrival>& schedule) {
  LoopResult out;
  out.requests.resize(schedule.size());
  std::mutex mu;
  std::vector<Pending> inbox;
  bool generator_done = false;

  const auto poll = [&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<Pending> active;
    Clock::time_point drain_start{};
    for (;;) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Pending& p : inbox) active.push_back(std::move(p));
        inbox.clear();
        finished = generator_done;
      }
      const auto now = Clock::now();
      if (finished && drain_start == Clock::time_point{}) drain_start = now;
      const bool give_up =
          finished && std::chrono::duration<double>(now - drain_start).count() >
                          kDrainLimitS;
      for (Pending& p : active) {
        Request& r = out.requests[p.request];
        for (std::size_t k = 0; k < p.futures.size(); ++k) {
          if (p.done[k]) continue;
          if (!give_up && p.futures[k].wait_for(std::chrono::seconds(0)) !=
                              std::future_status::ready) {
            continue;
          }
          p.done[k] = 1;
          if (give_up) {
            ++r.failed;
            continue;
          }
          r.ready[k] = now;
          try {
            const epim::InferenceResult got = p.futures[k].get();
            if (matches(got, s, r.arrival->images[k])) {
              r.ok[k] = 1;
            } else {
              ++r.wrong;
            }
          } catch (const std::exception&) {
            ++r.failed;
          }
        }
      }
      std::erase_if(active, [](const Pending& p) {
        return std::all_of(p.done.begin(), p.done.end(),
                           [](char d) { return d != 0; });
      });
      if (finished && active.empty()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const StealMeter steal;
  std::thread collector(poll);
  clockid_t collector_clock{};
  pthread_getcpuclockid(collector.native_handle(), &collector_clock);
  const auto system_cpu_ms = [&] {
    timespec ts{};
    clock_gettime(collector_clock, &ts);
    return process_cpu_ms() - (static_cast<double>(ts.tv_sec) * 1e3 +
                               static_cast<double>(ts.tv_nsec) * 1e-6);
  };
  double window_cpu = system_cpu_ms();
  int window = 0, window_images = 0;
  epim::SubmitOptions interactive;
  interactive.priority = epim::Priority::kInteractive;
  interactive.client_id = "interactive";
  epim::SubmitOptions bulk;
  bulk.priority = epim::Priority::kBulk;
  bulk.client_id = "bulk";

  out.epoch = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    Request& r = out.requests[i];
    r.arrival = &a;
    r.due = out.epoch + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(a.at_s));
    r.ready.assign(a.images.size(), Clock::time_point{});
    r.ok.assign(a.images.size(), 0);
    std::vector<Tensor> images;
    for (const int idx : a.images) {
      images.push_back(s.pool[static_cast<std::size_t>(idx)]);
    }
    if (i == schedule.size() / 2) out.threads_live = live_threads();
    std::this_thread::sleep_until(r.due);
    if (a.at_s >= window + 1) {  // a new second of the schedule begins
      const double now_cpu = system_cpu_ms();
      out.cpu_ms_per_image.push_back((now_cpu - window_cpu) /
                                     std::max(1, window_images));
      window_cpu = now_cpu;
      window_images = 0;
      window = static_cast<int>(a.at_s);
    }
    window_images += static_cast<int>(a.images.size());
    Pending p;
    p.request = i;
    r.submit0 = Clock::now();
    try {
      if (a.bulk) {
        p.futures = s.router->submit_batch(kModel, std::move(images), bulk);
      } else {
        p.futures.push_back(
            s.router->submit(kModel, std::move(images[0]), interactive));
      }
    } catch (const epim::Unavailable&) {
      r.refused = true;
    } catch (const std::exception&) {
      r.failed = static_cast<int>(a.images.size());
    }
    r.submit1 = Clock::now();
    if (r.refused || r.failed > 0) continue;
    p.done.assign(p.futures.size(), 0);
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back(std::move(p));
  }
  out.cpu_ms_per_image.push_back((system_cpu_ms() - window_cpu) /
                                 std::max(1, window_images));
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  collector.join();
  out.steal_share = steal.share();
  return out;
}

/// End-to-end figures of one loop, over requests due after the warm-up.
struct LoopStats {
  std::vector<double> interactive_ms, bulk_ms, gen_lag_ms, submit_us;
  double goodput = 0, slo_miss_ratio = 0, fail_ratio = 0;
  double cpu_ms_per_image = 0;
  std::int64_t images = 0, failed_images = 0, wrong_images = 0;
};

LoopStats summarize(const LoopResult& loop, double seconds, double warmup_s) {
  LoopStats st;
  std::int64_t window_images = 0, window_failed = 0, ok_images = 0;
  std::int64_t interactive_sent = 0, slo_misses = 0;
  Clock::time_point last_ready = loop.epoch;
  for (const Request& r : loop.requests) {
    const auto n = static_cast<std::int64_t>(r.ok.size());
    const std::int64_t bad = r.refused ? n : r.failed;
    st.images += n;
    st.failed_images += bad;
    st.wrong_images += r.wrong;
    st.gen_lag_ms.push_back(ms_between(r.due, r.submit0));
    st.submit_us.push_back(ms_between(r.submit0, r.submit1) * 1e3);
    if (r.arrival->at_s < warmup_s) continue;
    window_images += n;
    window_failed += bad;
    bool missed = bad > 0;
    for (std::size_t k = 0; k < r.ok.size(); ++k) {
      if (!r.ok[k]) continue;
      ++ok_images;
      last_ready = std::max(last_ready, r.ready[k]);
      const double ms = ms_between(r.due, r.ready[k]);
      (r.arrival->bulk ? st.bulk_ms : st.interactive_ms).push_back(ms);
      missed = missed || ms > kSloMs;
    }
    if (!r.arrival->bulk) {
      ++interactive_sent;
      slo_misses += missed ? 1 : 0;
    }
  }
  const double span_s = std::max(
      seconds - warmup_s,
      std::chrono::duration<double>(last_ready - loop.epoch).count() -
          warmup_s);
  st.goodput = static_cast<double>(ok_images) / span_s;
  // The median second, after the warm-up one(s), sets the cost.
  const auto skip = std::min(
      static_cast<std::ptrdiff_t>(std::ceil(warmup_s)),
      static_cast<std::ptrdiff_t>(loop.cpu_ms_per_image.size()) - 1);
  st.cpu_ms_per_image = median(std::vector<double>(
      loop.cpu_ms_per_image.begin() + skip, loop.cpu_ms_per_image.end()));
  st.slo_miss_ratio = interactive_sent == 0
                          ? 0.0
                          : static_cast<double>(slo_misses) /
                                static_cast<double>(interactive_sent);
  st.fail_ratio = window_images == 0 ? 0.0
                                     : static_cast<double>(window_failed) /
                                           static_cast<double>(window_images);
  return st;
}

void check_loop(const LoopStats& st, Report& report) {
  report.attempted += st.images;
  report.failed += st.failed_images;
  if (st.wrong_images > 0) {
    report.fail(std::to_string(st.wrong_images) +
                " served results differ from the forward_batch reference");
  }
}

/// Length of the union of [a, b) intervals clipped to [lo, hi).
double covered_ms(std::vector<std::pair<double, double>> iv, double lo,
                  double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, end = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, end);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      end = b;
    }
  }
  return total;
}

/// Per-layer serving metrics from the program's request spans, matched to
/// the benchmark's requests by submit time (the generator is the only
/// submitter, so submit windows never overlap).
void serve_layers(const LoopResult& loop,
                  const std::vector<epim::telemetry::SpanRecord>& spans,
                  Report& report) {
  const auto tms = [](Clock::time_point t) {
    return epim::telemetry::trace_ms(t);
  };
  std::vector<double> starts;
  for (const Request& r : loop.requests) starts.push_back(tms(r.submit0));
  std::vector<const epim::telemetry::SpanRecord*> by_request(
      loop.requests.size(), nullptr);
  std::vector<double> wait_i, wait_b, handoff, run, batch_size, fulfil;
  /// (worker, run begin) -> (run ms, requests): one entry per batch.
  std::map<std::pair<std::uint32_t, double>, std::pair<double, double>>
      batches;
  for (const auto& sp : spans) {
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), sp.submit_ms);
    if (it == starts.begin()) continue;
    const auto i = static_cast<std::size_t>(it - starts.begin() - 1);
    const Request& r = loop.requests[i];
    if (sp.submit_ms > tms(r.submit1)) continue;
    (r.arrival->bulk ? wait_b : wait_i).push_back(sp.close_ms - sp.submit_ms);
    handoff.push_back(sp.run_begin_ms - sp.close_ms);
    batches[{sp.worker, sp.run_begin_ms}] = {sp.run_end_ms - sp.run_begin_ms,
                                             static_cast<double>(sp.batch)};
    if (!r.arrival->bulk) by_request[i] = &sp;
  }
  double busy_ms = 0;
  for (const auto& [key, batch] : batches) {
    run.push_back(batch.first);
    batch_size.push_back(batch.second);
    busy_ms += batch.first;
  }
  // Interactive requests: fulfil time and how much of due -> ready the
  // spans cover (generator lag, router call, queue, hand-off, run, fulfil).
  double e2e_total = 0, covered_total = 0;
  Clock::time_point last = loop.epoch;
  for (std::size_t i = 0; i < loop.requests.size(); ++i) {
    const Request& r = loop.requests[i];
    for (const auto t : r.ready) last = std::max(last, t);
    if (r.arrival->bulk || !r.ok[0]) continue;
    const double due = tms(r.due), ready = tms(r.ready[0]);
    std::vector<std::pair<double, double>> iv = {
        {due, tms(r.submit0)}, {tms(r.submit0), tms(r.submit1)}};
    if (const auto* sp = by_request[i]) {
      fulfil.push_back(ready - sp->run_end_ms);
      iv.push_back({sp->submit_ms, sp->close_ms});
      iv.push_back({sp->close_ms, sp->run_begin_ms});
      iv.push_back({sp->run_begin_ms, sp->run_end_ms});
      iv.push_back({sp->run_end_ms, ready});
    }
    e2e_total += ready - due;
    covered_total += covered_ms(std::move(iv), due, ready);
  }
  const double wall_ms = ms_between(loop.epoch, last);
  report.metric("serve.queue_wait_ms.interactive.p50", percentile(wait_i, 50),
                "ms");
  report.metric("serve.queue_wait_ms.interactive.p99", percentile(wait_i, 99),
                "ms");
  report.metric("serve.queue_wait_ms.bulk.p50", percentile(wait_b, 50), "ms");
  report.metric("serve.queue_wait_ms.bulk.p99", percentile(wait_b, 99), "ms");
  report.metric("serve.handoff_ms.p50", percentile(handoff, 50), "ms");
  report.metric("serve.run_ms.p50", percentile(run, 50), "ms");
  report.metric("serve.run_ms.p99", percentile(run, 99), "ms");
  report.metric("serve.fulfil_ms.p50", percentile(fulfil, 50), "ms");
  report.metric("serve.batch_size.mean", mean(batch_size), "count");
  report.metric("serve.worker_busy_ratio", busy_ms / (kWorkers * wall_ms),
                "ratio");
  report.metric("trace.unaccounted_share",
                e2e_total > 0 ? 1.0 - covered_total / e2e_total : 0.0,
                "ratio");
  report.note("serve.spans_matched",
              static_cast<double>(wait_i.size() + wait_b.size()), "count");
}

/// Wall-clock figures of an untraced loop, as notes under the serving names
/// (interactive_p50_ms, ...) or, in a traced run, as the unbounded e2e.*
/// metrics.
void report_wall(const LoopStats& st, bool as_metrics, Report& report) {
  const auto put = [&](const std::string& name, double v, const char* unit) {
    if (as_metrics) {
      report.metric(name, v, unit);
    } else {
      report.note(name, v, unit);
    }
  };
  put(as_metrics ? "e2e.latency_p50_ms" : "interactive_p50_ms",
      percentile(st.interactive_ms, 50), "ms");
  put(as_metrics ? "e2e.latency_tail_ms" : "interactive_p99_ms",
      percentile(st.interactive_ms, 99), "ms");
  put(as_metrics ? "e2e.bulk_p50_ms" : "bulk_p50_ms",
      percentile(st.bulk_ms, 50), "ms");
  put(as_metrics ? "e2e.bulk_p99_ms" : "bulk_p99_ms",
      percentile(st.bulk_ms, 99), "ms");
  put(as_metrics ? "e2e.wall_items_per_s" : "goodput_rps", st.goodput, "1/s");
  put(as_metrics ? "e2e.slo_miss_ratio" : "slo_miss_ratio", st.slo_miss_ratio,
      "ratio");
  put(as_metrics ? "e2e.fail_ratio" : "fail_ratio", st.fail_ratio, "ratio");
  report.note("interactive_samples",
              static_cast<double>(st.interactive_ms.size()), "count");
  report.note("interactive_p99_supported",
              percentile_supported(st.interactive_ms.size(), 99) ? 1 : 0,
              "bool");
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Report& report) {
  epim::set_num_threads(kPoolThreads);
  std::filesystem::create_directories(args.workdir);
  const std::string artifact = args.workdir + "/serve_mixed.epim";

  std::unique_ptr<Setup> s;
  std::vector<double> cpu_s, wall_s, train_s, materialize_ms;
  std::string digest;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();  // tear the previous registry down before building the next
    s = set_up(artifact, report);
    cpu_s.push_back(s->cpu_s);
    wall_s.push_back(s->wall_s);
    train_s.push_back(s->train_s);
    materialize_ms.push_back(s->materialize_ms);
    if (k == 0) digest = s->digest;
    if (s->digest != digest) report.fail("set-up is not deterministic");
  }
  const epim::PipelineConfig cfg;
  const epim::Pipeline pipeline(cfg);
  const DeployedUnderTest model{s->net.get(), &s->data.train, s->chip.get(),
                                &pipeline.estimator()};
  pin_simulated_stats(model, report);

  ScheduleSpec spec;
  spec.interactive_per_s = kInteractivePerS;
  spec.bulk_bursts_per_s = kBulkBurstsPerS;
  spec.burst = kBurst;
  spec.pool = kPool;

  if (!args.trace) {
    spec.seconds = args.seconds;
    const std::vector<Arrival> schedule = make_schedule(spec, args.seed);
    const LoopResult loop = run_open_loop(*s, schedule);
    const LoopStats st = summarize(loop, spec.seconds, warmup_s(spec));
    check_loop(st, report);
    report.metric("throughput_per_s", st.goodput, "1/s");
    report.metric("cpu_ms_per_item", st.cpu_ms_per_image, "ms");
    report.metric("setup_s", median(cpu_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report_wall(st, false, report);
    report.note("serve.gen_lag_ms.p99", percentile(st.gen_lag_ms, 99), "ms");
    report.note("registry.submit_us.p50", percentile(st.submit_us, 50), "us");
    report.note("registry.submit_us.p99", percentile(st.submit_us, 99), "us");
    report.note("setup_wall_s", median(wall_s), "s");
    report.note("host.steal_share", loop.steal_share, "ratio");
    report.note("host.threads_live", loop.threads_live, "count");
    report.note("host.pool_threads", epim::num_threads(), "count");
    std::filesystem::remove(artifact);
    return;
  }

  // Traced run: the same schedule untraced, then traced; the difference is
  // the tracing overhead. Per-layer figures come from the traced pass.
  spec.seconds = args.seconds / 2.0;
  const std::vector<Arrival> schedule = make_schedule(spec, args.seed);
  const LoopResult plain = run_open_loop(*s, schedule);
  const LoopStats plain_st = summarize(plain, spec.seconds, warmup_s(spec));
  check_loop(plain_st, report);
  report_wall(plain_st, true, report);
  report.metric("host.steal_share", plain.steal_share, "ratio");

  epim::telemetry::set_tracing(false);
  epim::telemetry::clear_trace();
  epim::telemetry::set_tracing(true);
  const LoopResult traced = run_open_loop(*s, schedule);
  epim::telemetry::set_tracing(false);
  const std::vector<epim::telemetry::SpanRecord> spans =
      epim::telemetry::snapshot_spans();
  const std::uint64_t recorded = epim::telemetry::spans_recorded();
  const LoopStats traced_st = summarize(traced, spec.seconds, warmup_s(spec));
  check_loop(traced_st, report);

  serve_layers(traced, spans, report);
  report.metric("serve.gen_lag_ms.p99", percentile(traced_st.gen_lag_ms, 99),
                "ms");
  report.metric("registry.submit_us.p50", percentile(traced_st.submit_us, 50),
                "us");
  report.metric("registry.submit_us.p99", percentile(traced_st.submit_us, 99),
                "us");
  report.metric("trace.spans_lost",
                static_cast<double>(recorded > spans.size()
                                        ? recorded - spans.size()
                                        : 0),
                "count");
  // Cost of tracing: the serving stack's CPU per image, traced / untraced.
  report.metric("trace.overhead_ratio",
                traced_st.cpu_ms_per_image / plain_st.cpu_ms_per_image,
                "ratio");
  report.note("traced.interactive_p50_ms",
              percentile(traced_st.interactive_ms, 50), "ms");

  // Set-up layers.
  report.metric("setup.train_s", median(train_s), "s");
  report.metric("registry.materialize_ms", median(materialize_ms), "ms");
  std::vector<double> save_ms, load_ms;
  for (int k = 0; k < 15; ++k) {
    double c0 = thread_cpu_ms();
    s->chip->save(artifact);
    save_ms.push_back(thread_cpu_ms() - c0);
    c0 = thread_cpu_ms();
    const epim::DeployedModel loaded = epim::Pipeline::load_deployed(artifact);
    load_ms.push_back(thread_cpu_ms() - c0);
  }
  report.metric("artifact.save_ms", median(save_ms), "ms");
  report.metric("artifact.load_ms", median(load_ms), "ms");

  // Compute layers, at the serving pool budget of one thread.
  const std::vector<Tensor> images(s->pool.begin(), s->pool.begin() + 64);
  const std::vector<Tensor> reference(s->reference.begin(),
                                      s->reference.begin() + 64);
  probe_deployed_layers(model, images, reference, report);
  std::filesystem::remove(artifact);
}

}  // namespace perfbench
