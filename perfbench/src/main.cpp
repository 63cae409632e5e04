// perfbench: the repository benchmark.
//
//   perfbench --workload trickle|flood|failover|verify --seed N --seconds S --trace 0|1
//
// Every run executes the same lifecycle and the workload sizes it (see
// README.md for why each workload exists), in rounds of
//   live phases   timed cluster set-ups; a fresh cluster with a steady
//                 open-loop window and a closed-loop capacity phase;
//                 leader-kill cycles with snapshot rejoins (on failover
//                 their windows are the steady windows); every cluster
//                 gated over every replica's applied log;
//   offline phase the fixed verification job, once or twice.
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "driver.hpp"
#include "layers.hpp"
#include "live.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "verify_job.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = end != nullptr && *end == '\0' && args.seconds >= 1 && args.seconds <= 600;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  static const char* kWorkloads[] = {"trickle", "flood", "failover", "verify"};
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const char* w) { return args.workload == w; });
  return argc % 2 == 1 && have_workload && known && have_seed && have_seconds;
}

/// What one run does, sized from --seconds: `rounds` rounds, each with
/// `setups` timed constructions of the workload's cluster, then one such
/// cluster built afresh for a warm-up, a steady window (not on failover)
/// and a closed-loop phase, then `cycles` leader-kill cycles on fresh
/// clusters and `verify_jobs` runs of the verification job.  Each phase
/// runs alone: a cluster kept up across rounds grows its log, and on
/// flood its catch-up gossip then loads whatever runs beside it.  The
/// metrics they feed are medians over rounds (or over the pooled phases),
/// and interleaving spreads each over most of the run, so a disturbed
/// stretch of the host moves one round of each rather than all of one:
/// the host's slow stretches last seconds (one took a whole 6 s window
/// from 3.4 to 6 ms p50), as long as a contiguous window.
struct Plan {
  LiveSpec live;                 ///< the workload's cluster
  /// A steady window on the workload's cluster; false on failover, whose
  /// steady path is the kill cycles' windows.
  bool own_window = true;
  std::int64_t window_us = 0;    ///< each round's steady window
  int rounds = 5;
  std::int64_t closed_requests = 200'000;  ///< closed loop per round
  /// Leader-kill cycles per round.  Ten in a run: unavail_ms is one event
  /// per kill, and the median of five spread over half its value from run
  /// to run.
  int cycles = 2;
  int verify_jobs = 1;           ///< verification jobs per round
  /// Timed constructions per round, for setup_s.  One takes about 1 ms on
  /// a 4-vCPU VM, and the median of twelve in a row, at one moment of a
  /// run, came out anywhere from 0.6 to 2.6 ms as the host's load changed.
  int setups = 5;
  std::int64_t traced_window_us = 0;  ///< traced steady window (--trace 1)
};

/// peak_cmds_s: the upper quartile of the closed loops' rates over runs of
/// this many consecutive completions (about 50 ms each), pooled over the
/// rounds.  A 50 ms run's rate swings by half either way (fsync and
/// catch-up stalls, a busy host); pooled over 50 of them the quartile
/// holds within a few percent, and host interference, which only slows
/// runs, moves the upper quartile least.
constexpr std::size_t kPeakSegment = 20'000;

/// A leader-kill cycle's cluster: Ω failover on, a small snapshot_every,
/// 2,000 cmds/s through replica 1.
LiveSpec cycle_spec() {
  LiveSpec l;
  l.failover = true;
  l.snapshot_every = 256;
  l.rate = 2'000;
  l.sessions = 64;
  l.proxy = 1;
  l.warmup_us = 100'000;
  return l;
}

constexpr std::int64_t kCycleWindowUs = 600'000;

Plan plan_for(const std::string& workload, int seconds) {
  Plan p;
  // A `fraction` of the run in steady windows, one per round, each long
  // enough for one slice of at least kSliceMin requests at 1,000 cmds/s.
  const auto window = [seconds, &p](double fraction) {
    return std::max(static_cast<std::int64_t>(fraction * seconds * 1e6) / p.rounds,
                    std::int64_t{1'200'000});
  };
  LiveSpec& l = p.live;
  l.warmup_us = 500'000;
  l.rate = 1'000;
  l.sessions = 64;
  if (workload == "trickle") {
    p.window_us = window(0.4);
  } else if (workload == "verify") {
    // A short trickle beside the job, which gets most of the run.
    p.window_us = window(0.3);
    p.verify_jobs = std::max(1, static_cast<int>(std::lround(0.4 * seconds / p.rounds)));
  } else if (workload == "flood") {
    l.rate = 100'000;
    l.sessions = 1'024;
    p.window_us = window(0.3);
  } else {  // failover: the kill cycles, about a second each
    l = cycle_spec();
    p.own_window = false;
  }
  p.traced_window_us =
      p.own_window ? std::min<std::int64_t>(p.window_us * p.rounds, 10'000'000) : 3'000'000;
  return p;
}

double percentile(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0.0 : quantile_sorted(sorted, q);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Metric name -> (value, unit), printed in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 1e18;  // an unanswered request's latency
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  void print(bool correct, std::int64_t attempted, std::int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                  entries_[i].first.c_str(), entries_[i].second.first, entries_[i].second.second);
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> entries_;
};

/// What the metrics read off the steady windows, pooled over clusters.
struct Steady {
  std::vector<double> latency;  ///< sorted, µs
  std::vector<double> gen_late; ///< sorted, µs
  /// p50 and p99 of each slice: a window cut into one-second runs of
  /// consecutive requests (at least 1,000 each, so >= 10 beyond p99).
  std::vector<double> slice_p50, slice_p99;
  std::size_t smallest_slice = 0;
  double window_s = 0;
  std::int64_t ok_in_window = 0;
  std::vector<double> cpu_ms_per_kcmd;  ///< per window
};

constexpr std::size_t kSliceMin = 1'000;

Steady summarize(const std::vector<Phase>& phases) {
  Steady s;
  for (const Phase& p : phases) {
    const std::vector<double> l = p.latencies_us();
    s.latency.insert(s.latency.end(), l.begin(), l.end());
    const std::size_t n = p.requests.size();
    const auto seconds = static_cast<std::size_t>((p.end_us - p.start_us) / 1'000'000);
    const std::size_t slices = std::max<std::size_t>(1, std::min(seconds, n / kSliceMin));
    for (std::size_t k = 0; k < slices && n > 0; ++k) {
      std::vector<double> slice;
      for (std::size_t i = k * n / slices; i < (k + 1) * n / slices; ++i) {
        const Request& r = p.requests[i];
        slice.push_back(r.ok ? static_cast<double>(r.done_us - r.due_us) : kInf);
      }
      std::sort(slice.begin(), slice.end());
      if (s.slice_p50.empty() || slice.size() < s.smallest_slice) s.smallest_slice = slice.size();
      s.slice_p50.push_back(quantile_sorted(slice, 0.50));
      s.slice_p99.push_back(quantile_sorted(slice, 0.99));
    }
    s.gen_late.insert(s.gen_late.end(), p.gen_late_us.begin(), p.gen_late_us.end());
    s.window_s += static_cast<double>(p.end_us - p.start_us) / 1e6;
    s.ok_in_window += p.ok_in_window();
    if (p.ok_in_window() > 0)
      s.cpu_ms_per_kcmd.push_back(static_cast<double>(p.cpu_ns) / 1e6 /
                                  (static_cast<double>(p.ok_in_window()) / 1e3));
  }
  std::sort(s.latency.begin(), s.latency.end());
  std::sort(s.gen_late.begin(), s.gen_late.end());
  return s;
}

/// Median of a kill-cycle field over the cycles that measured it (>= 0);
/// 0 when none did.
double kill_median(const LiveResult& r, double KillCycle::*field) {
  std::vector<double> v;
  for (const KillCycle& k : r.kills)
    if (k.*field >= 0) v.push_back(k.*field);
  return v.empty() ? 0.0 : median(v);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload trickle|flood|failover|verify --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const Plan plan = plan_for(args.workload, args.seconds);
  const std::string workdir = ".bench_run/" + std::to_string(::getpid());
  std::vector<std::string> violations;

  // ---- the measured rounds ----
  LiveResult own, cycles, setups;
  const int jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<VerifyResult> verify;
  std::vector<double> scenario_build_s;
  for (int r = 0; r < plan.rounds; ++r) {
    for (int k = 0; k < plan.setups; ++k) time_setup(plan.live, workdir + "/setup", setups);
    {
      Live cluster(plan.live, twostep::util::splitmix64(args.seed, 0x100 + r),
                   workdir + "/live", own);
      if (plan.own_window) cluster.window(plan.window_us, 1);
      cluster.closed(plan.closed_requests);
      cluster.finish();
    }
    for (int c = 0; c < plan.cycles; ++c) {
      const int index = r * plan.cycles + c;
      const std::uint64_t seed =
          twostep::util::splitmix64(args.seed, static_cast<std::uint64_t>(index) + 1);
      Live cycle(cycle_spec(), seed, workdir + "/cycle" + std::to_string(index), cycles);
      cycle.window_with_kill(kCycleWindowUs, 1);
      cycle.finish();
    }
    for (int j = 0; j < plan.verify_jobs; ++j) {
      scenario_build_s.push_back(build_verify_scenarios());
      verify.push_back(run_verify_job(args.seed, jobs));
      violations.insert(violations.end(), verify.back().violations.begin(),
                        verify.back().violations.end());
    }
  }
  for (const LiveResult* r : {&own, &cycles, &setups})
    violations.insert(violations.end(), r->violations.begin(), r->violations.end());

  // The workload's own path: its cluster, or on failover the cycles.
  const LiveResult& path_run = plan.own_window ? own : cycles;
  const Steady steady = summarize(path_run.steady);
  std::vector<double> peak_segments;
  for (const Phase& p : own.closed) {
    const std::vector<double> rates = p.segment_rates(kPeakSegment);
    peak_segments.insert(peak_segments.end(), rates.begin(), rates.end());
  }
  std::sort(peak_segments.begin(), peak_segments.end());
  std::fprintf(stderr, "perfbench: steady latency µs p50 %.0f p90 %.0f p95 %.0f p98 %.0f p99 %.0f "
               "p99.5 %.0f p99.9 %.0f\n",
               percentile(steady.latency, 0.50), percentile(steady.latency, 0.90),
               percentile(steady.latency, 0.95), percentile(steady.latency, 0.98),
               percentile(steady.latency, 0.99), percentile(steady.latency, 0.995),
               percentile(steady.latency, 0.999));
  if (beyond(steady.smallest_slice, 0.99) < 10)
    violations.push_back("bench.commit_p99_us: fewer than 10 samples beyond p99 in a slice");
  std::fprintf(stderr, "perfbench: slice p99 µs");
  for (const double v : steady.slice_p99) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\nperfbench: slice p50 µs");
  for (const double v : steady.slice_p50) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\nperfbench: closed-loop cmds/s over %zu runs: q25 %.0f p50 %.0f q75 %.0f\n",
               peak_segments.size(), percentile(peak_segments, 0.25),
               percentile(peak_segments, 0.50), percentile(peak_segments, 0.75));
  std::fprintf(stderr, "perfbench: setup ms");
  for (const double v : setups.setup_s) std::fprintf(stderr, " %.3f", v * 1e3);
  std::fprintf(stderr, "\nperfbench: %zu kills, median unavail %.3f ms, rejoin %.3f ms\n",
               cycles.kills.size(), kill_median(cycles, &KillCycle::unavail_ms),
               kill_median(cycles, &KillCycle::rejoin_ms));
  const auto verify_median = [&](auto field) {
    std::vector<double> v;
    for (const VerifyResult& r : verify) v.push_back(static_cast<double>(r.*field));
    return median(v);
  };

  std::int64_t attempted = 0, failed = own.audit_missing + cycles.audit_missing;
  for (const LiveResult* r : {&own, &cycles})
    for (const Phase* p : r->phases()) {
      attempted += static_cast<std::int64_t>(p->requests.size());
      failed += p->rejected() + p->lost();
    }

  Report report;
  if (!args.trace) {
    double setup_s = median(setups.setup_s);
    if (args.workload == "verify") setup_s += median(scenario_build_s);
    report.add("commit_p50_us", median(steady.slice_p50), "us");
    report.add("achieved_cmds_s", static_cast<double>(steady.ok_in_window) / steady.window_s,
               "1/s");
    report.add("peak_cmds_s", percentile(peak_segments, 0.75), "1/s");
    report.add("cpu_ms_per_kcmd", median(steady.cpu_ms_per_kcmd), "ms");
    report.add("rejoin_ms", kill_median(cycles, &KillCycle::rejoin_ms), "ms");
    report.add("verify_s", verify_median(&VerifyResult::total_s), "s");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Traced runs, separate from the measured one: fresh clusters with
    // tracing on and every 16th request stamped, warm-up and steady window
    // only.  The first uses the workload's stack; the second turns the
    // stack's timers off so the span tree reaches the acceptors.
    LiveSpec traced = plan.live;
    traced.trace = true;
    const auto traced_run = [&](const std::string& name, std::int64_t window_us) {
      LiveResult r;
      Live cluster(traced, args.seed, workdir + "/" + name, r);
      cluster.window(window_us, 1);
      cluster.finish();
      return r;
    };
    const LiveResult tr = traced_run("traced", plan.traced_window_us);
    // Without batching the stack cannot carry flood's rate; the span tree
    // of one command does not depend on it.
    traced.untimed = true;
    traced.rate = std::min(traced.rate, 1'000.0);
    const LiveResult untimed = traced_run("untimed", 2'000'000);
    for (const LiveResult* r : {&tr, &untimed})
      violations.insert(violations.end(), r->violations.begin(), r->violations.end());
    const StageBudget budget = stage_budget(tr.spans);
    const StageBudget untimed_budget = stage_budget(untimed.spans);
    const Steady traced_steady = summarize(tr.steady);

    // Steady-path counters come from the traced run (warm-up and window
    // only); kill-path ones from the measured run's kill cycles.
    const twostep::obs::MetricsRegistry& path = tr.metrics;
    const twostep::obs::MetricsRegistry& kills = cycles.metrics;
    const auto hist = [](const twostep::obs::MetricsRegistry& reg, const char* name, double q) {
      const auto it = reg.log_histograms().find(name);
      return it == reg.log_histograms().end() || it->second.empty() ? 0.0
                                                                    : it->second.percentile(q);
    };
    const auto hist_mean = [](const twostep::obs::MetricsRegistry& reg, const char* name) {
      const auto it = reg.log_histograms().find(name);
      return it == reg.log_histograms().end() || it->second.empty() ? 0.0 : it->second.mean();
    };
    const auto counter = [](const twostep::obs::MetricsRegistry& reg, const char* name) {
      return static_cast<double>(reg.counter_value(name));
    };
    double path_ok = 0;
    for (const Phase* p : tr.phases())
      for (const Request& r : p->requests) path_ok += r.ok ? 1 : 0;
    const double fill = hist_mean(path, "rsm.batch_fill");

    const std::vector<double> timer = timer_lateness_us(200, 1'000);
    report.add("transport.timer_late_p50_us", percentile(timer, 0.50), "us");
    report.add("transport.timer_late_p99_us", percentile(timer, 0.99), "us");
    report.add("transport.frames_per_kcmd", counter(path, "transport.frames_sent") / path_ok * 1e3,
               "count");
    report.add("transport.bytes_per_cmd", counter(path, "transport.bytes_sent") / path_ok, "B");
    report.add("transport.loop_work_p99_us", hist(path, "loop.work_us", 0.99), "us");
    report.add("transport.loop_poll_p50_us", hist(path, "loop.poll_us", 0.50), "us");

    const CodecCost codec = codec_cost(static_cast<int>(std::lround(std::max(1.0, fill))));
    report.add("codec.encode_ns", codec.encode_ns, "ns");
    report.add("codec.decode_ns", codec.decode_ns, "ns");

    const std::vector<double> floor = wal_floor_us(workdir + "/floor", 200);
    const double snapshots = counter(kills, "snapshot.written");
    report.add("storage.syncs_per_kcmd", counter(path, "wal.syncs") / path_ok * 1e3, "count");
    report.add("storage.barrier_records_mean", hist_mean(path, "wal.barrier_records"), "count");
    report.add("storage.sync_p50_us", hist(path, "wal.sync_us", 0.50), "us");
    report.add("storage.sync_p99_us", hist(path, "wal.sync_us", 0.99), "us");
    report.add("storage.floor_sync_p50_us", percentile(floor, 0.50), "us");
    report.add("storage.snapshots_written", snapshots, "count");
    report.add("storage.snapshot_write_us",
               snapshots > 0 ? counter(kills, "snapshot.write_us") / snapshots : 0.0, "us");

    const double fast = counter(path, "decisions.fast"), slow = counter(path, "decisions.slow");
    report.add("rsm.batch_fill_mean", fill, "count");
    report.add("rsm.fast_ratio", fast + slow > 0 ? fast / (fast + slow) : 0.0, "ratio");

    const double installs = counter(kills, "transfer.installed");
    report.add("node.serve_p50_us", hist(path, "node.serve_us", 0.50), "us");
    report.add("node.serve_p99_us", hist(path, "node.serve_us", 0.99), "us");
    report.add("node.request_hop_p50_us", hist(path, "node.request_hop_us", 0.50), "us");
    report.add("node.deliver_p99_us", hist(path, "node.deliver_us", 0.99), "us");
    report.add("node.transfer_install_us",
               installs > 0 ? counter(kills, "transfer.install_us") / installs : 0.0, "us");
    report.add("node.transfer_bytes", counter(kills, "transfer.bytes_sent"), "B");
    report.add("node.transfer_retries", counter(kills, "transfer.retries"), "count");

    report.add("omega.kill_to_leader_ms", kill_median(cycles, &KillCycle::to_leader_ms), "ms");
    report.add("omega.false_suspicions", counter(kills, "failover.false_suspicions"), "count");
    report.add("omega.leader_changes", counter(kills, "failover.leader_changes"), "count");

    const double explore_traces = verify_median(&VerifyResult::explore_traces);
    const double explore_steps = verify_median(&VerifyResult::explore_steps);
    report.add("modelcheck.explore_s", verify_median(&VerifyResult::explore_s), "s");
    report.add("modelcheck.fuzz_s", verify_median(&VerifyResult::fuzz_s), "s");
    report.add("modelcheck.explore_traces", explore_traces, "count");
    report.add("modelcheck.explore_steps", explore_steps, "count");
    report.add("modelcheck.steps_per_trace", explore_steps / std::max(1.0, explore_traces),
               "count");
    report.add("modelcheck.fuzz_steps_per_s",
               verify_median(&VerifyResult::fuzz_steps) / verify_median(&VerifyResult::fuzz_s),
               "1/s");
    report.add("sim.chaos_s", verify_median(&VerifyResult::chaos_s), "s");
    report.add("sim.events_per_s",
               verify_median(&VerifyResult::chaos_events) / verify_median(&VerifyResult::chaos_s),
               "1/s");
    report.add("net.retransmits", verify_median(&VerifyResult::retransmits), "count");

    report.add("obs.trace_overhead_p50_ratio",
               percentile(traced_steady.latency, 0.50) / percentile(steady.latency, 0.50), "ratio");
    const std::uint64_t dropped = tr.spans_dropped + untimed.spans_dropped;
    report.add("obs.spans_dropped", static_cast<double>(dropped), "count");
    if (dropped != 0) violations.push_back("trace: the flight recorders dropped spans");

    report.add("span.client_wire_p50_us", percentile(budget.client_wire, 0.50), "us");
    report.add("span.client_wire_p99_us", percentile(budget.client_wire, 0.99), "us");
    report.add("span.serve_self_p50_us", percentile(budget.serve_self, 0.50), "us");
    report.add("span.serve_self_p99_us", percentile(budget.serve_self, 0.99), "us");
    report.add("span.accept_p50_us", percentile(untimed_budget.accept, 0.50), "us");
    report.add("span.accept_p99_us", percentile(untimed_budget.accept, 0.99), "us");
    report.add("span.wal_fsync_p50_us", percentile(untimed_budget.wal_fsync, 0.50), "us");
    report.add("span.wal_fsync_p99_us", percentile(untimed_budget.wal_fsync, 0.99), "us");
    report.add("span.untimed_serve_p50_us", percentile(untimed_budget.serve, 0.50), "us");

    const Tail tail = supported_tail(steady.latency);
    report.add("bench.gen_late_p99_us", percentile(steady.gen_late, 0.99), "us");
    report.add("bench.commit_p99_us", median(steady.slice_p99), "us");
    report.add("bench.unavail_ms", kill_median(cycles, &KillCycle::unavail_ms), "ms");
    report.add("bench.samples", static_cast<double>(steady.latency.size()), "count");
    report.add("bench.tail_pct", tail.pct, "%");
    report.add("bench.tail_us", tail.value, "us");
  }

  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  for (const std::string& v : violations) std::fprintf(stderr, "perfbench: %s\n", v.c_str());
  report.print(violations.empty(), attempted, failed);
  return 0;
}
