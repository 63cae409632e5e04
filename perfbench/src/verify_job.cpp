#include "verify_job.hpp"

#include <chrono>
#include <memory>

#include "core/two_step.hpp"
#include "faults/fault_plan.hpp"
#include "harness/run_spec.hpp"
#include "modelcheck/direct_drive.hpp"
#include "modelcheck/explorer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;
using Scenario = modelcheck::Scenario<core::TwoStepProcess>;
using Explorer = modelcheck::Explorer<core::TwoStepProcess>;

// Sizes of the fixed job.  Depth 5 is exhausted after 127,295 traces;
// depth 6 would take ten times as many.  The budgets keep one job near
// half a second on a quiet 4-core box.
constexpr int kExploreDepth = 5;
constexpr long kExploreBudget = 1'000'000;
constexpr int kFuzzTraces = 40'000;
constexpr int kFuzzMaxSteps = 200;
constexpr int kChaosRuns = 5'000;
constexpr double kChaosDrop = 0.10;
constexpr int kAblationBudget = 20'000;
constexpr int kAblationMaxSteps = 250;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

modelcheck::DirectDrive<core::TwoStepProcess>::Factory factory(SystemConfig cfg, core::Mode mode,
                                                               core::SelectionPolicy policy) {
  return [cfg, mode, policy](consensus::Env<core::Message>& env, ProcessId) {
    core::Options o;
    o.mode = mode;
    o.delta = 100;
    o.selection_policy = policy;
    o.leader_of = [] { return ProcessId{0}; };
    return std::make_unique<core::TwoStepProcess>(env, cfg, o);
  };
}

/// Every process proposes (task mode) or the first max(2, n/2) do (object
/// mode), as the CLI `fuzz` command sets scenarios up.
Scenario scenario(SystemConfig cfg, core::Mode mode, core::SelectionPolicy policy) {
  Scenario s;
  s.config = cfg;
  s.factory = factory(cfg, mode, policy);
  s.setup = [cfg, mode](modelcheck::DirectDrive<core::TwoStepProcess>& d) {
    d.start_all();
    const int proposers = mode == core::Mode::kObject ? std::max(2, cfg.n / 2) : cfg.n;
    for (ProcessId p = 0; p < proposers; ++p) d.propose(p, Value{p + 1});
  };
  for (ProcessId p = 0; p < cfg.n; ++p) s.may_crash.push_back(p);
  s.crash_budget = cfg.f;
  return s;
}

struct Scenarios {
  Scenario explore;
  Scenario fuzz;
  Scenario ablation;
};

Scenarios build() {
  Scenarios out;
  out.explore = scenario(SystemConfig{3, 1, 1}, core::Mode::kTask, core::SelectionPolicy::kPaper);
  out.explore.crash_budget = 1;
  out.explore.mid_step_crashes = true;
  out.explore.explore_timers = true;
  out.explore.max_depth = kExploreDepth;
  out.fuzz = scenario(SystemConfig{5, 2, 2}, core::Mode::kObject, core::SelectionPolicy::kPaper);
  out.ablation = scenario(SystemConfig{3, 1, 1}, core::Mode::kTask,
                          core::SelectionPolicy::kNoThresholdBranch);
  return out;
}

}  // namespace

double build_verify_scenarios() {
  const auto t0 = std::chrono::steady_clock::now();
  const Scenarios s = build();
  return seconds_since(t0);
}

VerifyResult run_verify_job(std::uint64_t seed, int jobs) {
  VerifyResult r;
  const auto job_start = std::chrono::steady_clock::now();
  const Scenarios s = build();

  auto t0 = std::chrono::steady_clock::now();
  const modelcheck::ExploreResult explored = Explorer::explore(s.explore, kExploreBudget);
  r.explore_s = seconds_since(t0);
  r.explore_traces = explored.traces;
  r.explore_steps = explored.steps;
  if (explored.violation) r.violations.push_back("explore: " + explored.what);
  if (!explored.exhausted) r.violations.push_back("explore: search not exhausted");

  t0 = std::chrono::steady_clock::now();
  const modelcheck::ExploreResult fuzzed =
      Explorer::fuzz(s.fuzz, kFuzzTraces, util::splitmix64(seed, 1), kFuzzMaxSteps, jobs);
  r.fuzz_s = seconds_since(t0);
  r.fuzz_steps = fuzzed.steps;
  if (fuzzed.violation) r.violations.push_back("fuzz: " + fuzzed.what);

  t0 = std::chrono::steady_clock::now();
  const SystemConfig chaos_cfg{3, 1, 1};
  for (int i = 0; i < kChaosRuns; ++i) {
    const std::uint64_t run_seed = util::splitmix64(util::splitmix64(seed, 2), i);
    auto plan = std::make_shared<faults::FaultPlan>(run_seed);
    plan->drop(kChaosDrop);
    auto runner = harness::RunSpec(chaos_cfg).seed(run_seed).fault_plan(plan).reliable().core(
        core::Mode::kTask);
    auto& cluster = runner->cluster();
    cluster.start_all();
    for (ProcessId p = 0; p < chaos_cfg.n; ++p) cluster.propose(p, Value{100 + p});
    cluster.run(2'000'000);
    r.chaos_events += cluster.simulator().executed();
    if (const auto* channel = cluster.reliable_channel()) r.retransmits += channel->retransmits();
    if (!runner->monitor().safe())
      r.violations.push_back("chaos: " + runner->monitor().violations().front());
    for (ProcessId p = 0; p < chaos_cfg.n; ++p)
      if (!runner->monitor().decision_time(p)) {
        r.violations.push_back("chaos: run " + std::to_string(i) + " left a process undecided");
        break;
      }
  }
  r.chaos_s = seconds_since(t0);

  const modelcheck::ExploreResult ablated = Explorer::fuzz(
      s.ablation, kAblationBudget, util::splitmix64(seed, 3), kAblationMaxSteps, 1);
  if (!ablated.violation) {
    r.violations.push_back("ablation: nothresh counterexample not found");
  } else {
    const auto drive = Explorer::replay_schedule(s.ablation, ablated.schedule);
    if (drive->monitor().safe() || drive->monitor().violations().front() != ablated.what)
      r.violations.push_back("ablation: counterexample does not replay");
  }
  r.total_s = seconds_since(job_start);
  return r;
}

}  // namespace perfbench
