// The fixed offline verification job: the paper's reproduction, run
// through the model checker and the simulator's public entry points with
// no live layer involved.
//
//   1. Explorer::explore over the Figure 1 task protocol at its bound
//      (n=3, e=1, f=1) with timers and one mid-step crash, to a depth the
//      stateless search exhausts.
//   2. Explorer::fuzz over the object protocol at its bound (n=5, e=2,
//      f=2): fixed trace budget, seeded, sharded over `jobs` threads.
//   3. A seeded simulator chaos batch: the task protocol at its bound with
//      10% message drop under the ReliableChannel.
//   4. The A1 `nothresh` ablation (selection rule without its = n-f-e
//      branch) fuzzed at n=3, e=1, f=1 until it yields its counterexample,
//      which must replay through Explorer::replay_schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct VerifyResult {
  double explore_s = 0;
  long explore_traces = 0;
  long explore_steps = 0;
  double fuzz_s = 0;
  long fuzz_steps = 0;
  double chaos_s = 0;
  std::uint64_t chaos_events = 0;
  std::uint64_t retransmits = 0;
  double total_s = 0;
  /// Correctness gate failures (empty = the job verified what it must).
  std::vector<std::string> violations;
};

/// Builds the job's three explorer scenarios (without running them);
/// returns the wall time in seconds.  Part of the verify workload's set-up.
[[nodiscard]] double build_verify_scenarios();

/// Runs the whole job once.
[[nodiscard]] VerifyResult run_verify_job(std::uint64_t seed, int jobs);

}  // namespace perfbench
