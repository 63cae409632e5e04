// The live half of a run: in-process n=3, e=1, f=1 RSM clusters
// (node::LocalCluster<rsm::RsmProcess>) on loopback with the N3 production
// stack, driven by the benchmark's own Driver, with leader kills, snapshot
// rejoins and a correctness gate over every replica's applied log.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct LiveSpec {
  // cluster
  bool failover = false;             ///< Ω failover on (default FailoverOptions, fixed seed)
  std::uint64_t snapshot_every = 0;  ///< 0: log only
  /// Turn off the stack's timers: no batching (so no linger) and a WAL
  /// sync per protocol entry instead of group commit.  Only then does a
  /// traced request's span tree reach the acceptors' 2B handling and their
  /// wal.fsync: the linger and barrier timers detach the work they defer
  /// from the request's trace context.
  bool untimed = false;
  // open loop
  double rate = 1'000;
  int sessions = 64;
  /// The replica every driver connection goes to (the proxy).
  int proxy = 0;
  /// Unmeasured open loop at `rate` right after set-up, so lazy set-up
  /// (allocations, WAL file growth, page faults) is not timed.
  std::int64_t warmup_us = 0;
  /// Flight recorders on in the cluster and every 16th request stamped
  /// with a trace context: few enough that no recorder ring drops a span.
  bool trace = false;
};

/// One leader kill.
struct KillCycle {
  double unavail_ms = -1;    ///< kill until the first ok reply to a request due after it
  double to_leader_ms = -1;  ///< until every survivor elected another leader
  double rejoin_ms = -1;     ///< restart until its applied log caught up; -1: never
};

/// What the clusters of a run measured, accumulated over every cluster
/// that reports into it.
struct LiveResult {
  std::vector<double> setup_s;
  std::vector<Phase> steady;  ///< open-loop windows, in order
  std::vector<Phase> closed;  ///< closed-loop capacity phases, in order
  std::vector<KillCycle> kills;
  /// Merged program metrics of every replica incarnation.
  twostep::obs::MetricsRegistry metrics;
  /// Client and replica spans (trace runs), and how many the rings evicted.
  std::vector<twostep::obs::SpanRecord> spans;
  std::uint64_t spans_dropped = 0;
  std::int64_t audit_missing = 0;  ///< acknowledged payloads missing from a replica
  std::vector<std::string> violations;

  /// Every phase, for totals.
  [[nodiscard]] std::vector<const Phase*> phases() const;
};

/// One timed construction of a `spec` cluster in `dir`, torn down at once:
/// appends to out.setup_s (or a violation).
void time_setup(const LiveSpec& spec, const std::string& dir, LiveResult& out);

/// A running cluster and its driver.  Phases can be interleaved with
/// other work (other clusters, the verification job) between calls;
/// finish() gates and tears it down.
class Live {
 public:
  /// Builds the cluster in `dir` (timed, into out.setup_s), dials it and
  /// runs the warm-up.  Failures land in out.violations and make
  /// ok() false.
  Live(const LiveSpec& spec, std::uint64_t seed, std::string dir, LiveResult& out);
  ~Live();
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Open loop at the spec's rate for `window_us`; `stream` picks the
  /// arrival sequence.  Appended to out.steady.
  void window(std::int64_t window_us, std::uint64_t stream);
  /// The same with Ω's leader killed at 30% of the window: once every
  /// survivor has elected another leader and checkpointed, the victim's
  /// directory is wiped and it is restarted, so it rejoins by snapshot
  /// transfer.  Appends to out.steady and out.kills.
  void window_with_kill(std::int64_t window_us, std::uint64_t stream);
  /// Closed loop: `requests` in total, 4,096 in flight.  Appended to
  /// out.closed.
  void closed(std::int64_t requests);
  /// Correctness gate over every replica's applied log, then stop, merge
  /// metrics and spans into the result, and remove the directory.
  void finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
  bool ok_ = false;
};

}  // namespace perfbench
