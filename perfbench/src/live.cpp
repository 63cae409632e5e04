#include "live.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "node/local_cluster.hpp"
#include "rsm/rsm.hpp"

namespace perfbench {

namespace {

using namespace twostep;
using Cluster = node::LocalCluster<rsm::RsmProcess>;

constexpr int kN = 3, kE = 1, kF = 1;
// The N3 production stack.
constexpr sim::Tick kDeltaUs = 100'000;
constexpr int kBatchMax = 64;
constexpr sim::Tick kBatchLingerUs = 200;
constexpr int kPipelineWindow = 64;
constexpr int kGroupCommitUs = 200;

// The driver: one thread beside the three replica loops (4 cores), with at
// most four client connections.
constexpr int kConnections = 4;
constexpr int kClosedOutstanding = 4'096;  ///< 64-command batches x 64 pipelined slots
constexpr std::int64_t kDrainUs = 3'000'000;
constexpr int kTraceEvery = 16;
constexpr auto kPoll = std::chrono::microseconds(500);
constexpr auto kWaitLimit = std::chrono::seconds(20);
constexpr std::int64_t kPayloadMask = (std::int64_t{1} << 40) - 1;

std::unique_ptr<Cluster> make_cluster(const LiveSpec& spec, const std::string& dir) {
  const consensus::SystemConfig config{kN, kF, kE};
  node::ClusterOptions options;
  options.storage.dir = dir;
  options.storage.fsync = true;
  options.storage.group_commit_us = spec.untimed ? 0 : kGroupCommitUs;
  options.storage.snapshot_every = spec.snapshot_every;
  options.failover.enabled = spec.failover;
  options.trace = spec.trace;
  return std::make_unique<Cluster>(
      kN,
      [config, untimed = spec.untimed](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                                       consensus::ProcessId) {
        rsm::Options o;
        o.delta = kDeltaUs;
        o.leader_of = [] { return consensus::ProcessId{0}; };
        o.probe.metrics = &reg;
        o.batch_max = untimed ? 1 : kBatchMax;
        o.batch_linger = kBatchLingerUs;
        o.pipeline_window = kPipelineWindow;
        o.batch_fill = &reg.log_histogram("rsm.batch_fill");
        return std::make_unique<rsm::RsmProcess>(env, config, o);
      },
      options);
}

/// Polls `done` until it holds or the wait limit passes.  Some predicates
/// copy whole applied logs, so the poll interval grows with their cost to
/// keep the poller from competing with the replicas it waits for.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + kWaitLimit;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    if (done()) return true;
    const auto t1 = std::chrono::steady_clock::now();
    if (t1 >= deadline) return false;
    std::this_thread::sleep_for(std::max<std::chrono::nanoseconds>(kPoll, 4 * (t1 - t0)));
  }
}

/// Waits for every link of the mesh to be up, checking every 50 µs.
/// LocalCluster::wait_for_mesh() sleeps 2 ms between its checks, so timed
/// through it alone setup_s would land on that grid and jump by 2 ms
/// whenever the mesh misses one check; called after this it returns at once.
bool await_mesh(Cluster& cluster) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool full = true;
    for (int i = 0; i < kN && full; ++i)
      full = cluster.node(i).connected_out() >= kN - 1 && cluster.node(i).connected_in() >= kN - 1;
    if (full) return cluster.wait_for_mesh();
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Builds a cluster in a fresh `dir` and waits for its mesh; appends the
/// time this took to out.setup_s.  Null, with a violation, if the mesh
/// never formed.
std::unique_ptr<Cluster> timed_setup(const LiveSpec& spec, const std::string& dir,
                                     LiveResult& out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const std::int64_t t0 = now_us();
  std::unique_ptr<Cluster> cluster = make_cluster(spec, dir);
  if (!await_mesh(*cluster)) {
    out.violations.push_back("setup: mesh did not form");
    return nullptr;
  }
  out.setup_s.push_back(static_cast<double>(now_us() - t0) / 1e6);
  return cluster;
}

void sleep_until_us(std::int64_t t) {
  const std::int64_t now = now_us();
  if (t > now) std::this_thread::sleep_for(std::chrono::microseconds(t - now));
}

std::size_t applied_size(Cluster& cluster, int i) { return cluster.node(i).applied_log().size(); }

/// Restarts replica `victim` and times how long its applied log takes to
/// reach what the survivors had applied at the restart.
double restart_and_time(Cluster& cluster, int victim) {
  std::size_t target = 0;
  for (int i = 0; i < kN; ++i)
    if (i != victim) target = std::max(target, applied_size(cluster, i));
  const std::int64_t t0 = now_us();
  cluster.restart(victim);
  if (!wait_until([&] { return applied_size(cluster, victim) >= target; })) return -1;
  return static_cast<double>(now_us() - t0) / 1000.0;
}

/// First ok reply to a request due after `kill_us`, in ms after it.
double unavail_ms(const Phase& phase, std::int64_t kill_us) {
  std::int64_t first = -1;
  for (const Request& r : phase.requests)
    if (r.ok && r.due_us > kill_us && (first < 0 || r.done_us < first)) first = r.done_us;
  return first < 0 ? -1 : static_cast<double>(first - kill_us) / 1000.0;
}

/// Leader kill: wait until every replica agrees on a leader, kill it, wait
/// for every survivor to elect another, let the survivors checkpoint
/// (which truncates their WALs past what the victim holds), wipe the
/// victim's directory and restart it.  Each wait that times out, and a rejoin that did not install
/// a snapshot, is a violation: the cycle would measure another path.  So
/// is a leader that is the driver's proxy: killing a pipelining proxy
/// leader stalls the survivors (a known defect, see README.md), and the
/// cycle fails on it instead of waiting for another leader.
KillCycle leader_kill(Cluster& cluster, const std::string& dir, int proxy, std::int64_t& kill_us,
                      std::vector<std::string>& violations) {
  KillCycle k;
  int victim = -1;
  if (!wait_until([&] {
        victim = cluster.node(0).leader();
        for (int i = 1; i < kN; ++i)
          if (cluster.node(i).leader() != victim) return false;
        return victim >= 0 && victim < kN;
      })) {
    violations.push_back("failover: the replicas never agreed on a leader");
    return k;
  }
  if (victim == proxy) {
    violations.push_back("failover: the elected leader is the driver's proxy");
    return k;
  }
  std::vector<std::uint64_t> snaps(kN, 0);
  for (int i = 0; i < kN; ++i)
    if (i != victim) snaps[i] = cluster.node(i).metrics().counter_value("snapshot.written");
  kill_us = now_us();
  cluster.kill(victim);
  if (wait_until([&] {
        for (int i = 0; i < kN; ++i)
          if (i != victim && cluster.node(i).leader() == victim) return false;
        return true;
      }))
    k.to_leader_ms = static_cast<double>(now_us() - kill_us) / 1000.0;
  else
    violations.push_back("failover: the survivors never elected another leader");
  if (!wait_until([&] {
        for (int i = 0; i < kN; ++i) {
          if (i == victim) continue;
          if (cluster.node(i).metrics().counter_value("snapshot.written") <= snaps[i]) return false;
        }
        return true;
      }))
    violations.push_back("failover: the survivors never checkpointed after the kill");
  std::error_code ec;
  std::filesystem::remove_all(dir + "/r" + std::to_string(victim), ec);
  k.rejoin_ms = restart_and_time(cluster, victim);
  // The install counter ticks once the installed state is durable, a
  // little after the applied log has caught up.
  if (!wait_until([&] {
        return cluster.node(victim).metrics().counter_value("transfer.installed") > 0;
      }))
    violations.push_back("failover: the wiped replica rejoined without a snapshot transfer");
  return k;
}

/// Pairwise applied-prefix agreement, validity (every applied payload was
/// issued) and durability (every acknowledged payload is applied on every
/// replica) over the final applied logs.
void audit(Cluster& cluster, const std::vector<const Phase*>& phases, std::int64_t issued,
           LiveResult& out) {
  std::vector<std::int64_t> acked;
  for (const Phase* p : phases)
    for (const Request& r : p->requests)
      if (r.ok) acked.push_back(r.payload);
  // Converge first: every replica applies at least every acknowledged
  // command, and all reach the same length.
  wait_until([&] {
    const std::size_t first = applied_size(cluster, 0);
    if (first < acked.size()) return false;
    for (int i = 1; i < kN; ++i)
      if (applied_size(cluster, i) != first) return false;
    return true;
  });
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> logs;
  for (int i = 0; i < kN; ++i) logs.push_back(cluster.node(i).applied_log());
  for (int i = 0; i < kN; ++i)
    for (int j = i + 1; j < kN; ++j) {
      const std::size_t m = std::min(logs[i].size(), logs[j].size());
      for (std::size_t x = 0; x < m; ++x)
        if (logs[i][x] != logs[j][x]) {
          out.violations.push_back("agreement: replicas " + std::to_string(i) + " and " +
                                   std::to_string(j) + " differ at applied index " +
                                   std::to_string(x));
          break;
        }
    }
  for (int i = 0; i < kN; ++i)
    for (const auto& [slot, cmd] : logs[i]) {
      const std::int64_t payload = cmd & kPayloadMask;
      if (payload < 1 || payload > issued) {
        out.violations.push_back("validity: replica " + std::to_string(i) + " applied payload " +
                                 std::to_string(payload) + " that was never issued");
        break;
      }
    }
  std::sort(acked.begin(), acked.end());
  for (int i = 0; i < kN; ++i) {
    std::vector<std::int64_t> applied;
    applied.reserve(logs[i].size());
    for (const auto& [slot, cmd] : logs[i]) applied.push_back(cmd & kPayloadMask);
    std::sort(applied.begin(), applied.end());
    std::int64_t missing = 0;
    for (const std::int64_t p : acked)
      if (!std::binary_search(applied.begin(), applied.end(), p)) ++missing;
    if (missing > 0)
      out.violations.push_back("durability: replica " + std::to_string(i) + " lacks " +
                               std::to_string(missing) + " acknowledged payload(s)");
    out.audit_missing += missing;
  }
}

}  // namespace

void time_setup(const LiveSpec& spec, const std::string& dir, LiveResult& out) {
  timed_setup(spec, dir, out);  // torn down at once
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::vector<const Phase*> LiveResult::phases() const {
  std::vector<const Phase*> all;
  for (const Phase& p : steady) all.push_back(&p);
  for (const Phase& p : closed) all.push_back(&p);
  return all;
}

struct Live::State {
  LiveSpec spec;
  std::string dir;
  LiveResult& out;
  obs::FlightRecorder client_recorder{"client", 1u << 20};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Driver> driver;
  Phase warmup;
  /// This cluster's phases in the result, for the audit (indices: the
  /// result's vectors may grow and move them).
  std::vector<std::size_t> steady, closed;

  State(const LiveSpec& spec_in, std::string dir_in, LiveResult& out_in)
      : spec(spec_in), dir(std::move(dir_in)), out(out_in) {}
};

Live::Live(const LiveSpec& spec, std::uint64_t seed, std::string dir, LiveResult& out)
    : s_(std::make_unique<State>(spec, std::move(dir), out)) {
  s_->cluster = timed_setup(spec, s_->dir, out);
  if (!s_->cluster) return;
  DriverOptions options;
  options.servers = s_->cluster->endpoints();
  options.connections = kConnections;
  options.server = spec.proxy;
  options.sessions = spec.sessions;
  options.seed = seed;
  if (spec.trace) {
    options.trace_every = kTraceEvery;
    options.recorder = &s_->client_recorder;
  }
  s_->driver = std::make_unique<Driver>(options);
  if (!s_->driver->connect()) {
    out.violations.push_back("driver: cannot reach the cluster");
    return;
  }
  if (spec.warmup_us > 0)
    s_->warmup = s_->driver->open_loop(spec.rate, spec.warmup_us, kDrainUs, 0);
  ok_ = true;
}

Live::~Live() {
  if (s_->cluster) finish();
}

void Live::window(std::int64_t window_us, std::uint64_t stream) {
  if (!ok_) return;
  LiveResult& out = s_->out;
  s_->steady.push_back(out.steady.size());
  out.steady.push_back(s_->driver->open_loop(s_->spec.rate, window_us, kDrainUs, stream));
}

void Live::window_with_kill(std::int64_t window_us, std::uint64_t stream) {
  if (!ok_) return;
  LiveResult& out = s_->out;
  Phase phase;
  std::thread load(
      [&] { phase = s_->driver->open_loop(s_->spec.rate, window_us, kDrainUs, stream); });
  sleep_until_us(now_us() + window_us * 3 / 10);
  std::int64_t kill_us = 0;
  KillCycle k = leader_kill(*s_->cluster, s_->dir, s_->spec.proxy, kill_us, out.violations);
  load.join();
  if (kill_us > 0) k.unavail_ms = unavail_ms(phase, kill_us);
  if (k.rejoin_ms < 0) out.violations.push_back("rejoin: a restarted replica never caught up");
  if (k.unavail_ms < 0)
    out.violations.push_back("unavail: no request due after a kill was answered");
  out.kills.push_back(k);
  s_->steady.push_back(out.steady.size());
  out.steady.push_back(std::move(phase));
}

void Live::closed(std::int64_t requests) {
  if (!ok_) return;
  s_->closed.push_back(s_->out.closed.size());
  s_->out.closed.push_back(s_->driver->closed_loop(kClosedOutstanding, requests, kDrainUs));
}

void Live::finish() {
  LiveResult& out = s_->out;
  if (ok_) {
    std::vector<const Phase*> mine{&s_->warmup};
    for (const std::size_t i : s_->steady) mine.push_back(&out.steady[i]);
    for (const std::size_t i : s_->closed) mine.push_back(&out.closed[i]);
    audit(*s_->cluster, mine, s_->driver->issued(), out);
  }
  s_->driver.reset();
  if (s_->cluster) {
    s_->cluster->stop();
    out.metrics.merge(s_->cluster->merged_metrics());
    if (s_->spec.trace)
      for (int i = 0; i < kN; ++i) {
        const auto spans = s_->cluster->flight(i)->spans();
        out.spans.insert(out.spans.end(), spans.begin(), spans.end());
        out.spans_dropped += s_->cluster->flight(i)->dropped();
      }
    s_->cluster.reset();
  }
  if (s_->spec.trace) {
    const auto spans = s_->client_recorder.spans();
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
    out.spans_dropped += s_->client_recorder.dropped();
  }
  std::error_code ec;
  std::filesystem::remove_all(s_->dir, ec);
  ok_ = false;
}

}  // namespace perfbench
