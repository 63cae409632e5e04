// Per-layer measurements the benchmark takes itself, from its own files:
// probes that call one layer directly, and the stage budget read off the
// flight-recorder span trees of a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.hpp"

namespace perfbench {

/// EventLoop::schedule_after(delay_us) on the benchmark's own loop, `n`
/// times in a chain; fire time minus deadline, µs, sorted.
[[nodiscard]] std::vector<double> timer_lateness_us(std::int64_t delay_us, int n);

/// Mean ns per frame to encode and to decode the live frame mix: a client
/// request, a client reply, a 2B SlotMsg and a batch sidecar carrying
/// `batch_fill` payloads.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
[[nodiscard]] CodecCost codec_cost(int batch_fill);

/// storage::Wal append + fsync'd barrier of one 64-byte record, `n` times,
/// in `dir`; µs per barrier, sorted.  The single-node floor under every
/// durable commit.
[[nodiscard]] std::vector<double> wal_floor_us(const std::string& dir, int n);

/// Stage budget of the traced requests: client.call -> serve -> the
/// acceptors' 2B handling -> wal.fsync.  Each vector is sorted, in µs.
struct StageBudget {
  std::vector<double> client_wire;  ///< client.call minus its serve span
  std::vector<double> serve;        ///< the proxy's serve span
  std::vector<double> serve_self;   ///< serve minus the part its children cover
  std::vector<double> accept;       ///< 2B handling spans inside traced trees
  std::vector<double> wal_fsync;    ///< wal.fsync spans inside traced trees
};
[[nodiscard]] StageBudget stage_budget(const std::vector<twostep::obs::SpanRecord>& spans);

}  // namespace perfbench
