#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <unordered_map>

#include "codec/codec.hpp"
#include "driver.hpp"
#include "stats.hpp"
#include "storage/wal.hpp"
#include "transport/event_loop.hpp"

namespace perfbench {

namespace {

using namespace twostep;

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

double elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

std::vector<double> timer_lateness_us(std::int64_t delay_us, int n) {
  transport::EventLoop loop;
  std::vector<double> late;
  late.reserve(static_cast<std::size_t>(n));
  std::function<void()> arm = [&] {
    const std::int64_t deadline = loop.now_us() + delay_us;
    loop.schedule_after(delay_us, [&, deadline] {
      late.push_back(static_cast<double>(loop.now_us() - deadline));
      if (static_cast<int>(late.size()) < n) {
        arm();
      } else {
        loop.request_stop();
      }
    });
  };
  arm();
  loop.run();
  std::sort(late.begin(), late.end());
  return late;
}

CodecCost codec_cost(int batch_fill) {
  const codec::ClientRequest request{123'456, 987'654, 42, {}};
  const codec::ClientReply reply{123'456, 987'654, 77, true};
  const rsm::SlotMsg slot{77, 0, core::TwoBMsg{0, consensus::Value{(std::int64_t{1} << 39) | 5}}};
  rsm::BatchContentMsg batch{(std::int64_t{1} << 39) | 5, {}};
  for (int i = 0; i < std::max(1, batch_fill); ++i) batch.payloads.push_back(1'000'000 + i);
  const rsm::Msg batch_msg = batch;

  constexpr int kMixes = 20'000;
  constexpr int kRepeats = 5;
  constexpr double kFramesPerMix = 4;
  std::vector<double> enc, dec;
  for (int rep = 0; rep < kRepeats; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMixes; ++i) {
      auto a = codec::encode(request);
      auto b = codec::encode(reply);
      auto c = codec::encode(slot);
      auto d = codec::encode_batch(batch_msg);
      keep(a);
      keep(b);
      keep(c);
      keep(d);
    }
    enc.push_back(elapsed_ns(t0) / (kMixes * kFramesPerMix));

    const auto a = codec::encode(request);
    const auto b = codec::encode(reply);
    const auto c = codec::encode(slot);
    const auto d = codec::encode_batch(batch_msg);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMixes; ++i) {
      auto x = codec::decode_client_request(a);
      auto y = codec::decode_client_reply(b);
      auto z = codec::decode_slot(c);
      auto w = codec::decode_batch(d);
      keep(x);
      keep(y);
      keep(z);
      keep(w);
    }
    dec.push_back(elapsed_ns(t0) / (kMixes * kFramesPerMix));
  }
  return CodecCost{median(enc), median(dec)};
}

std::vector<double> wal_floor_us(const std::string& dir, int n) {
  std::vector<double> out;
  {
    storage::Wal wal(dir);
    const std::vector<std::uint8_t> record(64, 0xab);
    for (int i = 0; i < n; ++i) {
      const std::int64_t t0 = now_us();
      wal.append(record);
      wal.sync();
      out.push_back(static_cast<double>(now_us() - t0));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::sort(out.begin(), out.end());
  return out;
}

StageBudget stage_budget(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& s : spans) children[s.parent_span].push_back(&s);
  const auto kids = [&](std::uint64_t id) -> const std::vector<const obs::SpanRecord*>& {
    static const std::vector<const obs::SpanRecord*> kNone;
    const auto it = children.find(id);
    return it == children.end() ? kNone : it->second;
  };

  StageBudget out;
  for (const obs::SpanRecord& call : spans) {
    if (std::string_view(call.name) != "client.call") continue;
    for (const obs::SpanRecord* serve : kids(call.span_id)) {
      if (std::string_view(serve->name) != "serve") continue;
      out.client_wire.push_back(static_cast<double>(call.dur_us - serve->dur_us));
      out.serve.push_back(static_cast<double>(serve->dur_us));
      // Self time: the serve interval minus the union of its children's
      // intervals clipped to it.
      std::vector<std::pair<std::int64_t, std::int64_t>> cover;
      const std::int64_t s0 = serve->start_us, s1 = serve->start_us + serve->dur_us;
      for (const obs::SpanRecord* c : kids(serve->span_id)) {
        const std::int64_t a = std::max(s0, c->start_us);
        const std::int64_t b = std::min(s1, c->start_us + c->dur_us);
        if (a < b) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t covered = 0, reach = s0;
      for (const auto& [a, b] : cover) {
        if (b <= reach) continue;
        covered += b - std::max(a, reach);
        reach = b;
      }
      out.serve_self.push_back(static_cast<double>(serve->dur_us - covered));
    }
  }
  // Every span below a traced request: walk the trees from the roots.
  std::vector<std::uint64_t> frontier;
  for (const obs::SpanRecord& s : spans)
    if (std::string_view(s.name) == "client.call") frontier.push_back(s.span_id);
  while (!frontier.empty()) {
    const std::uint64_t id = frontier.back();
    frontier.pop_back();
    for (const obs::SpanRecord* c : kids(id)) {
      const std::string_view name(c->name);
      if (name == "2B") out.accept.push_back(static_cast<double>(c->dur_us));
      if (name == "wal.fsync") out.wal_fsync.push_back(static_cast<double>(c->dur_us));
      frontier.push_back(c->span_id);
    }
  }
  for (auto* v : {&out.client_wire, &out.serve, &out.serve_self, &out.accept, &out.wal_fsync})
    std::sort(v->begin(), v->end());
  return out;
}

}  // namespace perfbench
