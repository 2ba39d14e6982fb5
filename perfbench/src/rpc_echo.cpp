// rpc_echo: RPC latency and throughput between two in-process nodes
// (inproc fabric, one worker each), closed loop.  Blocking 64 B echo calls
// first, then pipelined call_async with 16 outstanding.  The service
// returns a checksum of its arguments and the client checks every reply.
//
// Traced sessions time the handler body on the callee, keyed by the
// request id carried in the arguments, which splits a blocking round trip
// into service time and RPC overhead (marshalling, futures, fabric, daemon
// wake, dispatch, reply hand-off).
#include <algorithm>
#include <atomic>

#include "common/random.hpp"
#include "common/time.hpp"
#include "harness.hpp"
#include "madeleine/typed.hpp"
#include "pm2/api.hpp"

namespace perfbench {
namespace {

constexpr int kSessions = 30;
constexpr size_t kPayloadBytes = 64;
constexpr size_t kPayloads = 64;
constexpr size_t kWindow = 16;
constexpr size_t kRing = 1 << 16;

/// Handler entry/exit stamps keyed by request id (ring of kRing).
struct ServiceStamp {
  std::atomic<uint64_t> id{0};
  std::atomic<uint64_t> enter_ns{0};
  std::atomic<uint64_t> exit_ns{0};
};
ServiceStamp g_stamps[kRing];
std::atomic<bool> g_traced{false};

uint64_t echo_sum(uint64_t id, const std::vector<uint8_t>& payload) {
  return checksum(payload.data(), payload.size(), id);
}

uint64_t echo_service(pm2::RpcContext&, uint64_t id,
                      std::vector<uint8_t> payload) {
  if (!g_traced.load(std::memory_order_relaxed)) return echo_sum(id, payload);
  uint64_t t0 = pm2::now_ns();
  uint64_t r = echo_sum(id, payload);
  ServiceStamp& s = g_stamps[id % kRing];
  s.enter_ns.store(t0, std::memory_order_relaxed);
  s.exit_ns.store(pm2::now_ns(), std::memory_order_relaxed);
  s.id.store(id, std::memory_order_release);
  return r;
}

struct EchoSession {
  uint64_t start_ns = 0;
  uint64_t sync_budget_ns = 0;
  uint64_t async_budget_ns = 0;
  bool setup_only = false;
  const std::vector<std::vector<uint8_t>>* payloads = nullptr;

  double setup_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Histogram sync_ns, async_ns;
  uint64_t async_elapsed_ns = 0;
  Histogram service_ns, overhead_ns, to_service_ns;
  uint64_t missing_stamps = 0;
  Counters before, after, sched_before, sched_after;
};

pm2::Runtime* g_nodes[2] = {nullptr, nullptr};

void client(pm2::Runtime& rt, EchoSession& s) {
  Span span("rpc.client");
  const auto& payloads = *s.payloads;
  uint64_t id = 0;
  auto one_call = [&]() -> uint64_t {
    ++id;
    const std::vector<uint8_t>& p = payloads[id % kPayloads];
    span.enter("call", id);
    uint64_t t0 = pm2::now_ns();
    uint64_t got = 0;
    bool ok = true;
    try {
      got = rt.call<uint64_t>(1, "echo", id, p);
    } catch (const pm2::RpcError&) {
      ok = false;
    }
    uint64_t t1 = pm2::now_ns();
    ++s.attempted;
    if (!ok || got != echo_sum(id, p)) ++s.failed;
    if (g_traced.load(std::memory_order_relaxed)) {
      const ServiceStamp& st = g_stamps[id % kRing];
      if (st.id.load(std::memory_order_acquire) != id) {
        ++s.missing_stamps;
      } else {
        uint64_t in = st.enter_ns.load(std::memory_order_relaxed);
        uint64_t out = st.exit_ns.load(std::memory_order_relaxed);
        s.service_ns.add(out - in);
        s.overhead_ns.add((t1 - t0) - (out - in));
        s.to_service_ns.add(in - t0);
      }
    }
    return t1 - t0;
  };

  // Warm-up: the first round trip marks the end of set-up; a few more
  // fill the invocation, future and chunk pools.
  one_call();
  s.setup_s = static_cast<double>(pm2::now_ns() - s.start_ns) / 1e9;
  if (s.setup_only) return;
  for (int i = 0; i < 64; ++i) one_call();

  s.before = snapshot({g_nodes[0], g_nodes[1]});
  s.sched_before = snapshot({g_nodes[1]});
  uint64_t end = pm2::now_ns() + s.sync_budget_ns;
  while (pm2::now_ns() < end) s.sync_ns.add(one_call());

  // Pipelined: keep kWindow calls in flight, reap with wait_any.
  std::vector<pm2::RpcFuture<uint64_t>> window;
  std::vector<uint64_t> issued_at, ids;
  uint64_t t_start = pm2::now_ns();
  end = t_start + s.async_budget_ns;
  bool issuing = true;
  while (issuing || !window.empty()) {
    while (issuing && window.size() < kWindow) {
      ++id;
      span.enter("call_async", id);
      issued_at.push_back(pm2::now_ns());
      ids.push_back(id);
      window.push_back(
          rt.call_async<uint64_t>(1, "echo", id, payloads[id % kPayloads]));
    }
    span.enter("wait_any", id);
    size_t i = pm2::wait_any(window);
    uint64_t now = pm2::now_ns();
    ++s.attempted;
    if (window[i].failed() ||
        window[i].take() != echo_sum(ids[i], payloads[ids[i] % kPayloads]))
      ++s.failed;
    s.async_ns.add(now - issued_at[i]);
    window.erase(window.begin() + static_cast<long>(i));
    issued_at.erase(issued_at.begin() + static_cast<long>(i));
    ids.erase(ids.begin() + static_cast<long>(i));
    if (issuing && now >= end) {
      issuing = false;
      s.async_elapsed_ns = now - t_start;
    }
  }
  s.after = snapshot({g_nodes[0], g_nodes[1]});
  s.sched_after = snapshot({g_nodes[1]});
  span.leave();
}

void run_one(EchoSession& s, bool traced) {
  g_traced.store(traced, std::memory_order_relaxed);
  SessionConfig cfg;
  cfg.nodes = 2;
  cfg.workers = 1;
  s.start_ns = pm2::now_ns();
  run_session(
      cfg,
      [&s](pm2::Runtime& rt) {
        if (rt.self() == 0) client(rt, s);
      },
      [](pm2::Runtime& rt) {
        g_nodes[rt.self()] = &rt;
        rt.service("echo", &echo_service);
      });
  g_nodes[0] = g_nodes[1] = nullptr;
  g_traced.store(false, std::memory_order_relaxed);
}

/// Typed pack + unpack of the echo arguments, ns per call.
double pack_echo_ns(const std::vector<std::vector<uint8_t>>& payloads,
                    Report& rep) {
  constexpr int kIters = 200000;
  uint64_t sink = 0;
  uint64_t t0 = pm2::now_ns();
  for (int i = 0; i < kIters; ++i) {
    pm2::mad::PackBuffer pb;
    pm2::mad::pack_values(pb, static_cast<uint64_t>(i),
                          payloads[static_cast<size_t>(i) % kPayloads]);
    std::vector<uint8_t> bytes = pb.finalize();
    pm2::mad::UnpackBuffer u(bytes);
    sink += pm2::mad::unpack_value<uint64_t>(u);
    sink += pm2::mad::unpack_value<std::vector<uint8_t>>(u).size();
  }
  uint64_t t1 = pm2::now_ns();
  uint64_t expect = static_cast<uint64_t>(kIters) * (kIters - 1) / 2 +
                    static_cast<uint64_t>(kIters) * kPayloadBytes;
  rep.check(sink == expect, "typed pack/unpack round-trips the echo arguments");
  return static_cast<double>(t1 - t0) / kIters;
}

}  // namespace

void run_rpc_echo(const Options& opt, Report& rep) {
  pm2::Rng rng(opt.seed ^ 0xEC40);
  std::vector<std::vector<uint8_t>> payloads(kPayloads);
  for (auto& p : payloads) {
    p.resize(kPayloadBytes);
    for (uint8_t& b : p) b = static_cast<uint8_t>(rng.next());
  }

  const int ref_sessions = opt.trace ? 2 : 0;
  const double probe_s = opt.trace ? opt.seconds * 0.1 : 0;
  const double per_session_s =
      (opt.seconds - probe_s) / static_cast<double>(kSessions + ref_sessions);
  std::vector<EchoSession> ref(ref_sessions), runs(kSessions);
  std::vector<double> setup;
  uint64_t attempted = 0, failed = 0;
  auto run = [&](EchoSession& s, bool traced) {
    s.payloads = &payloads;
    s.sync_budget_ns = static_cast<uint64_t>(per_session_s * 0.5e9);
    s.async_budget_ns = static_cast<uint64_t>(per_session_s * 0.5e9);
    run_one(s, traced);
    attempted += s.attempted;
    failed += s.failed;
  };
  auto measure = [&](EchoSession& s, bool traced) {
    for (int i = 0; i < kSetupsPerSession; ++i) {
      EchoSession only;
      only.setup_only = true;
      run(only, false);
      setup.push_back(only.setup_s);
    }
    run(s, traced);
  };
  for (EchoSession& s : ref) measure(s, false);
  for (EchoSession& s : runs) measure(s, opt.trace);
  rep.ops(attempted, failed);
  rep.check(failed == 0, "every echo reply carries its arguments' checksum");
  rep.metric("setup_s", setup_seconds(setup), "s");

  report_latency(rep, "rpc_sync", runs, &EchoSession::sync_ns);
  report_latency(rep, "rpc_async", runs, &EchoSession::async_ns);
  rep.metric("rpc_async_calls_per_s",
             session_median(runs, [](const EchoSession& s) {
               return ratio(1e9 * static_cast<double>(s.async_ns.count()),
                            static_cast<double>(s.async_elapsed_ns));
             }),
             "1/s");

  if (!opt.trace) return;

  uint64_t missing = 0;
  Counters before, after, sched_before, sched_after;
  double calls = 0;
  for (const EchoSession& s : runs) {
    missing += s.missing_stamps;
    before += s.before;
    after += s.after;
    sched_before += s.sched_before;
    sched_after += s.sched_after;
    calls += static_cast<double>(s.sync_ns.count() + s.async_ns.count());
  }
  rep.check(missing == 0, "every traced call found its service stamp");
  Histogram to_service = merged(runs, &EchoSession::to_service_ns);
  rep.metric("pm2.rpc.service_p50_us",
             merged(runs, &EchoSession::service_ns).p50_us(), "us");
  rep.metric("pm2.rpc.overhead_p50_us",
             merged(runs, &EchoSession::overhead_ns).p50_us(), "us");
  rep.metric("pm2.rpc.to_service_p50_us", to_service.p50_us(), "us");
  rep.metric("pm2.rpc.to_service_p99_us", to_service.p99_us(), "us");
  rep.samples("pm2.rpc.to_service", to_service.count());
  // Layer counters over both measured phases.
  report_layer_counters(rep, before, after, calls, sched_before,
                        sched_after);
  rep.metric("mad.pack_echo_ns", pack_echo_ns(payloads, rep), "ns");

  rep.metric("bench.trace_overhead_pct",
             100.0 * (ratio(merged(runs, &EchoSession::sync_ns).p50_us(),
                            merged(ref, &EchoSession::sync_ns).p50_us()) -
                      1.0),
             "%");
  run_fabric_probes(opt, rep, probe_s);
}

}  // namespace perfbench
