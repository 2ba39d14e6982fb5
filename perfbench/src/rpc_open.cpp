// rpc_open: the serving use of the runtime.  Two in-process nodes over the
// socket fabric (real UNIX-domain sockets, epoll, writev); the callee runs
// two workers, the caller one (its generator and comm daemon), so the
// benchmark leaves a CPU of a 4-CPU host to everything else.  One generator
// thread on node 0 issues call_async at seeded Poisson arrival times,
// independent of replies (open loop), at each rate of a fixed ladder; the
// service on node 1 does a fixed ~13 µs of work over its seeded arguments
// and returns a checksum the client checks.  Latency is timed from each
// request's due time, so a stall also charges the requests queued behind
// it; the generator's own lag (issue time - due time) is reported so an
// overloaded client cannot pass for a fast server.
//
// The ladder reaches past one callee worker's capacity: only spreading
// invocations over both callee workers can raise the highest rate that
// meets the latency limit (max_rate in harness.hpp).  A second caller
// worker does not move the knee, and the generator's lag stays in tens of
// µs up to it, so the caller is not what limits the ladder.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>

#include "common/random.hpp"
#include "common/time.hpp"
#include "harness.hpp"
#include "pm2/api.hpp"

namespace perfbench {
namespace {

constexpr int kMinSessions = 3;
constexpr size_t kWords = 32;  // 256 B of arguments per request
constexpr size_t kArgSets = 64;
/// Passes of the service's mixing loop: 12-13.5 µs of handler time on the
/// reference host (pm2.rpc.service_p50_us of a traced run).
constexpr uint32_t kPasses = 160;
/// Each call's deadline.  Far above any latency the ladder can produce
/// (the backlog of an overloaded rung drains well within it), so a timeout
/// means a lost request or reply, never ordinary queueing.
constexpr uint64_t kDeadlineNs = 2'000'000'000;
constexpr size_t kRing = 1 << 16;
/// The latency limit on a rung's p99 (and on the generator's lag).
constexpr double kLimitUs = 500;
/// A rung above the named ones stops issuing once its oldest outstanding
/// call is this old: the rung is overloaded whatever happens next, and a
/// deeper backlog would only add drain time and memory (service threads)
/// to the run.  The named rungs always run whole.
constexpr uint64_t kAbortNs = 10 * static_cast<uint64_t>(kLimitUs) * 1000;
/// Offered rates (calls/s), each held for kRungNs per session.  With every
/// call dispatched on one callee worker, that worker serves 40-50k calls/s
/// one at a time (the open-loop knee) and 50-70k calls/s when 32 are in
/// flight (open_saturation_cps); the ladder reaches past both, to what two
/// workers could serve.  r1, r2, r3 name the light, middle and
/// near-capacity rungs.
constexpr double kLadder[] = {5000,  10000, 15000, 20000, 25000,
                              30000, 35000, 40000, 45000, 50000,
                              60000, 70000, 80000, 90000, 100000};
constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr size_t kR1 = 0, kR2 = 2, kR3 = 5;  // 5k, 15k, 30k
constexpr uint64_t kRungNs = 250'000'000;
/// Before each session's ladder, a closed loop keeps kSatWindow calls in
/// flight for kSatNs: the most calls per second the serving path completes.
constexpr size_t kSatWindow = 32;
constexpr uint64_t kSatNs = 400'000'000;

uint64_t work(const std::vector<uint64_t>& data, uint32_t passes) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint32_t p = 0; p < passes; ++p)
    for (uint64_t w : data) {
      h = (h ^ w) * 0x100000001b3ull;
      h ^= h >> 29;
    }
  return h;
}

uint64_t reply_of(uint64_t work_sum, uint64_t id) {
  return work_sum + id * 0xD6E8FEB86659FD93ull;
}

/// Handler entry/exit stamps keyed by request id (ring of kRing).
struct ServiceStamp {
  std::atomic<uint64_t> id{0};
  std::atomic<uint64_t> enter_ns{0};
  std::atomic<uint64_t> exit_ns{0};
};
ServiceStamp g_stamps[kRing];
std::atomic<bool> g_traced{false};

uint64_t work_service(pm2::RpcContext&, uint64_t id,
                      std::vector<uint64_t> data, uint32_t passes) {
  if (!g_traced.load(std::memory_order_relaxed))
    return reply_of(work(data, passes), id);
  uint64_t t0 = pm2::now_ns();
  uint64_t r = reply_of(work(data, passes), id);
  ServiceStamp& s = g_stamps[id % kRing];
  s.enter_ns.store(t0, std::memory_order_relaxed);
  s.exit_ns.store(pm2::now_ns(), std::memory_order_relaxed);
  s.id.store(id, std::memory_order_release);
  return r;
}

struct RungResult {
  uint64_t issued = 0;
  uint64_t failed = 0;
  bool aborted = false;  // stopped issuing: its oldest call hit kAbortNs
  Histogram lat_ns, lag_ns, to_service_ns, service_ns;
};

struct OpenSession {
  uint64_t seed = 0;
  bool setup_only = false;
  uint64_t start_ns = 0;
  const std::vector<std::vector<uint64_t>>* args = nullptr;
  const std::vector<uint64_t>* expect = nullptr;

  double setup_s = 0;
  uint64_t warmup_failed = 0;  // warm-up and saturation calls
  double saturation_cps = 0;
  double rss_mb = 0;  // resident set at the end of the saturation phase
  uint64_t missing_stamps = 0;
  std::vector<RungResult> rungs;  // the rungs this session offered
  Counters before, after, sched_before, sched_after;
};

pm2::Runtime* g_nodes[2] = {nullptr, nullptr};

struct Pending {
  uint64_t id;
  uint64_t due;
  size_t arg;
  pm2::RpcFuture<uint64_t> fut;
};

/// Offer rung r's Poisson schedule and collect every reply.
void offer(pm2::Runtime& rt, OpenSession& s, size_t r, uint64_t& id,
           Span& span) {
  const auto& args = *s.args;
  const auto& expect = *s.expect;
  RungResult& res = s.rungs.emplace_back();
  std::vector<uint64_t> due_at =
      poisson_schedule(s.seed * kRungs + r, kLadder[r], kRungNs);
  std::deque<Pending> out;
  const uint64_t start = pm2::now_ns() + 100'000;
  size_t next = 0;
  while (next < due_at.size() || !out.empty()) {
    bool progressed = false;
    if (r > kR3 && next < due_at.size() && !out.empty() &&
        pm2::now_ns() - out.front().due > kAbortNs) {
      res.aborted = true;
      next = due_at.size();
    }
    while (next < due_at.size() && start + due_at[next] <= pm2::now_ns()) {
      ++id;
      uint64_t due = start + due_at[next++];
      size_t arg = id % kArgSets;
      span.enter("call_async", id);
      res.lag_ns.add(pm2::now_ns() - due);
      out.push_back({id, due, arg,
                     rt.call_async_within<uint64_t>(kDeadlineNs, 1, "work", id,
                                                    args[arg], kPasses)});
      ++res.issued;
      progressed = true;
    }
    // Reap from the front; replies come back nearly in order, so a bounded
    // scan finds them without walking a deep backlog.
    size_t scan = std::min<size_t>(out.size(), 64);
    for (size_t i = 0; i < scan;) {
      Pending& p = out[i];
      if (!p.fut.ready()) {
        ++i;
        continue;
      }
      uint64_t done = pm2::now_ns();
      bool ok =
          !p.fut.failed() && p.fut.take() == reply_of(expect[p.arg], p.id);
      if (!ok) ++res.failed;
      res.lat_ns.add(done - p.due);
      if (g_traced.load(std::memory_order_relaxed)) {
        const ServiceStamp& st = g_stamps[p.id % kRing];
        if (st.id.load(std::memory_order_acquire) == p.id) {
          uint64_t in = st.enter_ns.load(std::memory_order_relaxed);
          res.to_service_ns.add(in - p.due);
          res.service_ns.add(st.exit_ns.load(std::memory_order_relaxed) - in);
        } else {
          ++s.missing_stamps;
        }
      }
      out.erase(out.begin() + static_cast<long>(i));
      --scan;
      progressed = true;
    }
    if (!progressed) {
      span.enter("yield", id);
      pm2::pm2_yield();
    }
  }
}

void saturate(pm2::Runtime& rt, OpenSession& s, uint64_t& id, Span& span) {
  const auto& args = *s.args;
  std::vector<pm2::RpcFuture<uint64_t>> window;
  std::vector<uint64_t> ids;
  uint64_t done = 0;
  const uint64_t t0 = pm2::now_ns();
  bool issuing = true;
  while (issuing || !window.empty()) {
    while (issuing && window.size() < kSatWindow) {
      ++id;
      ids.push_back(id);
      window.push_back(rt.call_async_within<uint64_t>(
          kDeadlineNs, 1, "work", id, args[id % kArgSets], kPasses));
    }
    span.enter("wait_any", id);
    size_t i = pm2::wait_any(window);
    if (window[i].failed() ||
        window[i].take() != reply_of((*s.expect)[ids[i] % kArgSets], ids[i]))
      ++s.warmup_failed;
    ++done;
    window.erase(window.begin() + static_cast<long>(i));
    ids.erase(ids.begin() + static_cast<long>(i));
    uint64_t elapsed = pm2::now_ns() - t0;
    if (issuing && elapsed >= kSatNs) {
      issuing = false;
      s.saturation_cps = 1e9 * static_cast<double>(done) /
                         static_cast<double>(elapsed);
    }
  }
}

void generator(pm2::Runtime& rt, OpenSession& s) {
  Span span("generator");
  uint64_t id = 0;
  // Warm-up: the first round trip marks the end of set-up; more fill the
  // pools and fault the service path on both callee workers.
  for (int i = 0; i < 256; ++i) {
    ++id;
    span.enter("call", id);
    uint64_t got = 0;
    try {
      got = rt.call<uint64_t>(1, "work", id, (*s.args)[id % kArgSets], kPasses);
    } catch (const pm2::RpcError&) {
    }
    if (got != reply_of((*s.expect)[id % kArgSets], id)) ++s.warmup_failed;
    if (i > 0) continue;
    s.setup_s = static_cast<double>(pm2::now_ns() - s.start_ns) / 1e9;
    if (s.setup_only) return;
  }

  saturate(rt, s, id, span);
  s.rss_mb = rss_now_mb();
  s.before = snapshot({g_nodes[0], g_nodes[1]});
  s.sched_before = snapshot({g_nodes[1]});
  for (size_t r = 0; r < kRungs; ++r) {
    offer(rt, s, r, id, span);
    // Past the named rungs, stop at the first rung whose median misses the
    // limit: the backlog only grows from there, and with it the memory and
    // drain time the rungs above would cost.
    if (r >= kR3 &&
        (s.rungs[r].aborted || s.rungs[r].lat_ns.p50_us() > kLimitUs))
      break;
  }
  s.after = snapshot({g_nodes[0], g_nodes[1]});
  s.sched_after = snapshot({g_nodes[1]});
  span.leave();
}

void run_one(OpenSession& s, const Options& opt, bool traced) {
  g_traced.store(traced, std::memory_order_relaxed);
  SessionConfig cfg;
  cfg.nodes = 2;
  cfg.workers = 2;
  cfg.node0_workers = 1;
  cfg.socket_fabric = true;
  cfg.run_dir = opt.run_dir;
  s.start_ns = pm2::now_ns();
  run_session(
      cfg,
      [&s](pm2::Runtime& rt) {
        if (rt.self() == 0) generator(rt, s);
      },
      [](pm2::Runtime& rt) {
        g_nodes[rt.self()] = &rt;
        rt.service("work", &work_service);
      });
  g_nodes[0] = g_nodes[1] = nullptr;
  g_traced.store(false, std::memory_order_relaxed);
}

/// The run's view of every rung, pooled over the sessions that offered
/// it.  A rung that any session had to abort counts as overloaded.
struct Ladder {
  RungResult pooled[kRungs];
  int reached[kRungs] = {};
  int aborts[kRungs] = {};
  std::vector<double> saturation_cps;
  uint64_t attempted = 0, failed = 0, missing_stamps = 0;
  Counters before, after, sched_before, sched_after;

  void fold(const OpenSession& s) {
    failed += s.warmup_failed;
    missing_stamps += s.missing_stamps;
    for (size_t r = 0; r < s.rungs.size(); ++r) {
      const RungResult& x = s.rungs[r];
      attempted += x.issued;
      failed += x.failed;
      ++reached[r];
      aborts[r] += x.aborted ? 1 : 0;
      RungResult& p = pooled[r];
      p.failed += x.failed;
      p.lat_ns.merge(x.lat_ns);
      p.lag_ns.merge(x.lag_ns);
      p.to_service_ns.merge(x.to_service_ns);
      p.service_ns.merge(x.service_ns);
    }
    if (!s.setup_only) saturation_cps.push_back(s.saturation_cps);
    before += s.before;
    after += s.after;
    sched_before += s.sched_before;
    sched_after += s.sched_after;
  }

  /// Rung r judged on its pooled p99.
  RungStat p99_stat(size_t r) const {
    RungStat st;
    st.rate = kLadder[r];
    st.overloaded = aborts[r] > 0;
    st.lat_reportable = reportable(pooled[r].lat_ns.count(), 990);
    st.lat_us = pooled[r].lat_ns.p99_us();
    st.lag_us = pooled[r].lag_ns.p99_us();
    st.failed = pooled[r].failed;
    return st;
  }
};

}  // namespace

void run_rpc_open(const Options& opt, Report& rep) {
  pm2::Rng rng(opt.seed ^ 0x09E7);
  std::vector<std::vector<uint64_t>> args(kArgSets);
  std::vector<uint64_t> expect(kArgSets);
  for (size_t i = 0; i < kArgSets; ++i) {
    args[i].resize(kWords);
    for (uint64_t& w : args[i]) w = rng.next();
    expect[i] = work(args[i], kPasses);
  }

  // Sessions run back to back until the budget is spent (at least
  // kMinSessions); a traced run first spends one untraced session as the
  // overhead reference and keeps a tenth of the budget for fabric probes.
  // Each session is folded into the run's ladder as soon as it ends.
  const double probe_s = opt.trace ? opt.seconds * 0.1 : 0;
  const uint64_t t_end =
      pm2::now_ns() + static_cast<uint64_t>((opt.seconds - probe_s) * 1e9);
  auto ladder = std::make_unique<Ladder>();
  auto ref = std::make_unique<Ladder>();
  std::vector<double> setup;
  int sessions = 0, measured = 0;
  uint64_t longest_ns = 0;
  double first_sat_rss_mb = 0;
  auto run = [&](Ladder* into, bool setup_only, bool traced) {
    OpenSession s;
    s.setup_only = setup_only;
    s.seed = opt.seed * 1000 + static_cast<uint64_t>(sessions++);
    s.args = &args;
    s.expect = &expect;
    run_one(s, opt, traced);
    if (setup_only) setup.push_back(s.setup_s);
    if (!setup_only && first_sat_rss_mb == 0) first_sat_rss_mb = s.rss_mb;
    into->fold(s);
  };
  auto measure = [&](Ladder* into, bool traced) {
    uint64_t t0 = pm2::now_ns();
    for (int i = 0; i < kSetupsPerSession; ++i) run(ref.get(), true, false);
    run(into, false, traced);
    longest_ns = std::max(longest_ns, pm2::now_ns() - t0);
  };
  if (opt.trace) measure(ref.get(), false);
  while (measured < kMinSessions || pm2::now_ns() + longest_ns < t_end) {
    measure(ladder.get(), opt.trace);
    ++measured;
  }
  const Ladder& L = *ladder;

  rep.ops(L.attempted + ref->attempted, L.failed + ref->failed);
  rep.check(L.failed + ref->failed == 0,
            "every call completes in time with its checksum");
  rep.metric("setup_s", setup_seconds(setup), "s");

  // open_max_rate_cps: the highest rung whose pooled p99 meets the limit.
  // The host's millisecond stalls set it as often as the program does, so
  // the gated rate is open_saturation_cps, the closed loop's ceiling on the
  // same serving path.
  std::vector<RungStat> by_p99;
  std::string rungs_json = "[";
  for (size_t r = 0; r < kRungs; ++r) {
    by_p99.push_back(L.p99_stat(r));
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"rate\": %.0f, \"n\": %llu, \"p50_us\": %.3f, "
                  "\"p99_us\": %.3f, "
                  "\"lag_p99_us\": %.3f, \"to_service_p50_us\": %.3f, "
                  "\"failed\": %llu, \"aborted\": \"%d of %d\"}",
                  r ? ", " : "", kLadder[r],
                  static_cast<unsigned long long>(L.pooled[r].lat_ns.count()),
                  L.pooled[r].lat_ns.p50_us(), by_p99[r].lat_us,
                  by_p99[r].lag_us, L.pooled[r].to_service_ns.p50_us(),
                  static_cast<unsigned long long>(by_p99[r].failed),
                  L.aborts[r], L.reached[r]);
    rungs_json += buf;
  }
  rep.raw("rungs", rungs_json + "]");
  rep.metric("open_max_rate_cps", max_rate(by_p99, kLimitUs), "1/s");
  rep.metric("open_saturation_cps", median(L.saturation_cps), "1/s");
  // The process's peak follows the deepest backlog any rung built, and a
  // host stall during a rung builds one; the pools keep what it took for
  // the rest of the run.  The resident set after the first closed-loop
  // phase, before any rung ran, is the footprint at full load without it.
  rep.metric("open_sat_rss_mb", first_sat_rss_mb, "MiB");
  rep.samples("sessions", static_cast<uint64_t>(measured));

  const Histogram& r2 = L.pooled[kR2].lat_ns;
  rep.check(reportable(r2.count(), 990), "the 15k/s rung has its samples");
  rep.metric("open_r2_p50_us", r2.p50_us(), "us");
  rep.samples("open_r2", r2.count());
  rep.metric("open_r1_p99_us", by_p99[kR1].lat_us, "us");
  rep.metric("open_r2_p99_us", by_p99[kR2].lat_us, "us");
  rep.metric("open_r3_p99_us", by_p99[kR3].lat_us, "us");
  rep.metric("open_r1_rate_cps", kLadder[kR1], "1/s");
  rep.metric("open_r2_rate_cps", kLadder[kR2], "1/s");
  rep.metric("open_r3_rate_cps", kLadder[kR3], "1/s");
  rep.metric("open_limit_us", kLimitUs, "us");

  if (!opt.trace) return;

  rep.check(L.missing_stamps == 0, "every traced call found its service stamp");
  const Histogram& to_svc = L.pooled[kR2].to_service_ns;
  rep.metric("pm2.rpc.to_service_p50_us", to_svc.p50_us(), "us");
  rep.metric("pm2.rpc.to_service_p99_us", to_svc.p99_us(), "us");
  rep.samples("pm2.rpc.to_service", to_svc.count());
  const Histogram& svc = L.pooled[kR2].service_ns;
  rep.metric("pm2.rpc.service_p50_us", svc.p50_us(), "us");
  rep.samples("pm2.rpc.service", svc.count());
  const Histogram& lag = L.pooled[kR3].lag_ns;
  rep.metric("gen.lag_p99_us", lag.p99_us(), "us");
  rep.samples("gen.lag", lag.count());
  report_layer_counters(rep, L.before, L.after,
                        static_cast<double>(L.attempted), L.sched_before,
                        L.sched_after);
  rep.metric("bench.trace_overhead_pct",
             100.0 * (ratio(r2.p50_us(), ref->pooled[kR2].lat_ns.p50_us()) -
                      1.0),
             "%");
  run_fabric_probes(opt, rep, probe_s);
}

}  // namespace perfbench
