#include "harness.hpp"

#include <errno.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "fabric/inproc.hpp"
#include "fabric/socket_fabric.hpp"
#include "isomalloc/area.hpp"
#include "madeleine/buffers.hpp"
#include "marcel/sync.hpp"

namespace perfbench {

// --- report ---------------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    check(false, name + " is not a finite number");
    return;
  }
  metrics_[name] = Metric{value, unit};
}

void Report::samples(const std::string& name, uint64_t n) {
  samples_[name] = n;
}

void Report::ops(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failed_checks_.push_back(what);
}

void Report::raw(const std::string& key, const std::string& json) {
  raw_[key] = json;
}

std::string Report::json(const std::string& fingerprint) const {
  std::string out = "{\"correct\": ";
  out += correct() && failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"failed_checks\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i)
    out += (i ? ", " : "") + json_string(failed_checks_[i]);
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [name, n] : samples_) {
    out += (first ? "" : ", ") + json_string(name) + ": " + std::to_string(n);
    first = false;
  }
  out += "}";
  for (const auto& [key, json] : raw_) out += ", " + json_string(key) + ": " + json;
  out += ", \"fingerprint\": " + fingerprint + "}";
  return out;
}

// --- percentiles ------------------------------------------------------------------

uint64_t samples_beyond(uint64_t n, uint32_t permille) {
  // Nearest rank: the percentile is sample number ceil(n * q) (1-based).
  uint64_t rank = (n * permille + 999) / 1000;
  if (rank == 0) rank = 1;
  return rank >= n ? 0 : n - rank;
}

bool reportable(uint64_t n, uint32_t permille) {
  return n > 0 && samples_beyond(n, permille) >= 10;
}

namespace {

constexpr int kSubBits = 7;  // 128 buckets per power of two
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr int kMaxExp = 44;  // ~4.9 hours; longer samples clamp here
constexpr size_t kBuckets = (kMaxExp - kSubBits + 2) * kSub;

size_t bucket_of(uint64_t v) {
  if (v < kSub) return v;
  int e = 63 - __builtin_clzll(v);
  if (e > kMaxExp) return kBuckets - 1;
  uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(e - kSubBits + 1) * kSub + sub;
}

/// [lo, hi) of bucket b.
void bucket_range(size_t b, double* lo, double* hi) {
  if (b < kSub) {
    *lo = static_cast<double>(b);
    *hi = *lo + 1;
    return;
  }
  int e = static_cast<int>(b / kSub) + kSubBits - 1;
  double width = std::ldexp(1.0, e - kSubBits);
  *lo = std::ldexp(1.0, e) + static_cast<double>(b % kSub) * width;
  *hi = *lo + width;
}

}  // namespace

Histogram::Histogram() = default;

void Histogram::add(uint64_t ns) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  ++counts_[bucket_of(ns)];
  ++n_;
  sum_ += ns;
}

void Histogram::merge(const Histogram& other) {
  if (other.n_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  n_ += other.n_;
  sum_ += other.sum_;
}

double Histogram::percentile_ns(uint32_t permille) const {
  if (n_ == 0) return 0;
  uint64_t rank = (n_ * permille + 999) / 1000;
  rank = std::clamp<uint64_t>(rank, 1, n_);
  uint64_t before = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (before + counts_[b] < rank) {
      before += counts_[b];
      continue;
    }
    double lo, hi;
    bucket_range(b, &lo, &hi);
    if (b < kSub) return lo;  // exact
    // Spread the bucket's samples evenly over its width.
    double pos = (static_cast<double>(rank - before) - 0.5) /
                 static_cast<double>(counts_[b]);
    return lo + pos * (hi - lo);
  }
  return 0;
}

void report_latency(Report& rep, const std::string& name,
                    const std::vector<const Histogram*>& sessions) {
  std::vector<double> p50;
  Histogram pooled;
  for (const Histogram* h : sessions) {
    p50.push_back(h->p50_us());
    pooled.merge(*h);
  }
  rep.samples(name, pooled.count());
  rep.metric(name + "_p50_us", median(p50), "us");
  if (reportable(pooled.count(), 990))
    rep.metric(name + "_p99_us", pooled.p99_us(), "us");
}

double setup_seconds(const std::vector<double>& setups) {
  std::vector<double> means;
  for (size_t i = 0; i < setups.size(); i += kSetupsPerSession) {
    size_t end = std::min(setups.size(), i + kSetupsPerSession);
    double sum = 0;
    for (size_t j = i; j < end; ++j) sum += setups[j];
    means.push_back(sum / static_cast<double>(end - i));
  }
  return median(means);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- open-loop rate ladder ------------------------------------------------------

bool rung_passes(const RungStat& r, double limit_us) {
  return !r.overloaded && r.lat_reportable && r.lat_us <= limit_us &&
         r.failed == 0 && r.lag_us <= limit_us;
}

double max_rate(const std::vector<RungStat>& rungs, double limit_us) {
  double best = 0;
  for (const RungStat& r : rungs)
    if (rung_passes(r, limit_us)) best = std::max(best, r.rate);
  return best;
}

// --- seeded inputs ------------------------------------------------------------------

std::vector<uint64_t> poisson_schedule(uint64_t seed, double rate_per_s,
                                       uint64_t duration_ns) {
  PM2_CHECK(rate_per_s > 0);
  pm2::Rng rng(seed);
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(rate_per_s * static_cast<double>(duration_ns) / 1e9 * 1.2) + 16);
  double t = 0;
  const double mean_gap_ns = 1e9 / rate_per_s;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.next_double()) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) break;
    out.push_back(static_cast<uint64_t>(t));
  }
  return out;
}

uint64_t checksum(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < len; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

// --- open spans -------------------------------------------------------------------

namespace {

constexpr int kSpanSlots = 32;

struct SpanSlot {
  std::atomic<const char*> actor{nullptr};
  std::atomic<const char*> call{nullptr};
  std::atomic<uint64_t> op{0};
  std::atomic<uint64_t> since_ns{0};
};

SpanSlot g_spans[kSpanSlots];
std::mutex g_span_mu;

struct Watchdog {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;
};
Watchdog g_watchdog;

}  // namespace

Span::Span(const char* actor) {
  std::lock_guard<std::mutex> g(g_span_mu);
  slot_ = -1;
  for (int i = 0; i < kSpanSlots && slot_ < 0; ++i) {
    const char* a = g_spans[i].actor.load(std::memory_order_relaxed);
    if (a == nullptr || std::strcmp(a, actor) == 0) slot_ = i;
  }
  PM2_CHECK(slot_ >= 0) << "span table full";
  g_spans[slot_].actor.store(actor, std::memory_order_relaxed);
  enter("start", 0);
}

void Span::enter(const char* call, uint64_t op) {
  op_ = op;
  SpanSlot& s = g_spans[slot_];
  s.since_ns.store(pm2::now_ns(), std::memory_order_relaxed);
  s.op.store(op, std::memory_order_relaxed);
  s.call.store(call, std::memory_order_relaxed);
}

void dump_open_spans() {
  uint64_t now = pm2::now_ns();
  std::fprintf(stderr, "open spans (actor: call, op, age):\n");
  for (const SpanSlot& s : g_spans) {
    const char* actor = s.actor.load(std::memory_order_relaxed);
    if (actor == nullptr) continue;
    const char* call = s.call.load(std::memory_order_relaxed);
    uint64_t since = s.since_ns.load(std::memory_order_relaxed);
    uint64_t age = now > since ? now - since : 0;  // raced a fresh enter()
    std::fprintf(stderr, "  %-16s %-28s op %llu, %.3f s\n", actor,
                 call ? call : "?",
                 static_cast<unsigned long long>(
                     s.op.load(std::memory_order_relaxed)),
                 static_cast<double>(age) / 1e9);
  }
}

void start_watchdog(double cap_s) {
  g_watchdog.thread = std::thread([cap_s] {
    std::unique_lock<std::mutex> lk(g_watchdog.mu);
    bool stopped = g_watchdog.cv.wait_for(
        lk, std::chrono::duration<double>(cap_s),
        [] { return g_watchdog.stop; });
    if (stopped) return;
    std::fprintf(stderr, "watchdog: run exceeded its %.0f s cap\n", cap_s);
    dump_open_spans();
    std::fflush(stderr);
    ::_exit(3);
  });
}

void stop_watchdog() {
  {
    std::lock_guard<std::mutex> g(g_watchdog.mu);
    g_watchdog.stop = true;
  }
  g_watchdog.cv.notify_all();
  if (g_watchdog.thread.joinable()) g_watchdog.thread.join();
}

// --- sessions ------------------------------------------------------------------------

void run_session(const SessionConfig& cfg,
                 const std::function<void(pm2::Runtime&)>& node_main,
                 const std::function<void(pm2::Runtime&)>& setup) {
  static std::atomic<uint32_t> session_seq{0};
  pm2::iso::AreaConfig ac;
  // Logical nodes share one address space (see pm2::run_app).
  ac.skip_decommit = true;
  pm2::iso::Area area(ac);
  std::shared_ptr<pm2::fabric::InProcHub> hub;
  std::string sock_dir;
  if (cfg.socket_fabric) {
    PM2_CHECK(::mkdir(cfg.run_dir.c_str(), 0700) == 0 || errno == EEXIST)
        << "cannot create " << cfg.run_dir;
    sock_dir = cfg.run_dir + "/s" + std::to_string(::getpid()) + "-" +
               std::to_string(session_seq.fetch_add(1));
    PM2_CHECK(::mkdir(sock_dir.c_str(), 0700) == 0 || errno == EEXIST)
        << "cannot create " << sock_dir;
  } else {
    hub = std::make_shared<pm2::fabric::InProcHub>(cfg.nodes);
  }
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < cfg.nodes; ++i) {
    threads.emplace_back([&, i] {
      pm2::RuntimeConfig rc;
      rc.node = i;
      rc.n_nodes = cfg.nodes;
      rc.workers = i == 0 && cfg.node0_workers > 0 ? cfg.node0_workers
                                                   : cfg.workers;
      // An explicit inactive plan masks any ambient PM2_FAULT_PLAN.
      rc.fault_plan = "seed=1";
      std::unique_ptr<pm2::fabric::Fabric> fab;
      if (cfg.socket_fabric) {
        pm2::fabric::SocketFabricConfig fc;
        fc.node_id = i;
        fc.n_nodes = cfg.nodes;
        fc.dir = sock_dir;
        fab = pm2::fabric::make_socket_fabric(fc);
      } else {
        fab = hub->endpoint(i);
      }
      pm2::Runtime rt(rc, area, std::move(fab));
      if (setup) setup(rt);
      rt.run([&rt, &node_main] {
        node_main(rt);
        rt.barrier();
        if (rt.self() == 0) rt.halt();
      });
    });
  }
  for (auto& t : threads) t.join();
  if (!sock_dir.empty()) {
    for (uint32_t i = 0; i < cfg.nodes; ++i)
      ::unlink((sock_dir + "/node" + std::to_string(i) + ".sock").c_str());
    ::rmdir(sock_dir.c_str());
    ::rmdir(cfg.run_dir.c_str());  // only succeeds once empty
  }
}

namespace {

/// A "<key>: <n> kB" line of /proc/self/status, in MiB.
double status_mb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  PM2_CHECK(f != nullptr) << "cannot read /proc/self/status";
  char line[256];
  const size_t len = std::strlen(key);
  double kib = 0;
  while (std::fgets(line, sizeof(line), f))
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      kib = std::strtod(line + len + 1, nullptr);
      break;
    }
  std::fclose(f);
  PM2_CHECK(kib > 0) << "no " << key << " in /proc/self/status";
  return kib / 1024.0;
}

}  // namespace

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so under run.py it would read the size of the Python that forked us.
double rss_peak_mb() { return status_mb("VmHWM"); }

double rss_now_mb() { return status_mb("VmRSS"); }

// --- per-layer counters ----------------------------------------------------------------

Counters snapshot(const std::vector<pm2::Runtime*>& nodes) {
  Counters c;
  for (pm2::Runtime* rt : nodes) {
    c.msgs += rt->fabric().messages_sent();
    c.bytes += rt->fabric().bytes_sent();
    c.copy_bytes += rt->fabric().payload_copy_bytes();
    for (const pm2::marcel::WorkerStats& w : rt->sched().worker_stats()) {
      c.dispatches += w.dispatches;
      c.steals += w.steals;
      c.steal_failures += w.steal_failures;
      c.handoffs += w.handoffs;
      c.idle_wakeups += w.idle_wakeups;
      c.worker_dispatches.push_back(w.dispatches);
    }
    c.pool_hits += rt->pool_hits();
    c.pool_misses += rt->pool_misses();
    const pm2::SlotStats& s = rt->slots().stats();
    c.slots_acquired += s.slots_acquired;
    c.slot_cache_hits += s.cache_hits;
    c.slot_cache_misses += s.cache_misses;
    c.commits += s.commits;
    c.decommits += s.decommits;
  }
  c.chunk_hits = pm2::mad::chunk_pool_hits();
  c.chunk_misses = pm2::mad::chunk_pool_misses();
  c.future_hits = pm2::marcel::detail::future_pool_hits();
  c.future_misses = pm2::marcel::detail::future_pool_misses();
  return c;
}

Counters& operator+=(Counters& acc, const Counters& c) {
  acc.msgs += c.msgs;
  acc.bytes += c.bytes;
  acc.copy_bytes += c.copy_bytes;
  acc.dispatches += c.dispatches;
  acc.steals += c.steals;
  acc.steal_failures += c.steal_failures;
  acc.handoffs += c.handoffs;
  acc.idle_wakeups += c.idle_wakeups;
  acc.pool_hits += c.pool_hits;
  acc.pool_misses += c.pool_misses;
  acc.slots_acquired += c.slots_acquired;
  acc.slot_cache_hits += c.slot_cache_hits;
  acc.slot_cache_misses += c.slot_cache_misses;
  acc.commits += c.commits;
  acc.decommits += c.decommits;
  acc.chunk_hits += c.chunk_hits;
  acc.chunk_misses += c.chunk_misses;
  acc.future_hits += c.future_hits;
  acc.future_misses += c.future_misses;
  if (acc.worker_dispatches.size() < c.worker_dispatches.size())
    acc.worker_dispatches.resize(c.worker_dispatches.size());
  for (size_t w = 0; w < c.worker_dispatches.size(); ++w)
    acc.worker_dispatches[w] += c.worker_dispatches[w];
  return acc;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void report_layer_counters(Report& rep, const Counters& b, const Counters& a,
                           double ops, const Counters& sb,
                           const Counters& sa) {
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  rep.metric("fabric.msgs_per_op", ratio(d(a.msgs, b.msgs), ops), "count");
  rep.metric("fabric.bytes_per_op", ratio(d(a.bytes, b.bytes), ops), "B");
  rep.metric("fabric.copy_bytes_per_op",
             ratio(d(a.copy_bytes, b.copy_bytes), ops), "B");
  rep.metric("marcel.steal_success_ratio",
             ratio(d(sa.steals, sb.steals),
                   d(sa.steals, sb.steals) +
                       d(sa.steal_failures, sb.steal_failures)),
             "ratio");
  rep.metric("marcel.idle_wakeups_per_op",
             ratio(d(sa.idle_wakeups, sb.idle_wakeups), ops), "count");
  rep.metric("marcel.handoffs_per_op", ratio(d(sa.handoffs, sb.handoffs), ops),
             "count");
  double busiest = 0;
  for (size_t w = 0; w < sa.worker_dispatches.size() &&
                     w < sb.worker_dispatches.size();
       ++w)
    busiest = std::max(busiest,
                       d(sa.worker_dispatches[w], sb.worker_dispatches[w]));
  rep.metric("marcel.busiest_worker_share",
             ratio(busiest, d(sa.dispatches, sb.dispatches)), "ratio");
  rep.metric("pm2.rpc.pool_hit_ratio",
             ratio(d(a.pool_hits, b.pool_hits),
                   d(a.pool_hits, b.pool_hits) +
                       d(a.pool_misses, b.pool_misses)),
             "ratio");
  rep.metric("mad.chunk_hit_ratio",
             ratio(d(a.chunk_hits, b.chunk_hits),
                   d(a.chunk_hits, b.chunk_hits) +
                       d(a.chunk_misses, b.chunk_misses)),
             "ratio");
  rep.metric("mad.future_hit_ratio",
             ratio(d(a.future_hits, b.future_hits),
                   d(a.future_hits, b.future_hits) +
                       d(a.future_misses, b.future_misses)),
             "ratio");
  rep.metric("iso.slot_cache_hit_ratio",
             ratio(d(a.slot_cache_hits, b.slot_cache_hits),
                   d(a.slot_cache_hits, b.slot_cache_hits) +
                       d(a.slot_cache_misses, b.slot_cache_misses)),
             "ratio");
  rep.metric("iso.commits_per_op", ratio(d(a.commits, b.commits), ops),
             "count");
  rep.metric("iso.decommits_per_op", ratio(d(a.decommits, b.decommits), ops),
             "count");
  rep.metric("iso.slots_acquired_per_task",
             ratio(d(a.slots_acquired, b.slots_acquired), ops), "count");
}

}  // namespace perfbench
