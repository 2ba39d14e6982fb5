// Shared machinery of pm2bench: the report every workload
// fills, the percentile rule, seeded arrival schedules, the open-span table
// the watchdog dumps, and the session launcher.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pm2/runtime.hpp"

namespace perfbench {

/// What one invocation measures.  `seconds` is the whole measured budget;
/// each workload splits it between its phases.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for socket-fabric
  /// rendezvous files; the benchmark writes nowhere else.
  std::string run_dir = ".bench_build/run";
};

/// Metrics, correctness checks and operation counts of one run, printed as
/// one JSON object.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// Sample count printed beside a percentile metric.
  void samples(const std::string& name, uint64_t n);
  /// Count `n` attempted operations, of which `failed` failed.
  void ops(uint64_t attempted, uint64_t failed);
  /// A named correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  /// Free-form structured detail (already valid JSON).
  void raw(const std::string& key, const std::string& json);

  bool correct() const { return failed_checks_.empty(); }
  std::string json(const std::string& fingerprint) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, uint64_t> samples_;
  std::map<std::string, std::string> raw_;
  std::vector<std::string> failed_checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- percentiles -------------------------------------------------------------

/// Samples strictly beyond the nearest-rank `permille` percentile of `n`.
uint64_t samples_beyond(uint64_t n, uint32_t permille);
/// The rule every reported percentile obeys: at least ten samples beyond.
bool reportable(uint64_t n, uint32_t permille);

/// Nanosecond samples in a log-linear histogram: exact below 128 ns, then
/// 128 buckets per power of two (< 0.8% wide).  Its memory (40 KiB, taken
/// at the first sample) is fixed however many samples a run takes, so the
/// benchmark's own bookkeeping does not grow with the program's speed.
class Histogram {
 public:
  Histogram();
  void add(uint64_t ns);
  void merge(const Histogram& other);
  uint64_t count() const { return n_; }
  uint64_t sum_ns() const { return sum_; }
  /// Nearest-rank percentile, interpolated inside its bucket; 0 when empty.
  double percentile_ns(uint32_t permille) const;
  double p50_us() const { return percentile_ns(500) / 1e3; }
  /// p99 in µs when reportable (at least ten samples beyond), else 0.
  double p99_us() const {
    return reportable(n_, 990) ? percentile_ns(990) / 1e3 : 0;
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
  uint64_t sum_ = 0;
};

/// Report `<name>_p50_us`, the median over sessions of each session's p50
/// (thread placement and host stalls move whole sessions; the median
/// follows the typical one), and `<name>_p99_us` over the pooled samples of
/// every session, left out unless ten lie beyond it.  The pooled sample
/// count goes beside them.
void report_latency(Report& rep, const std::string& name,
                    const std::vector<const Histogram*>& sessions);

template <typename Session>
void report_latency(Report& rep, const std::string& name,
                    const std::vector<Session>& sessions,
                    Histogram Session::*field) {
  std::vector<const Histogram*> hs;
  for (const Session& s : sessions) hs.push_back(&(s.*field));
  report_latency(rep, name, hs);
}

/// Median (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> v);

/// Median over sessions of `f(session)`.
template <typename Session, typename F>
double session_median(const std::vector<Session>& sessions, F f) {
  std::vector<double> v;
  for (const Session& s : sessions) v.push_back(f(s));
  return median(v);
}

/// Merge one histogram of every session.
template <typename Session>
Histogram merged(const std::vector<Session>& sessions,
                 Histogram Session::*field) {
  Histogram out;
  for (const Session& s : sessions) out.merge(s.*field);
  return out;
}

// --- open-loop rate ladder ------------------------------------------------------

/// One rung of an open-loop rate ladder, as measured.
struct RungStat {
  double rate = 0;            // offered calls/s
  double lat_us = 0;          // the latency percentile held to the limit
  bool lat_reportable = false;
  uint64_t failed = 0;
  double lag_us = 0;          // generator lateness, same percentile
  bool overloaded = false;    // a session had to cut its backlog off
};

/// A rung meets the limit when it was not overloaded, its latency
/// percentile is reportable and within the limit, no call failed and the
/// generator's lag, at the same percentile, stayed within the limit.
bool rung_passes(const RungStat& r, double limit_us);

/// Highest offered rate of the rungs that meet the limit; 0 if none does.
/// Quantized to a rung, so it repeats whenever the same rungs pass.
double max_rate(const std::vector<RungStat>& rungs, double limit_us);

// --- seeded inputs -----------------------------------------------------------

/// Poisson arrivals: offsets (ns from the schedule start) of exponential
/// inter-arrival gaps at `rate_per_s`, until `duration_ns`.  Same seed,
/// same schedule.
std::vector<uint64_t> poisson_schedule(uint64_t seed, double rate_per_s,
                                       uint64_t duration_ns);

/// Order-sensitive 64-bit checksum of a byte range (FNV-style multiply
/// and xor-shift over 8-byte words).
uint64_t checksum(const void* data, size_t len, uint64_t h = 0xcbf29ce484222325ull);

// --- open spans (watchdog diagnostics) ----------------------------------------

/// Each actor (a PM2 thread or kernel thread of the benchmark) owns one
/// slot and marks the call it is about to make.  Cheap enough to leave on
/// in every run: two relaxed stores.  On expiry the watchdog prints every
/// slot, so a run wedged by a lost wakeup names the call it is stuck in.
class Span {
 public:
  explicit Span(const char* actor);
  void enter(const char* call, uint64_t op);
  void leave() { enter("-", op_); }

 private:
  int slot_;
  uint64_t op_ = 0;
};

/// Print the last open span of every actor to stderr.
void dump_open_spans();

/// Start the watchdog: after `cap_s` seconds it dumps the open spans and
/// terminates the process with exit code 3.
void start_watchdog(double cap_s);
void stop_watchdog();

// --- sessions ------------------------------------------------------------------

/// Sessions that stop right after their warm-up, run as one block before
/// each measured session, so the set-ups sample the host over the whole
/// run instead of one moment.
constexpr int kSetupsPerSession = 16;

/// setup_s of a run from its set-up-only sessions' times, in run order:
/// the median over blocks of kSetupsPerSession of each block's mean.  The
/// mean smooths set-up times that take one of two values (a socket connect
/// that retried once after a 200 µs back-off, or not; the first set-up
/// after a measured session, about twice as slow as the rest); the median
/// drops a block a host stall hit.
double setup_seconds(const std::vector<double>& setups);

struct SessionConfig {
  uint32_t nodes = 2;
  uint32_t workers = 1;
  uint32_t node0_workers = 0;  // 0 = `workers`
  bool socket_fabric = false;
  std::string run_dir;  // socket files go under here
};

/// Run one in-process session, the equivalent of pm2::run_app without its
/// fixed /tmp socket directory: `setup` runs on each node before its
/// scheduler starts, `node_main` as its main thread; when every main
/// returned the nodes meet at a barrier and node 0 halts.
void run_session(const SessionConfig& cfg,
                 const std::function<void(pm2::Runtime&)>& node_main,
                 const std::function<void(pm2::Runtime&)>& setup = {});

/// Peak resident set of the process in MiB (VmHWM).
double rss_peak_mb();
/// Resident set of the process now, in MiB (VmRSS).
double rss_now_mb();

// --- workloads ------------------------------------------------------------------

void run_mig_pingpong(const Options& opt, Report& rep);
void run_rpc_echo(const Options& opt, Report& rep);
void run_rpc_open(const Options& opt, Report& rep);
void run_spawn_tree(const Options& opt, Report& rep);
/// Raw fabric send/recv_until ping-pongs between two kernel threads, no
/// runtime (traced runs only).
void run_fabric_probes(const Options& opt, Report& rep, double seconds);

// --- per-layer counter helpers ---------------------------------------------------

/// Snapshot of the public counters of one node plus the process-wide pools.
struct Counters {
  uint64_t msgs = 0, bytes = 0, copy_bytes = 0;
  uint64_t dispatches = 0, steals = 0, steal_failures = 0, handoffs = 0,
           idle_wakeups = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t slots_acquired = 0, slot_cache_hits = 0, slot_cache_misses = 0,
           commits = 0, decommits = 0;
  uint64_t chunk_hits = 0, chunk_misses = 0, future_hits = 0,
           future_misses = 0;
  std::vector<uint64_t> worker_dispatches;  // per worker, in node order
};
/// Field-wise sum (per-session snapshots of separate sessions).
Counters& operator+=(Counters& acc, const Counters& c);
/// Sum of the counters of `nodes` (process-wide pools counted once).
Counters snapshot(const std::vector<pm2::Runtime*>& nodes);
/// Per-layer ratios of (after - before) over `ops` operations:
/// fabric.*_per_op, marcel.*, iso.*, mad.*_hit_ratio, pm2.rpc.pool_hit_ratio.
/// The marcel ratios come from the `sched_*` snapshots, which cover only
/// the node doing the workload's work.
void report_layer_counters(Report& rep, const Counters& before,
                           const Counters& after, double ops,
                           const Counters& sched_before,
                           const Counters& sched_after);

double ratio(double num, double den);

}  // namespace perfbench
