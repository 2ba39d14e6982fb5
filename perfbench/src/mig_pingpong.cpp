// mig_pingpong: the paper's §5 measurement.  One PM2 thread ping-pongs
// between two in-process nodes (inproc fabric, one worker each) in a closed
// loop: first with no iso-heap data (null migration), then carrying 64 KiB
// of live pm2_isomalloc data in 16 seeded blocks.  Every hop checks
// pm2_self(), a token on the migrated stack and, with data, its checksum.
//
// Traced sessions install on_migration hooks and split each null hop into
// freeze (pm2_migrate call -> pre hook on the source), transfer (pre hook
// -> post hook on the destination: pack, ship, allocate, unpack) and resume
// (post hook -> the thread running on the destination).
#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/random.hpp"
#include "common/time.hpp"
#include "harness.hpp"
#include "pm2/api.hpp"

namespace perfbench {
namespace {

constexpr int kBlocks = 16;
constexpr size_t kPayloadBytes = 64 * 1024;
constexpr int kSessions = 30;

struct HookStamp {
  std::atomic<uint64_t> hop{0};
  std::atomic<uint64_t> ns{0};
  void mark(uint64_t h) {
    ns.store(pm2::now_ns(), std::memory_order_relaxed);
    hop.store(h, std::memory_order_release);
  }
  /// Timestamp of hop `h`, or 0 when the hook did not fire for it.
  uint64_t of(uint64_t h) const {
    return hop.load(std::memory_order_acquire) == h
               ? ns.load(std::memory_order_relaxed)
               : 0;
  }
};

/// One session's inputs and results.  Logical nodes share the address
/// space, so the migrating thread writes its samples here directly.
struct MigSession {
  uint64_t seed = 0;
  uint64_t start_ns = 0;
  uint64_t null_budget_ns = 0;
  uint64_t heavy_budget_ns = 0;
  bool traced = false;
  bool setup_only = false;
  size_t block_sizes[kBlocks] = {};

  double setup_s = 0;
  uint64_t failed = 0;
  Histogram null_ns, heavy_ns;
  Histogram freeze_ns, transfer_ns, resume_ns;
  uint64_t missing_hooks = 0;
  Counters heavy_before, heavy_after, sched_before, sched_after;
};

MigSession* g_session = nullptr;
pm2::Runtime* g_nodes[2] = {nullptr, nullptr};
std::atomic<uint64_t> g_hop{0};
HookStamp g_pre, g_post;

/// 16 block sizes summing to 64 KiB, each a multiple of 64 B.
void seed_blocks(uint64_t seed, size_t* sizes) {
  pm2::Rng rng(seed ^ 0xB10C5);
  size_t units = kPayloadBytes / 64;
  size_t left = units;
  for (int i = 0; i < kBlocks; ++i) {
    int rest = kBlocks - 1 - i;
    size_t lo = 1, hi = left - static_cast<size_t>(rest);
    size_t mean = left / static_cast<size_t>(rest + 1);
    size_t u = rest == 0 ? left
                         : std::clamp<size_t>(rng.next_range(mean / 2, mean * 3 / 2),
                                              lo, hi);
    sizes[i] = u * 64;
    left -= u;
  }
}

void pingpong_body(void*) {
  MigSession& s = *g_session;
  Span span("pingpong");
  const uint64_t token = s.seed * 0x9E3779B97F4A7C15ull + 1;
  volatile uint64_t stack_token = token;  // lives on the migrating stack
  uint64_t hop = 0;

  // One timed hop to `dest`; returns its one-way time, counting a failed
  // check in s.failed.  Traced null hops (`split`) record the stage split.
  auto hop_to = [&](uint32_t dest, bool split) -> uint64_t {
    ++hop;
    g_hop.store(hop, std::memory_order_relaxed);
    span.enter("pm2_migrate", hop);
    uint64_t t0 = pm2::now_ns();
    pm2::pm2_migrate(pm2::marcel_self(), dest);
    uint64_t t1 = pm2::now_ns();
    span.enter("check", hop);
    if (pm2::pm2_self() != dest || stack_token != token) ++s.failed;
    if (s.traced) {
      uint64_t pre = g_pre.of(hop), post = g_post.of(hop);
      if (pre == 0 || post == 0 || pre < t0 || post < pre || t1 < post) {
        ++s.missing_hooks;
      } else if (split) {
        s.freeze_ns.add(pre - t0);
        s.transfer_ns.add(post - pre);
        s.resume_ns.add(t1 - post);
      }
    }
    return t1 - t0;
  };

  // Warm-up round trip: both nodes up, both directions faulted in.
  hop_to(1, false);
  hop_to(0, false);
  s.setup_s = static_cast<double>(pm2::now_ns() - s.start_ns) / 1e9;
  if (s.setup_only) {
    pm2::pm2_signal(0);
    return;
  }

  uint64_t end = pm2::now_ns() + s.null_budget_ns;
  while (pm2::now_ns() < end) {
    s.null_ns.add(hop_to(1, true));
    s.null_ns.add(hop_to(0, true));
  }

  // 64 KiB of live iso-heap data, seeded contents.
  span.enter("pm2_isomalloc", hop);
  unsigned char* blocks[kBlocks];
  pm2::Rng fill(s.seed ^ 0xDA7A);
  uint64_t expect = 0;
  for (int i = 0; i < kBlocks; ++i) {
    blocks[i] = static_cast<unsigned char*>(pm2::pm2_isomalloc(s.block_sizes[i]));
    for (size_t off = 0; off < s.block_sizes[i]; off += 8) {
      uint64_t w = fill.next();
      std::memcpy(blocks[i] + off, &w, 8);
    }
    expect = checksum(blocks[i], s.block_sizes[i], expect);
  }
  auto verify = [&] {
    uint64_t h = 0;
    for (int i = 0; i < kBlocks; ++i) h = checksum(blocks[i], s.block_sizes[i], h);
    if (h != expect) ++s.failed;
  };
  hop_to(1, false);
  verify();
  hop_to(0, false);
  verify();

  s.heavy_before = snapshot({g_nodes[0], g_nodes[1]});
  s.sched_before = snapshot({g_nodes[1]});
  end = pm2::now_ns() + s.heavy_budget_ns;
  while (pm2::now_ns() < end) {
    s.heavy_ns.add(hop_to(1, false));
    verify();
    s.heavy_ns.add(hop_to(0, false));
    verify();
  }
  s.heavy_after = snapshot({g_nodes[0], g_nodes[1]});
  s.sched_after = snapshot({g_nodes[1]});

  span.enter("pm2_isofree", hop);
  for (unsigned char* b : blocks) pm2::pm2_isofree(b);
  span.leave();
  pm2::pm2_signal(0);
}

void run_one(MigSession& s) {
  g_session = &s;
  SessionConfig cfg;
  cfg.nodes = 2;
  cfg.workers = 1;
  s.start_ns = pm2::now_ns();
  run_session(
      cfg,
      [](pm2::Runtime& rt) {
        if (rt.self() != 0) return;
        Span span("node0.main");
        pm2::pm2_thread_create(&pingpong_body, nullptr, "pingpong");
        span.enter("pm2_wait_signals", 0);
        pm2::pm2_wait_signals(1);
        span.leave();
      },
      [&s](pm2::Runtime& rt) {
        g_nodes[rt.self()] = &rt;
        if (s.traced)
          rt.on_migration(
              [](pm2::marcel::Thread*) {
                g_pre.mark(g_hop.load(std::memory_order_relaxed));
              },
              [](pm2::marcel::Thread*) {
                g_post.mark(g_hop.load(std::memory_order_relaxed));
              });
      });
  g_nodes[0] = g_nodes[1] = nullptr;
  g_session = nullptr;
}

}  // namespace

void run_mig_pingpong(const Options& opt, Report& rep) {
  // Traced runs spend a quarter of the budget on untraced reference
  // sessions (for bench.trace_overhead_pct) and a tenth on fabric probes.
  const int ref_sessions = opt.trace ? 2 : 0;
  const double probe_s = opt.trace ? opt.seconds * 0.1 : 0;
  const double per_session_s =
      (opt.seconds - probe_s) / static_cast<double>(kSessions + ref_sessions);

  std::vector<MigSession> ref(ref_sessions), runs(kSessions);
  size_t sizes[kBlocks];
  seed_blocks(opt.seed, sizes);
  auto prepare = [&](MigSession& s, bool traced) {
    s.seed = opt.seed;
    s.traced = traced;
    s.null_budget_ns = static_cast<uint64_t>(per_session_s * 0.5e9);
    s.heavy_budget_ns = static_cast<uint64_t>(per_session_s * 0.5e9);
    std::copy(sizes, sizes + kBlocks, s.block_sizes);
  };
  std::vector<double> setup;
  uint64_t hops = 0, failed = 0;
  auto account = [&](const MigSession& s) {
    hops += s.null_ns.count() + s.heavy_ns.count() + 4;
    failed += s.failed;
  };
  auto measure = [&](MigSession& s, bool traced) {
    for (int i = 0; i < kSetupsPerSession; ++i) {
      MigSession only;
      prepare(only, false);
      only.setup_only = true;
      run_one(only);
      setup.push_back(only.setup_s);
      account(only);
    }
    prepare(s, traced);
    run_one(s);
    account(s);
  };
  for (MigSession& s : ref) measure(s, false);
  for (MigSession& s : runs) measure(s, opt.trace);
  rep.ops(hops, failed);
  rep.check(failed == 0, "every hop lands on its destination with intact data");
  rep.metric("setup_s", setup_seconds(setup), "s");

  report_latency(rep, "mig_null", runs, &MigSession::null_ns);
  report_latency(rep, "mig_64k", runs, &MigSession::heavy_ns);
  rep.metric("mig_64k_per_s", session_median(runs, [](const MigSession& s) {
               return ratio(1e9 * static_cast<double>(s.heavy_ns.count()),
                            static_cast<double>(s.heavy_ns.sum_ns()));
             }),
             "1/s");

  if (!opt.trace) return;

  uint64_t missing = 0;
  for (const MigSession& s : runs) missing += s.missing_hooks;
  rep.check(missing == 0, "every traced hop saw its pre and post hooks");
  Histogram transfer = merged(runs, &MigSession::transfer_ns);
  rep.metric("pm2.mig.freeze_p50_us",
             merged(runs, &MigSession::freeze_ns).p50_us(), "us");
  rep.metric("pm2.mig.transfer_p50_us", transfer.p50_us(), "us");
  rep.metric("pm2.mig.transfer_p99_us", transfer.p99_us(), "us");
  rep.metric("pm2.mig.resume_p50_us",
             merged(runs, &MigSession::resume_ns).p50_us(), "us");
  rep.samples("pm2.mig.transfer", transfer.count());

  Counters before, after, sched_before, sched_after;
  double heavy_hops = 0;
  for (const MigSession& s : runs) {
    // Counters restart with every session: sum the per-session values.
    before += s.heavy_before;
    after += s.heavy_after;
    sched_before += s.sched_before;
    sched_after += s.sched_after;
    heavy_hops += static_cast<double>(s.heavy_ns.count());
  }
  report_layer_counters(rep, before, after, heavy_hops, sched_before,
                        sched_after);
  rep.metric("pm2.mig.wire_bytes_per_mig",
             ratio(static_cast<double>(after.bytes - before.bytes), heavy_hops),
             "B");

  rep.metric("bench.trace_overhead_pct",
             100.0 * (ratio(merged(runs, &MigSession::null_ns).p50_us(),
                            merged(ref, &MigSession::null_ns).p50_us()) -
                      1.0),
             "%");
  run_fabric_probes(opt, rep, probe_s);
}

}  // namespace perfbench
