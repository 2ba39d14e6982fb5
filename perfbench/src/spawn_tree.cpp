// spawn_tree: the irregular-task use of the runtime (as in
// examples/load_balancing.cpp and examples/branch_and_bound.cpp).  One node
// forks batches of short PM2 threads and joins them; the identical seeded
// task sequence runs at workers=1 and at workers=4.  Each task receives its
// arguments through pm2_thread_create_copy, makes one small
// pm2_isomalloc/pm2_isofree, does a few µs of seeded integer work and
// publishes its result; every batch's results must sum to the closed-form
// value of its tasks.  No fabric traffic: fabric and RPC changes should not
// move this workload.
#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/random.hpp"
#include "common/time.hpp"
#include "harness.hpp"
#include "pm2/api.hpp"

namespace perfbench {
namespace {

constexpr size_t kBatch = 64;
constexpr size_t kSpecs = 4096;
constexpr int kSessionPairs = 20;
constexpr uint64_t kPoison = ~uint64_t{0};

struct TaskSpec {
  uint64_t base;
  uint32_t iters;
  uint32_t alloc;
};

/// What the child receives (copied into its own iso-heap).
struct TaskArg {
  uint32_t slot;
  uint32_t spec;
};

struct TaskOut {
  std::atomic<uint64_t> result{0};
  std::atomic<uint64_t> entry_ns{0};
  std::atomic<uint64_t> alloc_ns{0};
};

const TaskSpec* g_specs = nullptr;
TaskOut g_out[kBatch];
std::atomic<bool> g_traced{false};

/// Closed form of the sum the task computes with a loop.
uint64_t expected_result(const TaskSpec& t) {
  uint64_t n = t.iters;
  return n * t.base + n * (n - 1) / 2;
}

void task_body(void* raw) {
  TaskArg in;
  std::memcpy(&in, raw, sizeof(in));
  pm2::pm2_isofree(raw);
  const bool traced = g_traced.load(std::memory_order_relaxed);
  TaskOut& out = g_out[in.slot];
  if (traced) out.entry_ns.store(pm2::now_ns(), std::memory_order_relaxed);
  const TaskSpec& t = g_specs[in.spec];

  uint64_t t0 = traced ? pm2::now_ns() : 0;
  auto* block = static_cast<uint8_t*>(pm2::pm2_isomalloc(t.alloc));
  if (traced) out.alloc_ns.store(pm2::now_ns() - t0, std::memory_order_relaxed);
  std::memset(block, static_cast<int>(in.spec & 0xff), t.alloc);

  uint64_t acc = 0;
  for (uint64_t k = 0; k < t.iters; ++k) {
    acc += t.base + k;
    asm volatile("" : "+r"(acc));  // keep the loop: it is the task's work
  }
  // The block must still hold what the task wrote (adds zero when intact).
  acc += static_cast<uint64_t>(block[t.alloc - 1]) - (in.spec & 0xff);
  pm2::pm2_isofree(block);
  out.result.store(acc, std::memory_order_relaxed);
}

struct TreeSession {
  uint32_t workers = 1;
  bool setup_only = false;
  uint64_t start_ns = 0;
  uint64_t budget_ns = 0;

  double setup_s = 0;
  uint64_t tasks = 0;
  uint64_t failed = 0;
  Histogram batch_ns;  // measured fork-join makespans
  Histogram create_ns, start_wait_ns, join_ns, alloc_ns;
  Counters before, after;
};

/// Fork one batch of kBatch tasks and join them all; returns false when
/// the results do not sum to the batch's closed-form value.
bool run_batch(TreeSession& s, uint64_t& next_spec, Span& span) {
  const bool traced = g_traced.load(std::memory_order_relaxed);
  pm2::marcel::ThreadId ids[kBatch];
  uint64_t created_at[kBatch];
  uint64_t expect = 0;
  for (uint32_t j = 0; j < kBatch; ++j) {
    TaskArg arg{j, static_cast<uint32_t>(next_spec++ % kSpecs)};
    expect += expected_result(g_specs[arg.spec]);
    // A task that never publishes must fail the sum, not reuse the last
    // batch's result in its slot.
    g_out[j].result.store(kPoison, std::memory_order_relaxed);
    span.enter("pm2_thread_create_copy", next_spec);
    uint64_t t0 = traced ? pm2::now_ns() : 0;
    ids[j] = pm2::pm2_thread_create_copy(&task_body, &arg, sizeof(arg), "task");
    if (traced) {
      created_at[j] = pm2::now_ns();
      s.create_ns.add(created_at[j] - t0);
    }
  }
  for (uint32_t j = 0; j < kBatch; ++j) {
    span.enter("pm2_join", ids[j]);
    uint64_t t0 = traced ? pm2::now_ns() : 0;
    // False means the task had already exited: nothing to wait for.
    pm2::pm2_join(ids[j]);
    if (traced) s.join_ns.add(pm2::now_ns() - t0);
  }
  uint64_t sum = 0;
  for (uint32_t j = 0; j < kBatch; ++j) {
    sum += g_out[j].result.load(std::memory_order_relaxed);
    if (traced) {
      // With several workers a task may start before its create returns.
      uint64_t entry = g_out[j].entry_ns.load(std::memory_order_relaxed);
      s.start_wait_ns.add(entry > created_at[j] ? entry - created_at[j] : 0);
      s.alloc_ns.add(g_out[j].alloc_ns.load(std::memory_order_relaxed));
    }
  }
  return sum == expect;
}

void spawner(pm2::Runtime& rt, TreeSession& s) {
  Span span("spawner");
  uint64_t next_spec = 0;
  // Warm-up batch: the runtime is up and one fork-join completed.
  if (!run_batch(s, next_spec, span)) ++s.failed;
  s.setup_s = static_cast<double>(pm2::now_ns() - s.start_ns) / 1e9;
  s.tasks += kBatch;
  if (s.setup_only) return;
  s.create_ns = s.start_wait_ns = s.join_ns = s.alloc_ns = Histogram();

  next_spec = 0;  // the measured sequence is the same at every worker count
  s.before = snapshot({&rt});
  uint64_t end = pm2::now_ns() + s.budget_ns;
  while (pm2::now_ns() < end) {
    uint64_t t0 = pm2::now_ns();
    if (!run_batch(s, next_spec, span)) ++s.failed;
    s.batch_ns.add(pm2::now_ns() - t0);
    s.tasks += kBatch;
  }
  s.after = snapshot({&rt});
  span.leave();
}

void run_one(TreeSession& s, bool traced) {
  g_traced.store(traced, std::memory_order_relaxed);
  SessionConfig cfg;
  cfg.nodes = 1;
  cfg.workers = s.workers;
  s.start_ns = pm2::now_ns();
  run_session(cfg, [&s](pm2::Runtime& rt) { spawner(rt, s); });
  g_traced.store(false, std::memory_order_relaxed);
}

/// Tasks per second over all the sessions at `workers`.  At workers=4 a
/// session runs in one of two modes (batches of ~390 or ~580 µs on the
/// reference host, about half the sessions each), so a median over
/// sessions flips between them; the pooled rate averages the mix.
double tasks_per_s(const std::vector<TreeSession>& ss, uint32_t workers) {
  double tasks = 0, busy_ns = 0;
  for (const TreeSession& s : ss)
    if (s.workers == workers) {
      tasks += static_cast<double>(s.batch_ns.count() * kBatch);
      busy_ns += static_cast<double>(s.batch_ns.sum_ns());
    }
  return ratio(1e9 * tasks, busy_ns);
}

}  // namespace

void run_spawn_tree(const Options& opt, Report& rep) {
  pm2::Rng rng(opt.seed ^ 0x7EE);
  std::vector<TaskSpec> specs(kSpecs);
  for (TaskSpec& t : specs) {
    t.base = rng.next() >> 24;
    t.iters = static_cast<uint32_t>(rng.next_range(3000, 9000));
    t.alloc = static_cast<uint32_t>(rng.next_range(16, 512));
  }
  g_specs = specs.data();

  // Traced runs add one untraced workers=4 session as the overhead
  // reference, and probe the fabrics for the last tenth of the budget.
  const int ref_sessions = opt.trace ? 1 : 0;
  const double probe_s = opt.trace ? opt.seconds * 0.1 : 0;
  const double per_session_s = (opt.seconds - probe_s) /
                               static_cast<double>(2 * kSessionPairs + ref_sessions);
  std::vector<TreeSession> ref(ref_sessions), runs(2 * kSessionPairs);
  for (TreeSession& s : ref) s.workers = 4;
  for (size_t i = 0; i < runs.size(); ++i) runs[i].workers = i % 2 ? 4 : 1;
  std::vector<double> setup;
  uint64_t tasks = 0, failed = 0;
  auto run = [&](TreeSession& s, bool traced) {
    s.budget_ns = static_cast<uint64_t>(per_session_s * 1e9);
    run_one(s, traced);
    tasks += s.tasks;
    failed += s.failed;
  };
  // Set-ups run at workers=4, the headline configuration.
  auto measure = [&](TreeSession& s, bool traced) {
    for (int i = 0; i < kSetupsPerSession; ++i) {
      TreeSession only;
      only.workers = 4;
      only.setup_only = true;
      run(only, false);
      setup.push_back(only.setup_s);
    }
    run(s, traced);
  };
  for (TreeSession& s : ref) measure(s, false);
  for (TreeSession& s : runs) measure(s, opt.trace);
  g_specs = nullptr;
  rep.ops(tasks, failed * kBatch);
  rep.check(failed == 0, "every batch's results sum to their closed form");
  rep.metric("setup_s", setup_seconds(setup), "s");

  std::vector<TreeSession> w4_runs;
  for (const TreeSession& s : runs)
    if (s.workers == 4) w4_runs.push_back(s);
  report_latency(rep, "tree_batch", w4_runs, &TreeSession::batch_ns);
  const double w4 = tasks_per_s(runs, 4), w1 = tasks_per_s(runs, 1);
  rep.metric("tree_tasks_per_s", w4, "1/s");
  rep.metric("tree_batch_mean_us", ratio(1e6 * kBatch, w4), "us");
  rep.metric("tree_w1_tasks_per_s", w1, "1/s");

  if (!opt.trace) return;

  Counters before, after;
  double w4_tasks = 0;
  for (const TreeSession& s : w4_runs) {
    before += s.before;
    after += s.after;
    w4_tasks += static_cast<double>(s.batch_ns.count() * kBatch);
  }
  rep.metric("marcel.scaling_w4_over_w1", ratio(w4, w1), "ratio");
  rep.metric("marcel.create_p50_us",
             merged(w4_runs, &TreeSession::create_ns).p50_us(), "us");
  rep.metric("marcel.start_wait_p50_us",
             merged(w4_runs, &TreeSession::start_wait_ns).p50_us(), "us");
  rep.metric("marcel.join_wait_p50_us",
             merged(w4_runs, &TreeSession::join_ns).p50_us(), "us");
  rep.metric("iso.alloc_p50_ns",
             merged(w4_runs, &TreeSession::alloc_ns).percentile_ns(500), "ns");
  report_layer_counters(rep, before, after, w4_tasks, before, after);
  rep.metric("bench.trace_overhead_pct",
             100.0 * (ratio(tasks_per_s(ref, 4), w4) - 1.0), "%");
  run_fabric_probes(opt, rep, probe_s);
}

}  // namespace perfbench
