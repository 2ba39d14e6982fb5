// pm2bench: runs one benchmark workload and prints one JSON line with its
// metrics, correctness checks, operation counts and the host/build
// fingerprint.  perfbench/run.py builds and drives it; see README.md.
//
//   pm2bench --workload mig_pingpong --seed 7 --seconds 10 --trace 0
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "build_stamp.hpp"
#include "common/flags.hpp"
#include "harness.hpp"

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Allowed CPUs as a range list ("0-3,6").
std::string cpu_mask(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    ++*count;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    out += (out.empty() ? "" : ",") + std::to_string(c);
    if (end > c) out += "-" + std::to_string(end);
    *count += end - c;
    c = end;
  }
  return out;
}

std::string fingerprint() {
  utsname u{};
  ::uname(&u);
  int allowed = 0;
  std::string mask = cpu_mask(&allowed);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpus_online\": %ld, \"cpus_allowed\": %d, \"cpu_mask\": \"%s\", "
      "\"cpu_model\": \"%s\", \"kernel\": \"%s %s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"ndebug\": %s, \"lock_checks\": %d, "
      "\"asm_context\": %s}",
      ::sysconf(_SC_NPROCESSORS_ONLN), allowed, mask.c_str(),
      cpu_model().c_str(), u.sysname, u.release, __VERSION__,
      PERFBENCH_BUILD_TYPE, PERFBENCH_NDEBUG, PM2_LOCK_CHECKS,
      PERFBENCH_ASM_CONTEXT);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: pm2bench --workload "
               "{mig_pingpong|rpc_echo|rpc_open|spawn_tree} --seed N "
               "--seconds S --trace {0|1} [--run-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(lib_build_stamp(), PERFBENCH_STAMP) != 0) {
    std::fprintf(stderr,
                 "pm2bench: build mismatch, refusing to run\n"
                 "  libpm2:   %s\n  pm2bench: %s\n",
                 lib_build_stamp(), PERFBENCH_STAMP);
    return 2;
  }
  pm2::Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.str("workload");
  opt.seed = static_cast<uint64_t>(flags.i64("seed", 1));
  opt.seconds = flags.f64("seconds", 10);
  opt.trace = flags.i64("trace", 0) != 0;
  opt.run_dir = flags.str("run-dir", opt.run_dir);
  if (opt.seconds <= 0 || opt.seconds > 60) return usage();

  void (*workload)(const Options&, Report&) = nullptr;
  if (opt.workload == "mig_pingpong") workload = &run_mig_pingpong;
  if (opt.workload == "rpc_echo") workload = &run_rpc_echo;
  if (opt.workload == "rpc_open") workload = &run_rpc_open;
  if (opt.workload == "spawn_tree") workload = &run_spawn_tree;
  if (workload == nullptr) return usage();

  // The runs take ~seconds plus set-ups; twice that plus slack means a
  // wakeup was lost, not that the host was slow.
  start_watchdog(std::min(2 * opt.seconds + 30, 160.0));
  Report rep;
  workload(opt, rep);
  rep.metric("rss_peak_mb", rss_peak_mb(), "MiB");
  stop_watchdog();
  std::printf("%s\n", rep.json(fingerprint()).c_str());
  return rep.correct() ? 0 : 1;
}
