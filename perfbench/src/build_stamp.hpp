// The compile settings that change libpm2's header-inline layout, as one
// string.  build_stamp.cpp is compiled into libpm2 with the library's own
// flags; pm2bench compares that copy with the one its own translation
// unit expands, so a pm2bench built with other flags fails at start instead
// of hanging on a mis-laid-out lock (NDEBUG toggles PM2_LOCK_CHECKS).
#pragma once

#include "sys/spinlock.hpp"

#define PERFBENCH_STR2(x) #x
#define PERFBENCH_STR(x) PERFBENCH_STR2(x)

#ifdef NDEBUG
#define PERFBENCH_NDEBUG "1"
#else
#define PERFBENCH_NDEBUG "0"
#endif
#ifdef __OPTIMIZE__
#define PERFBENCH_OPTIMIZED "1"
#else
#define PERFBENCH_OPTIMIZED "0"
#endif
#ifdef PM2_ASM_CONTEXT
#define PERFBENCH_ASM_CONTEXT "1"
#else
#define PERFBENCH_ASM_CONTEXT "0"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#define PERFBENCH_STAMP                                                   \
  "build_type=" PERFBENCH_BUILD_TYPE " ndebug=" PERFBENCH_NDEBUG          \
  " optimized=" PERFBENCH_OPTIMIZED                                       \
  " lock_checks=" PERFBENCH_STR(PM2_LOCK_CHECKS)                          \
  " asm_context=" PERFBENCH_ASM_CONTEXT " compiler=" __VERSION__

namespace perfbench {
/// PERFBENCH_STAMP as libpm2 was compiled.
const char* lib_build_stamp();
}  // namespace perfbench
