#include "build_stamp.hpp"

namespace perfbench {
const char* lib_build_stamp() { return PERFBENCH_STAMP; }
}  // namespace perfbench
