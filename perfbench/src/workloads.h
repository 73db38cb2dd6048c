// The four workloads. Each builds its inputs from Args::seed, reports
// `setup_s` (process start to the end of its set-up), runs its timed
// phase for about Args::seconds, checks its own outputs, and fills the
// Result with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunTpchRefreshed(const Args& args, int64_t start_ns, Result* result);
void RunDenseDeltaScan(const Args& args, int64_t start_ns, Result* result);
void RunHtapRefresh(const Args& args, int64_t start_ns, Result* result);
void RunDurableIngest(const Args& args, int64_t start_ns, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
