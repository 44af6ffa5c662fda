/**
 * @file
 * The benchmark's three workloads (cold_large, livepoint_warm,
 * corun_mix; see perfbench/README.md for why each exists) and the
 * self-test of their correctness checks.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>

#include "report.hh"
#include "trace.hh"

namespace perfbench {

bool knownWorkload(const std::string &name);

/** Set up, run the closed loop, measure the baseline and check. */
RunResult runWorkload(const Options &opt, const Expectations &expect,
                      Tracer &tracer);

/**
 * Feed the checks a wrong expected fingerprint and a corrupted entry
 * in a scratch store; 0 when each is counted as a failed study (and
 * the untampered controls pass), 1 otherwise.
 */
int selfTest(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
