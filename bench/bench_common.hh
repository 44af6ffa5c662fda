/**
 * @file
 * Shared infrastructure for the experiment-reproduction benches: one
 * binary per paper table/figure, each printing the paper-style series
 * and writing a CSV artifact next to the binary.
 *
 * Common flags (all optional):
 *   --scale=mini|small|large   benchmark scale (default mini)
 *   --suite=quick|standard     benchmark set (default per bench)
 *   --machine=8|16|both        machine configuration(s)
 *   --csv=<path>               CSV output path override
 *   --section=<name>           run only one section of the bench
 *                              (benches that have sections)
 *   --store=<dir>              checkpoint-store root for benches
 *                              that persist/reuse warm libraries
 *   --json=<path>              machine-readable perf artifact for
 *                              benches that emit one (e.g. the
 *                              livepoint section's
 *                              BENCH_livepoints.json)
 */

#ifndef SMARTS_BENCH_COMMON_HH
#define SMARTS_BENCH_COMMON_HH

#include <chrono>
#include <string>
#include <vector>

#include "core/reference.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "uarch/config.hh"
#include "util/table.hh"
#include "workloads/benchmark.hh"

namespace smarts::bench {

/** Parsed common command-line options. */
struct BenchOptions
{
    workloads::Scale scale = workloads::Scale::Mini;
    bool quickSuite = true;
    bool runEight = true;
    bool runSixteen = false;
    std::string csvPath;
    std::string section; ///< empty = every section of the bench.
    std::string storePath; ///< checkpoint-store root (--store=).
    std::string jsonPath;  ///< perf-artifact output path (--json=).

    std::vector<workloads::BenchmarkSpec>
    suite() const
    {
        return quickSuite ? workloads::quickSuite(scale)
                          : workloads::standardSuite(scale);
    }

    const char *
    scaleName() const
    {
        switch (scale) {
          case workloads::Scale::Mini: return "mini";
          case workloads::Scale::Small: return "small";
          case workloads::Scale::Large: return "large";
        }
        return "?";
    }
};

/**
 * Parse common flags. @p default_quick selects the suite when no
 * --suite flag is given.
 */
BenchOptions parseOptions(int argc, char **argv, bool default_quick,
                          const std::string &default_csv);

/** Machine configs selected by the options. */
std::vector<uarch::MachineConfig> machines(const BenchOptions &opt);

/** Paper-recommended detailed warming W for a machine (Section 5.1). */
std::uint64_t recommendedW(const uarch::MachineConfig &config);

/** Print a standard bench banner. */
void banner(const std::string &title, const BenchOptions &opt);

/** Emit the table to stdout and CSV (path from options). */
void emit(const TextTable &table, const BenchOptions &opt);

/** Wall-clock helper. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace smarts::bench

#endif // SMARTS_BENCH_COMMON_HH
