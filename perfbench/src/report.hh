/**
 * @file
 * The one run-report schema every workload fills in: the studies the
 * closed loop issued and what their correctness checks found, the
 * full-detailed baseline, the instructions by simulation mode, the
 * host facts, and (traced runs) the per-layer metrics. The report is
 * printed for people, written as JSON under the output directory, and
 * summarised in the result line the benchmark's last stdout line
 * carries.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sampler.hh"
#include "trace.hh"

namespace perfbench {

/** The seed whose estimate fingerprints are recorded. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string expectPath; ///< recorded fingerprints file.
};

/** Instructions by simulation mode behind a run's estimates. */
struct ModeCounts
{
    std::uint64_t functional = 0;   ///< fastForward(None): stream lengths.
    std::uint64_t fwarm = 0;        ///< functional warming.
    std::uint64_t detailedWarm = 0; ///< W before each unit.
    std::uint64_t measured = 0;     ///< U of each complete unit.
    std::uint64_t dropped = 0;      ///< a truncated final unit.
    std::uint64_t stream = 0;       ///< stream covered by the estimates.

    /** Add one estimate; @p fwarmed when its gaps were fast-forwarded. */
    void add(const smarts::core::SmartsEstimate &est, bool fwarmed);

    std::uint64_t
    detailed() const
    {
        return measured + detailedWarm + dropped;
    }

    double detailedFraction() const;
};

/** One closed-loop request and the verdict of its checks. */
struct Study
{
    std::string name;
    double seconds = 0.0;    ///< wall seconds (steady clock).
    double cpuSeconds = 0.0; ///< process CPU seconds (cpuNow).
    std::uint64_t instructions = 0; ///< stream instructions covered.
    bool ok = true;
    std::string why; ///< the first check that failed.

    void
    fail(const std::string &reason)
    {
        if (ok)
            why = reason;
        ok = false;
    }
};

/** One estimate against its full-detailed reference CPI. */
struct Accuracy
{
    std::string name;
    double cpi = 0.0;
    double ciRel = 0.0; ///< 99.7% CI half-width relative to cpi.
    double refCpi = 0.0;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    std::string workload;
    unsigned threads = 1; ///< pool workers the library was given.
    std::vector<double> setupReps; ///< CPU seconds of each set-up.
    double timedSeconds = 0.0;
    unsigned rounds = 0;
    std::vector<Study> studies; ///< every round, in issue order.
    std::size_t perRound = 0;   ///< studies in one round.
    std::vector<Accuracy> accuracy; ///< one per distinct estimate.
    ModeCounts modes;               ///< one round's estimates.
    double detailedSeconds = 0.0;   ///< CPU s of one full-detailed pass.
    std::uint64_t detailedInsts = 0;
    std::vector<std::pair<std::string, std::uint64_t>> fingerprints;
    std::vector<Metric> layers; ///< traced runs only.
    double untracedRoundS = 0.0; ///< traced runs only.
    double tracedRoundS = 0.0;
    std::vector<std::string> tables; ///< workload-specific tables.
};

/**
 * Recorded fingerprints ("fingerprint <workload> <study> <hex>"
 * lines). At the default seed every study must match its record; at
 * any other seed only the cross-path checks apply.
 */
class Expectations
{
  public:
    Expectations(std::uint64_t seed, const std::string &path);

    /** Record a mismatch (or a missing record) as a failed check. */
    void check(Study &study, const std::string &workload,
               std::uint64_t fingerprint) const;

    /** Replace one record (the self-test plants a wrong one). */
    void
    set(const std::string &workload, const std::string &study,
        std::uint64_t fingerprint)
    {
        records_[workload + ' ' + study] = fingerprint;
    }

  private:
    bool active_;
    std::map<std::string, std::uint64_t> records_;
};

/** FNV-1a over a library fingerprint's words. */
std::uint64_t hashFingerprint(const std::vector<std::uint64_t> &words);

double median(std::vector<double> values);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** End-to-end metrics: the gated ones first, then the ungated. */
std::vector<Metric> endToEnd(const RunResult &run);

/** Names of the end-to-end metrics the result line carries. */
bool isGated(const std::string &name);

/** Print the human-readable report (tables, host facts, metrics). */
void printReport(const Options &opt, const RunResult &run,
                 const Tracer &tracer);

/** Write the report as JSON under opt.outDir; false on IO error. */
bool writeReportJson(const Options &opt, const RunResult &run,
                     const std::string &path);

/** The result line: correct, attempted, failed and the metrics. */
std::string resultLine(const Options &opt, const RunResult &run);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
