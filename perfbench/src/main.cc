/**
 * @file
 * perfbench: the repository benchmark (perfbench/README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>] [--expect <fingerprints file>]
 *   perfbench --self-test [--out <dir>]
 *
 * Prints a human-readable report, writes it as JSON (and, traced, a
 * Chrome trace) under --out, and ends stdout with one result line:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload cold_large|livepoint_warm|"
                 "corun_mix --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--expect FILE]\n"
                 "       perfbench --self-test [--out DIR]\n",
                 problem.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    bool selfTestMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            selfTestMode = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--out") {
            opt.outDir = value;
        } else if (arg == "--expect") {
            opt.expectPath = value;
        } else {
            usage("unknown option " + arg);
        }
        if (end && (*end || value.empty()))
            usage("bad number for " + arg + ": " + value);
    }
    std::filesystem::create_directories(opt.outDir);
    if (selfTestMode)
        return selfTest(opt);
    if (!knownWorkload(opt.workload))
        usage("unknown workload '" + opt.workload + "'");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");

    const Expectations expect(opt.seed, opt.expectPath);
    Tracer tracer(opt.trace);
    const RunResult run = runWorkload(opt, expect, tracer);

    printReport(opt, run, tracer);
    const std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    if (!writeReportJson(opt, run, stem + ".report.json"))
        std::fprintf(stderr, "perfbench: cannot write %s.report.json\n",
                     stem.c_str());
    if (opt.trace && !tracer.writeChromeTrace(stem + ".trace.json"))
        std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                     stem.c_str());
    std::printf("report: %s.report.json%s\n", stem.c_str(),
                opt.trace ? (", trace: " + stem + ".trace.json").c_str()
                          : "");
    std::printf("%s\n", resultLine(opt, run).c_str());
    return 0;
}
