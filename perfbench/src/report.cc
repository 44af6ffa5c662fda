#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/binary_io.hh"

namespace perfbench {

void
ModeCounts::add(const smarts::core::SmartsEstimate &est, bool fwarmed)
{
    const std::uint64_t detailed = est.instructionsMeasured +
                                   est.instructionsWarmed +
                                   est.instructionsDropped;
    measured += est.instructionsMeasured;
    detailedWarm += est.instructionsWarmed;
    dropped += est.instructionsDropped;
    stream += est.streamLength;
    if (fwarmed && est.streamLength > detailed)
        fwarm += est.streamLength - detailed;
}

double
ModeCounts::detailedFraction() const
{
    return stream ? static_cast<double>(detailed()) /
                        static_cast<double>(stream)
                  : 0.0;
}

Expectations::Expectations(std::uint64_t seed, const std::string &path)
    : active_(seed == kDefaultSeed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string tag, workload, study, hex;
        if (!(fields >> tag >> workload >> study >> hex) ||
            tag != "fingerprint")
            continue;
        records_[workload + ' ' + study] =
            std::stoull(hex, nullptr, 16);
    }
}

void
Expectations::check(Study &study, const std::string &workload,
                    std::uint64_t fingerprint) const
{
    if (!active_)
        return;
    const auto it = records_.find(workload + ' ' + study.name);
    if (it == records_.end())
        study.fail("no recorded fingerprint at the default seed");
    else if (it->second != fingerprint)
        study.fail("estimate fingerprint differs from the recorded one");
}

std::uint64_t
hashFingerprint(const std::vector<std::uint64_t> &words)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t w : words) {
        std::uint8_t bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(w >> (8 * i));
        h = smarts::util::fnv1a(bytes, sizeof bytes, h);
    }
    return h;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::size_t
failedCount(const RunResult &run)
{
    return static_cast<std::size_t>(
        std::count_if(run.studies.begin(), run.studies.end(),
                      [](const Study &s) { return !s.ok; }));
}

/** Number formatted with every digit (round-trips a double). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

} // namespace

bool
isGated(const std::string &name)
{
    return name == "setup_s" || name == "sim_mips" ||
           name == "study_s_p50" || name == "peak_rss_mb";
}

std::vector<Metric>
endToEnd(const RunResult &run)
{
    // A study's time is its median CPU seconds over the rounds; the
    // round's studies are the distinct ones.
    std::vector<std::vector<double>> rounds(run.perRound);
    std::uint64_t covered = 0;
    for (std::size_t k = 0; k < run.studies.size() && run.perRound; ++k) {
        rounds[k % run.perRound].push_back(run.studies[k].cpuSeconds);
        if (k < run.perRound)
            covered += run.studies[k].instructions;
    }
    std::vector<double> perStudy;
    double perStudySum = 0.0;
    for (const std::vector<double> &times : rounds) {
        perStudy.push_back(median(times));
        perStudySum += perStudy.back();
    }
    double err = 0.0;
    std::size_t inside = 0;
    for (const Accuracy &a : run.accuracy) {
        const double abs = std::fabs(a.cpi - a.refCpi);
        err += 100.0 * ratio(abs, a.refCpi);
        inside += abs <= a.ciRel * a.cpi ? 1 : 0;
    }
    const double n = static_cast<double>(run.accuracy.size());
    const double simMips =
        ratio(static_cast<double>(covered), perStudySum) / 1e6;
    const double detailedMips =
        ratio(static_cast<double>(run.detailedInsts),
              run.detailedSeconds) / 1e6;
    return {
        {"setup_s", median(run.setupReps), "s"},
        {"sim_mips", simMips, "MIPS"},
        {"study_s_p50", median(perStudy), "s"},
        {"detailed_mips", detailedMips, "MIPS"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"cpi_err_pct", ratio(err, n), "%"},
        {"ci_covered", ratio(static_cast<double>(inside), n),
         "fraction"},
        {"failed_frac",
         ratio(static_cast<double>(failedCount(run)),
               static_cast<double>(run.studies.size())),
         "fraction"},
        {"speedup_x", ratio(simMips, detailedMips), "x"},
        {"studies", static_cast<double>(run.perRound), "count"},
    };
}

void
printReport(const Options &opt, const RunResult &run,
            const Tracer &tracer)
{
    std::printf("== perfbench %s  seed=%llu  trace=%d\n",
                run.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0);
    std::printf("host: nproc=%u  threads=%u  build=%s\n",
                std::thread::hardware_concurrency(), run.threads,
                PERFBENCH_BUILD_TYPE);
    std::printf("closed loop, 1 client: %u round(s), %zu studies, "
                "%.3f s timed\n\n",
                run.rounds, run.studies.size(), run.timedSeconds);

    std::printf("%-28s %10s %10s %10s  %s\n", "study", "cpu s",
                "wall s", "MInst", "check");
    for (const Study &s : run.studies)
        std::printf("%-28s %10.4f %10.4f %10.2f  %s\n", s.name.c_str(),
                    s.cpuSeconds, s.seconds,
                    static_cast<double>(s.instructions) / 1e6,
                    s.ok ? "ok" : ("FAILED: " + s.why).c_str());

    std::printf("\n%-28s %10s %10s %8s %8s %s\n", "estimate", "cpi",
                "ref cpi", "err %", "ci %", "covered");
    for (const Accuracy &a : run.accuracy) {
        const double abs = std::fabs(a.cpi - a.refCpi);
        std::printf("%-28s %10.5f %10.5f %8.4f %8.4f %s\n",
                    a.name.c_str(), a.cpi, a.refCpi,
                    100.0 * ratio(abs, a.refCpi), 100.0 * a.ciRel,
                    abs <= a.ciRel * a.cpi ? "yes" : "no");
    }

    const ModeCounts &m = run.modes;
    std::printf("\ninstructions by mode (one round): functional %llu, "
                "fwarm %llu, detailed-warm %llu, measured %llu, "
                "dropped %llu of %llu stream -> detailed fraction "
                "%.4f\n",
                static_cast<unsigned long long>(m.functional),
                static_cast<unsigned long long>(m.fwarm),
                static_cast<unsigned long long>(m.detailedWarm),
                static_cast<unsigned long long>(m.measured),
                static_cast<unsigned long long>(m.dropped),
                static_cast<unsigned long long>(m.stream),
                m.detailedFraction());

    const std::vector<Metric> e2e = endToEnd(run);
    auto find = [&e2e](const char *name) {
        for (const Metric &x : e2e)
            if (x.name == name)
                return x.value;
        return 0.0;
    };
    std::printf("full-detailed baseline: %.2f MInst in %.4f CPU s -> %.2f "
                "MIPS; speedup sim_mips / detailed_mips = %.3fx "
                "(derived, ungated)\n\n",
                static_cast<double>(run.detailedInsts) / 1e6,
                run.detailedSeconds, find("detailed_mips"),
                find("speedup_x"));

    std::printf("end-to-end metrics:\n");
    for (const Metric &x : e2e)
        std::printf("  %-16s %16.6f %-9s %s\n", x.name.c_str(), x.value,
                    x.unit.c_str(), isGated(x.name) ? "gated" : "");

    for (const std::string &table : run.tables)
        std::printf("\n%s", table.c_str());

    if (opt.trace) {
        std::printf("\nper-layer metrics (traced run):\n");
        for (const Metric &x : run.layers)
            std::printf("  %-34s %16.6f %s\n", x.name.c_str(), x.value,
                        x.unit.c_str());
        double wall = 0.0;
        for (const Tracer::Span &s : tracer.spans())
            if (s.parent < 0)
                wall += s.end - s.start;
        std::printf("\nself time by span (share of %.3f s traced):\n"
                    "  %-40s %7s %10s %10s %7s\n",
                    wall, "span", "count", "total s", "self s",
                    "self %");
        for (const Tracer::Layer &l : tracer.layers())
            std::printf("  %-40s %7zu %10.4f %10.4f %7.2f\n",
                        l.name.c_str(), l.count, l.total, l.self,
                        100.0 * ratio(l.self, wall));
        const double overhead = run.tracedRoundS - run.untracedRoundS;
        std::printf("\ntracing overhead: traced round %.4f s - "
                    "untraced round %.4f s = %.4f s (%.2f%%)\n",
                    run.tracedRoundS, run.untracedRoundS, overhead,
                    100.0 * ratio(overhead, run.untracedRoundS));
    }

    std::printf("\n");
    for (const auto &fp : run.fingerprints)
        std::printf("fingerprint %s %s %016llx\n", run.workload.c_str(),
                    fp.first.c_str(),
                    static_cast<unsigned long long>(fp.second));
}

bool
writeReportJson(const Options &opt, const RunResult &run,
                const std::string &path)
{
    std::ostringstream j;
    j << "{\n  \"workload\": " << quoted(run.workload)
      << ",\n  \"seed\": " << opt.seed
      << ",\n  \"trace\": " << (opt.trace ? 1 : 0)
      << ",\n  \"host\": {\"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"threads\": " << run.threads
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE) << "}"
      << ",\n  \"setup_cpu_s_reps\": [";
    for (std::size_t i = 0; i < run.setupReps.size(); ++i)
        j << (i ? ", " : "") << num(run.setupReps[i]);
    j << "],\n  \"rounds\": " << run.rounds
      << ",\n  \"timed_s\": " << num(run.timedSeconds)
      << ",\n  \"end_to_end\": {";
    const std::vector<Metric> e2e = endToEnd(run);
    for (std::size_t i = 0; i < e2e.size(); ++i)
        j << (i ? ", " : "") << quoted(e2e[i].name) << ": {\"value\": "
          << num(e2e[i].value) << ", \"unit\": " << quoted(e2e[i].unit)
          << "}";
    j << "},\n  \"baseline\": {\"detailed_insts\": " << run.detailedInsts
      << ", \"detailed_cpu_s\": " << num(run.detailedSeconds) << "}"
      << ",\n  \"instructions_by_mode\": {\"functional\": "
      << run.modes.functional << ", \"fwarm\": " << run.modes.fwarm
      << ", \"detailed_warm\": " << run.modes.detailedWarm
      << ", \"measured\": " << run.modes.measured
      << ", \"dropped\": " << run.modes.dropped
      << ", \"stream\": " << run.modes.stream
      << ", \"detailed_fraction\": "
      << num(run.modes.detailedFraction()) << "}"
      << ",\n  \"studies\": [";
    for (std::size_t i = 0; i < run.studies.size(); ++i) {
        const Study &s = run.studies[i];
        j << (i ? ",\n    " : "\n    ") << "{\"name\": " << quoted(s.name)
          << ", \"seconds\": " << num(s.seconds)
          << ", \"cpu_seconds\": " << num(s.cpuSeconds)
          << ", \"instructions\": " << s.instructions
          << ", \"ok\": " << (s.ok ? "true" : "false")
          << ", \"why\": " << quoted(s.why) << "}";
    }
    j << "],\n  \"per_layer\": {";
    for (std::size_t i = 0; i < run.layers.size(); ++i)
        j << (i ? ", " : "") << quoted(run.layers[i].name)
          << ": {\"value\": " << num(run.layers[i].value)
          << ", \"unit\": " << quoted(run.layers[i].unit) << "}";
    j << "},\n  \"tracing_overhead_s\": "
      << num(run.tracedRoundS - run.untracedRoundS) << "\n}\n";
    std::ofstream out(path);
    out << j.str();
    return static_cast<bool>(out);
}

std::string
resultLine(const Options &opt, const RunResult &run)
{
    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = run.layers;
    } else {
        for (const Metric &m : endToEnd(run))
            if (isGated(m.name))
                metrics.push_back(m);
    }
    const std::size_t failed = failedCount(run);
    std::ostringstream j;
    j << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << run.studies.size()
      << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        j << (i ? ", " : "") << quoted(metrics[i].name)
          << ": {\"value\": " << num(metrics[i].value)
          << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    j << "}}";
    return j.str();
}

} // namespace perfbench
