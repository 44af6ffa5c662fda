#include "workloads.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/procedure.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "mp/mix_sampler.hh"
#include "mp/mix_session.hh"
#include "workloads/benchmark.hh"

namespace perfbench {

using namespace smarts;

namespace {

constexpr std::uint64_t kWholeStream = ~0ull >> 1;

/**
 * Repeatable set-ups run at least kSetupMinReps times and until
 * kSetupMinSeconds have run (at most kSetupMaxReps), so that a short
 * set-up gets enough repeats for a steady median; setup_s is that
 * median.
 */
constexpr std::size_t kSetupMinReps = 2;
constexpr std::size_t kSetupMaxReps = 10;
constexpr double kSetupMinSeconds = 2.0;

/**
 * Rounds a run measures at least, per workload. Each study's time is
 * its median over the rounds, which steadies it against other work on
 * a shared host. The counts share out the time the benchmark contract
 * allows all runs together: corun_mix's rounds are cheap,
 * cold_large's are long.
 */
constexpr unsigned kColdRounds = 2;
constexpr unsigned kWarmRounds = 2;
constexpr unsigned kMixRounds = 4;

/**
 * Host seconds of baseline passes at each point of a run where a
 * workload with short streams takes them (at least one pass).
 */
constexpr double kBaselinePointSeconds = 0.5;

/**
 * Every per-layer metric, in report order. A workload that bypasses
 * a layer reports 0 for it: that is the "no change" the layer's
 * optimisations predict there.
 */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"workloads.session_new_ms", "ms"},
    {"core.functional_mips", "MIPS"},
    {"core.fwarm_mips", "MIPS"},
    {"core.detailed_mips", "MIPS"},
    {"core.procedure.passes", "count"},
    {"core.sampler.units", "count"},
    {"core.sampler.detailed_fraction", "fraction"},
    {"core.sampler.overhead_s", "s"},
    {"store.lookup_s", "s"},
    {"livepoint.load_s", "s"},
    {"util.read_s", "s"},
    {"livepoint.mb", "MB"},
    {"core.anytime.measure_s", "s"},
    {"core.anytime.ms_per_unit", "ms"},
    {"core.anytime.units_measured", "count"},
    {"core.anytime.units_available", "count"},
    {"core.anytime.early_stopped", "count"},
    {"exec.anytime_efficiency", "fraction"},
    {"core.anytime.leapfrog_s", "s"},
    {"livepoint.capture_s", "s"},
    {"livepoint.encode_s", "s"},
    {"store.save_s", "s"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.refusals", "count"},
    {"store.stat_calls", "count"},
    {"mp.stream_length_s", "s"},
    {"mp.serial_s", "s"},
    {"mp.threaded_s", "s"},
    {"mp.threaded_over_serial", "ratio"},
    {"mem.l1d_miss_rate", "fraction"},
    {"mem.l2_miss_rate", "fraction"},
    {"bpred.mispredict_rate", "fraction"},
    {"mp.shared_l2_misses", "count"},
    {"mp.shadow_l2_misses", "count"},
};

using Layers = std::map<std::string, double>;

void
emitLayers(RunResult &run, const Layers &values)
{
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = values.find(name);
        run.layers.push_back(
            {name, it == values.end() ? 0.0 : it->second, unit});
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total;
}

double
mean(const std::vector<double> &values)
{
    return ratio(sum(values), static_cast<double>(values.size()));
}

double
mips(double insts, double seconds)
{
    return ratio(insts, seconds) / 1e6;
}

bool
moreSetup(const RunResult &run)
{
    const std::size_t reps = run.setupReps.size();
    return reps < kSetupMinReps ||
           (sum(run.setupReps) < kSetupMinSeconds && reps < kSetupMaxReps);
}

/**
 * The workload seed enters the library only through the generated
 * specs: seed 1 is the library's own suite, every other seed moves
 * each program's data seed to a new value.
 */
workloads::BenchmarkSpec
seeded(workloads::BenchmarkSpec spec, std::uint64_t seed)
{
    spec.seed += (seed - kDefaultSeed) * 0x9e3779b97f4a7c15ull;
    return spec;
}

workloads::BenchmarkSpec
benchmark(const char *name, workloads::Scale scale, std::uint64_t seed)
{
    return seeded(workloads::findBenchmark(name, scale), seed);
}

core::SessionFactory
factoryFor(const workloads::BenchmarkSpec &spec,
           const uarch::MachineConfig &cfg)
{
    return [spec, cfg] {
        return std::make_unique<core::SimSession>(spec, cfg);
    };
}

/** Program build, then the functional pass that measures the length. */
std::uint64_t
streamLength(Tracer &tracer, const workloads::BenchmarkSpec &spec,
             const uarch::MachineConfig &cfg)
{
    std::unique_ptr<core::SimSession> session;
    {
        Scope span(tracer, "workloads.SimSession");
        session = std::make_unique<core::SimSession>(spec, cfg);
    }
    Scope span(tracer, "core.SimSession::fastForward.none");
    return session->fastForward(kWholeStream, core::WarmingMode::None);
}

/** Simulated cache and predictor statistics of the baseline runs. */
struct SimStats
{
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t branches = 0, mispredicts = 0;

    void
    add(const core::SimSession &session)
    {
        core::ArchState arch;
        core::TimingState timing;
        session.saveState(arch, timing);
        l1dAccesses += timing.mem.l1d.loads + timing.mem.l1d.stores;
        l1dMisses += timing.mem.l1d.misses;
        l2Accesses += timing.mem.l2.loads + timing.mem.l2.stores;
        l2Misses += timing.mem.l2.misses;
        branches += session.activity().branches;
        mispredicts += session.activity().bpredMispredicts;
    }

    void
    emit(Layers &layers) const
    {
        layers["mem.l1d_miss_rate"] =
            ratio(static_cast<double>(l1dMisses),
                  static_cast<double>(l1dAccesses));
        layers["mem.l2_miss_rate"] = ratio(
            static_cast<double>(l2Misses), static_cast<double>(l2Accesses));
        layers["bpred.mispredict_rate"] =
            ratio(static_cast<double>(mispredicts),
                  static_cast<double>(branches));
    }
};

struct Stream
{
    workloads::BenchmarkSpec spec;
    uarch::MachineConfig cfg;
    std::string name;
};

/**
 * Host seconds @p insts instructions cost at the rate a whole-stream
 * pass of @p length instructions ran at in @p seconds.
 */
double
costAt(std::uint64_t insts, std::uint64_t length, double seconds)
{
    return ratio(static_cast<double>(insts) * seconds,
                 static_cast<double>(length));
}

/** Instructions one timed call executed, and its wall and CPU seconds. */
struct Timed
{
    std::uint64_t insts = 0;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
};

/**
 * The full-detailed baseline, measured in whole passes over a
 * workload's streams: @p runOne runs stream i to its end in detail,
 * timing only the detailed run itself, and @p first marks the pass
 * whose simulated statistics are kept. Workloads with short streams
 * take passes at the start, middle and end of a run, because other
 * tenants of a shared host slow it down in episodes of seconds to
 * minutes, and a pass can only be slowed, never sped up: the pass
 * with the fewest CPU seconds counts, and each stream's fastest wall
 * time is kept for costing the traced studies.
 */
class Baseline
{
  public:
    using RunOne = std::function<Timed(std::size_t, bool)>;

    Baseline(Tracer &tracer, std::size_t count, RunOne runOne)
        : tracer_(tracer), perStream_(count, 0.0),
          runOne_(std::move(runOne))
    {
    }

    /** Whole passes until @p minSeconds have run (at least one). */
    void
    passes(double minSeconds)
    {
        Scope phase(tracer_, "baseline");
        double spent = 0.0;
        do {
            double pass = 0.0, cpuPass = 0.0;
            insts_ = 0;
            for (std::size_t i = 0; i < perStream_.size(); ++i) {
                const Timed t = runOne_(i, passes_.empty());
                pass += t.seconds;
                cpuPass += t.cpuSeconds;
                insts_ += t.insts;
                perStream_[i] = passes_.empty()
                                    ? t.seconds
                                    : std::min(perStream_[i], t.seconds);
            }
            passes_.push_back(cpuPass);
            spent += pass;
        } while (spent < minSeconds);
    }

    /** Record the fastest pass in @p run; each stream's fastest run. */
    std::vector<double>
    finish(RunResult &run) const
    {
        run.detailedInsts = insts_;
        run.detailedSeconds =
            *std::min_element(passes_.begin(), passes_.end());
        return perStream_;
    }

  private:
    Tracer &tracer_;
    std::vector<double> perStream_;
    std::vector<double> passes_; ///< CPU seconds of each pass.
    std::uint64_t insts_ = 0;
    RunOne runOne_;
};

/**
 * A Baseline over solo streams; its first pass fills @p refCpi (the
 * reference CPIs) and @p stats.
 */
Baseline
soloBaseline(Tracer &tracer, const std::vector<Stream> &streams,
             std::vector<double> &refCpi, SimStats &stats)
{
    refCpi.assign(streams.size(), 0.0);
    return Baseline(tracer, streams.size(),
                    [&tracer, &streams, &refCpi, &stats](std::size_t i,
                                                         bool first) {
                        core::SimSession session(streams[i].spec,
                                                 streams[i].cfg);
                        const double t0 = now();
                        const double c0 = cpuNow();
                        core::Segment seg;
                        {
                            Scope span(tracer,
                                       "core.SimSession::detailedRun");
                            seg = session.detailedRun(kWholeStream);
                        }
                        const Timed t{seg.instructions, now() - t0,
                                      cpuNow() - c0};
                        if (first) {
                            refCpi[i] = ratio(
                                static_cast<double>(seg.cycles),
                                static_cast<double>(seg.instructions));
                            stats.add(session);
                        }
                        return t;
                    });
}

/**
 * Host seconds of a whole-stream functional-warming pass per stream
 * (traced runs only: the calibration behind core.fwarm_mips).
 */
std::vector<double>
fwarmSeconds(Tracer &tracer, const std::vector<Stream> &streams)
{
    Scope phase(tracer, "calibrate");
    std::vector<double> seconds;
    for (const Stream &s : streams) {
        core::SimSession session(s.spec, s.cfg);
        const double t0 = now();
        {
            Scope span(tracer, "core.SimSession::fastForward.functional");
            (void)session.fastForward(kWholeStream,
                                      core::WarmingMode::Functional);
        }
        seconds.push_back(now() - t0);
    }
    return seconds;
}

/**
 * The closed loop: one client issues rounds of studies back to back.
 * A run measures whole rounds: at least @p minRounds, then more while
 * the next is predicted to end within opt.seconds. A traced run
 * measures exactly one untraced and one traced round of the same
 * studies; their difference is the tracing overhead. @p round gets
 * the round index; @p between, if given, runs untimed work before
 * every round but the first and gets that round's index.
 */
void
timedPhase(const Options &opt, Tracer &tracer, RunResult &run,
           unsigned minRounds, const std::function<void(unsigned)> &round,
           const std::function<void(unsigned)> &between = {})
{
    if (opt.trace) {
        tracer.setEnabled(false);
        double t0 = now();
        round(0);
        run.untracedRoundS = now() - t0;
        tracer.setEnabled(true);
        if (between)
            between(1);
        t0 = now();
        {
            Scope span(tracer, "round");
            round(1);
        }
        run.tracedRoundS = now() - t0;
        run.rounds = 2;
        run.timedSeconds = run.untracedRoundS + run.tracedRoundS;
        return;
    }
    double last = 0.0;
    do {
        if (between && run.rounds > 0)
            between(run.rounds);
        const double t0 = now();
        round(run.rounds++);
        last = now() - t0;
        run.timedSeconds += last;
    } while (run.rounds < minRounds ||
             run.timedSeconds + last <= opt.seconds);
}

/** Run @p body as study @p study, timing it and catching throws. */
void
issue(Tracer &tracer, RunResult &run, Study study,
      const std::function<void(Study &)> &body)
{
    const int id = static_cast<int>(run.studies.size());
    Scope span(tracer, "study", id);
    const double t0 = now();
    const double c0 = cpuNow();
    try {
        body(study);
    } catch (const std::exception &e) {
        study.fail(std::string("threw: ") + e.what());
    }
    study.cpuSeconds = cpuNow() - c0;
    study.seconds = now() - t0;
    run.studies.push_back(study);
}

/** Studies of the last round (the traced one in a traced run). */
std::vector<Study>
lastRound(const RunResult &run)
{
    return {run.studies.end() - static_cast<long>(run.perRound),
            run.studies.end()};
}

std::string
fmt(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

// ------------------------------------------------------------------
// cold_large: the paper's serial two-pass procedure, no store.

std::uint64_t
procedureFingerprint(const core::ProcedureResult &r)
{
    std::vector<std::uint64_t> words = r.initial.fingerprint();
    if (r.tuned) {
        const std::vector<std::uint64_t> t = r.tuned->fingerprint();
        words.insert(words.end(), t.begin(), t.end());
    }
    words.push_back(r.recommendedN);
    return hashFingerprint(words);
}

RunResult
coldLarge(const Options &opt, const Expectations &expect,
          Tracer &tracer)
{
    RunResult run;
    run.workload = "cold_large";
    run.threads = 1; // serial: no pool, no store, no live-points.
    const uarch::MachineConfig cfg = uarch::MachineConfig::eightWay();
    std::vector<Stream> streams;
    for (const workloads::BenchmarkSpec &spec :
         workloads::quickSuite(workloads::Scale::Large))
        streams.push_back({seeded(spec, opt.seed), cfg,
                           spec.name + "@" + cfg.name});
    const std::size_t n = streams.size();

    SimStats stats;
    std::vector<double> refCpi;
    Baseline baseline = soloBaseline(tracer, streams, refCpi, stats);

    std::vector<std::uint64_t> lengths(n);
    const auto setup = [&] {
        Scope phase(tracer, "setup");
        const double t0 = cpuNow();
        for (std::size_t i = 0; i < n; ++i)
            lengths[i] = streamLength(tracer, streams[i].spec, cfg);
        run.setupReps.push_back(cpuNow() - t0);
    };
    setup();
    for (const std::uint64_t len : lengths)
        run.modes.functional += len;

    const core::ProcedureConfig pc;
    const core::SmartsProcedure procedure(pc);
    std::vector<core::ProcedureResult> results(n);
    std::vector<std::uint64_t> firstFp(n);
    std::vector<ModeCounts> perStudy(n);
    run.perRound = n;
    // A shared host slows down in episodes of seconds to minutes, so
    // the baseline pass (one: a Large stream runs for seconds, and
    // detailed_mips is not gated) and the remaining set-ups run
    // between the first two rounds, which puts the rounds further
    // apart.
    const auto between = [&](unsigned round) {
        if (round == 1)
            baseline.passes(0.0);
        while (moreSetup(run))
            setup();
    };
    timedPhase(opt, tracer, run, kColdRounds, [&](unsigned round) {
        for (std::size_t i = 0; i < n; ++i) {
            Study study;
            study.name = streams[i].name;
            study.instructions = lengths[i];
            issue(tracer, run, study, [&](Study &s) {
                core::ProcedureResult r;
                {
                    Scope span(tracer, "core.SmartsProcedure::estimate");
                    r = procedure.estimate(
                        factoryFor(streams[i].spec, cfg), lengths[i]);
                }
                const std::uint64_t fp = procedureFingerprint(r);
                if (r.final().streamLength != lengths[i])
                    s.fail("estimate stream length differs from the "
                           "set-up pass");
                if (round > 0) {
                    if (fp != firstFp[i])
                        s.fail("estimate differs from the first round's");
                    return;
                }
                expect.check(s, run.workload, fp);
                firstFp[i] = fp;
                run.fingerprints.emplace_back(s.name, fp);
                results[i] = r;
                perStudy[i].add(r.initial, true);
                if (r.tuned)
                    perStudy[i].add(*r.tuned, true);
                run.modes.add(r.initial, true);
                if (r.tuned)
                    run.modes.add(*r.tuned, true);
            });
        }
    }, between);
    const std::vector<double> detailedS = baseline.finish(run);

    for (std::size_t i = 0; i < n; ++i) {
        const core::SmartsEstimate &est = results[i].final();
        run.accuracy.push_back({streams[i].name, est.cpi(),
                                est.cpiConfidenceInterval(pc.target.level),
                                refCpi[i]});
    }

    // The fact the pass table exists to show: a study whose first
    // pass misses the target reruns at n_tuned, and on phase-1 that
    // second pass simulates the whole stream in detail.
    const std::vector<double> fwarm =
        opt.trace ? fwarmSeconds(tracer, streams) : std::vector<double>{};
    const std::vector<Study> timed = lastRound(run);
    std::string table = fmt("%-16s %6s %8s %8s %8s %9s", "study",
                            "passes", "df pass1", "df pass2", "n_tuned",
                            "study s");
    if (opt.trace)
        table += fmt(" %9s %9s %9s", "fwarm s", "detail s", "other s");
    table += "\n";
    std::vector<double> overhead;
    std::uint64_t passes = 0, units = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const core::ProcedureResult &r = results[i];
        passes += r.tuned ? 2 : 1;
        units += r.initial.units() + (r.tuned ? r.tuned->units() : 0);
        table += fmt("%-16s %6d %8.4f %8s %8llu %9.3f",
                     streams[i].name.c_str(), r.tuned ? 2 : 1,
                     r.initial.detailedFraction(),
                     r.tuned ? fmt("%.4f", r.tuned->detailedFraction())
                                   .c_str()
                             : "-",
                     static_cast<unsigned long long>(r.recommendedN),
                     timed[i].seconds);
        if (opt.trace) {
            const ModeCounts &m = perStudy[i];
            const double fwarmS = costAt(m.fwarm, lengths[i], fwarm[i]);
            const double detailS =
                costAt(m.detailed(), lengths[i], detailedS[i]);
            overhead.push_back(timed[i].seconds - fwarmS - detailS);
            table += fmt(" %9.3f %9.3f %9.3f", fwarmS, detailS,
                         overhead.back());
        }
        table += "\n";
    }
    run.tables.push_back("two-pass procedure per study (df = detailed "
                         "fraction; fwarm/detail s cost each study's "
                         "instructions at the calibrated rates):\n" +
                         table);

    if (opt.trace) {
        Layers layers;
        layers["workloads.session_new_ms"] =
            1e3 * median(tracer.durations("workloads.SimSession"));
        layers["core.functional_mips"] =
            mips(static_cast<double>(run.modes.functional *
                                     run.setupReps.size()),
                 tracer.total("core.SimSession::fastForward.none"));
        layers["core.fwarm_mips"] =
            mips(static_cast<double>(run.modes.functional), sum(fwarm));
        layers["core.detailed_mips"] =
            mips(static_cast<double>(run.detailedInsts),
                 run.detailedSeconds);
        layers["core.procedure.passes"] = static_cast<double>(passes);
        layers["core.sampler.units"] = static_cast<double>(units);
        layers["core.sampler.detailed_fraction"] =
            run.modes.detailedFraction();
        layers["core.sampler.overhead_s"] = mean(overhead);
        stats.emit(layers);
        emitLayers(run, layers);
    }
    return run;
}

// ------------------------------------------------------------------
// livepoint_warm: a design sweep over a warm live-point store.

/** One (benchmark, config) study of the live-point sweep. */
struct LivePointStudy
{
    Stream stream;
    std::uint64_t length = 0;
    core::AnytimeResult cold; ///< the set-up (empty-store) result.
};

std::uint64_t
anytimeFingerprint(const core::AnytimeResult &r)
{
    std::vector<std::uint64_t> words = r.estimate.fingerprint();
    words.push_back(r.unitsAvailable);
    words.push_back(r.unitsMeasured);
    words.push_back(r.earlyStopped ? 1 : 0);
    return hashFingerprint(words);
}

/** The live-point design estimateAnytime derives for a stream. */
core::SamplingConfig
anytimeDesign(const core::ProcedureConfig &pc, std::uint64_t length)
{
    core::SamplingConfig sc;
    sc.unitSize = pc.unitSize;
    sc.detailedWarming = pc.detailedWarming;
    sc.warming = pc.warming;
    sc.interval = core::SamplingConfig::chooseInterval(
        length, pc.unitSize, pc.nInit);
    return sc;
}

/**
 * The read side of one study: estimateAnytime against the warm
 * store. Checks that the lookup was a store hit and that the result
 * equals the cold set-up result bit for bit.
 */
core::AnytimeResult
warmStudy(Tracer &tracer, const core::SmartsProcedure &procedure,
          const LivePointStudy &lp, core::CheckpointStore &store,
          exec::ThreadPool &pool, std::uint64_t seed, Study &study)
{
    const core::StoreCounters before = store.counters();
    core::AnytimeResult r;
    {
        Scope span(tracer, "core.SmartsProcedure::estimateAnytime");
        r = procedure.estimateAnytime(
            factoryFor(lp.stream.spec, lp.stream.cfg), lp.stream.spec,
            lp.stream.cfg, lp.length, pool, store, seed);
    }
    const core::StoreCounters after = store.counters();
    if (after.hits != before.hits + 1 || after.misses != before.misses ||
        after.refusals != before.refusals)
        study.fail("warm lookup was not a store hit");
    if (anytimeFingerprint(r) != anytimeFingerprint(lp.cold))
        study.fail("warm result differs from the cold set-up result");
    return r;
}

/** The write side: estimateAnytime against an empty store. */
core::AnytimeResult
coldStudy(Tracer &tracer, const core::SmartsProcedure &procedure,
          const LivePointStudy &lp, core::CheckpointStore &store,
          exec::ThreadPool &pool, std::uint64_t seed)
{
    Scope span(tracer, "core.SmartsProcedure::estimateAnytime.cold");
    return procedure.estimateAnytime(
        factoryFor(lp.stream.spec, lp.stream.cfg), lp.stream.spec,
        lp.stream.cfg, lp.length, pool, store, seed);
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

RunResult
livepointWarm(const Options &opt, const Expectations &expect,
              Tracer &tracer)
{
    RunResult run;
    run.workload = "livepoint_warm";
    run.threads = exec::ThreadPool::hardwareThreads();
    exec::ThreadPool pool(run.threads);

    // An early stopper (fsm-1 measures 64 of ~2,000 units) beside a
    // completer (phase-1 measures all 2,011): a change that helps only
    // early stops shows on the first alone. The 16-way config runs the
    // early stopper only; phase-1 at 16-way would add ~15 s to a run.
    const uarch::MachineConfig eight = uarch::MachineConfig::eightWay();
    const uarch::MachineConfig sixteen =
        uarch::MachineConfig::sixteenWay();
    std::vector<LivePointStudy> studies;
    for (const auto &[name, cfg] :
         {std::pair{"fsm-1", eight}, std::pair{"phase-1", eight},
          std::pair{"fsm-1", sixteen}}) {
        LivePointStudy lp;
        lp.stream.spec = benchmark(name, workloads::Scale::Mini, opt.seed);
        lp.stream.cfg = cfg;
        lp.stream.name = std::string(name) + "@" + cfg.name;
        studies.push_back(lp);
    }
    const std::size_t n = studies.size();

    std::vector<Stream> streams;
    for (const LivePointStudy &lp : studies)
        streams.push_back(lp.stream);
    SimStats stats;
    std::vector<double> refCpi;
    Baseline baseline = soloBaseline(tracer, streams, refCpi, stats);
    baseline.passes(kBaselinePointSeconds);

    const std::string root = opt.outDir + "/livepoint-store";
    std::filesystem::remove_all(root);
    core::CheckpointStore store(root);
    const core::ProcedureConfig pc;
    const core::SmartsProcedure procedure(pc);

    // One set-up only: it is the cold capture into an empty store,
    // which a second repetition would find warm.
    {
        Scope phase(tracer, "setup");
        const double t0 = cpuNow();
        std::map<std::string, std::uint64_t> lengths;
        for (LivePointStudy &lp : studies) {
            auto it = lengths.find(lp.stream.spec.name);
            if (it == lengths.end())
                it = lengths
                         .emplace(lp.stream.spec.name,
                                  streamLength(tracer, lp.stream.spec,
                                               lp.stream.cfg))
                         .first;
            lp.length = it->second;
        }
        for (const auto &entry : lengths)
            run.modes.functional += entry.second;
        for (LivePointStudy &lp : studies)
            lp.cold = coldStudy(tracer, procedure, lp, store, pool,
                                opt.seed);
        run.setupReps.push_back(cpuNow() - t0);
    }
    baseline.passes(kBaselinePointSeconds);

    std::vector<core::AnytimeResult> warm(n);
    core::StoreCounters roundStart{}, roundEnd{};
    run.perRound = n;
    timedPhase(opt, tracer, run, kWarmRounds, [&](unsigned round) {
        roundStart = store.counters();
        for (std::size_t i = 0; i < n; ++i) {
            Study study;
            study.name = studies[i].stream.name;
            study.instructions = studies[i].length;
            issue(tracer, run, study, [&](Study &s) {
                const core::AnytimeResult r = warmStudy(
                    tracer, procedure, studies[i], store, pool,
                    opt.seed, s);
                if (round > 0)
                    return;
                const std::uint64_t fp = anytimeFingerprint(r);
                expect.check(s, run.workload, fp);
                run.fingerprints.emplace_back(s.name, fp);
                run.modes.add(r.estimate, false);
                warm[i] = r;
            });
        }
        roundEnd = store.counters();
    });
    baseline.passes(kBaselinePointSeconds);
    const std::vector<double> detailedS = baseline.finish(run);

    for (std::size_t i = 0; i < n; ++i)
        run.accuracy.push_back(
            {streams[i].name, warm[i].estimate.cpi(),
             warm[i].estimate.cpiConfidenceInterval(pc.target.level),
             refCpi[i]});

    std::uint64_t measured = 0, available = 0, stopped = 0;
    for (const core::AnytimeResult &r : warm) {
        measured += r.unitsMeasured;
        available += r.unitsAvailable;
        stopped += r.earlyStopped ? 1 : 0;
    }
    // Traced probes: take each warm study apart from outside — the
    // store lookup, the library load and the raw read of the same
    // file, runAnytime at the pool's width and at one thread — then
    // the write side's capture, encode and save.
    std::vector<double> lookupS(n), loadS(n), anytimeS(n), bytes(n);
    if (opt.trace) {
        const std::string probeRoot = opt.outDir + "/livepoint-probe-store";
        std::filesystem::remove_all(probeRoot);
        core::CheckpointStore probeStore(probeRoot);
        exec::ThreadPool single(1);
        for (std::size_t i = 0; i < n; ++i) {
            const LivePointStudy &lp = studies[i];
            Study &study = run.studies[run.studies.size() - n + i];
            Scope probe(tracer, "probe", static_cast<int>(i));
            const core::SamplingConfig sc = anytimeDesign(pc, lp.length);
            const core::LibraryKey key =
                core::LibraryKey::of(lp.stream.spec, lp.stream.cfg, sc);
            const std::string path = store.livePointPathFor(key);
            core::AnytimeOptions options;
            options.target = pc.target;
            options.seed = opt.seed;
            const core::SessionFactory factory =
                factoryFor(lp.stream.spec, lp.stream.cfg);

            double t0 = now();
            std::optional<core::LivePointLibrary> library;
            {
                Scope span(tracer, "store.tryLoadLivePoints");
                library = store.tryLoadLivePoints(key);
            }
            lookupS[i] = now() - t0;
            t0 = now();
            {
                Scope span(tracer, "livepoint.LivePointLibrary::load");
                (void)core::LivePointLibrary::load(path, key);
            }
            loadS[i] = now() - t0;
            {
                Scope span(tracer, "util.read");
                bytes[i] = static_cast<double>(readFile(path).size());
            }
            if (!library) {
                study.fail("probe lookup was not a store hit");
                continue;
            }
            t0 = now();
            {
                Scope span(tracer, "core.SystematicSampler::runAnytime");
                const core::AnytimeResult r =
                    core::SystematicSampler(sc).runAnytime(
                        factory, *library, pool, options);
                if (anytimeFingerprint(r) != anytimeFingerprint(lp.cold))
                    study.fail(
                        "runAnytime differs from the cold set-up result");
            }
            anytimeS[i] = now() - t0;
            {
                Scope span(tracer,
                           "core.SystematicSampler::runAnytime.1thread");
                (void)core::SystematicSampler(sc).runAnytime(
                    factory, *library, single, options);
            }
            library.reset();

            core::SimSession session(lp.stream.spec, lp.stream.cfg);
            core::LivePointLibrary built;
            {
                Scope span(tracer, "livepoint.LivePointLibrary::build");
                built = core::LivePointLibrary::build(session, sc);
            }
            {
                Scope span(tracer,
                           "livepoint.LivePointLibrary::serialize");
                util::BinaryWriter out;
                built.serialize(key, out);
            }
            Scope span(tracer, "store.saveLivePoints");
            (void)probeStore.saveLivePoints(built, key);
        }
        std::filesystem::remove_all(probeRoot);
    }
    std::filesystem::remove_all(root);

    const std::vector<Study> timed = lastRound(run);
    std::string table = fmt("%-16s %9s %9s %8s %9s", "study", "measured",
                            "available", "stopped", "study s");
    if (opt.trace)
        table += fmt(" %9s %9s %9s %7s", "lookup s", "load s",
                     "anytime s", "load %");
    table += "\n";
    for (std::size_t i = 0; i < n; ++i) {
        table += fmt("%-16s %9llu %9llu %8s %9.3f", streams[i].name.c_str(),
                     static_cast<unsigned long long>(warm[i].unitsMeasured),
                     static_cast<unsigned long long>(
                         warm[i].unitsAvailable),
                     warm[i].earlyStopped ? "yes" : "no", timed[i].seconds);
        if (opt.trace)
            table += fmt(" %9.3f %9.3f %9.3f %7.1f", lookupS[i], loadS[i],
                         anytimeS[i],
                         100.0 * ratio(lookupS[i], timed[i].seconds));
        table += "\n";
    }
    run.tables.push_back("anytime studies (load % = probe store lookup "
                         "/ warm study):\n" + table);
    if (!opt.trace)
        return run;

    // The read side warms nothing functionally: a warm study's time
    // beyond its detailed instructions is load, restore and fold.
    const std::vector<double> fwarm = fwarmSeconds(tracer, streams);
    std::vector<double> overhead;
    for (std::size_t i = 0; i < n; ++i) {
        ModeCounts m;
        m.add(warm[i].estimate, false);
        overhead.push_back(timed[i].seconds -
                           costAt(m.detailed(), studies[i].length,
                                  detailedS[i]));
    }
    const double measureS = sum(anytimeS);

    Layers layers;
    layers["workloads.session_new_ms"] =
        1e3 * median(tracer.durations("workloads.SimSession"));
    layers["core.functional_mips"] =
        mips(static_cast<double>(run.modes.functional),
             tracer.total("core.SimSession::fastForward.none"));
    std::uint64_t fwarmInsts = 0;
    for (const LivePointStudy &lp : studies)
        fwarmInsts += lp.length;
    layers["core.fwarm_mips"] =
        mips(static_cast<double>(fwarmInsts), sum(fwarm));
    layers["core.detailed_mips"] = mips(
        static_cast<double>(run.detailedInsts), run.detailedSeconds);
    layers["core.procedure.passes"] = static_cast<double>(n);
    layers["core.sampler.units"] = static_cast<double>(measured);
    layers["core.sampler.detailed_fraction"] =
        run.modes.detailedFraction();
    layers["core.sampler.overhead_s"] = mean(overhead);
    layers["store.lookup_s"] = mean(lookupS);
    layers["livepoint.load_s"] = mean(loadS);
    layers["util.read_s"] = mean(tracer.durations("util.read"));
    layers["livepoint.mb"] = mean(bytes) / (1024.0 * 1024.0);
    layers["core.anytime.measure_s"] = measureS / static_cast<double>(n);
    layers["core.anytime.ms_per_unit"] =
        1e3 * ratio(measureS, static_cast<double>(measured));
    layers["core.anytime.units_measured"] = static_cast<double>(measured);
    layers["core.anytime.units_available"] =
        static_cast<double>(available);
    layers["core.anytime.early_stopped"] = static_cast<double>(stopped);
    layers["exec.anytime_efficiency"] = ratio(
        tracer.total("core.SystematicSampler::runAnytime.1thread"),
        run.threads * measureS);
    layers["core.anytime.leapfrog_s"] = mean(
        tracer.durations("core.SmartsProcedure::estimateAnytime.cold"));
    layers["livepoint.capture_s"] =
        mean(tracer.durations("livepoint.LivePointLibrary::build"));
    layers["livepoint.encode_s"] =
        mean(tracer.durations("livepoint.LivePointLibrary::serialize"));
    layers["store.save_s"] =
        mean(tracer.durations("store.saveLivePoints"));
    layers["store.hits"] =
        static_cast<double>(roundEnd.hits - roundStart.hits);
    layers["store.misses"] =
        static_cast<double>(roundEnd.misses - roundStart.misses);
    layers["store.refusals"] =
        static_cast<double>(roundEnd.refusals - roundStart.refusals);
    layers["store.stat_calls"] =
        static_cast<double>(roundEnd.statCalls - roundStart.statCalls);
    stats.emit(layers);
    emitLayers(run, layers);
    return run;
}

// ------------------------------------------------------------------
// corun_mix: two-program co-runs over the shared L2, serial and at
// the pool's width.

RunResult
corunMix(const Options &opt, const Expectations &expect, Tracer &tracer)
{
    RunResult run;
    run.workload = "corun_mix";
    run.threads = exec::ThreadPool::hardwareThreads();
    const uarch::MachineConfig cfg = uarch::MachineConfig::eightWay();
    const workloads::Scale scale = workloads::Scale::Small;
    core::SamplingConfig sc;
    sc.unitSize = 500;
    sc.detailedWarming = 1000;
    sc.interval = 50;
    sc.warming = core::WarmingMode::Functional;

    std::vector<mp::WorkloadMix> mixes;
    for (const auto &[a, b] :
         {std::pair{"chase-1", "bsearch-1"}, std::pair{"fsm-1", "sort-1"},
          std::pair{"bsearch-1", "stream-1"}})
        mixes.push_back(mp::WorkloadMix::of(
            {benchmark(a, scale, opt.seed), benchmark(b, scale, opt.seed)}));
    const std::size_t n = mixes.size();

    // Full-detailed co-run of each mix: the baseline and the
    // per-program reference CPIs.
    SimStats stats;
    std::vector<std::vector<double>> ref(n);
    Baseline baseline(tracer, n, [&](std::size_t i, bool first) {
        mp::MixSession session(mixes[i], cfg);
        const double t0 = now();
        const double c0 = cpuNow();
        mp::MixSegment seg;
        {
            Scope span(tracer, "mp.MixSession::detailedRun");
            seg = session.detailedRun(kWholeStream);
        }
        const Timed t{seg.rounds * mixes[i].programs.size(), now() - t0,
                      cpuNow() - c0};
        if (!first)
            return t;
        for (const mp::MixLaneSegment &lane : seg.per)
            ref[i].push_back(
                ratio(static_cast<double>(lane.coCycles),
                      static_cast<double>(lane.instructions)));
        mp::MixState state;
        session.saveState(state);
        for (std::size_t p = 0; p < state.lanes.size(); ++p) {
            const mem::CacheState &l1d = state.sharedMem.lanes[p].l1d;
            stats.l1dAccesses += l1d.loads + l1d.stores;
            stats.l1dMisses += l1d.misses;
            stats.l2Accesses += state.sharedMem.l2.loads[p] +
                                state.sharedMem.l2.stores[p];
            stats.l2Misses += state.sharedMem.l2.misses[p];
            stats.branches += state.lanes[p].activity.branches;
            stats.mispredicts +=
                state.lanes[p].activity.bpredMispredicts;
        }
        return t;
    });
    baseline.passes(kBaselinePointSeconds);

    std::vector<std::uint64_t> rounds(n);
    while (moreSetup(run)) {
        Scope phase(tracer, "setup");
        const double t0 = cpuNow();
        for (std::size_t i = 0; i < n; ++i) {
            {
                Scope span(tracer, "mp.MixSession");
                mp::MixSession session(mixes[i], cfg);
            }
            Scope span(tracer, "mp.MixSampler::measureStreamLength");
            rounds[i] = mp::MixSampler(mixes[i], cfg, sc)
                            .measureStreamLength();
        }
        run.setupReps.push_back(cpuNow() - t0);
    }
    baseline.passes(kBaselinePointSeconds);
    for (std::size_t i = 0; i < n; ++i)
        run.modes.functional += rounds[i] * mixes[i].programs.size();

    std::vector<mp::MixEstimate> serial(n);
    std::vector<std::uint64_t> firstFp(n);
    run.perRound = 2 * n;
    timedPhase(opt, tracer, run, kMixRounds, [&](unsigned round) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t covered =
                rounds[i] * mixes[i].programs.size();
            std::uint64_t serialFp = 0;
            Study s1;
            s1.name = mixes[i].name + "@serial";
            s1.instructions = covered;
            issue(tracer, run, s1, [&](Study &s) {
                mp::MixEstimate est;
                {
                    Scope span(tracer, "mp.runMix.serial");
                    est = mp::runMix(mixes[i], cfg, sc, 1);
                }
                serialFp = hashFingerprint(est.fingerprint());
                if (round > 0) {
                    if (serialFp != firstFp[i])
                        s.fail("estimate differs from the first round's");
                    return;
                }
                expect.check(s, run.workload, serialFp);
                firstFp[i] = serialFp;
                run.fingerprints.emplace_back(s.name, serialFp);
                serial[i] = est;
                for (const mp::MixProgramEstimate &p : est.perProgram)
                    run.modes.add(p.coRun, true);
            });
            Study sN;
            sN.name = mixes[i].name + "@threaded";
            sN.instructions = covered;
            issue(tracer, run, sN, [&](Study &s) {
                mp::MixEstimate est;
                {
                    Scope span(tracer, "mp.runMix.threaded");
                    est = mp::runMix(mixes[i], cfg, sc, run.threads);
                }
                const std::uint64_t fp = hashFingerprint(est.fingerprint());
                if (fp != serialFp)
                    s.fail("threaded runMix differs from serial");
                if (round > 0)
                    return;
                expect.check(s, run.workload, fp);
                run.fingerprints.emplace_back(s.name, fp);
            });
        }
    });
    baseline.passes(kBaselinePointSeconds);
    const std::vector<double> detailedS = baseline.finish(run);

    std::uint64_t sharedMisses = 0, shadowMisses = 0, units = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<mp::MixProgramEstimate> &per =
            serial[i].perProgram;
        for (std::size_t p = 0; p < per.size() && p < ref[i].size(); ++p) {
            run.accuracy.push_back(
                {mixes[i].programs[p].name + "@" + mixes[i].name,
                 per[p].coRun.cpi(),
                 per[p].coRun.cpiConfidenceInterval(0.997), ref[i][p]});
            sharedMisses += per[p].sharedMisses;
            shadowMisses += per[p].shadowMisses;
        }
        if (!per.empty())
            units += per.front().coRun.units();
    }
    if (!opt.trace)
        return run;

    // Mix functional-warming rate over whole streams.
    std::vector<double> fwarmS;
    {
        Scope phase(tracer, "calibrate");
        for (const mp::WorkloadMix &mix : mixes) {
            mp::MixSession session(mix, cfg);
            const double t0 = now();
            {
                Scope span(tracer,
                           "mp.MixSession::fastForward.functional");
                (void)session.fastForward(kWholeStream,
                                          core::WarmingMode::Functional);
            }
            fwarmS.push_back(now() - t0);
        }
    }
    const std::vector<Study> timed = lastRound(run);
    std::vector<double> serialS, threadedS, overhead;
    for (std::size_t i = 0; i < n; ++i) {
        serialS.push_back(timed[2 * i].seconds);
        threadedS.push_back(timed[2 * i + 1].seconds);
        ModeCounts m;
        for (const mp::MixProgramEstimate &p : serial[i].perProgram)
            m.add(p.coRun, true);
        // Costed per round: each round steps every program once.
        const std::uint64_t programs = mixes[i].programs.size();
        overhead.push_back(
            timed[2 * i].seconds -
            costAt(m.fwarm / programs, rounds[i], fwarmS[i]) -
            costAt(m.detailed() / programs, rounds[i], detailedS[i]));
    }

    Layers layers;
    layers["workloads.session_new_ms"] =
        1e3 * median(tracer.durations("mp.MixSession"));
    layers["core.functional_mips"] =
        mips(static_cast<double>(run.modes.functional *
                                 run.setupReps.size()),
             tracer.total("mp.MixSampler::measureStreamLength"));
    layers["core.fwarm_mips"] = mips(
        static_cast<double>(run.modes.functional), sum(fwarmS));
    layers["core.detailed_mips"] = mips(
        static_cast<double>(run.detailedInsts), run.detailedSeconds);
    layers["core.procedure.passes"] = static_cast<double>(2 * n);
    layers["core.sampler.units"] = static_cast<double>(units);
    layers["core.sampler.detailed_fraction"] =
        run.modes.detailedFraction();
    layers["core.sampler.overhead_s"] = mean(overhead);
    layers["mp.stream_length_s"] =
        mean(tracer.durations("mp.MixSampler::measureStreamLength"));
    layers["mp.serial_s"] = mean(serialS);
    layers["mp.threaded_s"] = mean(threadedS);
    layers["mp.threaded_over_serial"] =
        ratio(mean(threadedS), mean(serialS));
    layers["mp.shared_l2_misses"] = static_cast<double>(sharedMisses);
    layers["mp.shadow_l2_misses"] = static_cast<double>(shadowMisses);
    stats.emit(layers);
    emitLayers(run, layers);
    return run;
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "cold_large" || name == "livepoint_warm" ||
           name == "corun_mix";
}

RunResult
runWorkload(const Options &opt, const Expectations &expect,
            Tracer &tracer)
{
    if (opt.workload == "cold_large")
        return coldLarge(opt, expect, tracer);
    if (opt.workload == "livepoint_warm")
        return livepointWarm(opt, expect, tracer);
    return corunMix(opt, expect, tracer);
}

int
selfTest(const Options &opt)
{
    Tracer tracer(false);
    const uarch::MachineConfig cfg = uarch::MachineConfig::eightWay();
    LivePointStudy lp;
    lp.stream = {benchmark("fsm-1", workloads::Scale::Mini, kDefaultSeed),
                 cfg, "fsm-1@8-way"};
    lp.length = streamLength(tracer, lp.stream.spec, cfg);
    const core::ProcedureConfig pc;
    const core::SmartsProcedure procedure(pc);
    bool pass = true;
    auto verdict = [&pass](const char *what, const Study &s,
                           bool wantOk) {
        const bool good = s.ok == wantOk;
        pass = pass && good;
        std::printf("self-test: %-44s -> %s%s (%s)\n", what,
                    s.ok ? "passed" : "failed: ", s.why.c_str(),
                    good ? "as required" : "WRONG");
    };

    // 1. The recorded-fingerprint check, right and wrong records.
    const std::uint64_t fp = procedureFingerprint(procedure.estimate(
        factoryFor(lp.stream.spec, cfg), lp.length));
    Expectations records(kDefaultSeed, "");
    records.set("self_test", lp.stream.name, fp);
    Study right;
    right.name = lp.stream.name;
    records.check(right, "self_test", fp);
    verdict("matching recorded fingerprint", right, true);
    records.set("self_test", lp.stream.name, fp ^ 1);
    Study wrong;
    wrong.name = lp.stream.name;
    records.check(wrong, "self_test", fp);
    verdict("wrong recorded fingerprint", wrong, false);

    // 2. The warm-study checks, on an intact and a corrupted entry.
    const std::string root = opt.outDir + "/self-test-store";
    std::filesystem::remove_all(root);
    {
        core::CheckpointStore store(root);
        exec::ThreadPool pool(exec::ThreadPool::hardwareThreads());
        lp.cold = coldStudy(tracer, procedure, lp, store, pool,
                            kDefaultSeed);
        Study intact;
        intact.name = lp.stream.name;
        (void)warmStudy(tracer, procedure, lp, store, pool, kDefaultSeed,
                        intact);
        verdict("warm study on an intact store entry", intact, true);

        const std::string path = store.livePointPathFor(core::LibraryKey::of(
            lp.stream.spec, cfg, anytimeDesign(pc, lp.length)));
        {
            std::fstream f(path,
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekg(0, std::ios::end);
            const std::streamoff size = f.tellg();
            for (std::streamoff at = size / 3; at < size / 3 + 64; ++at) {
                f.seekg(at);
                const char c = static_cast<char>(f.get() ^ 0x5a);
                f.seekp(at);
                f.put(c);
            }
        }
        Study corrupted;
        corrupted.name = lp.stream.name;
        try {
            (void)warmStudy(tracer, procedure, lp, store, pool,
                            kDefaultSeed, corrupted);
        } catch (const std::exception &e) {
            corrupted.fail(std::string("threw: ") + e.what());
        }
        verdict("warm study on a corrupted store entry", corrupted,
                false);
    }
    std::filesystem::remove_all(root);
    std::printf("self-test: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace perfbench
