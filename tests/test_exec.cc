/**
 * @file
 * Exec-layer tests: work-stealing pool correctness (all jobs run,
 * reusable across batches, many more jobs than workers), the
 * single-config engine path agreeing bit-for-bit with the classic
 * SimSession sampler, and the tentpole's safety net — the same
 * ExperimentRunner batch at 1, 2, and 5 threads must produce
 * byte-identical SmartsEstimates.
 */

#include <atomic>
#include <cstring>
#include <vector>

#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "exec/experiment.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "workloads/benchmark.hh"

#include "check.hh"

using namespace smarts;

namespace {

void
testPoolRunsEveryJob()
{
    exec::ThreadPool pool(4);
    CHECK_EQ(pool.threadCount(), 4u);

    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    CHECK_EQ(sum.load(), 4950);

    // The pool is reusable after wait().
    std::vector<int> out(257, 0);
    exec::parallelForIndexed(pool, out.size(), [&out](std::size_t i) {
        out[i] = static_cast<int>(i) * 3;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] != static_cast<int>(i) * 3) {
            CHECK(out[i] == static_cast<int>(i) * 3);
            break;
        }
    CHECK_EQ(out[256], 768);

    // wait() with nothing pending returns immediately.
    pool.wait();
}

void
testPoolUnevenJobsSteal()
{
    // One long job pins a worker; the short jobs must still drain
    // via stealing rather than queueing behind it.
    exec::ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.submit([&done] {
        volatile double x = 1.0;
        for (int i = 0; i < 2'000'000; ++i)
            x = x * 1.0000001 + 0.1;
        ++done;
    });
    for (int i = 0; i < 50; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    CHECK_EQ(done.load(), 51);
}

/** Bit-exact fingerprint of an estimate set. */
void
fingerprint(const core::MatchedEstimate &est,
            std::vector<std::uint64_t> &out)
{
    auto addDouble = [&out](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        out.push_back(bits);
    };
    for (const core::SmartsEstimate &e : est.perConfig) {
        out.push_back(e.units());
        addDouble(e.cpi());
        addDouble(e.epi());
        addDouble(e.cpiStats.variance());
        addDouble(e.epiStats.variance());
        out.push_back(e.instructionsMeasured);
        out.push_back(e.instructionsWarmed);
        out.push_back(e.streamLength);
    }
    for (const stats::OnlineStats &d : est.cpiDelta) {
        out.push_back(d.count());
        addDouble(d.mean());
        addDouble(d.variance());
    }
}

std::vector<exec::ExperimentSpec>
determinismBatch()
{
    const auto c8 = uarch::MachineConfig::eightWay();
    const auto c16 = uarch::MachineConfig::sixteenWay();
    std::vector<exec::ExperimentSpec> specs;
    for (const char *name : {"sort-1", "bsearch-1", "mix-1"}) {
        exec::ExperimentSpec spec;
        spec.benchmark =
            workloads::findBenchmark(name, workloads::Scale::Mini);
        spec.configs = {c8, c16};
        spec.sampling.unitSize = 1000;
        spec.sampling.detailedWarming = 2000;
        spec.sampling.interval = 40;
        spec.sampling.warming = core::WarmingMode::Functional;
        spec.randomizeOffset = true;
        specs.push_back(spec);

        // A single-config cell in the same batch.
        exec::ExperimentSpec single = spec;
        single.configs = {c8};
        single.randomizeOffset = false;
        specs.push_back(single);
    }
    return specs;
}

void
testEstimatesIdenticalAcrossThreadCounts()
{
    const auto specs = determinismBatch();

    std::vector<std::uint64_t> prints[3];
    const unsigned threadCounts[3] = {1, 2, 5};
    for (int t = 0; t < 3; ++t) {
        exec::ExperimentRunner runner(threadCounts[t]);
        const auto results = runner.run(specs);
        CHECK_EQ(results.size(), specs.size());
        for (const exec::ExperimentResult &r : results)
            fingerprint(r.estimate, prints[t]);
    }
    CHECK(!prints[0].empty());
    CHECK(prints[0] == prints[1]);
    CHECK(prints[0] == prints[2]);
}

void
testJobSeedIsSchedulingIndependent()
{
    const auto specs = determinismBatch();
    // Seeds depend only on (spec, index): recomputing them matches
    // what the runner recorded, at any thread count.
    exec::ExperimentRunner runner(3);
    const auto results = runner.run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        CHECK_EQ(results[i].rngSeed,
                 exec::ExperimentRunner::jobSeed(specs[i], i));
    // Distinct jobs get distinct seeds.
    CHECK(results[0].rngSeed != results[1].rngSeed);
}

void
testMatchedPairsShareUnits()
{
    const auto c8 = uarch::MachineConfig::eightWay();
    const auto c16 = uarch::MachineConfig::sixteenWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 20;
    sc.warming = core::WarmingMode::Functional;

    core::MultiSession multi(spec, {c8, c16});
    const core::MatchedEstimate est =
        core::SystematicSampler(sc).runMatched(multi);

    // Both configs measured the same number of units over the same
    // stream, and the per-config estimates match dedicated
    // single-config runs bit-for-bit (the matched engine does not
    // perturb either machine's simulation).
    CHECK_EQ(est.perConfig[0].units(), est.perConfig[1].units());
    CHECK(est.perConfig[0].units() > 0);
    CHECK_EQ(est.cpiDelta[1].count(), est.perConfig[0].units());

    core::SimSession solo16(spec, c16);
    const core::SmartsEstimate ref16 =
        core::SystematicSampler(sc).run(solo16);
    CHECK_EQ(est.perConfig[1].cpi(), ref16.cpi());

    // The delta stats really are (cpi_16 - cpi_8) per unit.
    CHECK_NEAR(est.cpiDelta[1].mean(),
               est.perConfig[1].cpi() - est.perConfig[0].cpi(),
               1e-12);
    // Matched pairs beat two independent runs on the comparison CI.
    CHECK(est.deltaCiRelative(1, 0.997) <
          est.independentDeltaCiRelative(1, 0.997));
}

/**
 * runMatched must leave every config's estimate bit-identical — the
 * full SmartsEstimate::fingerprint(), truncation counters included —
 * to a dedicated single-config run(), for a one-config and a
 * two-config MultiSession, over the schedule's edge designs: the
 * default grid, a sparse grid, detailed warming W longer than the
 * gap between measured units (no gap is fast-forwarded; W starts
 * inside the previous unit), and the truncation-prone k = 1 / W = 0
 * design (the stream ends inside a measured unit).
 */
void
testMatchedEngineMatchesClassicSampler()
{
    const auto c8 = uarch::MachineConfig::eightWay();
    const auto c16 = uarch::MachineConfig::sixteenWay();
    struct Design
    {
        const char *benchmark;
        std::uint64_t u, w, k, offset;
    };
    const Design designs[] = {{"sort-1", 1000, 2000, 10, 0},
                              {"fsm-1", 1000, 2000, 25, 0},
                              {"fsm-1", 1000, 2500, 2, 1},
                              {"alu-1", 999, 0, 1, 0}};
    for (const Design &d : designs) {
        const auto spec =
            workloads::findBenchmark(d.benchmark, workloads::Scale::Mini);
        core::SamplingConfig sc;
        sc.unitSize = d.u;
        sc.detailedWarming = d.w;
        sc.interval = d.k;
        sc.offset = d.offset;
        sc.warming = core::WarmingMode::Functional;

        for (const std::vector<uarch::MachineConfig> &configs :
             {std::vector<uarch::MachineConfig>{c8},
              std::vector<uarch::MachineConfig>{c8, c16}}) {
            core::MultiSession multi(spec, configs);
            const core::MatchedEstimate matched =
                core::SystematicSampler(sc).runMatched(multi);
            CHECK_EQ(matched.perConfig.size(), configs.size());
            for (std::size_t c = 0; c < configs.size(); ++c) {
                core::SimSession single(spec, configs[c]);
                const core::SmartsEstimate ref =
                    core::SystematicSampler(sc).run(single);
                CHECK(ref.units() > 0);
                CHECK(matched.perConfig[c].fingerprint() ==
                      ref.fingerprint());
            }
            // The truncation design must actually truncate.
            if (d.k == 1)
                CHECK(matched.perConfig[0].instructionsDropped > 0);
        }
    }
}

} // namespace

int
main()
{
    testPoolRunsEveryJob();
    testPoolUnevenJobsSteal();
    testEstimatesIdenticalAcrossThreadCounts();
    testJobSeedIsSchedulingIndependent();
    testMatchedEngineMatchesClassicSampler();
    testMatchedPairsShareUnits();
    TEST_MAIN_SUMMARY();
}
