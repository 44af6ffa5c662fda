/**
 * @file
 * SmartsProcedure: the paper's two-pass recipe (Figure 9 /
 * Section 5.1). Run once with a generic n_init; if the measured
 * coefficient of variation leaves the confidence interval wider
 * than the target, size n_tuned = ((z * V-hat) / epsilon)^2 from
 * the measurement and run a second, properly sized pass.
 */

#ifndef SMARTS_CORE_PROCEDURE_HH
#define SMARTS_CORE_PROCEDURE_HH

#include <cstdint>
#include <optional>

#include "core/sampler.hh"
#include "stats/confidence.hh"

namespace smarts::core {

struct ProcedureConfig
{
    std::uint64_t unitSize = 1000;
    std::uint64_t detailedWarming = 2000;
    WarmingMode warming = WarmingMode::Functional;
    stats::ConfidenceSpec target{};
    std::uint64_t nInit = 10'000; ///< the paper's generic first n.
};

struct ProcedureResult
{
    SmartsEstimate initial;
    std::optional<SmartsEstimate> tuned;
    std::uint64_t recommendedN = 0; ///< n_tuned from the initial V-hat.

    bool
    metOnFirstTry() const
    {
        return !tuned.has_value();
    }

    const SmartsEstimate &
    final() const
    {
        return tuned ? *tuned : initial;
    }
};

class SmartsProcedure
{
  public:
    using SessionFactory = core::SessionFactory;

    explicit SmartsProcedure(const ProcedureConfig &config);

    /**
     * Run the two-pass procedure over fresh sessions from
     * @p factory; @p streamLength is the benchmark's known length
     * (one functional pass, or a prior reference).
     */
    ProcedureResult estimate(const SessionFactory &factory,
                             std::uint64_t streamLength) const;

    /**
     * Two-pass procedure with each pass executed as a
     * checkpoint-sharded run (SystematicSampler::runSharded): the
     * unit grid splits into @p shards shards that resume from
     * captured warm state on @p pool. Estimates are bit-identical
     * to estimate()'s at any shard/thread count.
     */
    ProcedureResult estimateSharded(const SessionFactory &factory,
                                    std::uint64_t streamLength,
                                    exec::ThreadPool &pool,
                                    std::size_t shards) const;

    /**
     * Store-backed two-pass procedure: each pass consults @p store
     * (keyed by @p spec, @p machine's warm-state geometry and the
     * pass's sampling design) before capturing, and persists what it
     * captures. Both pass designs are deterministic functions of the
     * stream and the config, so rerunning the same study hits the
     * store on every pass — the second process run pays no capture
     * (functional-warming) cost at all. Estimates stay bit-identical
     * to estimate()'s.
     */
    ProcedureResult estimateSharded(const SessionFactory &factory,
                                    const workloads::BenchmarkSpec &spec,
                                    const uarch::MachineConfig &machine,
                                    std::uint64_t streamLength,
                                    exec::ThreadPool &pool,
                                    std::size_t shards,
                                    CheckpointStore &store) const;

    /**
     * ANYTIME alternative to the two-pass recipe, built on
     * live-points (core/livepoint.hh): ensure @p store holds a
     * live-point library for the densest nInit-unit design this
     * procedure would consider (capturing one streaming pass on a
     * miss, persisting it for every later run), then measure units
     * in seeded-shuffle order on @p pool and stop the moment the
     * configured confidence target is met
     * (SystematicSampler::runAnytime). Where the two-pass recipe
     * commits to n_tuned up front — overshooting when V-hat was
     * pessimistic — the anytime estimator pays for exactly the
     * units the stream's variance demands, and a warm store makes
     * a config sweep's marginal cost just those measured units.
     */
    AnytimeResult
    estimateAnytime(const SessionFactory &factory,
                    const workloads::BenchmarkSpec &spec,
                    const uarch::MachineConfig &machine,
                    std::uint64_t streamLength,
                    exec::ThreadPool &pool, CheckpointStore &store,
                    std::uint64_t seed = 1) const;

  private:
    ProcedureConfig config_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_PROCEDURE_HH
