/**
 * @file
 * The shard executor: the one body behind every checkpoint-sharded
 * run, solo (SystematicSampler::runSharded) and co-run
 * (mp::MixSampler::runSharded) alike, in all three modes — cold
 * (executeCold), from a prebuilt library (executeLibrary) and
 * store-backed (executeStored). Each sampler supplies a small Tier
 * adapter naming its session, checkpoint, slice and estimate types;
 * planning, checkpoint hand-off, the store round trip and the
 * shard-order fold live here once.
 */

#ifndef SMARTS_CORE_SHARD_EXECUTOR_HH
#define SMARTS_CORE_SHARD_EXECUTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace smarts::core {

/**
 * Execute @p plan's shards on @p pool and fold their slices into one
 * estimate. A Tier provides:
 *
 *   Checkpoint, Slice, Estimate   the tier's types (its library is
 *                                 ShardLibrary<Checkpoint>);
 *   static constexpr const char *kLibrary   the library's name in
 *                                 diagnostics;
 *   const SamplingConfig &config() const   the sampling design;
 *   Slice runShard(const ShardSpec &, const Checkpoint *) const
 *       run one shard's slice on a fresh session, restored from the
 *       checkpoint unless it is null (shard 0 starts at stream start);
 *   std::uint64_t capture(plan, ShardLibrary<Checkpoint>::CheckpointSink)
 *       const
 *       the capture pass; returns the position it stopped at;
 *   Estimate emptyEstimate() const;
 *   static void foldSlice(Estimate &, const Slice &).
 *
 * With @p library every shard resumes from its prebuilt checkpoint.
 * Without one, shard 0 is submitted at once and the capture pass
 * submits shard s the moment its checkpoint is reached (recording it
 * into @p collect when given), so execution overlaps capture. Each
 * job writes only its own result slot and pool.wait() publishes every
 * slot to this thread; slices fold in shard (= stream) order, so the
 * estimate is bit-identical to the serial run at any shard and thread
 * count.
 */
template <typename Tier>
typename Tier::Estimate
executeShards(const Tier &tier, const std::vector<ShardSpec> &plan,
              exec::ThreadPool &pool,
              const ShardLibrary<typename Tier::Checkpoint> *library,
              ShardLibrary<typename Tier::Checkpoint> *collect = nullptr)
{
    using Checkpoint = typename Tier::Checkpoint;
    std::vector<typename Tier::Slice> results(plan.size());
    std::uint64_t capturePos = 0;

    if (library) {
        for (std::size_t s = 0; s < plan.size(); ++s)
            pool.submit([&results, &tier, &plan, library, s] {
                results[s] = tier.runShard(
                    plan[s], s ? &library->at(s) : nullptr);
            });
    } else {
        // The job owns its checkpoint: capture streams on meanwhile.
        auto submit = [&results, &tier, &plan,
                       &pool](std::size_t s, Checkpoint &&cp) {
            pool.submit([&results, &tier, &plan, s,
                         cp = std::move(cp)] {
                results[s] = tier.runShard(plan[s], s ? &cp : nullptr);
            });
        };
        submit(0, Checkpoint{});
        if (plan.size() > 1)
            capturePos = tier.capture(
                plan, [&submit, collect](std::size_t s,
                                         Checkpoint &&cp) {
                    if (collect)
                        collect->record(s, cp);
                    submit(s, std::move(cp));
                });
    }
    pool.wait();

    typename Tier::Estimate est = tier.emptyEstimate();
    for (const typename Tier::Slice &slice : results)
        Tier::foldSlice(est, slice);
    // Normally the tail shard ran the stream out; if the plan
    // overstated the stream (a wrong length), the capture pass's own
    // progress still bounds what was simulated.
    typename Tier::Slice captured;
    captured.endPos = capturePos;
    Tier::foldSlice(est, captured);
    return est;
}

/**
 * The cold pipelined path: plan the grid of (@p streamLength,
 * @p shards), capture and execute at once; @p collect (optional)
 * receives the captured library for persistence.
 */
template <typename Tier>
typename Tier::Estimate
executeCold(const Tier &tier, std::uint64_t streamLength,
            std::size_t shards, exec::ThreadPool &pool,
            ShardLibrary<typename Tier::Checkpoint> *collect = nullptr)
{
    const std::vector<ShardSpec> plan =
        ShardLibraryBase::planShards(tier.config(), streamLength, shards);
    if (collect)
        *collect = ShardLibrary<typename Tier::Checkpoint>::prepare(
            tier.config(), plan);
    return executeShards(tier, plan, pool, nullptr, collect);
}

/** Resume every shard from @p library, built for the tier's design. */
template <typename Tier>
typename Tier::Estimate
executeLibrary(const Tier &tier,
               const ShardLibrary<typename Tier::Checkpoint> &library,
               exec::ThreadPool &pool)
{
    if (library.samplingConfig() != tier.config())
        SMARTS_FATAL(Tier::kLibrary,
                     " was built for a different sampling design");
    if (library.plan().empty())
        SMARTS_FATAL(Tier::kLibrary, " has no shards");
    return executeShards(tier, library.plan(), pool, &library);
}

/**
 * Store-backed: resume from @p store's library under @p key when one
 * loads; otherwise run cold and persist the captured library. A file
 * that exists but refuses to load is a recapture, never a mis-warm;
 * the warning says why (the key component or the failing record).
 */
template <typename Tier>
typename Tier::Estimate
executeStored(const Tier &tier, const CheckpointStore &store,
              const typename Tier::Checkpoint::Key &key,
              std::uint64_t streamLength, std::size_t shards,
              exec::ThreadPool &pool)
{
    using Checkpoint = typename Tier::Checkpoint;
    std::string error;
    if (std::optional<ShardLibrary<Checkpoint>> library =
            store.template tryLoad<Checkpoint>(key, &error))
        return executeLibrary(tier, *library, pool);
    if (!error.empty())
        SMARTS_WARN("checkpoint store: recapturing (", error, ")");

    ShardLibrary<Checkpoint> captured;
    const typename Tier::Estimate est =
        executeCold(tier, streamLength, shards, pool, &captured);
    if (!store.save(key, captured, &error))
        SMARTS_WARN("checkpoint store: could not persist ",
                    store.pathFor(key), " (", error, ")");
    return est;
}

} // namespace smarts::core

#endif // SMARTS_CORE_SHARD_EXECUTOR_HH
