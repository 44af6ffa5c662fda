/**
 * @file
 * The shard executor: the one body behind every checkpoint-sharded
 * run, solo (SystematicSampler::runSharded) and co-run
 * (mp::MixSampler::runSharded) alike. Each sampler supplies a small
 * Tier adapter naming its session, checkpoint, slice and estimate
 * types; scheduling, checkpoint hand-off and the shard-order fold
 * live here once.
 */

#ifndef SMARTS_CORE_SHARD_EXECUTOR_HH
#define SMARTS_CORE_SHARD_EXECUTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "exec/thread_pool.hh"

namespace smarts::core {

/**
 * Execute @p plan's shards on @p pool and fold their slices into one
 * estimate. A Tier provides:
 *
 *   Checkpoint, Library, Slice, Estimate   the tier's types;
 *   Slice runShard(const ShardSpec &, const Checkpoint *) const
 *       run one shard's slice on a fresh session, restored from the
 *       checkpoint unless it is null (shard 0 starts at stream start);
 *   std::uint64_t capture(plan, Library::CheckpointSink) const
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
              const typename Tier::Library *library,
              typename Tier::Library *collect = nullptr)
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

} // namespace smarts::core

#endif // SMARTS_CORE_SHARD_EXECUTOR_HH
