#include "mp/mix_sampler.hh"

#include <memory>
#include <utility>

#include "core/checkpoint_store.hh"
#include "core/schedule.hh"
#include "core/shard_executor.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace smarts::mp {

namespace {

/**
 * The mix sampling visitor: core/sampler.cc's single-config slice
 * visitor with rounds for positions and per-lane dual-world
 * observations — every program observes the same U-round
 * (= U-instruction) window, in both worlds.
 */
struct MixSliceSampling : core::ScheduleVisitor
{
    MixSession &session;
    MixSliceResult &r;

    void
    warm(std::uint64_t n)
    {
        r.warmed += session.detailedRun(n).rounds;
    }

    void
    measure(std::uint64_t u)
    {
        const MixSegment seg = session.detailedRun(u);
        if (seg.rounds != u) {
            r.dropped += seg.rounds; // truncated final unit.
            return;
        }
        r.measured += u;
        MixUnitObservation o;
        o.per.resize(session.programCount());
        for (std::size_t p = 0; p < o.per.size(); ++p) {
            const MixLaneSegment &ls = seg.per[p];
            MixLaneObservation &lo = o.per[p];
            lo.coCpi = static_cast<double>(ls.coCycles) /
                       static_cast<double>(u);
            lo.coEpi = ls.coEnergyNj / static_cast<double>(u);
            lo.soloCpi = static_cast<double>(ls.soloCycles) /
                         static_cast<double>(u);
            lo.soloEpi = ls.soloEnergyNj / static_cast<double>(u);
            lo.sharedAccesses = ls.sharedAccesses;
            lo.sharedMisses = ls.sharedMisses;
            lo.shadowAccesses = ls.shadowAccesses;
            lo.shadowMisses = ls.shadowMisses;
        }
        r.obs.push_back(std::move(o));
    }
};

} // namespace

/** The co-run tier of the shard executor (core/shard_executor.hh). */
struct MixSampler::ShardTier
{
    using Checkpoint = MixCheckpoint;
    using Slice = MixSliceResult;
    using Estimate = MixEstimate;
    static constexpr const char *kLibrary = "mix library";

    const MixSampler &sampler;

    const core::SamplingConfig &
    config() const
    {
        return sampler.sampling_;
    }

    MixSliceResult
    runShard(const core::ShardSpec &shard, const MixCheckpoint *cp) const
    {
        MixSession session = sampler.makeSession();
        if (cp)
            session.restoreState(cp->state);
        return sampler.runSlice(session, shard);
    }

    std::uint64_t
    capture(const std::vector<core::ShardSpec> &plan,
            const MixLibrary::CheckpointSink &sink) const
    {
        MixSession session = sampler.makeSession();
        MixLibrary::capture(session, sampler.sampling_, plan, sink);
        return session.roundCount();
    }

    MixEstimate
    emptyEstimate() const
    {
        return sampler.emptyEstimate();
    }

    static void
    foldSlice(MixEstimate &est, const MixSliceResult &slice)
    {
        MixSampler::foldSlice(est, slice);
    }
};

MixSampler::MixSampler(const WorkloadMix &mix,
                       const uarch::MachineConfig &machine,
                       const core::SamplingConfig &sampling)
    : mix_(mix), machine_(machine), sampling_(sampling)
{
    if (mix_.programs.empty())
        SMARTS_FATAL("a workload mix needs at least one program");
    if (!sampling_.unitSize)
        SMARTS_FATAL("sampling unit size must be nonzero");
    if (!sampling_.interval)
        SMARTS_FATAL("sampling interval must be nonzero");
}

MixSession
MixSampler::makeSession() const
{
    return MixSession(mix_, machine_);
}

std::uint64_t
MixSampler::measureStreamLength() const
{
    MixSession session = makeSession();
    while (!session.finished())
        session.fastForward(~0ull >> 1, core::WarmingMode::None);
    return session.roundCount();
}

MixEstimate
MixSampler::emptyEstimate() const
{
    MixEstimate est;
    est.perProgram.resize(mix_.programs.size());
    return est;
}

void
MixSampler::foldSlice(MixEstimate &est, const MixSliceResult &slice)
{
    for (const MixUnitObservation &o : slice.obs)
        for (std::size_t p = 0; p < o.per.size(); ++p) {
            const MixLaneObservation &lo = o.per[p];
            MixProgramEstimate &pe = est.perProgram[p];
            pe.coRun.cpiStats.add(lo.coCpi);
            pe.coRun.epiStats.add(lo.coEpi);
            pe.solo.cpiStats.add(lo.soloCpi);
            pe.solo.epiStats.add(lo.soloEpi);
            pe.cpiDelta.add(lo.coCpi - lo.soloCpi);
            pe.sharedAccesses += lo.sharedAccesses;
            pe.sharedMisses += lo.sharedMisses;
            pe.shadowAccesses += lo.shadowAccesses;
            pe.shadowMisses += lo.shadowMisses;
        }
    for (MixProgramEstimate &pe : est.perProgram) {
        pe.coRun.instructionsMeasured += slice.measured;
        pe.coRun.instructionsWarmed += slice.warmed;
        pe.coRun.instructionsDropped += slice.dropped;
        pe.solo.instructionsMeasured += slice.measured;
        pe.solo.instructionsWarmed += slice.warmed;
        pe.solo.instructionsDropped += slice.dropped;
        if (slice.endPos > pe.coRun.streamLength)
            pe.coRun.streamLength = slice.endPos;
        if (slice.endPos > pe.solo.streamLength)
            pe.solo.streamLength = slice.endPos;
    }
}

MixSliceResult
MixSampler::runSlice(MixSession &session,
                     const core::ShardSpec &shard) const
{
    MixSliceResult r;
    core::walkSchedule(session, sampling_, shard.firstUnitIndex,
                       shard.runsTail ? ~0ull : shard.unitCount,
                       shard.runsTail, MixSliceSampling{{}, session, r});
    r.endPos = session.roundCount();
    return r;
}

MixEstimate
MixSampler::run() const
{
    MixSession session = makeSession();
    core::ShardSpec all;
    all.firstUnitIndex = sampling_.offset;
    all.runsTail = true;
    MixEstimate est = emptyEstimate();
    foldSlice(est, runSlice(session, all));
    return est;
}

MixEstimate
MixSampler::runSharded(std::uint64_t streamLength,
                       std::size_t shards,
                       exec::ThreadPool &pool) const
{
    return core::executeCold(ShardTier{*this}, streamLength, shards,
                             pool);
}

MixEstimate
MixSampler::runSharded(const MixLibrary &library,
                       exec::ThreadPool &pool) const
{
    return core::executeLibrary(ShardTier{*this}, library, pool);
}

MixEstimate
MixSampler::runSharded(std::uint64_t streamLength,
                       std::size_t shards, exec::ThreadPool &pool,
                       core::CheckpointStore &store) const
{
    return core::executeStored(ShardTier{*this}, store,
                               mixKey(mix_, machine_, sampling_),
                               streamLength, shards, pool);
}

MixEstimate
runMix(const WorkloadMix &mix, const uarch::MachineConfig &machine,
       const core::SamplingConfig &sampling, std::size_t threads)
{
    MixSampler sampler(mix, machine, sampling);
    if (threads <= 1)
        return sampler.run();
    const std::uint64_t streamLength =
        sampler.measureStreamLength();
    exec::ThreadPool pool(static_cast<unsigned>(threads));
    return sampler.runSharded(streamLength, threads, pool);
}

MixEstimate
estimateMix(const WorkloadMix &mix,
            const uarch::MachineConfig &machine,
            const core::SamplingConfig &sampling,
            std::size_t threads, core::CheckpointStore &store)
{
    MixSampler sampler(mix, machine, sampling);
    const std::uint64_t streamLength =
        sampler.measureStreamLength();
    exec::ThreadPool pool(
        static_cast<unsigned>(threads ? threads : 1));
    return sampler.runSharded(streamLength, threads ? threads : 1,
                              pool, store);
}

} // namespace smarts::mp
