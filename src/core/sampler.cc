#include "core/sampler.hh"

#include <utility>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/schedule.hh"
#include "core/shard_executor.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace smarts::core {

namespace {

/**
 * The sampling visitor of every single-config slice (run, runSlice,
 * the sharded and distributed paths, live-point replay): W and U run
 * with detailedRun; each complete unit yields one observation, a
 * truncated final unit's instructions count as dropped — detailed
 * cost behind no observation. @p tick fires after each unit; false
 * abandons the slice (partial, not publishable, no tail run).
 */
struct SliceSampling : ScheduleVisitor
{
    SimSession &session;
    SliceResult &r;
    const ProgressTick &tick;

    void
    warm(std::uint64_t n)
    {
        r.warmed += session.detailedRun(n).instructions;
    }

    bool
    measure(std::uint64_t u)
    {
        const Segment seg = session.detailedRun(u);
        if (seg.instructions == u) {
            r.measured += u;
            r.obs.push_back(
                {static_cast<double>(seg.cycles) /
                     static_cast<double>(u),
                 seg.energyNj /
                     static_cast<double>(seg.instructions)});
        } else {
            r.dropped += seg.instructions;
        }
        return !tick || tick();
    }
};

/** Matched sampling: every config observes the same W and U windows. */
struct MatchedSampling : ScheduleVisitor
{
    MultiSession &session;
    MatchedEstimate &est;

    void
    warm(std::uint64_t n)
    {
        const MultiSegment warm = session.detailedRun(n);
        for (SmartsEstimate &e : est.perConfig)
            e.instructionsWarmed += warm.instructions;
    }

    bool
    measure(std::uint64_t u)
    {
        const MultiSegment seg = session.detailedRun(u);
        if (seg.instructions != u) {
            for (SmartsEstimate &e : est.perConfig)
                e.instructionsDropped += seg.instructions;
            return true;
        }
        const double cpi0 = static_cast<double>(seg.per[0].cycles) /
                            static_cast<double>(u);
        for (std::size_t c = 0; c < est.perConfig.size(); ++c) {
            const double cpi = static_cast<double>(seg.per[c].cycles) /
                               static_cast<double>(u);
            est.perConfig[c].instructionsMeasured += u;
            est.perConfig[c].cpiStats.add(cpi);
            est.perConfig[c].epiStats.add(
                seg.per[c].energyNj / static_cast<double>(u));
            est.cpiDelta[c].add(cpi - cpi0);
        }
        return true;
    }
};

} // namespace

/** The solo tier of the shard executor (core/shard_executor.hh). */
struct SystematicSampler::ShardTier
{
    using Checkpoint = ArchCheckpoint;
    using Slice = SliceResult;
    using Estimate = SmartsEstimate;
    static constexpr const char *kLibrary = "checkpoint library";

    const SystematicSampler &sampler;
    const SessionFactory &factory;

    ShardTier(const SystematicSampler &s, const SessionFactory &f)
        : sampler(s), factory(f)
    {
        if (!factory)
            SMARTS_FATAL("runSharded needs a session factory");
    }

    const SamplingConfig &config() const { return sampler.config_; }

    SliceResult
    runShard(const ShardSpec &shard, const ArchCheckpoint *cp) const
    {
        std::unique_ptr<SimSession> session = factory();
        if (cp)
            session->restoreState(cp->arch, cp->timing);
        return sampler.runSlice(*session, shard);
    }

    std::uint64_t
    capture(const std::vector<ShardSpec> &plan,
            const CheckpointLibrary::CheckpointSink &sink) const
    {
        std::unique_ptr<SimSession> session = factory();
        CheckpointLibrary::capture(*session, sampler.config_, plan, sink);
        return session->instCount();
    }

    static SmartsEstimate emptyEstimate() { return {}; }

    static void
    foldSlice(SmartsEstimate &est, const SliceResult &slice)
    {
        SystematicSampler::foldSlice(est, slice);
    }
};

SliceResult
SystematicSampler::runSlice(SimSession &session,
                            const ShardSpec &shard,
                            const ProgressTick &tick) const
{
    SliceResult r;
    walkSchedule(session, config_, shard.firstUnitIndex,
                 shard.runsTail ? ~0ull : shard.unitCount,
                 shard.runsTail, SliceSampling{{}, session, r, tick});
    r.endPos = session.instCount();
    return r;
}

void
SystematicSampler::foldSlice(SmartsEstimate &est,
                             const SliceResult &slice)
{
    for (const UnitObservation &o : slice.obs) {
        est.cpiStats.add(o.cpi);
        est.epiStats.add(o.epi);
    }
    est.instructionsMeasured += slice.measured;
    est.instructionsWarmed += slice.warmed;
    est.instructionsDropped += slice.dropped;
    if (slice.endPos > est.streamLength)
        est.streamLength = slice.endPos;
}

SystematicSampler::SystematicSampler(const SamplingConfig &config)
    : config_(config)
{
    if (!config.unitSize)
        SMARTS_FATAL("sampling unit size must be nonzero");
    if (!config.interval)
        SMARTS_FATAL("sampling interval must be nonzero");
}

SmartsEstimate
SystematicSampler::run(SimSession &session) const
{
    ShardSpec all;
    all.firstUnitIndex = config_.offset;
    all.runsTail = true;
    SmartsEstimate est;
    foldSlice(est, runSlice(session, all));
    return est;
}

MatchedEstimate
SystematicSampler::runMatched(MultiSession &session) const
{
    MatchedEstimate est;
    est.perConfig.resize(session.configCount());
    est.cpiDelta.resize(session.configCount());
    walkSchedule(session, config_, config_.offset, ~0ull,
                 /*runTail=*/true, MatchedSampling{{}, session, est});
    for (SmartsEstimate &e : est.perConfig)
        e.streamLength = session.instCount();
    return est;
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool) const
{
    return executeCold(ShardTier(*this, factory), streamLength, shards,
                       pool);
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              const workloads::BenchmarkSpec &spec,
                              const uarch::MachineConfig &machine,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool,
                              CheckpointStore &store) const
{
    return executeStored(ShardTier(*this, factory), store,
                         LibraryKey::of(spec, machine, config_),
                         streamLength, shards, pool);
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              const CheckpointLibrary &library,
                              exec::ThreadPool &pool) const
{
    return executeLibrary(ShardTier(*this, factory), library, pool);
}

} // namespace smarts::core
