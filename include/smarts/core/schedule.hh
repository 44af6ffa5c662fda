/**
 * @file
 * The SMARTS sampling schedule, written once. Every path that steps
 * the measured-unit grid is a visitor over walkSchedule(): serial and
 * sharded sampling (SystematicSampler::run/runSlice/runMatched,
 * mp::MixSampler), shard-checkpoint capture (CheckpointLibrary,
 * mp::MixLibrary), and live-point capture and per-unit replay
 * (core/livepoint.hh). They share the grid jump, the overflow guard,
 * the gap fast-forward, the end-of-stream breaks and the tail run, so
 * no path can drift from another.
 *
 * One iteration over grid index i (unit start i*U):
 *
 *   atIteration(i)  shard-checkpoint snap point, before the gap;
 *   fast-forward    to i*U - W in the configured warming mode;
 *   afterGap(i)     live-point snap point, before W;
 *   warm(n)         the W detailed-warming instructions before i*U;
 *   measure(U)      the measured unit.
 *
 * Sampling visitors run W and U with detailedRun and record the
 * segment; capture visitors run them with warmAsDetailed (the same
 * state transitions without timing), which is why a snapshot taken
 * at either snap point resumes bit-identically to the serial run.
 */

#ifndef SMARTS_CORE_SCHEDULE_HH
#define SMARTS_CORE_SCHEDULE_HH

#include <cstdint>

#include "core/sampler.hh"
#include "util/logging.hh"

namespace smarts::core {

/** Default hooks for visitors that take no snapshots. */
struct ScheduleVisitor
{
    /** Iteration start; false stops the walk here (no tail run). */
    bool atIteration(std::uint64_t) { return true; }

    /** After the gap fast-forward, before detailed warming. */
    void afterGap(std::uint64_t) {}
};

/**
 * Capture visitor base: W and U advance with warmAsDetailed, leaving
 * the session's state where the serial sampling run's would be.
 */
template <typename Session>
struct WarmingVisitor : ScheduleVisitor
{
    Session &session;

    void warm(std::uint64_t n) { session.warmAsDetailed(n); }
    void measure(std::uint64_t n) { session.warmAsDetailed(n); }
};

/**
 * Walk @p config's unit grid over @p session from grid index
 * @p startIdx (any index of the form offset + m*interval; a resumed
 * session jumps to the first unit at or after its position), for at
 * most @p maxUnits iterations, calling @p visitor's hooks (see the
 * file comment). The walk ends at end of stream, past the last
 * representable unit, after @p maxUnits iterations, or when
 * atIteration returns false. Unless atIteration stopped it,
 * @p runTail then runs the stream out so the session ends at the
 * true stream length. Works
 * for SimSession, MultiSession and mp::MixSession (positions in
 * rounds): the stream driving the schedule does not depend on what
 * the visitor does with it.
 */
template <typename Session, typename Visitor>
void
walkSchedule(Session &session, const SamplingConfig &config,
             std::uint64_t startIdx, std::uint64_t maxUnits,
             bool runTail, Visitor &&visitor)
{
    const std::uint64_t u = config.unitSize;
    const std::uint64_t w = config.detailedWarming;
    if (!u || !config.interval)
        SMARTS_FATAL("the sampling schedule needs a nonzero unit size "
                     "and interval");

    std::uint64_t unitIdx =
        config.nextGridIndex(startIdx, session.instCount());
    for (std::uint64_t done = 0;; ++done, unitIdx += config.interval) {
        if (!visitor.atIteration(unitIdx))
            return;
        // A grid index past any representable stream position ends
        // the walk (and keeps the unitIdx * u product overflow-free).
        if (session.finished() || done >= maxUnits ||
            unitIdx > ~0ull / u)
            break;
        const std::uint64_t unitStart = unitIdx * u;
        const std::uint64_t warmStart =
            unitStart > w ? unitStart - w : 0;

        // Fast-forward the inter-unit gap in the warming mode.
        if (warmStart > session.instCount()) {
            session.fastForward(warmStart - session.instCount(),
                                config.warming);
            if (session.finished())
                break;
        }
        visitor.afterGap(unitIdx);

        // Detailed warming W (shorter when W exceeds the gap).
        if (unitStart > session.instCount()) {
            visitor.warm(unitStart - session.instCount());
            if (session.finished())
                break;
        }

        // The measured unit (possibly truncated at end of stream).
        visitor.measure(u);
    }

    if (runTail)
        while (!session.finished())
            session.fastForward(~0ull >> 1, config.warming);
}

} // namespace smarts::core

#endif // SMARTS_CORE_SCHEDULE_HH
