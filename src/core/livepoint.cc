#include "core/livepoint.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <utility>

#include "core/schedule.hh"
#include "exec/thread_pool.hh"
#include "util/delta_codec.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::core {

namespace {

/** File magic: 8 bytes, version-independent, distinct from .smck. */
constexpr char kMagic[8] = {'S', 'M', 'R', 'T',
                            'L', 'V', 'P', 'T'};

// Older versions are refused, not migrated: the store is a cache,
// and a refusal there is a recapture.
const util::FileHeader kHeader{kMagic, kLivePointFormatVersion,
                               "live-point library", "format",
                               "reads only"};

/**
 * The live-point capture pass: the sampling schedule
 * (core/schedule.hh) with state-equivalent warming, calling
 * @p snap(unitIdx) at EVERY unit the serial loop iterates — after
 * the inter-unit gap, before detailed warming, where the serial
 * loop's state equals the capture pass's. The stream is run out so
 * the caller learns the true dynamic length. Works for SimSession
 * and MultiSession.
 */
template <typename Session, typename Snap>
std::uint64_t
liveCaptureSchedule(Session &session, const SamplingConfig &config,
                    Snap &&snap)
{
    struct EveryUnit : WarmingVisitor<Session>
    {
        Snap &snap;

        void afterGap(std::uint64_t unitIdx) { snap(unitIdx); }
    };
    walkSchedule(session, config, config.offset, ~0ull,
                 /*runTail=*/true, EveryUnit{{{}, session}, snap});
    return session.instCount();
}

/**
 * Replay one live-point: restore its snapshot and walk its one unit —
 * the serial loop's iteration from the snapshot on, with the
 * identical accounting, truncation cases included.
 */
SliceResult
measureLivePoint(SimSession &session, const SystematicSampler &sampler,
                 const LivePoint &point)
{
    session.restoreState(point.arch, point.timing);
    ShardSpec unit;
    unit.firstUnitIndex = point.unitIndex;
    unit.unitCount = 1;
    unit.resumePos = point.position;
    return sampler.runSlice(session, unit);
}

/** Fixed part of a record: unitIndex, position, recordFnv, length. */
constexpr std::size_t kRecordHead = 4 * sizeof(std::uint64_t);

/**
 * FNV-1a over a record's encoded bytes minus its own checksum field:
 * unitIndex and position, then the delta's length and bytes.
 */
std::uint64_t
recordFnv(const std::uint8_t *head, const std::uint8_t *delta,
          std::size_t deltaSize)
{
    std::uint64_t h = util::fnv1a(head, 2 * sizeof(std::uint64_t));
    h = util::fnv1a(head + 3 * sizeof(std::uint64_t),
                    sizeof(std::uint64_t), h);
    return util::fnv1a(delta, deltaSize, h);
}

/**
 * The anytime stop rule, stepped one batch at a time. The warm path
 * (runAnytime) measures each batch, then steps; the leapfrog cold
 * path measures every unit first, then replays the steps. One copy
 * of the shuffle, the batch boundaries and the streaming-CI
 * arithmetic is what makes the two report the same AnytimeResult.
 */
struct AnytimeStopRule
{
    /**
     * Seeded Fisher-Yates over the unit slots: the measurement order
     * is a pure function of (seed, units), so a rerun — on any
     * machine, at any thread count — measures the identical units.
     */
    AnytimeStopRule(std::size_t units, const AnytimeOptions &opts)
        : order(units), options(opts)
    {
        std::iota(order.begin(), order.end(), 0u);
        Xoshiro256StarStar rng(options.seed);
        for (std::size_t i = units; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }

    /** True while units remain and the target has not been met. */
    bool
    running() const
    {
        return processed < order.size() && !stopped;
    }

    /** The next batch is order[processed, batchEnd()). */
    std::size_t
    batchEnd() const
    {
        return std::min<std::size_t>(
            order.size(), processed + (options.batch ? options.batch : 1));
    }

    /**
     * Take the next batch of measured @p samples: their CPIs enter
     * the streaming statistics in SHUFFLE order — the randomized
     * order makes the prefix an unbiased sample of the unit
     * population at every cut point — and the confidence target is
     * tested at the batch boundary, a data-independent cut point.
     */
    template <typename Samples>
    void
    step(const Samples &samples)
    {
        for (const std::size_t end = batchEnd(); processed < end;
             ++processed)
            for (const UnitObservation &o : samples[order[processed]].obs)
                shuffled.add(o.cpi);
        stopped = options.target.epsilon > 0.0 &&
                  shuffled.count() >= options.minUnits &&
                  stats::confidenceHalfWidth(shuffled.cv(),
                                             shuffled.count(),
                                             options.target.level) <=
                      options.target.epsilon;
    }

    /**
     * Deterministic fold: the taken units replayed in STREAM order
     * through SystematicSampler::foldSlice — replay, never
     * OnlineStats::merge (Chan's merge rounds differently), so a
     * completed run equals the serial run() byte for byte.
     */
    template <typename Samples>
    AnytimeResult
    result(const Samples &samples, std::uint64_t streamLength) const
    {
        std::vector<bool> taken(order.size(), false);
        for (std::size_t i = 0; i < processed; ++i)
            taken[order[i]] = true;

        AnytimeResult r;
        for (std::size_t i = 0; i < order.size(); ++i)
            if (taken[i])
                SystematicSampler::foldSlice(r.estimate, samples[i]);
        r.estimate.streamLength = streamLength;
        r.unitsAvailable = order.size();
        r.unitsMeasured = processed;
        r.earlyStopped = processed < order.size();
        return r;
    }

    std::vector<std::uint32_t> order;
    AnytimeOptions options;
    stats::OnlineStats shuffled; ///< CPI in shuffle order: stop rule only.
    std::size_t processed = 0;
    bool stopped = false;
};

} // namespace

LivePointLibrary
LivePointLibrary::build(SimSession &session,
                        const SamplingConfig &config)
{
    return build(session, config, PointSink{});
}

LivePointLibrary
LivePointLibrary::build(SimSession &session,
                        const SamplingConfig &config,
                        const PointSink &sink)
{
    LivePointLibrary library;
    library.config_ = config;
    LivePoint point;
    util::BinaryWriter scratch;
    library.streamLength_ = liveCaptureSchedule(
        session, config, [&](std::uint64_t unitIdx) {
            session.saveState(point.arch, point.timing);
            point.position = session.instCount();
            point.unitIndex = unitIdx;
            library.append(point, scratch);
            if (sink)
                sink(library.unitCount() - 1, point);
        });
    library.tail_ = {};
    return library;
}

std::vector<LivePointLibrary>
LivePointLibrary::buildMulti(MultiSession &session,
                             const SamplingConfig &config)
{
    std::vector<LivePointLibrary> libraries(session.configCount());
    for (LivePointLibrary &library : libraries)
        library.config_ = config;

    LivePoint point;
    std::vector<TimingState> timings;
    util::BinaryWriter scratch;
    const std::uint64_t length = liveCaptureSchedule(
        session, config, [&](std::uint64_t unitIdx) {
            // One architectural snapshot, one timing snapshot per
            // config: library c gets exactly the live-point a
            // single-config capture of config c would have taken.
            session.saveState(point.arch, timings);
            point.position = session.instCount();
            point.unitIndex = unitIdx;
            for (std::size_t c = 0; c < libraries.size(); ++c) {
                std::swap(point.timing, timings[c]);
                libraries[c].append(point, scratch);
                std::swap(point.timing, timings[c]);
            }
        });
    for (LivePointLibrary &library : libraries) {
        library.streamLength_ = length;
        library.tail_ = {};
    }
    return libraries;
}

void
LivePointLibrary::append(const LivePoint &point,
                         util::BinaryWriter &scratch)
{
    scratch.clear();
    point.arch.write(scratch);
    point.timing.write(scratch);
    const std::vector<std::uint8_t> &raw = scratch.buffer();

    const std::size_t head = chain_.size();
    chain_.u64(point.unitIndex);
    chain_.u64(point.position);
    chain_.u64(0); // recordFnv, patched once the delta is known.
    chain_.u64(0); // delta length, likewise.
    const std::size_t deltaAt = chain_.size();
    util::deltaEncode(tail_.data(), tail_.size(), raw.data(),
                      raw.size(), chain_);
    const std::size_t deltaSize = chain_.size() - deltaAt;
    chain_.patchU64(head + 3 * sizeof(std::uint64_t), deltaSize);
    const std::uint8_t *bytes = chain_.buffer().data();
    chain_.patchU64(head + 2 * sizeof(std::uint64_t),
                    recordFnv(bytes + head, bytes + deltaAt,
                              deltaSize));

    indexRecord(point.unitIndex, point.position, deltaAt, deltaSize,
                raw);
    tail_ = raw;
}

void
LivePointLibrary::indexRecord(std::uint64_t unitIndex,
                              std::uint64_t position,
                              std::size_t deltaAt,
                              std::size_t deltaSize,
                              const std::vector<std::uint8_t> &state)
{
    sinceKeyframe_ += deltaSize;
    if (keyframes_.empty() || sinceKeyframe_ > state.size()) {
        keyframes_.push_back({records_.size(), state});
        sinceKeyframe_ = 0;
    }
    records_.push_back({unitIndex, position, deltaAt, deltaSize,
                        keyframes_.size() - 1});
}

void
LivePointLibrary::Cursor::materialize(std::size_t unit, LivePoint &out)
{
    const LivePointLibrary &library = *library_;
    if (unit >= library.records_.size())
        SMARTS_FATAL("live-point ", unit, " is past the library's ",
                     library.records_.size(), " units");
    const Record &record = library.records_[unit];
    const Keyframe &keyframe = library.keyframes_[record.keyframe];

    if (!holding_ || unit_ > unit ||
        library.records_[unit_].keyframe != record.keyframe) {
        state_ = keyframe.state;
        unit_ = keyframe.unit;
        holding_ = true;
    }
    const std::uint8_t *chain = library.chain_.buffer().data();
    for (; unit_ < unit; ++unit_) {
        const Record &next = library.records_[unit_ + 1];
        std::string error;
        if (!util::deltaApply(state_, chain + next.deltaAt,
                              next.deltaSize, &error))
            SMARTS_FATAL("live-point ", unit_ + 1,
                         " no longer decodes (", error, ")");
    }
    util::BinaryReader in(state_.data(), state_.size());
    out.arch.read(in);
    out.timing.read(in);
    out.unitIndex = record.unitIndex;
    out.position = record.position;
}

std::size_t
LivePointLibrary::byteSize() const
{
    std::size_t total =
        chain_.size() + records_.size() * sizeof(Record);
    for (const Keyframe &keyframe : keyframes_)
        total += keyframe.state.size();
    return total;
}

void
LivePointLibrary::serialize(const LibraryKey &key,
                            util::BinaryWriter &out) const
{
    out.header(kHeader);
    out.u8(kCheckpointFlavorSolo);
    key.write(out);

    out.u64(streamLength_);
    out.u64(records_.size());
    out.bytes(chain_.buffer().data(), chain_.size());
}

bool
LivePointLibrary::save(const LibraryKey &key, const std::string &path,
                       std::string *error, bool createDirs) const
{
    util::BinaryWriter out;
    serialize(key, out);
    return out.writeFile(path, error, createDirs);
}

std::optional<LivePointLibrary>
LivePointLibrary::load(const std::string &path,
                       const LibraryKey &expect, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    std::string ioError;
    util::BinaryReader in =
        util::BinaryReader::fromFile(path, kHeader, &ioError);
    if (in.failed())
        return refuse(std::move(ioError));
    const unsigned flavor = in.u8();
    if (flavor != kCheckpointFlavorSolo)
        return refuse(log::format(
            path, " holds flavor-", flavor,
            " (co-run mix) live-points, which no reader "
            "implements yet (the flavor is reserved)"));

    const LibraryKey stored = LibraryKey::read(in);
    const std::string mismatch = expect.mismatchAgainst(stored);
    if (!mismatch.empty())
        return refuse(log::format(path, ": ", mismatch));
    if (!stored.sampling.unitSize || !stored.sampling.interval)
        return refuse(log::format(
            path, " is corrupt (zero unit size or interval)"));

    LivePointLibrary library;
    library.config_ = stored.sampling;
    library.streamLength_ = in.u64();
    const std::uint64_t count = in.u64();
    // An absurd count means a corrupt length field the checksum
    // somehow missed; bound it by what the payload could hold (a
    // record is at least its head plus a delta's rawSize).
    if (in.failed() ||
        count > in.remaining() / (kRecordHead + sizeof(std::uint64_t)))
        return refuse(log::format(
            path, " is corrupt (live-point count ", count, ")"));

    // The chain is kept exactly as it sits in the file; one walk
    // validates every record over one rolling state buffer.
    const std::size_t chainSize = in.remaining();
    library.chain_.bytes(in.bytes(chainSize), chainSize);
    const std::uint8_t *chain = library.chain_.buffer().data();
    util::BinaryReader records(chain, chainSize);
    std::vector<std::uint8_t> state;
    LivePoint parsed;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint8_t *head = records.bytes(kRecordHead);
        util::BinaryReader fields(head, head ? kRecordHead : 0);
        const std::uint64_t unitIndex = fields.u64();
        const std::uint64_t position = fields.u64();
        const std::uint64_t checksum = fields.u64();
        const std::uint64_t deltaSize = fields.u64();
        const std::uint8_t *delta = records.bytes(deltaSize);
        if (!delta)
            return refuse(log::format(
                path, " is truncated or has trailing garbage"));
        if (recordFnv(head, delta, deltaSize) != checksum)
            return refuse(log::format(
                path, " is corrupt (live-point ", i,
                " fails its record checksum)"));

        std::string deltaError;
        if (!util::deltaApply(state, delta, deltaSize, &deltaError))
            return refuse(log::format(path, " is corrupt (live-point ",
                                      i, ": ", deltaError, ")"));
        util::BinaryReader stateIn(state.data(), state.size());
        parsed.arch.read(stateIn);
        parsed.timing.read(stateIn);
        if (stateIn.failed() || stateIn.remaining() != 0)
            return refuse(log::format(
                path, " is corrupt (live-point ", i,
                " has a malformed state)"));

        // The grid is implied by the key: record i resumes unit
        // offset + i*k, at or before the unit's start, positions
        // nondecreasing. A well-checksummed file with records off
        // the grid would MIS-MEASURE instead of failing loudly.
        const std::uint64_t wantIdx =
            stored.sampling.offset + i * stored.sampling.interval;
        const bool onGrid =
            unitIndex == wantIdx &&
            unitIndex <= ~0ull / stored.sampling.unitSize &&
            position <= unitIndex * stored.sampling.unitSize &&
            (i == 0 || position >= library.records_.back().position) &&
            position <= library.streamLength_;
        if (!onGrid)
            return refuse(log::format(
                path, " is corrupt (live-point ", i,
                " is off the sampling grid)"));
        library.indexRecord(unitIndex, position,
                            static_cast<std::size_t>(delta - chain),
                            static_cast<std::size_t>(deltaSize), state);
    }
    if (records.remaining() != 0)
        return refuse(log::format(
            path, " is truncated or has trailing garbage"));
    return library;
}

AnytimeResult
SystematicSampler::runAnytime(const SessionFactory &factory,
                              const LivePointLibrary &library,
                              exec::ThreadPool &pool,
                              const AnytimeOptions &options) const
{
    if (!factory)
        SMARTS_FATAL("runAnytime needs a session factory");
    if (library.samplingConfig() != config_)
        SMARTS_FATAL("live-point library was built for a different "
                     "sampling design");

    const std::uint64_t chunk = options.chunk ? options.chunk : 1;
    std::vector<SliceResult> samples(library.unitCount());
    AnytimeStopRule rule(samples.size(), options);
    while (rule.running()) {
        // The batch's units are handed out in stream order, so each
        // job's cursor walks its chain span forward once. Each chunk
        // job owns one session and writes only its own units' slots;
        // pool.wait() publishes them all, so the batch is
        // bit-identical at any thread count.
        std::vector<std::uint32_t> units(
            rule.order.begin() + rule.processed,
            rule.order.begin() + rule.batchEnd());
        std::sort(units.begin(), units.end());
        for (std::size_t c = 0; c < units.size(); c += chunk) {
            const std::size_t cEnd =
                std::min<std::size_t>(units.size(), c + chunk);
            pool.submit([this, &samples, &units, &library, &factory, c,
                         cEnd] {
                std::unique_ptr<SimSession> session = factory();
                LivePointLibrary::Cursor cursor(library);
                LivePoint point;
                for (std::size_t i = c; i < cEnd; ++i) {
                    cursor.materialize(units[i], point);
                    samples[units[i]] =
                        measureLivePoint(*session, *this, point);
                }
            });
        }
        pool.wait();
        rule.step(samples);
    }
    return rule.result(samples, library.streamLength());
}

AnytimeResult
SystematicSampler::runAnytimeLeapfrog(SimSession &captureSession,
                                      const SessionFactory &factory,
                                      exec::ThreadPool &pool,
                                      const AnytimeOptions &options,
                                      LivePointLibrary *collect) const
{
    if (!factory)
        SMARTS_FATAL("runAnytimeLeapfrog needs a session factory");

    const std::uint64_t chunk = options.chunk ? options.chunk : 1;

    // Sample slots live in a deque: push_back never moves existing
    // elements, so the capture thread keeps appending while pool
    // jobs write through the stable slot pointers they were handed.
    // Jobs never touch the container itself.
    std::deque<SliceResult> samples;
    std::vector<LivePoint> pendingPoints;
    std::vector<SliceResult *> pendingSlots;

    auto flush = [&] {
        if (pendingPoints.empty())
            return;
        auto points = std::make_shared<std::vector<LivePoint>>(
            std::move(pendingPoints));
        auto slots = std::make_shared<std::vector<SliceResult *>>(
            std::move(pendingSlots));
        pendingPoints.clear();
        pendingSlots.clear();
        pool.submit([this, points, slots, &factory] {
            std::unique_ptr<SimSession> session = factory();
            for (std::size_t i = 0; i < points->size(); ++i)
                *(*slots)[i] =
                    measureLivePoint(*session, *this, (*points)[i]);
        });
    };

    // Capture on this thread; every chunk of fresh live-points is
    // handed to the pool the moment it exists, so measurement of
    // unit m overlaps functional warming toward unit m+chunk — the
    // leapfrog. The sink copies each point: capture moves on and
    // the library's own storage may relocate under further appends.
    LivePointLibrary library = LivePointLibrary::build(
        captureSession, config_,
        [&](std::size_t, const LivePoint &point) {
            samples.emplace_back();
            pendingPoints.push_back(point);
            pendingSlots.push_back(&samples.back());
            if (pendingPoints.size() >= chunk)
                flush();
        });
    flush();
    pool.wait();

    // Stop-rule replay over the complete sample set: the per-unit
    // values equal the warm path's, so every accept/stop decision
    // lands on the same batch and the AnytimeResult matches a warm
    // runAnytime bit for bit.
    AnytimeStopRule rule(samples.size(), options);
    while (rule.running())
        rule.step(samples);
    AnytimeResult result =
        rule.result(samples, library.streamLength());
    if (collect)
        *collect = std::move(library);
    return result;
}

} // namespace smarts::core
