#include "core/livepoint.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <utility>

#include "exec/thread_pool.hh"
#include "util/delta_codec.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::core {

namespace {

/** File magic: 8 bytes, version-independent, distinct from .smck. */
constexpr char kMagic[8] = {'S', 'M', 'R', 'T',
                            'L', 'V', 'P', 'T'};

/** Same probe as the v1 format (docs/checkpoint-format.md). */
constexpr std::uint32_t kEndianMark = 0x01020304u;

/**
 * The serial sampling schedule with state-equivalent warming, as in
 * the shard capture pass (core/checkpoint.cc), but snapping at EVERY
 * measured unit's iteration start — after the inter-unit gap is
 * fast-forwarded, before detailed warming — which is exactly where
 * the serial loop's state equals the capture pass's. After the last
 * unit the stream is run out so the caller learns the true dynamic
 * length. Works for SimSession and MultiSession: both expose the
 * same stepping surface.
 */
template <typename Session, typename Snap>
std::uint64_t
liveCaptureSchedule(Session &session, const SamplingConfig &config,
                    Snap &&snap)
{
    const std::uint64_t u = config.unitSize;
    const std::uint64_t w = config.detailedWarming;
    const std::uint64_t k = config.interval;
    if (!u || !k)
        SMARTS_FATAL("live-point capture needs nonzero unit size "
                     "and interval");

    std::uint64_t pos = session.instCount();
    std::uint64_t unitIdx = config.nextGridIndex(config.offset, pos);

    while (!session.finished()) {
        if (unitIdx > ~0ull / u)
            break;
        const std::uint64_t unitStart = unitIdx * u;
        const std::uint64_t warmStart =
            unitStart > w ? unitStart - w : 0;

        if (warmStart > pos) {
            pos += session.fastForward(warmStart - pos,
                                       config.warming);
            if (session.finished())
                break;
        }
        // The serial loop iterates this unit (possibly truncated):
        // snapshot its resume state.
        snap(unitIdx);

        if (unitStart > pos)
            pos += session.warmAsDetailed(unitStart - pos);
        pos += session.warmAsDetailed(u);
        unitIdx += k;
    }

    // Run out the tail so streamLength is the true benchmark length.
    while (!session.finished())
        session.fastForward(~0ull >> 1, config.warming);
    return session.instCount();
}

/** One unit's raw measurement, before deterministic folding. */
struct UnitSample
{
    UnitObservation obs{};
    bool hasObs = false;
    std::uint64_t measured = 0;
    std::uint64_t warmed = 0;
    std::uint64_t dropped = 0;
};

/**
 * Replay one live-point: restore, detailed-warm up to the unit
 * start, measure U — the serial loop's per-iteration body
 * (core/sampler.cc runSliceRange) starting from the snapshot, with
 * the identical accounting, truncation cases included.
 */
void
measureLivePoint(SimSession &session, const SamplingConfig &config,
                 const LivePoint &point, UnitSample &out)
{
    session.restoreState(point.arch, point.timing);
    const std::uint64_t u = config.unitSize;
    const std::uint64_t unitStart = point.unitIndex * u;
    std::uint64_t pos = point.position;

    out = UnitSample{};
    if (unitStart > pos) {
        const Segment warm = session.detailedRun(unitStart - pos);
        out.warmed = warm.instructions;
        pos += warm.instructions;
    }
    // When warming hit the end of the stream this runs on a finished
    // session and yields a zero segment — the serial loop broke
    // before measuring, and 0 dropped instructions matches it.
    const Segment seg = session.detailedRun(u);
    if (seg.instructions == u) {
        out.hasObs = true;
        out.obs = {static_cast<double>(seg.cycles) /
                       static_cast<double>(u),
                   seg.energyNj /
                       static_cast<double>(seg.instructions)};
        out.measured = u;
    } else {
        out.dropped = seg.instructions;
    }
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

// The anytime stop rule, factored so the warm path (runAnytime,
// which evaluates it WHILE measuring) and the leapfrog cold path
// (which REPLAYS it over the complete sample set) share the exact
// arithmetic — bit-identical decisions are what make the two paths
// report the same AnytimeResult.

/** Seeded Fisher-Yates measurement order: pure function of (seed, n). */
std::vector<std::uint32_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    Xoshiro256StarStar rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/** The batch-boundary confidence test of the anytime estimator. */
bool
anytimeTargetMet(const stats::OnlineStats &shuffled,
                 const AnytimeOptions &options)
{
    return options.target.epsilon > 0.0 &&
           shuffled.count() >= options.minUnits &&
           stats::confidenceHalfWidth(shuffled.cv(), shuffled.count(),
                                      options.target.level) <=
               options.target.epsilon;
}

/**
 * Deterministic fold: replay the taken units' observations in
 * STREAM order through the accumulators — replay, never
 * OnlineStats::merge (Chan's merge rounds differently), so a
 * completed run equals the serial run() byte for byte.
 */
template <typename Samples>
AnytimeResult
foldAnytime(const Samples &samples,
            const std::vector<std::uint32_t> &order,
            std::size_t processed, std::uint64_t streamLength)
{
    const std::size_t n = order.size();
    std::vector<bool> taken(n, false);
    for (std::size_t i = 0; i < processed; ++i)
        taken[order[i]] = true;

    AnytimeResult result;
    SmartsEstimate &est = result.estimate;
    for (std::size_t i = 0; i < n; ++i) {
        if (!taken[i])
            continue;
        const UnitSample &sample = samples[i];
        if (sample.hasObs) {
            est.cpiStats.add(sample.obs.cpi);
            est.epiStats.add(sample.obs.epi);
        }
        est.instructionsMeasured += sample.measured;
        est.instructionsWarmed += sample.warmed;
        est.instructionsDropped += sample.dropped;
    }
    est.streamLength = streamLength;
    result.unitsAvailable = n;
    result.unitsMeasured = processed;
    result.earlyStopped = processed < n;
    return result;
}

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
    for (const char c : kMagic)
        out.u8(static_cast<std::uint8_t>(c));
    out.u32(kLivePointFormatVersion);
    out.u32(kEndianMark);
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
        util::BinaryReader::fromFile(path, &ioError);
    if (in.failed())
        return refuse(std::move(ioError));

    for (const char c : kMagic)
        if (in.u8() != static_cast<std::uint8_t>(c))
            return refuse(log::format(
                path, " is not a smarts live-point library"));
    // Older versions are refused, not migrated: the store is a
    // cache, and a refusal there is a recapture.
    const std::uint32_t version = in.u32();
    if (version != kLivePointFormatVersion)
        return refuse(log::format(
            path, " is format version ", version,
            "; this build reads version ", kLivePointFormatVersion,
            " only (recapture the library)"));
    if (in.u32() != kEndianMark)
        return refuse(log::format(path,
                                  " has a bad endianness marker"));
    const std::uint8_t flavor = in.u8();
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
    const SamplingConfig &built = library.samplingConfig();
    if (built.unitSize != config_.unitSize ||
        built.detailedWarming != config_.detailedWarming ||
        built.interval != config_.interval ||
        built.offset != config_.offset ||
        built.warming != config_.warming)
        SMARTS_FATAL("live-point library was built for a different "
                     "sampling design");

    const std::size_t n = library.unitCount();

    // Seeded Fisher-Yates: the measurement order is a pure function
    // of (seed, n), so a rerun — on any machine, at any thread
    // count — measures the identical unit sequence.
    const std::vector<std::uint32_t> order =
        shuffledOrder(n, options.seed);

    const SamplingConfig config = config_;
    const std::uint64_t batch = options.batch ? options.batch : 1;
    const std::uint64_t chunk = options.chunk ? options.chunk : 1;

    std::vector<UnitSample> samples(n);
    stats::OnlineStats shuffled; // CPI in shuffle order: stop rule only.
    std::size_t processed = 0;
    bool stopped = false;

    while (processed < n && !stopped) {
        const std::size_t end =
            std::min<std::size_t>(n, processed + batch);
        // The batch's units are handed out in stream order, so each
        // job's cursor walks its chain span forward once. Each chunk
        // job owns one session and writes only its own units' slots;
        // pool.wait() publishes them all, so the batch is
        // bit-identical at any thread count.
        std::vector<std::uint32_t> units(order.begin() + processed,
                                         order.begin() + end);
        std::sort(units.begin(), units.end());
        for (std::size_t c = 0; c < units.size(); c += chunk) {
            const std::size_t cEnd =
                std::min<std::size_t>(units.size(), c + chunk);
            pool.submit([&samples, &units, &library, &factory, config,
                         c, cEnd] {
                std::unique_ptr<SimSession> session = factory();
                LivePointLibrary::Cursor cursor(library);
                LivePoint point;
                for (std::size_t i = c; i < cEnd; ++i) {
                    cursor.materialize(units[i], point);
                    measureLivePoint(*session, config, point,
                                     samples[units[i]]);
                }
            });
        }
        pool.wait();

        // The stop rule sees observations in SHUFFLE order — the
        // randomized order is what makes the prefix an unbiased
        // sample of the unit population at every cut point.
        for (std::size_t i = processed; i < end; ++i) {
            const UnitSample &sample = samples[order[i]];
            if (sample.hasObs)
                shuffled.add(sample.obs.cpi);
        }
        processed = end;

        if (anytimeTargetMet(shuffled, options))
            stopped = true;
    }

    return foldAnytime(samples, order, processed,
                       library.streamLength());
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

    const SamplingConfig config = config_;
    const std::uint64_t chunk = options.chunk ? options.chunk : 1;

    // Sample slots live in a deque: push_back never moves existing
    // elements, so the capture thread keeps appending while pool
    // jobs write through the stable slot pointers they were handed.
    // Jobs never touch the container itself.
    std::deque<UnitSample> samples;
    std::vector<LivePoint> pendingPoints;
    std::vector<UnitSample *> pendingSlots;

    auto flush = [&] {
        if (pendingPoints.empty())
            return;
        auto points = std::make_shared<std::vector<LivePoint>>(
            std::move(pendingPoints));
        auto slots = std::make_shared<std::vector<UnitSample *>>(
            std::move(pendingSlots));
        pendingPoints.clear();
        pendingSlots.clear();
        pool.submit([points, slots, &factory, config] {
            std::unique_ptr<SimSession> session = factory();
            for (std::size_t i = 0; i < points->size(); ++i)
                measureLivePoint(*session, config, (*points)[i],
                                 *(*slots)[i]);
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

    // Stop-rule replay over the complete sample set: the identical
    // shuffle, batch boundaries and streaming-CI arithmetic the
    // warm path applies while measuring — the per-unit values are
    // the same, so every accept/stop decision lands on the same
    // batch and the reported AnytimeResult matches a warm
    // runAnytime bit for bit.
    const std::size_t n = samples.size();
    const std::vector<std::uint32_t> order =
        shuffledOrder(n, options.seed);
    const std::uint64_t batch = options.batch ? options.batch : 1;
    stats::OnlineStats shuffled;
    std::size_t processed = 0;
    bool stopped = false;
    while (processed < n && !stopped) {
        const std::size_t end =
            std::min<std::size_t>(n, processed + batch);
        for (std::size_t i = processed; i < end; ++i) {
            const UnitSample &sample = samples[order[i]];
            if (sample.hasObs)
                shuffled.add(sample.obs.cpi);
        }
        processed = end;
        if (anytimeTargetMet(shuffled, options))
            stopped = true;
    }

    AnytimeResult result =
        foldAnytime(samples, order, processed, library.streamLength());
    if (collect)
        *collect = std::move(library);
    return result;
}

SliceResult
SystematicSampler::measureUnits(SimSession &session,
                                const LivePointLibrary &library,
                                std::uint64_t firstUnit,
                                std::uint64_t unitCount,
                                const ProgressTick &tick) const
{
    const SamplingConfig &built = library.samplingConfig();
    if (built.unitSize != config_.unitSize ||
        built.detailedWarming != config_.detailedWarming ||
        built.interval != config_.interval ||
        built.offset != config_.offset ||
        built.warming != config_.warming)
        SMARTS_FATAL("live-point library was built for a different "
                     "sampling design");
    if (firstUnit + unitCount > library.unitCount())
        SMARTS_FATAL("unit range [", firstUnit, ", +", unitCount,
                     ") exceeds the library's ",
                     library.unitCount(), " live-points");

    // Slots in ascending order ARE stream order, so the accumulated
    // slice folds exactly like a shard slice: stream-order replay,
    // bit-identical to the serial loop over the same units.
    SliceResult r;
    LivePointLibrary::Cursor cursor(library);
    LivePoint point;
    for (std::uint64_t i = firstUnit; i < firstUnit + unitCount;
         ++i) {
        UnitSample sample;
        cursor.materialize(i, point);
        measureLivePoint(session, config_, point, sample);
        if (sample.hasObs)
            r.obs.push_back(sample.obs);
        r.measured += sample.measured;
        r.warmed += sample.warmed;
        r.dropped += sample.dropped;
        if (tick && !tick())
            break; // abandoned: partial, not publishable.
    }
    r.endPos = library.streamLength();
    return r;
}

} // namespace smarts::core
