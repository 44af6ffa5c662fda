#include "distrib/runner.hh"

#include <chrono>
#include <filesystem>
#include <thread>

#include "core/session.hh"
#include "util/logging.hh"

namespace smarts::distrib {

namespace fs = std::filesystem;

Runner::Runner(std::string queueDir, std::string storeRoot,
               RunnerOptions options)
    : dir_(std::move(queueDir)), store_(std::move(storeRoot)),
      options_(std::move(options))
{
}

std::optional<JobManifest>
Runner::awaitManifest(double waitSeconds, std::string *error,
                      double pollMillis) const
{
    const std::string path = manifestPath(dir_);
    const auto deadline =
        // smarts-lint: allow(no-ambient-nondeterminism) the manifest
        // wait deadline bounds how long the runner polls; expiry
        // refuses rather than degrading any result.
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(waitSeconds);
    PollBackoff backoff(pollMillis);
    std::string lastRefusal;
    for (;;) {
        std::error_code ec;
        if (fs::exists(path, ec)) {
            std::string why;
            if (std::optional<JobManifest> manifest =
                    JobManifest::load(path, &why))
                return manifest;
            // An unloadable manifest is not the end of the wait: it
            // may be a leftover from an incompatible build the
            // leader is ABOUT to replace (publishStudy resets such
            // queues). Keep polling; surface the latest refusal if
            // nothing loadable appears by the deadline.
            lastRefusal = std::move(why);
        }
        // smarts-lint: allow(no-ambient-nondeterminism) manifest
        // wait deadline: a timeout REFUSES (no partial results),
        // so wall time only decides between answer and error.
        if (std::chrono::steady_clock::now() >= deadline) {
            if (error)
                *error =
                    lastRefusal.empty()
                        ? log::format("no manifest appeared at ",
                                      path, " within ", waitSeconds,
                                      "s")
                        : log::format(
                              "no loadable manifest at ", path,
                              " within ", waitSeconds,
                              "s (last refusal: ", lastRefusal, ")");
            return std::nullopt;
        }
        std::this_thread::sleep_for(
            // smarts-lint: allow(no-ambient-nondeterminism) poll
            // backoff sleep paces queue-directory scans; it cannot
            // reach an estimate or a serialized byte.
            std::chrono::duration<double, std::milli>(
                backoff.nextMs()));
    }
}

bool
Runner::tick()
{
    if (!heartbeatPath_.empty()) {
        // smarts-lint: allow(no-ambient-nondeterminism) heartbeat
        // throttle: decides WHEN to refresh a claim marker's
        // mtime, never what any job computes.
        const auto now = std::chrono::steady_clock::now();
        if (options_.heartbeatSeconds <= 0.0 ||
            // smarts-lint: allow(no-ambient-nondeterminism) an
            // elapsed-since-last-beat compare, pacing only.
            std::chrono::duration<double>(now - lastBeat_).count() >=
                options_.heartbeatSeconds) {
            touchClaim(heartbeatPath_);
            lastBeat_ = now;
        }
    }
    return !cancelledNow();
}

std::size_t
Runner::drain(const JobManifest &manifest)
{
    return manifest.mode == JobMode::UnitRange
               ? drainRanges(manifest)
               : drainShards(manifest);
}

std::size_t
Runner::drainShards(const JobManifest &manifest)
{
    std::size_t executed = 0;
    for (const auto &[c, s] : claimOrder(manifest, options_.id)) {
        if (cancelledNow())
            break;
        if (!claimJob(dir_, c, s, options_.id,
                      options_.staleClaimSeconds))
            continue;
        heartbeatPath_ = claimPath(dir_, c, s);
        // smarts-lint: allow(no-ambient-nondeterminism) heartbeat
        // epoch for claim-liveness only; duplicated or stolen jobs
        // re-execute deterministically to identical bytes.
        lastBeat_ = std::chrono::steady_clock::now();
        if (options_.onExecute)
            options_.onExecute(log::format("c", c, "_s", s));
        const ShardResult result = execute(manifest, c, s);
        heartbeatPath_.clear();
        if (cancelledNow())
            break; // partial slice: abandon, claim left to age.
        std::string error;
        if (!publishResult(dir_, result, &error))
            SMARTS_FATAL("runner ", options_.id,
                         ": cannot publish result for job (", c,
                         ", ", s, "): ", error);
        ++executed;
    }
    return executed;
}

std::size_t
Runner::drainRanges(const JobManifest &manifest)
{
    std::size_t executed = 0;
    // Sweep until a full pass claims nothing: the leader may SPLIT
    // ranges mid-drain (a runner joined), so the live partition is
    // re-scanned between sweeps.
    for (;;) {
        if (cancelledNow())
            break;
        const std::vector<UnitRange> ranges = listRanges(dir_);
        if (ranges.empty())
            break;
        std::size_t claimed = 0;
        for (const auto &[c, r] :
             claimOrder(manifest, ranges, options_.id)) {
            if (cancelledNow())
                return executed;
            if (!claimRange(dir_, c, r, options_.id,
                            options_.staleClaimSeconds))
                continue;
            ++claimed;
            heartbeatPath_ = claimPathRange(dir_, c, r);
            // smarts-lint: allow(no-ambient-nondeterminism) the
            // heartbeat epoch is claim-liveness only; which units
            // run where never changes their byte-exact results.
            lastBeat_ = std::chrono::steady_clock::now();
            if (options_.onExecute)
                options_.onExecute(log::format("c", c, "_") +
                                   rangeName(r));
            const std::optional<ShardResult> result =
                executeRange(manifest, c, r);
            heartbeatPath_.clear();
            if (!result)
                return executed; // cancelled mid-job: abandon.
            std::string error;
            if (!publishResult(dir_, *result, &error))
                SMARTS_FATAL("runner ", options_.id,
                             ": cannot publish result for job "
                             "(config ", c, ", units [",
                             r.firstUnit, ", +", r.unitCount,
                             ")): ", error);
            ++executed;
        }
        if (!claimed)
            break;
    }
    return executed;
}

ShardResult
Runner::execute(const JobManifest &manifest, std::uint32_t config,
                std::uint32_t shard)
{
    const uarch::MachineConfig &machine = manifest.configs[config];
    core::SimSession session(manifest.benchmark, machine);
    if (shard > 0) {
        // Interior shards resume from the store's warm state;
        // shard 0 starts at stream start and needs no library at
        // all (a store-less runner can still contribute it).
        const core::CheckpointLibrary &library =
            libraryFor(manifest, config);
        session.restoreState(library.at(shard).arch,
                             library.at(shard).timing);
    }

    ShardResult result;
    result.studyId = manifest.studyId;
    result.configIndex = config;
    result.shardIndex = shard;
    result.key = manifest.keyFor(config);
    result.shard = manifest.plan[shard];
    result.slice =
        core::SystematicSampler(manifest.sampling)
            .runSlice(session, manifest.plan[shard],
                      [this] { return tick(); });
    return result;
}

std::optional<ShardResult>
Runner::executeRange(const JobManifest &manifest,
                     std::uint32_t config, const UnitRange &range)
{
    const core::LivePointLibrary &library =
        livePointsFor(manifest, config);
    core::SimSession session(manifest.benchmark,
                             manifest.configs[config]);

    ShardResult result;
    result.studyId = manifest.studyId;
    result.mode = JobMode::UnitRange;
    result.configIndex = config;
    result.range = range;
    result.key = manifest.keyFor(config);
    result.slice = core::SystematicSampler(manifest.sampling)
                       .measureUnits(session, library,
                                     range.firstUnit,
                                     range.unitCount,
                                     [this] { return tick(); });
    if (cancelledNow())
        return std::nullopt;
    return result;
}

namespace {

/**
 * The one load-or-recapture step behind Runner::libraryFor and
 * Runner::livePointsFor: serve config @p c from @p cache, else from
 * the store (@p load) when the stored library fits the manifest
 * (@p misfit says why not, empty when it does), else capture it
 * locally (@p capture) and persist the repair (@p save) — a missing
 * or REFUSED (corrupt, stale-version) file would otherwise force
 * this recapture on every later study. The one file left alone is a
 * healthy mismatched library: it may be exactly what another study
 * wants.
 */
template <typename Library, typename Load, typename Misfit,
          typename Capture, typename Save>
const Library &
loadOrCapture(std::map<std::uint32_t, Library> &cache, std::uint32_t c,
              const std::string &runnerId, const char *what,
              const std::string &path, Load load, Misfit misfit,
              Capture capture, Save save)
{
    const auto cached = cache.find(c);
    if (cached != cache.end())
        return cached->second;

    std::string error;
    bool mismatch = false;
    if (std::optional<Library> loaded = load(&error)) {
        const std::string why = misfit(*loaded);
        if (why.empty())
            return cache.emplace(c, std::move(*loaded)).first->second;
        mismatch = true;
        SMARTS_WARN("runner ", runnerId, ": stored ", what, " ", path,
                    " ", why);
    } else if (!error.empty()) {
        SMARTS_WARN("runner ", runnerId, ": recapturing (", error, ")");
    }

    Library built = capture();
    if (!mismatch && !save(built, &error))
        SMARTS_WARN("runner ", runnerId, ": could not persist ", path,
                    " (", error, ")");
    return cache.emplace(c, std::move(built)).first->second;
}

} // namespace

void
Runner::enterStudy(std::uint64_t studyId)
{
    if (cachedStudyId_ == studyId)
        return;
    libraries_.clear();
    livePointLibraries_.clear();
    cachedStudyId_ = studyId;
}

const core::CheckpointLibrary &
Runner::libraryFor(const JobManifest &manifest, std::uint32_t c)
{
    enterStudy(manifest.studyId);
    const core::LibraryKey key = manifest.keyFor(c);
    return loadOrCapture(
        libraries_, c, options_.id, "library", store_.pathFor(key),
        [&](std::string *error) { return store_.tryLoad(key, error); },
        [&](const core::CheckpointLibrary &loaded) {
            return loaded.plan() == manifest.plan
                       ? std::string()
                       : std::string("was captured under a different "
                                     "shard plan; recapturing with the "
                                     "manifest's");
        },
        [&] {
            core::SimSession session(manifest.benchmark,
                                     manifest.configs[c]);
            return core::CheckpointLibrary::build(
                session, manifest.sampling, manifest.plan);
        },
        [&](const core::CheckpointLibrary &built, std::string *error) {
            return store_.save(key, built, error);
        });
}

const core::LivePointLibrary &
Runner::livePointsFor(const JobManifest &manifest, std::uint32_t c)
{
    enterStudy(manifest.studyId);
    const core::LibraryKey key = manifest.keyFor(c);
    auto misfit = [&manifest](const core::LivePointLibrary &library) {
        if (library.unitCount() == manifest.totalUnits &&
            library.streamLength() == manifest.streamLength)
            return std::string();
        return log::format("has ", library.unitCount(), " units over ",
                           library.streamLength(),
                           " instructions, but the manifest says ",
                           manifest.totalUnits, " over ",
                           manifest.streamLength, "; recapturing");
    };
    return loadOrCapture(
        livePointLibraries_, c, options_.id, "live-point library",
        store_.livePointPathFor(key),
        [&](std::string *error) {
            return store_.tryLoadLivePoints(key, error);
        },
        misfit,
        [&] {
            core::SimSession session(manifest.benchmark,
                                     manifest.configs[c]);
            core::LivePointLibrary built =
                core::LivePointLibrary::build(session, manifest.sampling);
            if (!misfit(built).empty())
                SMARTS_FATAL("runner ", options_.id,
                             ": locally captured live-points (",
                             built.unitCount(), " units over ",
                             built.streamLength(),
                             " instructions) disagree with the "
                             "manifest (",
                             manifest.totalUnits, " over ",
                             manifest.streamLength,
                             ") — benchmark sources diverged?");
            return built;
        },
        [&](const core::LivePointLibrary &built, std::string *error) {
            return store_.saveLivePoints(built, key, error);
        });
}

} // namespace smarts::distrib
