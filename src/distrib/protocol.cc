#include "distrib/protocol.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "core/session.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::distrib {

namespace fs = std::filesystem;

namespace {

/** File magics: 8 bytes each, version-independent. */
constexpr char kManifestMagic[8] = {'S', 'M', 'R', 'T',
                                    'J', 'O', 'B', 'M'};
constexpr char kResultMagic[8] = {'S', 'M', 'R', 'T',
                                  'R', 'S', 'L', 'T'};

/** Endianness probe, same convention as the .smck format. */
constexpr std::uint32_t kEndianMark = 0x01020304u;

std::string
jobName(std::uint32_t config, std::uint32_t shard)
{
    return log::format("c", config, "_s", shard);
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeMagic(util::BinaryWriter &out, const char (&magic)[8])
{
    for (const char c : magic)
        out.u8(static_cast<std::uint8_t>(c));
}

bool
readMagic(util::BinaryReader &in, const char (&magic)[8])
{
    bool ok = true;
    for (const char c : magic)
        ok &= in.u8() == static_cast<std::uint8_t>(c);
    return ok;
}

/**
 * MachineConfig serialization: every field, doubles as raw IEEE-754
 * bit patterns, in the normative order of
 * docs/distributed-runners.md § Machine config. The manifest
 * carries FULL configs (not names) so a runner reconstructs the
 * exact machine the leader meant — including timing-only fields the
 * geometry hash deliberately ignores.
 */
void
writeMachine(util::BinaryWriter &out, const uarch::MachineConfig &c)
{
    out.str(c.name);
    out.u32(c.width);
    out.u32(c.robSize);
    out.u32(c.pipelineDepth);
    out.u8(c.modelWrongPath ? 1 : 0);
    out.u32(c.wrongPathFetches);
    out.f64(c.loadStallFactor);
    out.f64(c.storeStallFactor);
    for (const mem::CacheConfig *cc :
         {&c.mem.l1i, &c.mem.l1d, &c.mem.l2}) {
        out.u32(cc->sizeBytes);
        out.u32(cc->assoc);
        out.u32(cc->lineBytes);
        out.u32(cc->latency);
    }
    for (const mem::TlbConfig *tc : {&c.mem.itlb, &c.mem.dtlb}) {
        out.u32(tc->entries);
        out.u32(tc->pageBytes);
        out.u32(tc->missLatency);
    }
    out.u32(c.mem.memLatency);
    out.u32(c.bpred.historyBits);
    out.u32(c.bpred.btbEntries);
    out.u32(c.bpred.rasEntries);
    out.f64(c.energy.perInst);
    out.f64(c.energy.perCycle);
    out.f64(c.energy.l1Access);
    out.f64(c.energy.l2Access);
    out.f64(c.energy.memAccess);
    out.f64(c.energy.bpredAccess);
}

uarch::MachineConfig
readMachine(util::BinaryReader &in)
{
    uarch::MachineConfig c;
    c.name = in.str();
    c.width = in.u32();
    c.robSize = in.u32();
    c.pipelineDepth = in.u32();
    c.modelWrongPath = in.u8() != 0;
    c.wrongPathFetches = in.u32();
    c.loadStallFactor = in.f64();
    c.storeStallFactor = in.f64();
    for (mem::CacheConfig *cc : {&c.mem.l1i, &c.mem.l1d, &c.mem.l2}) {
        cc->sizeBytes = in.u32();
        cc->assoc = in.u32();
        cc->lineBytes = in.u32();
        cc->latency = in.u32();
    }
    for (mem::TlbConfig *tc : {&c.mem.itlb, &c.mem.dtlb}) {
        tc->entries = in.u32();
        tc->pageBytes = in.u32();
        tc->missLatency = in.u32();
    }
    c.mem.memLatency = in.u32();
    c.bpred.historyBits = in.u32();
    c.bpred.btbEntries = in.u32();
    c.bpred.rasEntries = in.u32();
    c.energy.perInst = in.f64();
    c.energy.perCycle = in.f64();
    c.energy.l1Access = in.f64();
    c.energy.l2Access = in.f64();
    c.energy.memAccess = in.f64();
    c.energy.bpredAccess = in.f64();
    return c;
}

void
writeShard(util::BinaryWriter &out, const core::ShardSpec &shard)
{
    out.u64(shard.firstUnitIndex);
    out.u64(shard.unitCount);
    out.u64(shard.resumePos);
    out.u8(shard.runsTail ? 1 : 0);
}

core::ShardSpec
readShard(util::BinaryReader &in)
{
    core::ShardSpec shard;
    shard.firstUnitIndex = in.u64();
    shard.unitCount = in.u64();
    shard.resumePos = in.u64();
    shard.runsTail = in.u8() != 0;
    return shard;
}

/** A process-unique temp name next to @p path (atomic-publish
 *  discipline, docs/distributed-runners.md § Atomicity). */
std::string
tempName(const std::string &path, const std::string &tag)
{
    static std::atomic<unsigned> serial{0};
    return log::format(path, ".tmp.", tag, ".", ::getpid(), ".",
                       serial.fetch_add(1));
}

/**
 * The shared claim core: result-exists short-circuit, exclusive
 * hard-link creation for a fresh claim, atomic rename-steal of a
 * stale one. Both job flavors (shard and unit-range) differ only in
 * the two paths.
 */
bool
claimAt(const std::string &claim, const std::string &result,
        const std::string &runnerId, double staleSeconds)
{
    std::error_code ec;
    // Already done: nothing to claim.
    if (fs::exists(result, ec))
        return false;

    const fs::path claimFile(claim);
    fs::create_directories(claimFile.parent_path(), ec);

    // Stage the marker under a process-unique temp name.
    const std::string tmp = tempName(claim, runnerId);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << runnerId << " pid=" << ::getpid() << "\n";
    }

    if (!fs::exists(claimFile, ec)) {
        // Fresh claim: hard-link is atomic and FAILS if the claim
        // appeared meanwhile — of N racing runners exactly one
        // wins.
        fs::create_hard_link(tmp, claimFile, ec);
        std::error_code ignore;
        fs::remove(tmp, ignore);
        return !ec;
    }

    // Existing claim: steal only when stale recovery is enabled and
    // the claim has sat result-less past the threshold. A live
    // holder heartbeats the marker (touchClaim) between units, so
    // only genuinely dead claims age this far. Rename atomically
    // REPLACES the marker; two racing stealers both "win" and
    // duplicate the execution — benign, because results are
    // deterministic and byte-identical.
    if (staleSeconds >= 0.0) {
        // smarts-lint: allow(no-ambient-nondeterminism) claim age
        // from marker mtime gates STEALING only; a wrong steal
        // duplicates deterministic work, it cannot skew it.
        const auto mtime = fs::last_write_time(claimFile, ec);
        if (!ec) {
            const double age =
                // smarts-lint: allow(no-ambient-nondeterminism) a
                // staleness window; wall clock decides who
                // executes, never what the execution computes.
                std::chrono::duration<double>(
                    fs::file_time_type::clock::now() - mtime)
                    .count();
            if (age >= staleSeconds) {
                fs::rename(tmp, claimFile, ec);
                if (!ec)
                    return true;
            }
        }
    }
    std::error_code ignore;
    fs::remove(tmp, ignore);
    return false;
}

/**
 * Rank jobs by the weighted-shuffle key u^(1/w) (Efraimidis-
 * Spirakis), descending: every runner gets a different permutation
 * (per-runner RNG seed) whose EXPECTED order is weight-biased, so
 * heavy jobs surface early without all runners probing the same job
 * first.
 */
template <typename Job>
std::vector<Job>
weightedOrder(const std::vector<std::pair<Job, double>> &jobs,
              std::uint64_t studyId, const std::string &runnerId)
{
    Xoshiro256StarStar rng(mix64(
        util::fnv1a(
            reinterpret_cast<const std::uint8_t *>(runnerId.data()),
            runnerId.size()) ^
        studyId));
    std::vector<std::pair<double, std::size_t>> keyed;
    keyed.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double w = std::max(jobs[i].second, 1.0);
        keyed.emplace_back(std::pow(rng.uniform(), 1.0 / w), i);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<Job> order;
    order.reserve(jobs.size());
    for (const auto &[key, i] : keyed)
        order.push_back(jobs[i].first);
    return order;
}

void
writeRange(util::BinaryWriter &out, const UnitRange &r)
{
    out.u64(r.firstUnit);
    out.u64(r.unitCount);
}

UnitRange
readRange(util::BinaryReader &in)
{
    UnitRange r;
    r.firstUnit = in.u64();
    r.unitCount = in.u64();
    return r;
}

} // namespace

void
writeMachineConfig(util::BinaryWriter &out,
                   const uarch::MachineConfig &config)
{
    writeMachine(out, config);
}

uarch::MachineConfig
readMachineConfig(util::BinaryReader &in)
{
    return readMachine(in);
}

std::uint64_t
buildFingerprint()
{
    // Golden micro-run, once per process: short fixed workloads
    // driven through the FULL detailed timing and energy model under
    // both stock machines. Any change to cache/TLB/branch modeling,
    // issue-width accounting, stall factors, or the energy model
    // perturbs cycles or energy bit patterns and lands here; the
    // functional-warming prefix ties in the warming semantics the
    // geometry hash only names.
    static const std::uint64_t fp = [] {
        util::BinaryWriter probe;
        probe.u32(kDistribFormatVersion);
        for (const uarch::MachineConfig &machine :
             {uarch::MachineConfig::eightWay(),
              uarch::MachineConfig::sixteenWay()}) {
            for (const char *name : {"sort-1", "fsm-1"}) {
                core::SimSession session(
                    workloads::findBenchmark(
                        name, workloads::Scale::Mini),
                    machine);
                session.fastForward(20000,
                                    core::WarmingMode::Functional);
                const core::Segment seg =
                    session.detailedRun(30000);
                probe.u64(seg.instructions);
                probe.u64(seg.cycles);
                probe.f64(seg.energyNj);
            }
        }
        return util::fnv1a(probe.buffer().data(), probe.size());
    }();
    return fp;
}

std::string
manifestPath(const std::string &dir)
{
    return (fs::path(dir) / "manifest.smjm").string();
}

std::string
claimPath(const std::string &dir, std::uint32_t config,
          std::uint32_t shard)
{
    return (fs::path(dir) / "claims" /
            (jobName(config, shard) + ".claim"))
        .string();
}

std::string
resultPath(const std::string &dir, std::uint32_t config,
           std::uint32_t shard)
{
    return (fs::path(dir) / "results" /
            (jobName(config, shard) + ".smrr"))
        .string();
}

std::string
rangeName(const UnitRange &range)
{
    return log::format("u", range.firstUnit, "_n", range.unitCount);
}

std::string
rangeMarkerPath(const std::string &dir, const UnitRange &range)
{
    return (fs::path(dir) / "ranges" / (rangeName(range) + ".range"))
        .string();
}

std::string
claimPathRange(const std::string &dir, std::uint32_t config,
               const UnitRange &range)
{
    return (fs::path(dir) / "claims" /
            (log::format("c", config, "_") + rangeName(range) +
             ".claim"))
        .string();
}

std::string
resultPathRange(const std::string &dir, std::uint32_t config,
                const UnitRange &range)
{
    return (fs::path(dir) / "results" /
            (log::format("c", config, "_") + rangeName(range) +
             ".smrr"))
        .string();
}

std::vector<UnitRange>
listRanges(const std::string &dir)
{
    std::vector<UnitRange> ranges;
    std::error_code ec;
    fs::directory_iterator it(fs::path(dir) / "ranges", ec);
    if (ec)
        return ranges;
    for (const fs::directory_entry &entry :
         it) {
        if (entry.path().extension() != ".range")
            continue;
        unsigned long long first = 0, count = 0;
        if (std::sscanf(entry.path().stem().string().c_str(),
                        "u%llu_n%llu", &first, &count) == 2 &&
            count > 0)
            ranges.push_back(UnitRange{first, count});
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const UnitRange &a, const UnitRange &b) {
                  return a.firstUnit != b.firstUnit
                             ? a.firstUnit < b.firstUnit
                             : a.unitCount > b.unitCount;
              });
    return ranges;
}

std::vector<UnitRange>
listResultRanges(const std::string &dir, std::uint32_t config)
{
    std::vector<UnitRange> ranges;
    std::error_code ec;
    fs::directory_iterator it(fs::path(dir) / "results", ec);
    if (ec)
        return ranges;
    for (const fs::directory_entry &entry : it) {
        if (entry.path().extension() != ".smrr")
            continue;
        unsigned c = 0;
        unsigned long long first = 0, count = 0;
        if (std::sscanf(entry.path().stem().string().c_str(),
                        "c%u_u%llu_n%llu", &c, &first,
                        &count) == 3 &&
            c == config && count > 0)
            ranges.push_back(UnitRange{first, count});
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const UnitRange &a, const UnitRange &b) {
                  return a.firstUnit != b.firstUnit
                             ? a.firstUnit < b.firstUnit
                             : a.unitCount > b.unitCount;
              });
    return ranges;
}

void
JobManifest::serialize(util::BinaryWriter &out) const
{
    writeMagic(out, kManifestMagic);
    out.u32(kDistribFormatVersion);
    out.u32(kEndianMark);
    out.u64(studyId);
    out.u64(fingerprint);
    out.u64(streamLength);
    // Benchmark + sampling via the LibraryKey encoding the .smck
    // format already fixed; the hash slot is zero here because
    // geometry is per config (the list below).
    core::LibraryKey base;
    base.benchmark = benchmark;
    base.sampling = sampling;
    base.geometryHash = 0;
    base.write(out);
    out.u32(static_cast<std::uint32_t>(configs.size()));
    for (std::size_t c = 0; c < configs.size(); ++c) {
        writeMachine(out, configs[c]);
        out.u64(geometryHashes[c]);
    }
    out.u8(static_cast<std::uint8_t>(mode));
    out.u64(plan.size());
    for (const core::ShardSpec &shard : plan)
        writeShard(out, shard);
    out.u64(totalUnits);
    out.u64(ranges.size());
    for (const UnitRange &r : ranges)
        writeRange(out, r);
}

bool
JobManifest::save(const std::string &path, std::string *error) const
{
    util::BinaryWriter out;
    serialize(out);
    return out.writeFile(path, error);
}

std::optional<JobManifest>
JobManifest::load(const std::string &path, std::string *error)
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

    if (!readMagic(in, kManifestMagic))
        return refuse(
            log::format(path, " is not a smarts job manifest"));
    const std::uint32_t version = in.u32();
    if (version != kDistribFormatVersion)
        return refuse(log::format(
            path, " is protocol version ", version,
            "; this build speaks version ", kDistribFormatVersion));
    if (in.u32() != kEndianMark)
        return refuse(log::format(path,
                                  " has a bad endianness marker"));

    JobManifest m;
    m.studyId = in.u64();
    m.fingerprint = in.u64();
    m.streamLength = in.u64();
    const core::LibraryKey base = core::LibraryKey::read(in);
    m.benchmark = base.benchmark;
    m.sampling = base.sampling;

    const std::uint32_t configCount = in.u32();
    if (configCount == 0 || configCount > in.remaining())
        return refuse(log::format(path, " is corrupt (config count ",
                                  configCount, ")"));
    m.configs.reserve(configCount);
    m.geometryHashes.reserve(configCount);
    for (std::uint32_t c = 0; c < configCount; ++c) {
        m.configs.push_back(readMachine(in));
        m.geometryHashes.push_back(in.u64());
    }

    const std::uint8_t modeByte = in.u8();
    if (modeByte > static_cast<std::uint8_t>(JobMode::UnitRange))
        return refuse(log::format(path, " names unknown job mode ",
                                  static_cast<unsigned>(modeByte)));
    m.mode = static_cast<JobMode>(modeByte);

    const std::uint64_t shardCount = in.u64();
    if (shardCount > in.remaining())
        return refuse(log::format(path, " is corrupt (shard count ",
                                  shardCount, ")"));
    m.plan.reserve(shardCount);
    for (std::uint64_t s = 0; s < shardCount; ++s)
        m.plan.push_back(readShard(in));

    m.totalUnits = in.u64();
    const std::uint64_t rangeCount = in.u64();
    if (rangeCount > in.remaining())
        return refuse(log::format(path, " is corrupt (range count ",
                                  rangeCount, ")"));
    m.ranges.reserve(rangeCount);
    for (std::uint64_t r = 0; r < rangeCount; ++r)
        m.ranges.push_back(readRange(in));

    if (in.failed() || in.remaining() != 0)
        return refuse(log::format(
            path, " is truncated or has trailing garbage"));

    // A config the simulator cannot index (zero or non-power-of-two
    // sizes) would crash or silently mis-model on the first access.
    for (std::uint32_t c = 0; c < configCount; ++c) {
        const std::string why = uarch::validateGeometry(m.configs[c]);
        if (!why.empty())
            return refuse(log::format(path, ": config ", c, " (",
                                      m.configs[c].name,
                                      ") has an invalid geometry: ",
                                      why));
    }

    // The build-fingerprint handshake: a manifest published by a
    // build whose timing model (or protocol) diverged from this one
    // must refuse HERE, not merge silently and rely on
    // --serial-check.
    if (m.fingerprint != buildFingerprint())
        return refuse(log::format(
            path, " was published by a build with fingerprint ",
            hex64(m.fingerprint), "; this build's fingerprint is ",
            hex64(buildFingerprint()),
            " — leader/runner timing models or protocol versions "
            "diverged"));

    if (m.mode == JobMode::Shard) {
        if (m.totalUnits != 0 || !m.ranges.empty())
            return refuse(log::format(
                path,
                " is corrupt (shard-mode manifest carries unit "
                "ranges)"));
        const std::string planError =
            core::CheckpointLibrary::validatePlan(m.sampling,
                                                  m.plan);
        if (!planError.empty())
            return refuse(
                log::format(path, " is corrupt (", planError, ")"));
    } else {
        if (!m.plan.empty())
            return refuse(log::format(
                path,
                " is corrupt (unit-range manifest carries a shard "
                "plan)"));
        if (m.totalUnits == 0)
            return refuse(log::format(
                path, " is corrupt (unit-range study of 0 units)"));
        // The initial ranges must tile [0, totalUnits) exactly: a
        // gap loses units silently, an overlap double-counts them.
        std::uint64_t cursor = 0;
        for (const UnitRange &r : m.ranges) {
            if (r.firstUnit != cursor || r.unitCount == 0)
                return refuse(log::format(
                    path,
                    " is corrupt (ranges do not tile the study: "
                    "expected a range at unit ",
                    cursor, ", found [", r.firstUnit, ", +",
                    r.unitCount, "))"));
            cursor += r.unitCount;
        }
        if (cursor != m.totalUnits)
            return refuse(log::format(
                path, " is corrupt (ranges cover ", cursor, " of ",
                m.totalUnits, " units)"));
    }

    // The stated geometry hashes must be reproducible by THIS
    // build: a disagreement means the leader hashes warm state
    // differently (diverged sources), and resuming its store's
    // libraries would mis-warm.
    for (std::uint32_t c = 0; c < configCount; ++c)
        if (uarch::warmGeometryHash(m.configs[c]) !=
            m.geometryHashes[c])
            return refuse(log::format(
                path, ": config ", c, " (", m.configs[c].name,
                ") carries a geometry hash this build does not "
                "reproduce — leader/runner builds are incompatible"));

    return m;
}

void
ShardResult::serialize(util::BinaryWriter &out) const
{
    writeMagic(out, kResultMagic);
    out.u32(kDistribFormatVersion);
    out.u32(kEndianMark);
    out.u64(studyId);
    out.u8(static_cast<std::uint8_t>(mode));
    out.u32(configIndex);
    out.u32(shardIndex);
    writeRange(out, range);
    key.write(out);
    writeShard(out, shard);
    out.u64(slice.measured);
    out.u64(slice.warmed);
    out.u64(slice.dropped);
    out.u64(slice.endPos);
    out.u64(slice.obs.size());
    for (const core::UnitObservation &o : slice.obs) {
        out.f64(o.cpi);
        out.f64(o.epi);
    }
}

bool
ShardResult::save(const std::string &path, std::string *error) const
{
    util::BinaryWriter out;
    serialize(out);
    return out.writeFile(path, error);
}

namespace {

/** Parse a result file's bytes into @p r: structural refusals only
 *  (semantic checks are the callers'). */
bool
parseResult(const std::string &path, ShardResult &r,
            std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return false;
    };

    std::string ioError;
    util::BinaryReader in =
        util::BinaryReader::fromFile(path, &ioError);
    if (in.failed())
        return refuse(std::move(ioError));

    if (!readMagic(in, kResultMagic))
        return refuse(
            log::format(path, " is not a smarts shard result"));
    const std::uint32_t version = in.u32();
    if (version != kDistribFormatVersion)
        return refuse(log::format(
            path, " is protocol version ", version,
            "; this build speaks version ", kDistribFormatVersion));
    if (in.u32() != kEndianMark)
        return refuse(log::format(path,
                                  " has a bad endianness marker"));

    r.studyId = in.u64();
    const std::uint8_t modeByte = in.u8();
    if (modeByte > static_cast<std::uint8_t>(JobMode::UnitRange))
        return refuse(log::format(path, " names unknown job mode ",
                                  static_cast<unsigned>(modeByte)));
    r.mode = static_cast<JobMode>(modeByte);
    r.configIndex = in.u32();
    r.shardIndex = in.u32();
    r.range = readRange(in);
    r.key = core::LibraryKey::read(in);
    r.shard = readShard(in);
    r.slice.measured = in.u64();
    r.slice.warmed = in.u64();
    r.slice.dropped = in.u64();
    r.slice.endPos = in.u64();
    const std::uint64_t obsCount = in.u64();
    if (in.failed() || obsCount > in.remaining() / 16)
        return refuse(log::format(
            path, " is corrupt (observation count ", obsCount, ")"));
    r.slice.obs.resize(obsCount);
    for (core::UnitObservation &o : r.slice.obs) {
        o.cpi = in.f64();
        o.epi = in.f64();
    }
    if (in.failed() || in.remaining() != 0)
        return refuse(log::format(
            path, " is truncated or has trailing garbage"));
    return true;
}

} // namespace

std::optional<ShardResult>
ShardResult::load(const std::string &path,
                  const JobManifest &manifest, std::uint32_t config,
                  std::uint32_t shard, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    ShardResult r;
    if (!parseResult(path, r, error))
        return std::nullopt;

    // Semantic refusals: everything must match the manifest's view
    // of job (config, shard). Merging a result from another study,
    // another job, or another key would corrupt the estimate
    // silently — exactly what this protocol exists to prevent.
    if (r.studyId != manifest.studyId)
        return refuse(log::format(
            path, " belongs to study ", r.studyId,
            ", not this manifest's study ", manifest.studyId));
    if (r.mode != JobMode::Shard)
        return refuse(log::format(
            path, " is a unit-range result, not a shard result"));
    if (r.configIndex != config || r.shardIndex != shard)
        return refuse(log::format(
            path, " is the result of job (config ", r.configIndex,
            ", shard ", r.shardIndex, "), not (config ", config,
            ", shard ", shard, ")"));
    const std::string keyMismatch =
        manifest.keyFor(config).mismatchAgainst(r.key);
    if (!keyMismatch.empty())
        return refuse(log::format(path, ": ", keyMismatch));
    if (r.shard != manifest.plan[shard])
        return refuse(log::format(
            path, ": shard-spec echo disagrees with the manifest "
                  "plan for shard ",
            shard));
    if (r.slice.measured !=
        r.slice.obs.size() * manifest.sampling.unitSize)
        return refuse(log::format(
            path, " is inconsistent (", r.slice.obs.size(),
            " observations for ", r.slice.measured,
            " measured instructions at U=",
            manifest.sampling.unitSize, ")"));
    return r;
}

std::optional<ShardResult>
ShardResult::loadRange(const std::string &path,
                       const JobManifest &manifest,
                       std::uint32_t config, const UnitRange &range,
                       std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    ShardResult r;
    if (!parseResult(path, r, error))
        return std::nullopt;

    if (r.studyId != manifest.studyId)
        return refuse(log::format(
            path, " belongs to study ", r.studyId,
            ", not this manifest's study ", manifest.studyId));
    if (r.mode != JobMode::UnitRange)
        return refuse(log::format(
            path, " is a shard result, not a unit-range result"));
    if (r.configIndex != config || r.range != range)
        return refuse(log::format(
            path, " is the result of job (config ", r.configIndex,
            ", units [", r.range.firstUnit, ", +", r.range.unitCount,
            ")), not (config ", config, ", units [", range.firstUnit,
            ", +", range.unitCount, "))"));
    if (range.unitCount == 0 ||
        range.firstUnit + range.unitCount > manifest.totalUnits)
        return refuse(log::format(
            path, " covers units [", range.firstUnit, ", +",
            range.unitCount, ") outside this study's ",
            manifest.totalUnits, " units"));
    const std::string keyMismatch =
        manifest.keyFor(config).mismatchAgainst(r.key);
    if (!keyMismatch.empty())
        return refuse(log::format(path, ": ", keyMismatch));
    if (r.slice.obs.size() > range.unitCount)
        return refuse(log::format(
            path, " is inconsistent (", r.slice.obs.size(),
            " observations for a ", range.unitCount, "-unit range)"));
    if (r.slice.measured !=
        r.slice.obs.size() * manifest.sampling.unitSize)
        return refuse(log::format(
            path, " is inconsistent (", r.slice.obs.size(),
            " observations for ", r.slice.measured,
            " measured instructions at U=",
            manifest.sampling.unitSize, ")"));
    if (r.slice.endPos != manifest.streamLength)
        return refuse(log::format(
            path, " covers a stream of ", r.slice.endPos,
            " instructions, not this study's ",
            manifest.streamLength));
    return r;
}

bool
claimJob(const std::string &dir, std::uint32_t config,
         std::uint32_t shard, const std::string &runnerId,
         double staleSeconds)
{
    return claimAt(claimPath(dir, config, shard),
                   resultPath(dir, config, shard), runnerId,
                   staleSeconds);
}

bool
claimRange(const std::string &dir, std::uint32_t config,
           const UnitRange &range, const std::string &runnerId,
           double staleSeconds)
{
    return claimAt(claimPathRange(dir, config, range),
                   resultPathRange(dir, config, range), runnerId,
                   staleSeconds);
}

bool
touchClaim(const std::string &claimFile)
{
    std::error_code ec;
    // smarts-lint: allow(no-ambient-nondeterminism) heartbeat =
    // claim-marker mtime refresh; liveness metadata only, results
    // are byte-identical whoever holds the claim.
    fs::last_write_time(claimFile, fs::file_time_type::clock::now(),
                        ec);
    return !ec;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
claimOrder(const JobManifest &manifest, const std::string &runnerId)
{
    using Job = std::pair<std::uint32_t, std::uint32_t>;
    std::vector<std::pair<Job, double>> jobs;
    jobs.reserve(manifest.jobCount());
    // Weight = a shard's measured-unit count, plus a run-out bonus
    // for the tail shard: its fast-forward to end of stream spans up
    // to one inter-unit gap (interval × U instructions) and would
    // otherwise serialize the study's finish when claimed last.
    const double tailBonus = manifest.sampling.interval / 10.0;
    for (std::uint32_t c = 0; c < manifest.configs.size(); ++c)
        for (std::uint32_t s = 0; s < manifest.plan.size(); ++s) {
            const core::ShardSpec &shard = manifest.plan[s];
            jobs.emplace_back(
                Job{c, s},
                static_cast<double>(shard.unitCount) +
                    (shard.runsTail ? tailBonus : 0.0));
        }
    return weightedOrder(jobs, manifest.studyId, runnerId);
}

std::vector<std::pair<std::uint32_t, UnitRange>>
claimOrder(const JobManifest &manifest,
           const std::vector<UnitRange> &ranges,
           const std::string &runnerId)
{
    using Job = std::pair<std::uint32_t, UnitRange>;
    std::vector<std::pair<Job, double>> jobs;
    jobs.reserve(manifest.configs.size() * ranges.size());
    for (std::uint32_t c = 0; c < manifest.configs.size(); ++c)
        for (const UnitRange &r : ranges)
            jobs.emplace_back(Job{c, r},
                              static_cast<double>(r.unitCount));
    return weightedOrder(jobs, manifest.studyId, runnerId);
}

bool
publishResult(const std::string &dir, const ShardResult &result,
              std::string *error)
{
    const std::string path =
        result.mode == JobMode::UnitRange
            ? resultPathRange(dir, result.configIndex, result.range)
            : resultPath(dir, result.configIndex,
                         result.shardIndex);
    return result.save(path, error);
}

} // namespace smarts::distrib
