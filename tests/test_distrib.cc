/**
 * @file
 * Tests for the distributed shard runner (smarts::distrib,
 * docs/distributed-runners.md): manifest and result-file
 * roundtrips; the refusal matrix (truncated, corrupt,
 * version-bumped, mis-keyed, wrong-study, wrong-job,
 * inconsistent-payload files are REJECTED with a diagnostic, never
 * merged); leader-merge bit-identity against serial run() at 1, 2
 * and 5 concurrent runners; duplicate-claim benignity (identical
 * bytes either way); abandoned-claim recovery via the stale-claim
 * window; the runner's capture fallback when the store's library
 * was built under a different shard plan; the exponential
 * idle-poll backoff (PollBackoff) of the wait loops; the elastic
 * layer — weighted per-runner claim order, claim heartbeats vs
 * stealing, the build-fingerprint handshake, unit-range studies
 * (seeding, splitting, overlapping-result tiling) — and a chaos
 * drill (runner dies mid-drain, late joiner steals and finishes,
 * merge stays bit-identical with bounded duplication).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "distrib/leader.hh"
#include "distrib/protocol.hh"
#include "distrib/runner.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::fingerprint;
namespace fs = std::filesystem;

namespace {

/**
 * RunnerOptions with only the fields the tests vary: names every
 * runner and sets the steal window, leaving the hooks defaulted
 * (spelled out so -Wmissing-field-initializers stays quiet under
 * -Wextra -Werror).
 */
distrib::RunnerOptions
runnerOpts(std::string id, double staleSeconds)
{
    distrib::RunnerOptions options;
    options.id = std::move(id);
    options.staleClaimSeconds = staleSeconds;
    return options;
}

const char *kQueue = "test_distrib_queue";
const char *kStore = "test_distrib_store";

core::SamplingConfig
defaultSampling()
{
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 10;
    sc.warming = core::WarmingMode::Functional;
    return sc;
}

std::uint64_t
streamLengthOf(const workloads::BenchmarkSpec &spec,
               const uarch::MachineConfig &config)
{
    core::SimSession probe(spec, config);
    return probe.fastForward(~0ull >> 1, core::WarmingMode::None);
}

core::SmartsEstimate
serialRun(const workloads::BenchmarkSpec &spec,
          const uarch::MachineConfig &config,
          const core::SamplingConfig &sc)
{
    core::SimSession session(spec, config);
    return core::SystematicSampler(sc).run(session);
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Rewrite @p path's trailing checksum after tampering with it. */
void
resealChecksum(const std::string &path)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    const std::size_t payload = bytes.size() - 8;
    const std::uint64_t sum = util::fnv1a(bytes.data(), payload);
    for (int i = 0; i < 8; ++i)
        bytes[payload + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    writeFileBytes(path, bytes);
}

/**
 * Publish @p manifest into an emptied queue. The explicit wipe
 * matters: publishStudy deliberately PRESERVES the queue when the
 * incoming study is identical (tested below), and these suites
 * re-run the same study and need fresh claims/results each time.
 */
void
resetQueue(const distrib::JobManifest &manifest)
{
    fs::remove_all(kQueue);
    std::string error;
    CHECK(distrib::publishStudy(kQueue, manifest, &error));
    CHECK_EQ(error, std::string());
}

void
testManifestRoundtripAndRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);

    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config, uarch::MachineConfig::sixteenWay()}, sc,
        length, 4);
    CHECK_EQ(manifest.configs.size(), std::size_t(2));
    CHECK_EQ(manifest.plan.size(), std::size_t(4));
    CHECK_EQ(manifest.jobCount(), std::size_t(8));
    CHECK(manifest.studyId != 0);

    // The study id is a deterministic digest: same study, same id;
    // any parameter change, a different id.
    CHECK_EQ(distrib::planStudy(spec, manifest.configs, sc, length, 4)
                 .studyId,
             manifest.studyId);
    core::SamplingConfig scOther = sc;
    scOther.offset = 1;
    CHECK(distrib::planStudy(spec, manifest.configs, scOther, length,
                             4)
              .studyId != manifest.studyId);

    const std::string path =
        (fs::path(kQueue) / "roundtrip.smjm").string();
    std::string error;
    CHECK(manifest.save(path, &error));
    const auto loaded = distrib::JobManifest::load(path, &error);
    CHECK(loaded.has_value());
    CHECK_EQ(error, std::string());
    {
        util::BinaryWriter a, b;
        manifest.serialize(a);
        loaded->serialize(b);
        CHECK(a.buffer() == b.buffer());
    }

    const std::vector<std::uint8_t> good = readFileBytes(path);
    CHECK(good.size() > 64);

    auto expectRefusal = [&](const char *what, const char *needle) {
        std::string why;
        const auto result = distrib::JobManifest::load(path, &why);
        CHECK(!result.has_value());
        const bool mentions = why.find(needle) != std::string::npos;
        CHECK(mentions);
        if (!mentions)
            std::fprintf(stderr,
                         "  %s: diagnostic \"%s\" lacks \"%s\"\n",
                         what, why.c_str(), needle);
    };

    // Truncation and corruption land on the checksum.
    writeFileBytes(path, std::vector<std::uint8_t>(
                             good.begin(),
                             good.begin() + good.size() / 2));
    expectRefusal("truncation", "checksum");
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x20;
        writeFileBytes(path, bad);
        expectRefusal("corruption", "checksum");
    }

    // Version bump, resealed: refused by number.
    {
        std::vector<std::uint8_t> bad = good;
        bad[8] = 3; // version u32 sits right after the 8-byte magic.
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("version bump", "protocol version 3");
    }

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("magic", "not a smarts job manifest");
    }

    // A malformed plan no planShards() could produce.
    {
        distrib::JobManifest bad = manifest;
        bad.plan[0].runsTail = true;
        CHECK(bad.save(path, &error));
        expectRefusal("malformed plan", "plan geometry");
    }

    // A geometry hash this build's warmGeometryHash cannot
    // reproduce: leader/runner builds diverged.
    {
        distrib::JobManifest bad = manifest;
        bad.geometryHashes[1] ^= 1;
        CHECK(bad.save(path, &error));
        expectRefusal("foreign geometry hash", "does not reproduce");
    }

    // A config the simulator cannot index refuses by name (with its
    // hash resealed, so only the geometry check can catch it): a
    // zero BTB, RAS or page size used to divide by zero on the first
    // JR, JAL or memory access, 48-byte lines were modelled as 64,
    // and a 64-bit history shift is undefined behaviour.
    {
        const struct
        {
            const char *what;
            void (*mutate)(uarch::MachineConfig &);
            const char *needle;
        } rows[] = {
            {"zero BTB",
             [](uarch::MachineConfig &c) { c.bpred.btbEntries = 0; },
             "config 1 (16-way) has an invalid geometry: bpred: BTB "
             "size 0"},
            {"zero RAS",
             [](uarch::MachineConfig &c) { c.bpred.rasEntries = 0; },
             "bpred: RAS size 0"},
            {"zero page size",
             [](uarch::MachineConfig &c) { c.mem.dtlb.pageBytes = 0; },
             "dtlb: page size 0B"},
            {"48-byte lines",
             [](uarch::MachineConfig &c) { c.mem.l1d.lineBytes = 48; },
             "l1d: line size 48B"},
            {"3 sets",
             [](uarch::MachineConfig &c) {
                 c.mem.l2 = {3 * 8 * 64, 8, 64, 12};
             },
             "l2: set count 3"},
            {"64 history bits",
             [](uarch::MachineConfig &c) { c.bpred.historyBits = 64; },
             "bpred: history of 64 bits"},
        };
        for (const auto &row : rows) {
            distrib::JobManifest bad = manifest;
            row.mutate(bad.configs[1]);
            bad.geometryHashes[1] =
                uarch::warmGeometryHash(bad.configs[1]);
            CHECK(bad.save(path, &error));
            expectRefusal(row.what, row.needle);
        }
    }

    // Build-fingerprint handshake: planStudy stamps this build's
    // fingerprint, and a manifest from a diverged build (different
    // timing model or protocol) refuses at load, naming both
    // fingerprints.
    CHECK_EQ(manifest.fingerprint, distrib::buildFingerprint());
    CHECK_EQ(distrib::buildFingerprint(),
             distrib::buildFingerprint()); // cached, stable.
    {
        distrib::JobManifest bad = manifest;
        bad.fingerprint ^= 0x5a5a;
        CHECK(bad.save(path, &error));
        expectRefusal("fingerprint mismatch", "fingerprint");
        std::string why;
        CHECK(!distrib::JobManifest::load(path, &why).has_value());
        // Diverged-build manifests must keep their own (digested)
        // study id, so the diagnostic can name the foreign build.
        CHECK(why.find("diverged") != std::string::npos);
    }
}

void
testResultRoundtripAndRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);

    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, sc, length, 3);
    core::CheckpointStore store(kStore);
    distrib::ensureStudyStore(store, manifest);

    distrib::Runner runner(kQueue, kStore, runnerOpts("roundtrip", -1.0));
    const distrib::ShardResult produced =
        runner.execute(manifest, 0, 1);
    CHECK_EQ(produced.studyId, manifest.studyId);
    CHECK(!produced.slice.obs.empty());

    const std::string path =
        (fs::path(kQueue) / "result_roundtrip.smrr").string();
    std::string error;
    CHECK(produced.save(path, &error));
    const auto loaded =
        distrib::ShardResult::load(path, manifest, 0, 1, &error);
    CHECK(loaded.has_value());
    CHECK_EQ(error, std::string());
    {
        // Byte-level identity of the reloaded result.
        util::BinaryWriter a, b;
        produced.serialize(a);
        loaded->serialize(b);
        CHECK(a.buffer() == b.buffer());
    }

    const std::vector<std::uint8_t> good = readFileBytes(path);
    CHECK(good.size() > 64);

    auto expectRefusal = [&](const char *what, const char *needle) {
        std::string why;
        const auto result =
            distrib::ShardResult::load(path, manifest, 0, 1, &why);
        CHECK(!result.has_value());
        const bool mentions = why.find(needle) != std::string::npos;
        CHECK(mentions);
        if (!mentions)
            std::fprintf(stderr,
                         "  %s: diagnostic \"%s\" lacks \"%s\"\n",
                         what, why.c_str(), needle);
    };

    // Truncated file.
    writeFileBytes(path, std::vector<std::uint8_t>(
                             good.begin(),
                             good.begin() + good.size() / 2));
    expectRefusal("truncation", "checksum");

    // Single flipped payload byte.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x40;
        writeFileBytes(path, bad);
        expectRefusal("corruption", "checksum");
    }

    // Version bump, resealed.
    {
        std::vector<std::uint8_t> bad = good;
        bad[8] = 3;
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("version bump", "protocol version 3");
    }

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("magic", "not a smarts shard result");
    }

    // Trailing garbage behind a valid checksum.
    {
        std::vector<std::uint8_t> bad = good;
        bad.insert(bad.end() - 8, {0xde, 0xad, 0xbe, 0xef});
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("trailing garbage", "trailing garbage");
    }

    // Restore the pristine bytes; the semantic refusals below are
    // about the expectation, not the file.
    writeFileBytes(path, good);
    CHECK(distrib::ShardResult::load(path, manifest, 0, 1, &error)
              .has_value());

    // Wrong job: the file is (0, 1), the leader asked for (0, 2).
    {
        std::string why;
        CHECK(!distrib::ShardResult::load(path, manifest, 0, 2, &why)
                   .has_value());
        CHECK(why.find("shard 1") != std::string::npos);
    }

    // Wrong study: a manifest differing in any field refuses the
    // result outright (study ids are digests of every field).
    {
        core::SamplingConfig scOther = sc;
        scOther.interval = 17;
        const distrib::JobManifest other =
            distrib::planStudy(spec, {config}, scOther, length, 3);
        std::string why;
        CHECK(!distrib::ShardResult::load(path, other, 0, 1, &why)
                   .has_value());
        CHECK(why.find("study") != std::string::npos);
    }

    // Mis-keyed: right study id, wrong library key (geometry).
    {
        distrib::ShardResult bad = produced;
        bad.key.geometryHash ^= 1;
        CHECK(bad.save(path, &error));
        expectRefusal("key mismatch", "geometry");
    }

    // Shard-spec echo disagrees with the manifest plan.
    {
        distrib::ShardResult bad = produced;
        bad.shard.unitCount += 1;
        CHECK(bad.save(path, &error));
        expectRefusal("shard echo", "shard-spec echo");
    }

    // Internally inconsistent observation accounting.
    {
        distrib::ShardResult bad = produced;
        bad.slice.measured += 1;
        CHECK(bad.save(path, &error));
        expectRefusal("inconsistent payload", "inconsistent");
    }
}

void
testMergeBitIdentityAtRunnerCounts()
{
    // The tentpole contract: the leader's merged estimate equals
    // serial run() BYTE FOR BYTE at 1, 2 and 5 concurrent runners —
    // for every config of a multi-config study.
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto cfg16 = uarch::MachineConfig::sixteenWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, cfg8);

    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {cfg8, cfg16}, sc, length, 5);
    core::CheckpointStore store(kStore);
    distrib::ensureStudyStore(store, manifest);
    // Re-ensuring an up-to-date store captures nothing.
    CHECK_EQ(distrib::ensureStudyStore(store, manifest),
             std::size_t(0));

    const core::SmartsEstimate serial8 = serialRun(spec, cfg8, sc);
    const core::SmartsEstimate serial16 = serialRun(spec, cfg16, sc);
    CHECK(serial8.units() > 0);

    for (const std::size_t runners :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        resetQueue(manifest);
        std::vector<std::thread> crew;
        std::vector<std::size_t> executed(runners, 0);
        for (std::size_t r = 0; r < runners; ++r)
            crew.emplace_back([&, r] {
                distrib::Runner runner(
                    kQueue, kStore,
                    runnerOpts("crew-" + std::to_string(r), -1.0));
                executed[r] = runner.drain(manifest);
            });
        for (std::thread &t : crew)
            t.join();

        std::size_t total = 0;
        for (const std::size_t n : executed)
            total += n;
        CHECK_EQ(total, manifest.jobCount());
        CHECK(distrib::studyComplete(kQueue, manifest));

        std::string error;
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK_EQ(merged->size(), std::size_t(2));
        CHECK(fingerprint((*merged)[0]) == fingerprint(serial8));
        CHECK(fingerprint((*merged)[1]) == fingerprint(serial16));
    }

    // collectStudy with a helping leader needs no runners at all.
    resetQueue(manifest);
    distrib::Runner helper(kQueue, kStore, runnerOpts("solo-leader", -1.0));
    std::string error;
    const auto collected = distrib::collectStudy(
        kQueue, manifest, /*timeoutSeconds=*/300.0, &helper, &error);
    CHECK(collected.has_value());
    CHECK(fingerprint((*collected)[0]) == fingerprint(serial8));

    // Republishing the IDENTICAL study preserves the completed
    // results (the deterministic study id is designed for restarted
    // leaders): the merge succeeds immediately, nothing re-runs.
    CHECK(distrib::publishStudy(kQueue, manifest, &error));
    CHECK(distrib::studyComplete(kQueue, manifest));
    const auto reused = distrib::collectStudy(
        kQueue, manifest, /*timeoutSeconds=*/5.0, nullptr, &error);
    CHECK(reused.has_value());
    CHECK(fingerprint((*reused)[0]) == fingerprint(serial8));

    // A DIFFERENT study (any field changed) resets the queue.
    {
        core::SamplingConfig scOther = sc;
        scOther.offset = 3;
        const distrib::JobManifest other = distrib::planStudy(
            spec, {cfg8, cfg16}, scOther, length, 5);
        CHECK(distrib::publishStudy(kQueue, other, &error));
        CHECK(!distrib::studyComplete(kQueue, other));
        CHECK(!fs::exists(distrib::resultPath(kQueue, 0, 0)));
    }
    resetQueue(manifest);
    CHECK(distrib::collectStudy(kQueue, manifest, 300.0, &helper,
                                &error)
              .has_value());

    // A missing shard result refuses the whole merge.
    std::error_code ec;
    fs::remove(distrib::resultPath(kQueue, 1, 2), ec);
    CHECK(!distrib::studyComplete(kQueue, manifest));
    CHECK(!distrib::mergeStudy(kQueue, manifest, &error).has_value());
    CHECK(!error.empty());
}

void
testClaimsDuplicatesAndRecovery()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("chase-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);

    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, sc, length, 4);
    core::CheckpointStore store(kStore);
    distrib::ensureStudyStore(store, manifest);
    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    // Claim exclusivity: of two claimants exactly one wins.
    resetQueue(manifest);
    CHECK(distrib::claimJob(kQueue, 0, 0, "first"));
    CHECK(!distrib::claimJob(kQueue, 0, 0, "second"));

    // Duplicate execution is benign: two runners that both execute
    // the same job publish BYTE-IDENTICAL result files (that is
    // what makes lost claim races and stale-claim stealing safe).
    {
        distrib::Runner a(kQueue, kStore, runnerOpts("dup-a", -1.0));
        distrib::Runner b(kQueue, kStore, runnerOpts("dup-b", -1.0));
        const distrib::ShardResult ra = a.execute(manifest, 0, 1);
        const distrib::ShardResult rb = b.execute(manifest, 0, 1);
        util::BinaryWriter wa, wb;
        ra.serialize(wa);
        rb.serialize(wb);
        CHECK(wa.buffer() == wb.buffer());

        std::string error;
        CHECK(distrib::publishResult(kQueue, ra, &error));
        const std::vector<std::uint8_t> first =
            readFileBytes(distrib::resultPath(kQueue, 0, 1));
        CHECK(distrib::publishResult(kQueue, rb, &error));
        CHECK(readFileBytes(distrib::resultPath(kQueue, 0, 1)) ==
              first);
    }

    // Abandoned-claim recovery: a crashed runner's claim (no
    // result behind it) blocks nothing once the stale window
    // passes.
    resetQueue(manifest);
    CHECK(distrib::claimJob(kQueue, 0, 2, "crashed-runner"));

    // A polite runner (no stealing) completes everything EXCEPT the
    // abandoned job, and the merge refuses the incomplete study.
    distrib::Runner polite(kQueue, kStore, runnerOpts("polite", -1.0));
    CHECK_EQ(polite.drain(manifest), manifest.jobCount() - 1);
    std::string error;
    CHECK(!distrib::mergeStudy(kQueue, manifest, &error).has_value());

    // A recovery runner with a zero stale window steals the
    // abandoned claim; now the study completes and merges
    // bit-identically to serial.
    distrib::Runner recovery(kQueue, kStore, runnerOpts("recovery", 0.0));
    CHECK_EQ(recovery.drain(manifest), std::size_t(1));
    const auto merged = distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(merged.has_value());
    CHECK(fingerprint(merged->front()) == fingerprint(serial));

    // Poisoned-result recovery: a "complete" study with a corrupt
    // result file refuses a bare merge — and would refuse forever,
    // since claims treat an existing result as done. The leader's
    // collect loop must quarantine the file and get the job
    // re-executed rather than wedge.
    {
        const std::string victim = distrib::resultPath(kQueue, 0, 1);
        std::vector<std::uint8_t> bytes = readFileBytes(victim);
        bytes[bytes.size() / 2] ^= 0x08;
        writeFileBytes(victim, bytes);
        CHECK(distrib::studyComplete(kQueue, manifest));
        CHECK(!distrib::mergeStudy(kQueue, manifest, &error)
                   .has_value());

        distrib::Runner healer(kQueue, kStore, runnerOpts("healer", -1.0));
        const auto healed = distrib::collectStudy(
            kQueue, manifest, /*timeoutSeconds=*/300.0, &healer,
            &error);
        CHECK(healed.has_value());
        CHECK(fingerprint(healed->front()) == fingerprint(serial));
    }
}

void
testStorePlanMismatchFallback()
{
    // A store whose library was captured under a DIFFERENT shard
    // plan (e.g. an earlier in-process run with another shard
    // count) must not derail a runner: it recaptures with the
    // manifest's plan in memory and still produces bit-identical
    // results.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);

    // Populate the store with a 7-shard plan...
    {
        exec::ThreadPool pool(2);
        core::CheckpointStore store(kStore);
        auto factory = [&spec, &config] {
            return std::make_unique<core::SimSession>(spec, config);
        };
        core::SystematicSampler(sc).runSharded(factory, spec, config,
                                               length, 7, pool,
                                               store);
    }

    // ...and run a 3-shard study against it WITHOUT the leader
    // re-shipping the store.
    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, sc, length, 3);
    resetQueue(manifest);
    distrib::Runner runner(kQueue, kStore, runnerOpts("fallback", -1.0));
    CHECK_EQ(runner.drain(manifest), manifest.jobCount());

    std::string error;
    const auto merged = distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(merged.has_value());
    CHECK(fingerprint(merged->front()) ==
          fingerprint(serialRun(spec, config, sc)));

    // ensureStudyStore, by contrast, RE-captures the key so shipped
    // stores always match the manifest plan.
    core::CheckpointStore store(kStore);
    CHECK_EQ(distrib::ensureStudyStore(store, manifest),
             std::size_t(1));
    CHECK_EQ(distrib::ensureStudyStore(store, manifest),
             std::size_t(0));

    // A REFUSED store file (corrupt in transit) is repaired by the
    // runner's fallback capture — without the repair every later
    // study for the key would pay the recapture again.
    {
        const std::string libPath =
            store.pathFor(manifest.keyFor(0));
        std::vector<std::uint8_t> bytes = readFileBytes(libPath);
        bytes[bytes.size() / 2] ^= 0x04;
        writeFileBytes(libPath, bytes);
        CHECK(!store.tryLoad(manifest.keyFor(0)).has_value());

        resetQueue(manifest);
        distrib::Runner repairer(kQueue, kStore, runnerOpts("repairer", -1.0));
        CHECK_EQ(repairer.drain(manifest), manifest.jobCount());
        CHECK(store.tryLoad(manifest.keyFor(0)).has_value());
        std::string error;
        const auto healed =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(healed.has_value());
        CHECK(fingerprint(healed->front()) ==
              fingerprint(serialRun(spec, config, sc)));
    }
}

void
testPollBackoff()
{
    // The wait loops' idle backoff: doubles per idle poll from the
    // seed to the ~1 s cap, and any progress resets it to the seed.
    distrib::PollBackoff backoff;
    CHECK_EQ(backoff.currentMs(), 100.0);
    CHECK_EQ(backoff.nextMs(), 100.0);
    CHECK_EQ(backoff.nextMs(), 200.0);
    CHECK_EQ(backoff.nextMs(), 400.0);
    CHECK_EQ(backoff.nextMs(), 800.0);
    CHECK_EQ(backoff.nextMs(), 1000.0); // capped, not 1600.
    CHECK_EQ(backoff.nextMs(), 1000.0); // stays at the cap.
    backoff.reset();
    CHECK_EQ(backoff.currentMs(), 100.0);

    // A custom seed (smarts_runner --poll-ms=) still caps at ~1 s.
    distrib::PollBackoff fast(25.0);
    CHECK_EQ(fast.nextMs(), 25.0);
    CHECK_EQ(fast.nextMs(), 50.0);
    CHECK_EQ(fast.nextMs(), 100.0);

    // Degenerate seeds never wedge the loop: non-positive seeds
    // clamp to 1 ms, and a cap below the seed collapses to it.
    distrib::PollBackoff clamped(0.0);
    CHECK_EQ(clamped.currentMs(), 1.0);
    distrib::PollBackoff flat(500.0, 100.0);
    CHECK_EQ(flat.nextMs(), 500.0);
    CHECK_EQ(flat.nextMs(), 500.0);

    // awaitManifest takes the poll seed as a parameter; a manifest
    // already on disk returns without sleeping even at a huge seed.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, defaultSampling(),
                           streamLengthOf(spec, config), 2);
    resetQueue(manifest);
    distrib::Runner runner(kQueue, kStore, runnerOpts("poller", -1.0));
    std::string error;
    const auto found = runner.awaitManifest(
        /*waitSeconds=*/0.0, &error, /*pollMillis=*/60'000.0);
    CHECK(found.has_value());
    CHECK_EQ(found->studyId, manifest.studyId);
}

void
testClaimOrderPermutations()
{
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, cfg8);
    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {cfg8, uarch::MachineConfig::sixteenWay()}, sc, length,
        4);

    // A claim order is a PERMUTATION of the (config × shard) grid:
    // every job exactly once, nothing invented.
    const auto order = distrib::claimOrder(manifest, "runner-a");
    CHECK_EQ(order.size(), manifest.jobCount());
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen(
        order.begin(), order.end());
    CHECK_EQ(seen.size(), order.size());
    for (const auto &[c, s] : order) {
        CHECK(c < manifest.configs.size());
        CHECK(s < manifest.plan.size());
    }

    // Deterministic per (study, runner id)...
    CHECK(distrib::claimOrder(manifest, "runner-a") == order);

    // ...and decorrelated across runner ids: with 8 jobs, at least
    // one of a handful of other ids must probe in a different order
    // (all identical would defeat the point of per-runner shuffles).
    bool differs = false;
    for (int i = 0; i < 8 && !differs; ++i)
        differs = distrib::claimOrder(
                      manifest, "runner-b" + std::to_string(i)) !=
                  order;
    CHECK(differs);

    // Weight bias: a range 100× heavier than its peers should be
    // probed FIRST by the overwhelming majority of runners. The ids
    // are fixed, so this is a deterministic property of the shuffle,
    // not a flaky statistical one.
    const std::vector<distrib::UnitRange> ranges = {
        {0, 1}, {1, 1}, {2, 1}, {3, 100}};
    const distrib::JobManifest narrow =
        distrib::planStudy(spec, {cfg8}, sc, length, 4);
    int bigFirst = 0;
    for (int i = 0; i < 20; ++i) {
        const auto ro = distrib::claimOrder(
            narrow, ranges, "weigher-" + std::to_string(i));
        CHECK_EQ(ro.size(), ranges.size());
        if (ro.front().second.unitCount == 100)
            ++bigFirst;
    }
    CHECK(bigFirst >= 15);
}

void
testHeartbeatAndStealing()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config}, sc, streamLengthOf(spec, config), 4);
    resetQueue(manifest);

    const std::string claim = distrib::claimPath(kQueue, 0, 0);
    auto ageClaim = [&] {
        fs::last_write_time(claim,
                            fs::file_time_type::clock::now() -
                                std::chrono::hours(2));
    };

    // A FRESH claim is never stolen, however aggressive the window.
    CHECK(distrib::claimJob(kQueue, 0, 0, "a"));
    CHECK(!distrib::claimJob(kQueue, 0, 0, "b", 3600.0));

    // Once the claim ages past the window unrefreshed, it steals.
    ageClaim();
    CHECK(distrib::claimJob(kQueue, 0, 0, "b", 3600.0));
    // The thief's claim is fresh again.
    CHECK(!distrib::claimJob(kQueue, 0, 0, "c", 3600.0));

    // The heartbeat is what separates LIVE long jobs from dead
    // ones: an aged claim its holder touchClaim()ed is fresh and
    // must NOT steal...
    ageClaim();
    CHECK(distrib::touchClaim(claim));
    CHECK(!distrib::claimJob(kQueue, 0, 0, "c", 3600.0));

    // ...while one never refreshed again does.
    ageClaim();
    CHECK(distrib::claimJob(kQueue, 0, 0, "c", 3600.0));
}

void
testAwaitManifestPollsThroughRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, defaultSampling(),
                           streamLengthOf(spec, config), 2);

    // Plant an UNLOADABLE manifest: a leftover from an incompatible
    // build that the leader is about to replace.
    fs::remove_all(kQueue);
    fs::create_directories(kQueue);
    writeFileBytes(distrib::manifestPath(kQueue),
                   {'g', 'a', 'r', 'b', 'a', 'g', 'e'});

    distrib::Runner runner(kQueue, kStore, runnerOpts("waiter", -1.0));
    std::string error;

    // The refusal does NOT end the wait early; on timeout the error
    // surfaces the last refusal instead of claiming no manifest.
    CHECK(!runner.awaitManifest(0.0, &error, 10.0).has_value());
    CHECK(error.find("last refusal") != std::string::npos);

    // A leader replacing the garbage mid-wait is picked up by the
    // same polling loop.
    std::thread leader([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(150));
        std::string publishError;
        CHECK(distrib::publishStudy(kQueue, manifest,
                                    &publishError));
    });
    const auto found =
        runner.awaitManifest(/*waitSeconds=*/30.0, &error,
                             /*pollMillis=*/20.0);
    leader.join();
    CHECK(found.has_value());
    CHECK_EQ(found->studyId, manifest.studyId);
}

void
testUnitRangeStudy()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    core::CheckpointStore store(kStore);
    const distrib::LivePointPlan plan =
        distrib::ensureStudyLivePoints(store, spec, {config}, sc);
    CHECK(plan.totalUnits > 12);
    CHECK(plan.streamLength > 0);

    const distrib::JobManifest manifest = distrib::planUnitStudy(
        spec, {config}, sc, plan.streamLength, plan.totalUnits, 6);
    CHECK(manifest.mode == distrib::JobMode::UnitRange);
    CHECK_EQ(manifest.ranges.size(), std::size_t(6));
    CHECK_EQ(manifest.jobCount(), std::size_t(6));
    CHECK(manifest.plan.empty());
    {
        // The seed partition tiles [0, totalUnits) exactly.
        std::uint64_t cursor = 0;
        for (const distrib::UnitRange &r : manifest.ranges) {
            CHECK_EQ(r.firstUnit, cursor);
            cursor += r.unitCount;
        }
        CHECK_EQ(cursor, plan.totalUnits);
    }

    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    // The manifest roundtrips (mode, totalUnits and ranges intact).
    resetQueue(manifest);
    {
        std::string error;
        const auto loaded = distrib::JobManifest::load(
            distrib::manifestPath(kQueue), &error);
        CHECK(loaded.has_value());
        CHECK(loaded->mode == distrib::JobMode::UnitRange);
        CHECK_EQ(loaded->totalUnits, plan.totalUnits);
        CHECK(loaded->ranges == manifest.ranges);
    }
    // publishStudy seeded the live partition markers.
    CHECK_EQ(distrib::listRanges(kQueue).size(),
             manifest.ranges.size());

    // One runner drains the whole study; the tiled merge is
    // bit-identical to serial run().
    for (const std::size_t runners :
         {std::size_t(1), std::size_t(2)}) {
        resetQueue(manifest);
        std::vector<std::thread> crew;
        std::vector<std::size_t> executed(runners, 0);
        for (std::size_t r = 0; r < runners; ++r)
            crew.emplace_back([&, r] {
                distrib::Runner runner(
                    kQueue, kStore,
                    runnerOpts("unit-crew-" + std::to_string(r), -1.0));
                executed[r] = runner.drain(manifest);
            });
        for (std::thread &t : crew)
            t.join();
        std::size_t total = 0;
        for (const std::size_t n : executed)
            total += n;
        CHECK_EQ(total, manifest.jobCount());
        CHECK(distrib::studyComplete(kQueue, manifest));
        std::string error;
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK(fingerprint(merged->front()) == fingerprint(serial));
    }

    // Splitting re-grains the live partition; the result
    // granularity changes but the tiled merge stays bit-identical.
    resetQueue(manifest);
    CHECK(distrib::splitRemainingRanges(kQueue, manifest, 1) > 0);
    CHECK(distrib::listRanges(kQueue).size() >
          manifest.ranges.size());
    {
        distrib::Runner runner(kQueue, kStore,
                               runnerOpts("post-split", -1.0));
        CHECK(runner.drain(manifest) > 0);
        CHECK(distrib::studyComplete(kQueue, manifest));
        std::string error;
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK(fingerprint(merged->front()) == fingerprint(serial));
    }

    // A claimed or completed range never splits.
    resetQueue(manifest);
    CHECK(distrib::claimRange(kQueue, 0, manifest.ranges[0],
                              "holder"));
    const std::size_t splits =
        distrib::splitRemainingRanges(kQueue, manifest, 1);
    CHECK(splits > 0);
    bool parentSurvives = false;
    for (const distrib::UnitRange &r : distrib::listRanges(kQueue))
        parentSurvives |= r == manifest.ranges[0];
    CHECK(parentSurvives);

    // OVERLAPPING results — a parent range published by a racing
    // claimant plus children published after a split — still tile
    // into the bit-identical estimate (largest-at-cursor wins).
    {
        distrib::Runner racer(kQueue, kStore, runnerOpts("racer", -1.0));
        const distrib::UnitRange parent = manifest.ranges[0];
        const auto parentResult =
            racer.executeRange(manifest, 0, parent);
        CHECK(parentResult.has_value());
        std::string error;
        CHECK(distrib::publishResult(kQueue, *parentResult,
                                     &error));
        const distrib::UnitRange childA{parent.firstUnit,
                                        parent.unitCount / 2};
        const distrib::UnitRange childB{
            parent.firstUnit + parent.unitCount / 2,
            parent.unitCount - parent.unitCount / 2};
        const auto ra = racer.executeRange(manifest, 0, childA);
        const auto rb = racer.executeRange(manifest, 0, childB);
        CHECK(ra.has_value() && rb.has_value());
        CHECK(distrib::publishResult(kQueue, *ra, &error));
        CHECK(distrib::publishResult(kQueue, *rb, &error));

        distrib::Runner rest(kQueue, kStore, runnerOpts("rest", 0.0));
        rest.drain(manifest);
        CHECK(distrib::studyComplete(kQueue, manifest));
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK(fingerprint(merged->front()) == fingerprint(serial));
    }
}

void
testChaosElasticity()
{
    // The chaos drill: one runner DIES mid-drain (cooperative
    // cancel between units — its partial job is abandoned, never
    // published), a second joins LATE with a tight steal window,
    // and the merged study must still be bit-identical to serial
    // with a bounded execution count per job.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    core::CheckpointStore store(kStore);
    const distrib::LivePointPlan plan =
        distrib::ensureStudyLivePoints(store, spec, {config}, sc);
    const distrib::JobManifest manifest = distrib::planUnitStudy(
        spec, {config}, sc, plan.streamLength, plan.totalUnits, 5);
    resetQueue(manifest);
    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    std::mutex tallyMutex;
    std::map<std::string, int> tally;
    auto count = [&](const std::string &job) {
        std::lock_guard<std::mutex> lock(tallyMutex);
        ++tally[job];
    };

    // Runner A dies as its SECOND job starts: the cancel hook trips
    // after two onExecute calls, so job 2's claim is left behind
    // with no result — exactly what a crashed host looks like.
    std::atomic<int> started{0};
    distrib::RunnerOptions aOpt;
    aOpt.id = "chaos-a";
    aOpt.heartbeatSeconds = 0.0; // heartbeat every unit.
    aOpt.cancelled = [&] { return started.load() >= 2; };
    aOpt.onExecute = [&](const std::string &job) {
        ++started;
        count(job);
    };
    std::thread victim([&] {
        distrib::Runner a(kQueue, kStore, aOpt);
        a.drain(manifest);
    });
    victim.join();
    CHECK_EQ(started.load(), 2);
    CHECK(!distrib::studyComplete(kQueue, manifest));

    // Runner B joins late, steals the abandoned claim once it ages
    // past the (tight) window, and finishes the study.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    distrib::RunnerOptions bOpt;
    bOpt.id = "chaos-b";
    bOpt.staleClaimSeconds = 0.4;
    bOpt.onExecute = count;
    distrib::Runner b(kQueue, kStore, bOpt);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(300);
    while (!distrib::studyComplete(kQueue, manifest)) {
        CHECK(std::chrono::steady_clock::now() < deadline);
        b.drain(manifest);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }

    // Bounded duplication: the abandoned job ran at most twice
    // (once per claimant), every other job exactly once.
    int over = 0, twice = 0;
    for (const auto &[job, n] : tally) {
        if (n > 2)
            ++over;
        if (n == 2)
            ++twice;
    }
    CHECK_EQ(over, 0);
    CHECK(twice <= 1);

    std::string error;
    const auto merged =
        distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(merged.has_value());
    CHECK(fingerprint(merged->front()) == fingerprint(serial));
}

} // namespace

int
main()
{
    fs::remove_all(kQueue);
    fs::remove_all(kStore);
    fs::create_directories(kQueue);
    fs::create_directories(kStore);

    testManifestRoundtripAndRefusals();
    testResultRoundtripAndRefusals();
    testMergeBitIdentityAtRunnerCounts();
    testClaimsDuplicatesAndRecovery();
    testStorePlanMismatchFallback();
    testPollBackoff();
    testClaimOrderPermutations();
    testHeartbeatAndStealing();
    testAwaitManifestPollsThroughRefusals();
    testUnitRangeStudy();
    testChaosElasticity();
    TEST_MAIN_SUMMARY();
}
