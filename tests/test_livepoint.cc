/**
 * @file
 * Tests for live-points (core/livepoint.hh,
 * docs/checkpoint-format.md § Live-point libraries): delta-codec
 * roundtrip byte-identity and its refusal matrix; `.smlp` save/load
 * roundtrips and the library's own refusals (truncated, corrupt,
 * version-bumped, mis-keyed, off-grid files are REJECTED with a
 * diagnostic, never loaded); on-demand materialization of every
 * unit, across keyframe boundaries, from several pool threads; a
 * previous-version file in the store refused and recaptured;
 * same-seed shuffle reproducibility;
 * the early-stop estimate landing inside its confidence interval
 * of the full-run estimate; and the completion-mode bar —
 * runAnytime with epsilon = 0 must fold to an estimate
 * bit-identical to serial run() at 1, 2 and 5 threads. Runs under
 * TSan in CI to guard the batch-dispatch/pool handoff.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/procedure.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "util/delta_codec.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::fingerprint;
namespace fs = std::filesystem;

namespace {

const char *kDir = "test_livepoint_store";

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

/** The raw state of @p point: ArchState then TimingState. */
std::vector<std::uint8_t>
stateBytes(const core::LivePoint &point)
{
    util::BinaryWriter out;
    point.arch.write(out);
    point.timing.write(out);
    return out.buffer();
}

/** Roundtrip @p data against @p base and demand byte identity. */
void
checkCodecRoundtrip(const std::vector<std::uint8_t> &base,
                    const std::vector<std::uint8_t> &data)
{
    const std::vector<std::uint8_t> delta =
        util::deltaEncode(base, data);
    std::string error;
    const auto back = util::deltaDecode(base, delta, &error);
    CHECK(back.has_value());
    CHECK_EQ(error, std::string());
    CHECK(back.has_value() && *back == data);
}

void
testDeltaCodecRoundtrips()
{
    const std::vector<std::uint8_t> empty;
    std::vector<std::uint8_t> a(4096), b(4096);
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Realistic shape: long identical stretches with sparse
        // diffs, exactly what consecutive warm states look like.
        a[i] = static_cast<std::uint8_t>(i * 37 + (i >> 5));
        b[i] = a[i];
    }
    for (std::size_t i = 100; i < 130; ++i)
        b[i] ^= 0x5a;
    b[4000] ^= 1;

    checkCodecRoundtrip(empty, empty);
    checkCodecRoundtrip(empty, a);    // no base: all literal.
    checkCodecRoundtrip(a, a);        // identical: all zero runs.
    checkCodecRoundtrip(a, b);        // sparse diffs.
    checkCodecRoundtrip(b, a);
    checkCodecRoundtrip(a, empty);    // data shorter than base.
    checkCodecRoundtrip(
        std::vector<std::uint8_t>(a.begin(), a.begin() + 64),
        a);                           // data longer than base.
    checkCodecRoundtrip(a, std::vector<std::uint8_t>{0x42});

    // Identical data must compress to (nearly) nothing — the whole
    // point of chaining consecutive live-points.
    CHECK(util::deltaEncode(a, a).size() < 32);
    // Sparse diffs must cost far less than a full copy.
    CHECK(util::deltaEncode(a, b).size() < a.size() / 4);

    // Single-byte tamper anywhere in the delta must change the
    // decode (or refuse) — never silently yield the original.
    {
        std::vector<std::uint8_t> delta = util::deltaEncode(a, b);
        delta[delta.size() / 2] ^= 0x10;
        const auto mangled = util::deltaDecode(a, delta);
        CHECK(!mangled.has_value() || *mangled != b);
    }
}

void
testDeltaCodecRefusals()
{
    std::vector<std::uint8_t> base(256, 0x11);
    std::vector<std::uint8_t> data(256, 0x11);
    data[7] = 0x99;
    const std::vector<std::uint8_t> delta =
        util::deltaEncode(base, data);

    std::string error;

    // Truncated: any prefix must refuse, not decode short.
    for (const std::size_t keep :
         {std::size_t(0), std::size_t(4), std::size_t(9),
          delta.size() - 1}) {
        error.clear();
        const auto out = util::deltaDecode(
            base,
            std::vector<std::uint8_t>(delta.begin(),
                                      delta.begin() + keep),
            &error);
        CHECK(!out.has_value());
        CHECK(!error.empty());
    }

    // Trailing garbage after a well-formed stream.
    {
        std::vector<std::uint8_t> extra = delta;
        extra.push_back(0xee);
        error.clear();
        CHECK(!util::deltaDecode(base, extra, &error).has_value());
        CHECK(!error.empty());
    }

    // An absurd declared size must refuse before allocating.
    {
        util::BinaryWriter w;
        w.u64(~0ull >> 1);
        error.clear();
        CHECK(!util::deltaDecode(base, w.buffer(), &error)
                   .has_value());
        CHECK(!error.empty());
    }

    // Zero-progress ops (zeroRun = literalLen = 0) must refuse
    // instead of looping forever.
    {
        util::BinaryWriter w;
        w.u64(8);
        w.u32(0);
        w.u32(0);
        error.clear();
        CHECK(!util::deltaDecode(base, w.buffer(), &error)
                   .has_value());
        CHECK(!error.empty());
    }

    // Ops overrunning the declared size.
    {
        util::BinaryWriter w;
        w.u64(4);
        w.u32(8); // an 8-byte zero run into a 4-byte state.
        w.u32(0);
        error.clear();
        CHECK(!util::deltaDecode(base, w.buffer(), &error)
                   .has_value());
        CHECK(!error.empty());
    }
}

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

void
testLibraryCaptureGeometry()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, sc);

    // The capture ran the stream out: its length is the truth.
    CHECK_EQ(library.streamLength(), session.instCount());
    CHECK(library.unitCount() > 0);
    CHECK(library.byteSize() > 0);

    // One live-point per grid unit, at most W before its unit, in
    // stream order.
    core::LivePointLibrary::Cursor cursor(library);
    core::LivePoint point;
    std::uint64_t lastPosition = 0;
    for (std::size_t i = 0; i < library.unitCount(); ++i) {
        cursor.materialize(i, point);
        CHECK_EQ(point.unitIndex, sc.offset + i * sc.interval);
        const std::uint64_t unitStart =
            point.unitIndex * sc.unitSize;
        CHECK(point.position <= unitStart);
        CHECK(point.position + sc.detailedWarming >= unitStart);
        CHECK(point.position >= lastPosition);
        lastPosition = point.position;
    }
}

void
testLibraryRoundtripAndRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("phase-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key =
        core::LibraryKey::of(spec, config, sc);

    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, sc);

    const std::string path =
        std::string(kDir) + "/roundtrip.smlp";
    std::string error;
    CHECK(library.save(key, path, &error));
    CHECK_EQ(error, std::string());

    // Loaded = saved, byte for byte: every point's identity and
    // serialized state must survive the delta chain.
    const auto loaded =
        core::LivePointLibrary::load(path, key, &error);
    CHECK(loaded.has_value());
    CHECK_EQ(error, std::string());
    CHECK_EQ(loaded->streamLength(), library.streamLength());
    CHECK_EQ(loaded->unitCount(), library.unitCount());
    core::LivePointLibrary::Cursor saved(library), back(*loaded);
    core::LivePoint a, b;
    for (std::size_t i = 0; i < library.unitCount(); ++i) {
        saved.materialize(i, a);
        back.materialize(i, b);
        CHECK_EQ(b.unitIndex, a.unitIndex);
        CHECK_EQ(b.position, a.position);
        if (stateBytes(a) != stateBytes(b)) {
            CHECK(stateBytes(a) == stateBytes(b));
            break; // one diagnostic is enough.
        }
    }

    auto refuses = [&key](const std::string &file) {
        std::string why;
        const bool refused =
            !core::LivePointLibrary::load(file, key, &why)
                 .has_value();
        CHECK(refused);
        CHECK(!why.empty());
        return refused;
    };
    const std::vector<std::uint8_t> good = readFileBytes(path);
    const std::string victim =
        std::string(kDir) + "/tampered.smlp";

    // Missing file.
    refuses(std::string(kDir) + "/nonexistent.smlp");

    // Truncation: the trailing file checksum catches it.
    writeFileBytes(victim,
                   std::vector<std::uint8_t>(
                       good.begin(), good.end() - good.size() / 3));
    refuses(victim);

    // Wrong magic (a shard library is not a live-point library).
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Version bump: a future format must refuse, not misparse.
    {
        std::vector<std::uint8_t> bad = good;
        bad[8] = core::kLivePointFormatVersion + 1;
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Flavor byte flipped to mix (1): reserved — no reader exists.
    {
        std::vector<std::uint8_t> bad = good;
        bad[16] = 1; // flavor u8 sits after magic+version+endian.
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Endianness marker.
    {
        std::vector<std::uint8_t> bad = good;
        bad[12] ^= 0xff;
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Record corruption: flip one byte mid-payload and reseal the
    // FILE checksum — the per-record checksum must still pin the
    // damage.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x20;
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Mis-keyed: a different sampling design must refuse even
    // though the file itself is pristine.
    {
        core::SamplingConfig other = sc;
        other.interval = sc.interval + 1;
        std::string why;
        CHECK(!core::LivePointLibrary::load(
                   path, core::LibraryKey::of(spec, config, other),
                   &why)
                   .has_value());
        CHECK(!why.empty());
    }
    // ...and a different machine geometry likewise.
    {
        std::string why;
        CHECK(!core::LivePointLibrary::load(
                   path,
                   core::LibraryKey::of(
                       spec, uarch::MachineConfig::sixteenWay(), sc),
                   &why)
                   .has_value());
        CHECK(!why.empty());
    }
}

void
testStoreRoundtrip()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key =
        core::LibraryKey::of(spec, config, sc);

    core::CheckpointStore store(kDir);
    CHECK(!store.tryLoadLivePoints(key).has_value()); // cold miss.

    // ensureLivePoints captures every miss in one pass, then hits.
    CHECK_EQ(store.ensureLivePoints(spec, {config}, sc),
             std::size_t(1));
    CHECK_EQ(store.ensureLivePoints(spec, {config}, sc),
             std::size_t(0));
    const auto warm = store.tryLoadLivePoints(key);
    CHECK(warm.has_value());
    CHECK(warm->unitCount() > 0);

    // Live-point files live next to shard files, distinct suffix.
    CHECK(fs::exists(store.livePointPathFor(key)));
    CHECK(store.livePointPathFor(key) != store.pathFor(key));

    // Multi-config capture: one pass, per-config libraries each
    // byte-identical to a single-config capture of that config.
    const auto sixteen = uarch::MachineConfig::sixteenWay();
    CHECK_EQ(store.ensureLivePoints(spec, {config, sixteen}, sc),
             std::size_t(1)); // 8-way already stored.
    const core::LibraryKey key16 =
        core::LibraryKey::of(spec, sixteen, sc);
    const auto multi = store.tryLoadLivePoints(key16);
    CHECK(multi.has_value());

    core::SimSession solo(spec, sixteen);
    const core::LivePointLibrary direct =
        core::LivePointLibrary::build(solo, sc);
    CHECK_EQ(multi->unitCount(), direct.unitCount());
    CHECK_EQ(multi->streamLength(), direct.streamLength());
    // The per-config chains are byte-identical too, so the files
    // are: one serialize under the same key compares them all.
    util::BinaryWriter multiBytes, directBytes;
    multi->serialize(key16, multiBytes);
    direct.serialize(key16, directBytes);
    CHECK(multiBytes.buffer() == directBytes.buffer());
}

/**
 * Materialize every unit of @p library in @p order from @p threads
 * pool threads and compare each against its capture-time snapshot:
 * identity, position and raw state bytes. Jobs alternate between a
 * rolling Cursor and the one-shot const materialize().
 */
void
checkMaterializeAll(const core::LivePointLibrary &library,
                    const std::vector<core::LivePoint> &captured,
                    const std::vector<std::uint32_t> &order,
                    std::size_t threads)
{
    std::vector<char> matches(order.size(), 0);
    exec::ThreadPool pool(threads);
    constexpr std::size_t kChunk = 7;
    for (std::size_t c = 0; c < order.size(); c += kChunk) {
        const std::size_t end = std::min(order.size(), c + kChunk);
        const bool rolling = (c / kChunk) % 2 == 0;
        pool.submit([&, c, end, rolling] {
            core::LivePointLibrary::Cursor cursor(library);
            core::LivePoint point;
            for (std::size_t i = c; i < end; ++i) {
                const std::uint32_t unit = order[i];
                if (rolling)
                    cursor.materialize(unit, point);
                else
                    library.materialize(unit, point);
                const core::LivePoint &want = captured[unit];
                matches[unit] =
                    point.unitIndex == want.unitIndex &&
                    point.position == want.position &&
                    stateBytes(point) == stateBytes(want);
            }
        });
    }
    pool.wait();
    CHECK_EQ(static_cast<std::size_t>(
                 std::count(matches.begin(), matches.end(), 1)),
             order.size());
}

void
testMaterializeOnDemand()
{
    // Caches and predictor shrunk to a few KB, so fsm-1's per-unit
    // churn spans several keyframes at this grid while every
    // capture-time snapshot stays small enough to keep.
    auto config = uarch::MachineConfig::eightWay();
    config.mem.l1i = {1024, 2, 64, 1};
    config.mem.l1d = {1024, 2, 64, 2};
    config.mem.l2 = {4096, 4, 64, 12};
    config.bpred = {8, 64, 4};
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    // The capture-time snapshots, exactly as the sink saw them.
    std::vector<core::LivePoint> captured;
    core::SimSession session(spec, config);
    const core::LivePointLibrary library = core::LivePointLibrary::build(
        session, sc, [&captured](std::size_t, const core::LivePoint &p) {
            captured.push_back(p);
        });
    CHECK_EQ(captured.size(), library.unitCount());
    // Units on both sides of every keyframe boundary are among the
    // units checked below: there must be boundaries to cross.
    CHECK(library.keyframeCount() > 1);

    const std::string path = std::string(kDir) + "/materialize.smlp";
    std::string error;
    CHECK(library.save(key, path, &error));
    const auto loaded = core::LivePointLibrary::load(path, key, &error);
    CHECK(loaded.has_value());
    if (!loaded)
        return;
    CHECK_EQ(loaded->keyframeCount(), library.keyframeCount());

    std::vector<std::uint32_t> order(library.unitCount());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Xoshiro256StarStar rng(0x6d617465ull);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        checkMaterializeAll(library, captured, order, threads);
        checkMaterializeAll(*loaded, captured, order, threads);
    }
}

void
testPreviousVersionRecaptured()
{
    // A store entry written by an older format version is refused
    // with the version diagnostic, counted as a refusal, and
    // recaptured — and the estimate does not move a bit.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    std::uint64_t length;
    {
        core::SimSession probe(spec, config);
        length =
            probe.fastForward(~0ull >> 1, core::WarmingMode::None);
    }
    core::ProcedureConfig pc;
    pc.nInit = 200;
    const core::SmartsProcedure procedure(pc);
    core::CheckpointStore store(std::string(kDir) + "/recapture");
    exec::ThreadPool pool(2);

    const core::AnytimeResult cold = procedure.estimateAnytime(
        factory, spec, config, length, pool, store);

    core::SamplingConfig sc;
    sc.unitSize = pc.unitSize;
    sc.detailedWarming = pc.detailedWarming;
    sc.warming = pc.warming;
    sc.interval = core::SamplingConfig::chooseInterval(
        length, pc.unitSize, pc.nInit);
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);
    const std::string path = store.livePointPathFor(key);
    CHECK(fs::exists(path));

    // The version field is the u32 after the 8-byte magic.
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    bytes[8] = 3;
    writeFileBytes(path, bytes);
    resealChecksum(path);
    std::string why;
    CHECK(!core::LivePointLibrary::load(path, key, &why).has_value());
    CHECK(why.find("format version 3") != std::string::npos);

    const core::StoreCounters before = store.counters();
    const core::AnytimeResult recaptured = procedure.estimateAnytime(
        factory, spec, config, length, pool, store);
    const core::StoreCounters after = store.counters();
    CHECK_EQ(after.refusals, before.refusals + 1);
    CHECK_EQ(recaptured.unitsMeasured, cold.unitsMeasured);
    CHECK(fingerprint(recaptured.estimate) == fingerprint(cold.estimate));

    // The recapture replaced the file: the next lookup is a hit.
    CHECK(store.tryLoadLivePoints(key).has_value());
    CHECK_EQ(store.counters().hits, after.hits + 1);
}

void
checkAnytimeCompletionIdentical(const workloads::BenchmarkSpec &spec,
                                const uarch::MachineConfig &config,
                                const core::SamplingConfig &sc)
{
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);
    CHECK(serial.units() > 0);

    core::SimSession captureSession(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(captureSession, sc);

    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion mode: measure all.
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        exec::ThreadPool pool(threads);
        const core::AnytimeResult result =
            core::SystematicSampler(sc).runAnytime(factory, library,
                                                   pool, options);
        CHECK(!result.earlyStopped);
        CHECK_EQ(result.unitsMeasured, result.unitsAvailable);
        CHECK(fingerprint(result.estimate) == fingerprint(serial));
    }
}

void
testAnytimeCompletionBitIdentical()
{
    const auto config = uarch::MachineConfig::eightWay();

    // The shard-identity roster: data-dependent branches, phase
    // alternation, pointer chasing.
    for (const char *name : {"sort-1", "phase-1", "chase-1"})
        checkAnytimeCompletionIdentical(
            workloads::findBenchmark(name, workloads::Scale::Mini),
            config, defaultSampling());

    // Nonzero offset, 16-way machine, sparser grid.
    {
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = 4000;
        sc.interval = 17;
        sc.offset = 5;
        sc.warming = core::WarmingMode::Functional;
        checkAnytimeCompletionIdentical(
            workloads::findBenchmark("fsm-1",
                                     workloads::Scale::Mini),
            uarch::MachineConfig::sixteenWay(), sc);
    }

    // Truncation-prone: k=1, U coprime-ish with the stream length,
    // so the final unit is cut short; the dropped-instruction
    // accounting must match serial bit for bit.
    {
        core::SamplingConfig sc;
        sc.unitSize = 999;
        sc.detailedWarming = 0;
        sc.interval = 1;
        sc.warming = core::WarmingMode::Functional;
        const auto spec = workloads::findBenchmark(
            "alu-1", workloads::Scale::Mini);
        core::SimSession serialSession(spec, config);
        const core::SmartsEstimate serial =
            core::SystematicSampler(sc).run(serialSession);
        CHECK(serial.instructionsDropped > 0);
        checkAnytimeCompletionIdentical(spec, config, sc);
    }
}

void
testLeapfrogColdOverlapBitIdentical()
{
    // The LEAPFROG cold path: capture and measurement overlap at
    // per-unit grain, then the anytime stop rule is replayed over
    // the complete sample set — so the result must be bit-identical
    // to serial run() (completion mode) and to a warm-path
    // runAnytime (early-stop mode), at any thread count.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };

    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);

    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion mode: measure all.
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        exec::ThreadPool pool(threads);
        core::SimSession captureSession(spec, config);
        core::LivePointLibrary collected;
        const core::AnytimeResult result =
            core::SystematicSampler(sc).runAnytimeLeapfrog(
                captureSession, factory, pool, options, &collected);
        CHECK(!result.earlyStopped);
        CHECK_EQ(result.unitsMeasured, result.unitsAvailable);
        CHECK(fingerprint(result.estimate) == fingerprint(serial));

        // The collected library is the real thing: a warm anytime
        // run over it folds to the same estimate.
        CHECK_EQ(collected.unitCount(), result.unitsAvailable);
        const core::AnytimeResult warm =
            core::SystematicSampler(sc).runAnytime(
                factory, collected, pool, options);
        CHECK(fingerprint(warm.estimate) == fingerprint(serial));
    }

    // Early-stop replay: with a real confidence target the leapfrog
    // run measures EVERY unit (the stop rule cannot fire mid-capture
    // without biasing the shuffle) yet must report the identical
    // measured-set size, stop flag and estimate as the warm path
    // over the library it just captured.
    {
        const auto dense =
            workloads::findBenchmark("bsearch-1",
                                     workloads::Scale::Mini);
        auto denseFactory = [&dense, &config] {
            return std::make_unique<core::SimSession>(dense, config);
        };
        core::SamplingConfig dsc = defaultSampling();
        dsc.interval = 2;
        core::AnytimeOptions target;
        target.target.level = 0.997;
        target.target.epsilon = 0.03;
        target.seed = 7;

        exec::ThreadPool pool(2);
        core::SimSession captureSession(dense, config);
        core::LivePointLibrary collected;
        const core::AnytimeResult leap =
            core::SystematicSampler(dsc).runAnytimeLeapfrog(
                captureSession, denseFactory, pool, target,
                &collected);
        const core::AnytimeResult warm =
            core::SystematicSampler(dsc).runAnytime(
                denseFactory, collected, pool, target);
        CHECK(leap.earlyStopped);
        CHECK_EQ(leap.earlyStopped, warm.earlyStopped);
        CHECK_EQ(leap.unitsMeasured, warm.unitsMeasured);
        CHECK(leap.unitsMeasured < leap.unitsAvailable);
        CHECK(fingerprint(leap.estimate) ==
              fingerprint(warm.estimate));
    }
}

void
testShuffleReproducibilityAndEarlyStop()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1",
                                 workloads::Scale::Mini);

    // A dense grid (k = 2) on a moderate-variance stream: Eq. 3
    // wants ~a quarter of the ~900 available units at 99.7%/±3%,
    // so the stop rule reliably fires long before the grid runs
    // out.
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 2;
    sc.warming = core::WarmingMode::Functional;

    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession captureSession(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(captureSession, sc);
    CHECK(library.unitCount() > 64);

    exec::ThreadPool pool(2);
    core::AnytimeOptions options;
    options.target.level = 0.997;
    options.target.epsilon = 0.03;
    options.seed = 7;

    const core::AnytimeResult first =
        core::SystematicSampler(sc).runAnytime(factory, library,
                                               pool, options);

    // Same seed -> the identical measured set and estimate, run
    // after run and at another thread count.
    {
        const core::AnytimeResult again =
            core::SystematicSampler(sc).runAnytime(factory, library,
                                                   pool, options);
        CHECK_EQ(again.unitsMeasured, first.unitsMeasured);
        CHECK(fingerprint(again.estimate) ==
              fingerprint(first.estimate));
        exec::ThreadPool five(5);
        const core::AnytimeResult wide =
            core::SystematicSampler(sc).runAnytime(factory, library,
                                                   five, options);
        CHECK_EQ(wide.unitsMeasured, first.unitsMeasured);
        CHECK(fingerprint(wide.estimate) ==
              fingerprint(first.estimate));
    }

    // The early stop must actually save work here...
    CHECK(first.earlyStopped);
    CHECK(first.unitsMeasured < first.unitsAvailable);
    CHECK(first.unitsMeasured >= options.minUnits);

    // ...and the estimate it stops at must sit inside its own
    // confidence interval of the full-population estimate.
    core::AnytimeOptions full;
    full.target.epsilon = 0.0;
    const core::AnytimeResult complete =
        core::SystematicSampler(sc).runAnytime(factory, library,
                                               pool, full);
    const double ci =
        first.estimate.cpiConfidenceInterval(options.target.level) *
        first.estimate.cpi();
    CHECK(std::fabs(first.estimate.cpi() -
                    complete.estimate.cpi()) <= ci);

    // A different seed measures a different prefix (overwhelmingly
    // likely on >64 units) but must stop at a compatible estimate.
    core::AnytimeOptions reseeded = options;
    reseeded.seed = 99;
    const core::AnytimeResult other =
        core::SystematicSampler(sc).runAnytime(factory, library,
                                               pool, reseeded);
    CHECK(std::fabs(other.estimate.cpi() -
                    complete.estimate.cpi()) <=
          other.estimate.cpiConfidenceInterval(
              options.target.level) *
              other.estimate.cpi());
}

void
testEstimateAnytimeEndToEnd()
{
    // The procedure-level wrapper: cold call captures and persists,
    // warm call loads — and both yield the identical estimate.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1",
                                 workloads::Scale::Mini);
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };

    std::uint64_t length;
    {
        core::SimSession probe(spec, config);
        length =
            probe.fastForward(~0ull >> 1, core::WarmingMode::None);
    }

    core::ProcedureConfig pc;
    pc.nInit = 200;
    core::SmartsProcedure procedure(pc);
    core::CheckpointStore store(kDir);
    exec::ThreadPool pool(2);

    const core::AnytimeResult cold = procedure.estimateAnytime(
        factory, spec, config, length, pool, store);
    CHECK(cold.unitsMeasured > 0);
    const core::AnytimeResult rewarm = procedure.estimateAnytime(
        factory, spec, config, length, pool, store);
    CHECK_EQ(rewarm.unitsMeasured, cold.unitsMeasured);
    CHECK(fingerprint(rewarm.estimate) ==
          fingerprint(cold.estimate));
}

} // namespace

int
main()
{
    fs::remove_all(kDir);
    fs::create_directories(kDir);

    testDeltaCodecRoundtrips();
    testDeltaCodecRefusals();
    testLibraryCaptureGeometry();
    testLibraryRoundtripAndRefusals();
    testStoreRoundtrip();
    testMaterializeOnDemand();
    testPreviousVersionRecaptured();
    testAnytimeCompletionBitIdentical();
    testLeapfrogColdOverlapBitIdentical();
    testShuffleReproducibilityAndEarlyStop();
    testEstimateAnytimeEndToEnd();
    TEST_MAIN_SUMMARY();
}
