/**
 * @file
 * Fuzz-style robustness tests for the binary decoders that consume
 * files an external party (or a crashed writer) controls: the delta
 * codec (util::deltaDecode, and util::deltaApply in place on
 * shrinking and growing states), whole `.smlp` live-point libraries
 * (core::LivePointLibrary::load) and the StoreIndex journal replay.
 * Deterministic xoshiro-driven mutation loops — >= 10k cases each —
 * assert the decoders' whole contract: REFUSE (nullopt/diagnostic)
 * or decode, never crash, never overrun (the latter enforced by the
 * CI ASan/UBSan matrices running this binary). Seeds are fixed so a
 * failure reproduces bit-for-bit on any host.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "check.hh"
#include "core/checkpoint.hh"
#include "core/livepoint.hh"
#include "core/session.hh"
#include "core/store_index.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "util/delta_codec.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"

namespace fs = std::filesystem;

namespace {

using namespace smarts;

constexpr const char *kRoot = "fuzz_codec_tmp";

/** Mutate 1..8 random bytes; sometimes truncate or extend. */
std::vector<std::uint8_t>
mutate(const std::vector<std::uint8_t> &original,
       Xoshiro256StarStar &rng)
{
    std::vector<std::uint8_t> bytes = original;
    if (!bytes.empty() && rng.chance(0.15))
        bytes.resize(rng.below(bytes.size()));
    if (rng.chance(0.10)) {
        const std::uint64_t extra = 1 + rng.below(32);
        for (std::uint64_t i = 0; i < extra; ++i)
            bytes.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    if (!bytes.empty()) {
        const std::uint64_t flips = 1 + rng.below(8);
        for (std::uint64_t i = 0; i < flips; ++i)
            bytes[rng.below(bytes.size())] =
                static_cast<std::uint8_t>(rng.next());
    }
    return bytes;
}

/** A realistically sparse payload pair, as livepoint chains see. */
void
makeCorpusPair(Xoshiro256StarStar &rng, std::size_t size,
               std::vector<std::uint8_t> &base,
               std::vector<std::uint8_t> &data)
{
    base.assign(size, 0);
    for (std::size_t i = 0; i < size; ++i)
        base[i] = static_cast<std::uint8_t>(rng.next());
    data = base;
    // Sparse diffs: a few short dirty stretches.
    const std::uint64_t stretches = 1 + rng.below(6);
    for (std::uint64_t s = 0; s < stretches && !data.empty(); ++s) {
        std::size_t at = rng.below(data.size());
        const std::uint64_t len = 1 + rng.below(64);
        for (std::uint64_t i = 0; i < len && at < data.size();
             ++i, ++at)
            data[at] = static_cast<std::uint8_t>(rng.next());
    }
}

void
testDeltaCodecFuzz()
{
    Xoshiro256StarStar rng(0xde17ac0de5eedull);

    // Corpus of valid (base, data, delta) triples at several sizes,
    // including empty and size-mismatched bases.
    struct Case
    {
        std::vector<std::uint8_t> base;
        std::vector<std::uint8_t> data;
        std::vector<std::uint8_t> delta;
    };
    std::vector<Case> corpus;
    for (std::size_t size : {std::size_t(0), std::size_t(1),
                             std::size_t(63), std::size_t(256),
                             std::size_t(2048)}) {
        Case c;
        makeCorpusPair(rng, size, c.base, c.data);
        c.delta = util::deltaEncode(c.base, c.data);
        corpus.push_back(std::move(c));
        // A first-of-chain record: empty base, data stored literal.
        Case first;
        makeCorpusPair(rng, size, first.data, first.data);
        first.delta = util::deltaEncode({}, first.data);
        corpus.push_back(std::move(first));
    }

    // Sanity: every corpus delta roundtrips exactly.
    for (const Case &c : corpus) {
        std::string error;
        const auto out = util::deltaDecode(c.base, c.delta, &error);
        CHECK(out && *out == c.data);
    }

    // Mutation loop: 12k mutated deltas must each either refuse
    // with a diagnostic or produce a payload — never crash or read
    // out of bounds (ASan/UBSan enforce the latter in CI).
    std::uint64_t refused = 0;
    std::uint64_t decoded = 0;
    for (int i = 0; i < 12000; ++i) {
        const Case &c = corpus[rng.below(corpus.size())];
        const std::vector<std::uint8_t> bad = mutate(c.delta, rng);
        std::string error;
        const auto out = util::deltaDecode(c.base, bad, &error);
        if (out) {
            ++decoded;
            if (bad == c.delta)
                CHECK(*out == c.data);
        } else {
            ++refused;
            CHECK(!error.empty());
        }
    }
    // The loop must exercise BOTH outcomes, or the property is
    // vacuous (e.g. a mutator that always destroys the header).
    CHECK(refused > 0);
    CHECK(decoded > 0);

    // Pure-garbage streams: all refusals, never crashes.
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::uint8_t> garbage(rng.below(512));
        for (std::uint8_t &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        std::string error;
        const auto out = util::deltaDecode({}, garbage, &error);
        if (!out)
            CHECK(!error.empty());
    }
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
testDeltaApplyInPlace()
{
    Xoshiro256StarStar rng(0xa991e5eedull);

    // Shrinking, growing and same-size successors: the state is
    // resized to the delta's rawSize in place, growth reading the
    // base as zero-padded.
    const std::size_t sizes[] = {0, 1, 7, 8, 9, 63, 64, 257, 2048};
    std::uint64_t refused = 0;
    std::uint64_t applied = 0;
    for (const std::size_t from : sizes)
        for (const std::size_t to : sizes) {
            std::vector<std::uint8_t> base, data;
            makeCorpusPair(rng, std::max(from, to), base, data);
            base.resize(from);
            data.resize(to);
            const std::vector<std::uint8_t> delta =
                util::deltaEncode(base, data);

            std::vector<std::uint8_t> state = base;
            std::string error;
            CHECK(util::deltaApply(state, delta.data(), delta.size(),
                                   &error));
            CHECK(state == data);

            // Mutated deltas: refused with the state untouched, or
            // applied to exactly the declared size.
            for (int i = 0; i < 40; ++i) {
                const std::vector<std::uint8_t> bad = mutate(delta, rng);
                state = base;
                error.clear();
                if (util::deltaApply(state, bad.data(), bad.size(),
                                     &error)) {
                    ++applied;
                    util::BinaryReader header(bad.data(), bad.size());
                    CHECK_EQ(std::uint64_t(state.size()), header.u64());
                } else {
                    ++refused;
                    CHECK(!error.empty());
                    CHECK(state == base);
                }
            }
        }
    CHECK(refused > 0);
    CHECK(applied > 0);
}

/** One unit's live-point as captured: identity plus raw state. */
struct Snapshot
{
    std::uint64_t unitIndex = 0;
    std::uint64_t position = 0;
    std::vector<std::uint8_t> state;
};

Snapshot
snapshotOf(const core::LivePoint &point)
{
    util::BinaryWriter raw;
    point.arch.write(raw);
    point.timing.write(raw);
    return {point.unitIndex, point.position, raw.buffer()};
}

/** Every unit of @p library materializes to @p want. */
bool
materializesTo(const core::LivePointLibrary &library,
               const std::vector<Snapshot> &want)
{
    if (library.unitCount() != want.size())
        return false;
    core::LivePointLibrary::Cursor cursor(library);
    core::LivePoint point;
    for (std::size_t i = 0; i < want.size(); ++i) {
        cursor.materialize(i, point);
        const Snapshot got = snapshotOf(point);
        if (got.unitIndex != want[i].unitIndex ||
            got.position != want[i].position ||
            got.state != want[i].state)
            return false;
    }
    return true;
}

/** Rewrite the trailing whole-file checksum of @p bytes. */
void
resealFile(std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 8)
        return;
    const std::size_t payload = bytes.size() - 8;
    const std::uint64_t sum = util::fnv1a(bytes.data(), payload);
    for (int i = 0; i < 8; ++i)
        bytes[payload + i] = static_cast<std::uint8_t>(sum >> (8 * i));
}

/** Where one record sits in an `.smlp` file. */
struct RecordSpan
{
    std::size_t head = 0;  ///< unitIndex, position, recordFnv, length.
    std::size_t delta = 0;
    std::size_t size = 0;  ///< delta bytes.
};

/** Recompute the record checksum of @p r (docs/checkpoint-format.md). */
void
resealRecord(std::vector<std::uint8_t> &bytes, const RecordSpan &r)
{
    std::uint64_t h = util::fnv1a(bytes.data() + r.head, 16);
    h = util::fnv1a(bytes.data() + r.head + 24, 8, h);
    h = util::fnv1a(bytes.data() + r.delta, r.size, h);
    for (int i = 0; i < 8; ++i)
        bytes[r.head + 16 + i] = static_cast<std::uint8_t>(h >> (8 * i));
}

void
testLivePointFileFuzz()
{
    // A small library that still spans several keyframes: fsm-1
    // on an 8-way machine with its caches and predictor shrunk.
    auto config = uarch::MachineConfig::eightWay();
    config.mem.l1i = {1024, 2, 64, 1};
    config.mem.l1d = {1024, 2, 64, 2};
    config.mem.l2 = {4096, 4, 64, 12};
    config.bpred = {8, 64, 4};
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 20;
    sc.warming = core::WarmingMode::Functional;
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    std::vector<Snapshot> original;
    core::SimSession session(spec, config);
    const core::LivePointLibrary library = core::LivePointLibrary::build(
        session, sc, [&original](std::size_t, const core::LivePoint &p) {
            original.push_back(snapshotOf(p));
        });
    CHECK(library.keyframeCount() > 1);
    const std::string source = std::string(kRoot) + "/library.smlp";
    const std::string target = std::string(kRoot) + "/fuzzed.smlp";
    std::string error;
    CHECK(library.save(key, source, &error));
    const std::vector<std::uint8_t> file = readBytes(source);

    // The layout: header (magic, version, endian mark, flavor), key,
    // streamLength and count, then the records.
    util::BinaryWriter keyBytes;
    key.write(keyBytes);
    const std::size_t header = 8 + 4 + 4 + 1 + keyBytes.size();
    std::vector<RecordSpan> records;
    for (std::size_t at = header + 16; at + 8 < file.size();) {
        util::BinaryReader length(file.data() + at + 24, 8);
        RecordSpan r;
        r.head = at;
        r.delta = at + 32;
        r.size = static_cast<std::size_t>(length.u64());
        records.push_back(r);
        at = r.delta + r.size;
    }
    CHECK_EQ(records.size(), library.unitCount());

    // Each case mutates the file its own way and reseals the file
    // checksum, so every mutation reaches the record layer. The
    // first three only touch bytes the record checksums or the
    // header checks cover: a load that succeeds must materialize
    // the original units exactly. The last two also reseal the
    // mutated record, reaching the codec, state and grid checks: a
    // load there may succeed with different (well-formed) states,
    // but every unit must still materialize without a crash.
    enum class Where { Anywhere, Header, RecordHead, Delta, Grid };
    struct Case
    {
        const char *name;
        Where where;
        int count;
    };
    const Case cases[] = {
        {"file bytes, anywhere", Where::Anywhere, 3000},
        {"header, key and count", Where::Header, 2000},
        {"record heads", Where::RecordHead, 2000},
        {"delta bytes, record resealed", Where::Delta, 2500},
        {"grid fields, record resealed", Where::Grid, 1000},
    };

    Xoshiro256StarStar rng(0x5e1f5ea1edull);
    for (const Case &c : cases) {
        std::uint64_t refused = 0;
        std::uint64_t loaded = 0;
        for (int i = 0; i < c.count; ++i) {
            std::vector<std::uint8_t> bytes = file;
            const RecordSpan &r = records[rng.below(records.size())];
            const std::uint64_t flips = 1 + rng.below(4);
            switch (c.where) {
            case Where::Anywhere:
                bytes.resize(bytes.size() - 8);
                bytes = mutate(bytes, rng);
                bytes.resize(bytes.size() + 8);
                break;
            case Where::Header:
                for (std::uint64_t f = 0; f < flips; ++f)
                    bytes[rng.below(header + 16)] ^=
                        static_cast<std::uint8_t>(1 + rng.below(255));
                break;
            case Where::RecordHead:
                for (std::uint64_t f = 0; f < flips; ++f)
                    bytes[r.head + rng.below(32)] ^=
                        static_cast<std::uint8_t>(1 + rng.below(255));
                break;
            case Where::Delta:
                for (std::uint64_t f = 0; f < flips; ++f)
                    bytes[r.delta + rng.below(r.size)] ^=
                        static_cast<std::uint8_t>(1 + rng.below(255));
                resealRecord(bytes, r);
                break;
            case Where::Grid:
                bytes[r.head + rng.below(16)] ^=
                    static_cast<std::uint8_t>(1 + rng.below(255));
                resealRecord(bytes, r);
                break;
            }
            resealFile(bytes);
            writeBytes(target, bytes);

            std::string why;
            const auto got =
                core::LivePointLibrary::load(target, key, &why);
            if (!got) {
                ++refused;
                CHECK(!why.empty());
                continue;
            }
            ++loaded;
            const bool exact = materializesTo(*got, original);
            if (c.where != Where::Delta && c.where != Where::Grid)
                CHECK(exact);
        }
        // Every case must exercise refusals; the covered-byte cases
        // can only load when a mutation left its bytes unchanged.
        CHECK(refused > 0);
        CHECK(refused + loaded == std::uint64_t(c.count));
    }
}

void
testStoreIndexJournalFuzz()
{
    Xoshiro256StarStar rng(0x5104e17dec0dedull);

    const std::string valid =
        std::string(kRoot) + "/valid-journal";
    const std::string target =
        std::string(kRoot) + "/fuzzed-journal";

    // Build a realistic journal: adds, touches, removes, replays.
    std::string error;
    const char *rels[] = {"a/lib1.smck", "a/lib2.smck",
                          "b/points.smlp", "mix-a+b/lib.smck"};
    std::uint64_t atime = 0;
    for (int round = 0; round < 6; ++round)
        for (const char *rel : rels) {
            CHECK(core::StoreIndex::appendRecord(
                valid, core::StoreIndex::Op::Add, rel,
                1000 + rng.below(50000), ++atime, &error));
            if (rng.chance(0.5))
                CHECK(core::StoreIndex::appendRecord(
                    valid, core::StoreIndex::Op::Touch, rel, 0,
                    ++atime, &error));
            if (rng.chance(0.2))
                CHECK(core::StoreIndex::appendRecord(
                    valid, core::StoreIndex::Op::Remove, rel, 0,
                    ++atime, &error));
        }

    // Sanity: the untouched journal replays.
    const auto sane = core::StoreIndex::load(valid, &error);
    CHECK(sane.has_value());
    const std::vector<std::uint8_t> journal = readBytes(valid);
    CHECK(journal.size() > 64);

    // Mutation loop: 10k corrupted journals must each either refuse
    // with a diagnostic or replay into a consistent index.
    std::uint64_t refused = 0;
    std::uint64_t replayed = 0;
    for (int i = 0; i < 10000; ++i) {
        writeBytes(target, mutate(journal, rng));
        std::string why;
        const auto index = core::StoreIndex::load(target, &why);
        if (index) {
            ++replayed;
            // Whatever replayed must be internally consistent.
            std::uint64_t total = 0;
            for (const auto &entry : index->entries())
                total += entry.second.bytes;
            CHECK_EQ(total, index->totalBytes());
            CHECK(index->entryCount() <= index->journalRecords());
        } else {
            ++refused;
            CHECK(!why.empty());
        }
    }
    CHECK(refused > 0);
    // Per-record checksums mean most byte flips are caught; a
    // replay can still succeed (e.g. mutations inside a record that
    // a truncation then drops), so don't require replays — but DO
    // require the loop saw refusals, and print nothing either way.

    // Pure-garbage files: never crash.
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> garbage(rng.below(256));
        for (std::uint8_t &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        writeBytes(target, garbage);
        std::string why;
        const auto index = core::StoreIndex::load(target, &why);
        if (!index)
            CHECK(!why.empty());
    }
    (void)replayed;
}

} // namespace

int
main()
{
    fs::remove_all(kRoot);
    fs::create_directories(kRoot);

    testDeltaCodecFuzz();
    testDeltaApplyInPlace();
    testLivePointFileFuzz();
    testStoreIndexJournalFuzz();
    TEST_MAIN_SUMMARY();
}
