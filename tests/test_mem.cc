/**
 * @file
 * Direct unit tests for the mem layer: set-associative LRU eviction
 * order (including the per-set MRU fast path), TLB reach and true-
 * LRU replacement in the O(1) list+hash implementation, and the
 * warm-vs-timing split of the hierarchy. Randomized tests pin the
 * branch-free set scan of Cache and SharedCache, and the TLB, to
 * plain scan-based true-LRU reference models kept here; geometry
 * validation is checked case by case.
 */

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/shared_hierarchy.hh"
#include "uarch/config.hh"
#include "util/rng.hh"

#include "check.hh"

using namespace smarts;

namespace {

/** addr of line @p line for a 64B-line cache. */
constexpr std::uint32_t
lineAddr(std::uint32_t line)
{
    return line * 64;
}

void
testCacheLruEvictionOrder()
{
    // 2 sets x 2 ways of 64B lines. Even lines -> set 0.
    mem::Cache cache("t", {256, 2, 64, 1});

    // Fill set 0 with lines 0 and 2.
    CHECK(!cache.access(lineAddr(0), false).hit);
    CHECK(!cache.access(lineAddr(2), false).hit);
    CHECK(cache.probe(lineAddr(0)));
    CHECK(cache.probe(lineAddr(2)));

    // Touch line 0: line 2 becomes LRU.
    CHECK(cache.access(lineAddr(0), false).hit);

    // Line 4 (set 0) evicts line 2, not line 0.
    CHECK(!cache.access(lineAddr(4), false).hit);
    CHECK(cache.probe(lineAddr(0)));
    CHECK(!cache.probe(lineAddr(2)));
    CHECK(cache.probe(lineAddr(4)));

    // Set 1 was never touched.
    CHECK(!cache.probe(lineAddr(1)));

    // Eviction continues in strict LRU order: line 0 is now LRU
    // (line 4 is the most recent fill), so line 6 evicts line 0.
    CHECK(!cache.access(lineAddr(6), false).hit);
    CHECK(!cache.probe(lineAddr(0)));
    CHECK(cache.probe(lineAddr(4)));
    CHECK(cache.probe(lineAddr(6)));

    CHECK_EQ(cache.misses(), 4u);
    CHECK_EQ(cache.accesses(), 5u);
}

void
testCacheMruFastPathKeepsLru()
{
    // Hammering the MRU line must not disturb LRU bookkeeping.
    mem::Cache cache("t", {256, 2, 64, 1});
    cache.access(lineAddr(0), false);
    cache.access(lineAddr(2), false);
    for (int i = 0; i < 100; ++i)
        CHECK(cache.access(lineAddr(2), false).hit);
    // Line 0 is LRU despite 100 intervening MRU hits.
    CHECK(!cache.access(lineAddr(4), false).hit);
    CHECK(!cache.probe(lineAddr(0)));
    CHECK(cache.probe(lineAddr(2)));
}

void
testCacheStoresAllocateLikeLoads()
{
    mem::Cache cache("t", {256, 2, 64, 1});
    CHECK(!cache.access(lineAddr(0), true).hit);
    CHECK(cache.access(lineAddr(0), false).hit);
    CHECK_EQ(cache.misses(), 1u);
}

void
testCacheReset()
{
    mem::Cache cache("t", {256, 2, 64, 1});
    cache.access(lineAddr(0), false);
    cache.reset();
    CHECK(!cache.probe(lineAddr(0)));
    CHECK_EQ(cache.accesses(), 0u);
    CHECK_EQ(cache.misses(), 0u);
}

void
testTlbReach()
{
    // 4 entries x 4KB pages: reach is 16KB.
    mem::Tlb tlb({4, 4096, 30});
    for (std::uint32_t p = 0; p < 4; ++p)
        CHECK(tlb.access(p * 4096)); // cold misses.
    for (std::uint32_t p = 0; p < 4; ++p)
        CHECK(!tlb.access(p * 4096)); // all resident.
    CHECK_EQ(tlb.misses(), 4u);

    // Within-page offsets share the entry.
    CHECK(!tlb.access(3 * 4096 + 4092));

    // A 5th page evicts the LRU page (page 0 after the re-touch
    // sequence 0,1,2,3 above).
    CHECK(tlb.access(4 * 4096));
    CHECK(tlb.access(0 * 4096)); // page 0 was the victim.
    CHECK(!tlb.access(4 * 4096));
}

void
testTlbLruOrderUnderReuse()
{
    mem::Tlb tlb({4, 4096, 30});
    for (std::uint32_t p = 0; p < 4; ++p)
        tlb.access(p * 4096);
    // Re-touch pages 0 and 1: pages 2 then 3 are the LRU victims.
    tlb.access(0);
    tlb.access(4096);
    CHECK(tlb.access(4 * 4096)); // evicts page 2.
    CHECK(tlb.access(5 * 4096)); // evicts page 3.
    CHECK(!tlb.access(0));       // pages 0 and 1 survived.
    CHECK(!tlb.access(4096));
    CHECK(tlb.access(2 * 4096)); // pages 2 and 3 are gone.
}

void
testTlbSingleEntry()
{
    mem::Tlb tlb({1, 4096, 30});
    CHECK(tlb.access(0));
    CHECK(!tlb.access(4));
    CHECK(tlb.access(4096));
    CHECK(tlb.access(0));
    CHECK_EQ(tlb.misses(), 3u);
}

void
testTlbReset()
{
    mem::Tlb tlb({4, 4096, 30});
    tlb.access(0);
    tlb.access(4096);
    tlb.reset();
    CHECK_EQ(tlb.misses(), 0u);
    CHECK(tlb.access(0)); // cold again.
}

void
testHierarchyWarmMatchesTiming()
{
    mem::HierarchyConfig cfg;
    cfg.l1i = {256, 2, 64, 1};
    cfg.l1d = {256, 2, 64, 2};
    cfg.l2 = {1024, 2, 64, 12};
    cfg.itlb = {4, 4096, 30};
    cfg.dtlb = {4, 4096, 30};
    cfg.memLatency = 80;

    // A timing load after a warm load of the same line hits L1 with
    // the same latency as after a timing load: warming installs the
    // identical state.
    mem::MemHierarchy warm(cfg);
    warm.warmLoad(lineAddr(0));
    const mem::MemResult viaWarm = warm.load(lineAddr(0));

    mem::MemHierarchy timed(cfg);
    timed.load(lineAddr(0));
    const mem::MemResult viaTimed = timed.load(lineAddr(0));

    CHECK(viaWarm.level == mem::ServedBy::L1);
    CHECK(viaTimed.level == mem::ServedBy::L1);
    CHECK_EQ(viaWarm.latency, viaTimed.latency);
    CHECK_EQ(viaWarm.latency, cfg.l1d.latency);
}

void
testHierarchyLevelsAndLatencies()
{
    mem::HierarchyConfig cfg;
    cfg.l1i = {256, 2, 64, 1};
    cfg.l1d = {256, 2, 64, 2};
    cfg.l2 = {1024, 2, 64, 12};
    cfg.itlb = {4, 4096, 30};
    cfg.dtlb = {4, 4096, 30};
    cfg.memLatency = 80;
    mem::MemHierarchy h(cfg);

    // Cold: memory + TLB miss.
    const mem::MemResult cold = h.load(lineAddr(0));
    CHECK(cold.level == mem::ServedBy::Memory);
    CHECK(cold.tlbMiss);
    CHECK_EQ(cold.latency, 30u + 2u + 12u + 80u);

    // Evict line 0 from L1d (2 ways/set, 2 sets): lines 2 and 4
    // alias to set 0. L2 (2 ways x 8 sets... 1KB/2/64 = 8 sets)
    // still holds line 0, so the re-access is an L2 hit.
    h.load(lineAddr(2));
    h.load(lineAddr(4));
    const mem::MemResult l2hit = h.load(lineAddr(0));
    CHECK(l2hit.level == mem::ServedBy::L2);
    CHECK(!l2hit.tlbMiss);
    CHECK_EQ(l2hit.latency, 2u + 12u);
}

/**
 * The reference set-associative true-LRU cache: a plain scan over
 * the serialized state itself (tags/owners/valid/lastUse, set-major,
 * indexed with % as the geometry reads). Ways [lo, hi) of a program
 * are its victim range; a hit needs valid, tag and owner to match,
 * and the victim is the first way holding the smallest stamp.
 */
struct RefCache
{
    std::uint32_t assoc;
    std::uint32_t sets;
    std::uint32_t lineBytes;
    /** Per program: its victim ways [first, second). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> range;
    std::vector<std::uint32_t> tags{};
    std::vector<std::uint8_t> owners{};
    std::vector<std::uint8_t> valid{};
    std::vector<std::uint64_t> lastUse{};
    std::uint64_t tick = 0;
    std::uint64_t misses = 0;

    void
    clear()
    {
        const std::size_t ways = std::size_t(assoc) * sets;
        tags.assign(ways, 0);
        owners.assign(ways, 0);
        valid.assign(ways, 0);
        lastUse.assign(ways, 0);
    }

    bool
    access(std::uint32_t prog, std::uint32_t addr)
    {
        const std::uint32_t line = addr / lineBytes;
        const std::size_t base = std::size_t(line % sets) * assoc;
        ++tick;
        for (std::size_t w = base; w < base + assoc; ++w) {
            if (valid[w] && tags[w] == line && owners[w] == prog) {
                lastUse[w] = tick;
                return true;
            }
        }
        std::size_t victim = base + range[prog].first;
        for (std::size_t w = victim; w < base + range[prog].second; ++w)
            if (lastUse[w] < lastUse[victim])
                victim = w;
        ++misses;
        tags[victim] = line;
        owners[victim] = static_cast<std::uint8_t>(prog);
        valid[victim] = 1;
        lastUse[victim] = tick;
        return false;
    }
};

/**
 * Randomize @p tags/@p valid/@p lastUse the way a crafted checkpoint
 * could: tags of lines from the access pool that map to their set,
 * so stale tags on invalid ways often equal a valid way's or the
 * next access's; about half the ways valid; stamps from a tiny range
 * so ties are common. No two valid ways of one set share a tag and
 * owner.
 */
void
craftState(Xoshiro256StarStar &rng, std::uint32_t assoc,
           std::uint32_t lines, std::vector<std::uint32_t> &tags,
           std::vector<std::uint8_t> &owners,
           std::vector<std::uint8_t> &valid,
           std::vector<std::uint64_t> &lastUse, std::uint32_t programs)
{
    const std::size_t sets = tags.size() / assoc;
    for (std::size_t w = 0; w < tags.size(); ++w) {
        tags[w] = static_cast<std::uint32_t>(
            w / assoc + sets * rng.below(lines / sets + 1));
        owners[w] = static_cast<std::uint8_t>(rng.below(programs));
        valid[w] = rng.below(2) ? 1 : 0;
        lastUse[w] = rng.below(3);
    }
    for (std::size_t base = 0; base < tags.size(); base += assoc)
        for (std::size_t w = base; w < base + assoc; ++w)
            for (std::size_t v = base; v < w; ++v)
                if (valid[v] && tags[v] == tags[w] &&
                    owners[v] == owners[w])
                    valid[w] = 0;
}

/**
 * Drive @p cache (a Cache or a SharedCache behind @p access) and the
 * reference @p ref with the same seeded stream, comparing every
 * hit/miss; lines come from a pool a little larger than the cache so
 * hits, misses and evictions all occur. False on divergence.
 */
template <typename Access>
bool
sameStream(Xoshiro256StarStar &rng, RefCache &ref, std::uint32_t lines,
           std::uint32_t programs, int accesses, Access &&access)
{
    for (int i = 0; i < accesses; ++i) {
        const auto prog =
            static_cast<std::uint32_t>(rng.below(programs));
        const auto line = static_cast<std::uint32_t>(rng.below(lines));
        const std::uint32_t addr =
            line * ref.lineBytes +
            static_cast<std::uint32_t>(rng.below(ref.lineBytes));
        const bool write = rng.below(4) == 0;
        if (access(prog, addr, write) != ref.access(prog, addr))
            return false;
    }
    return true;
}

bool
sameCacheState(const mem::CacheState &s, const RefCache &ref)
{
    return s.tags == ref.tags && s.valid == ref.valid &&
           s.lastUse == ref.lastUse && s.tick == ref.tick &&
           s.misses == ref.misses;
}

bool
sameSharedState(const mem::SharedCacheState &s, const RefCache &ref)
{
    std::uint64_t misses = 0;
    for (const std::uint64_t m : s.misses)
        misses += m;
    return s.tags == ref.tags && s.owners == ref.owners &&
           s.valid == ref.valid && s.lastUse == ref.lastUse &&
           s.tick == ref.tick && misses == ref.misses;
}

void
testCacheMatchesReferenceLru()
{
    Xoshiro256StarStar rng(7);
    for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
        for (const std::uint32_t sets : {1u, 4u, 16u}) {
            const mem::CacheConfig config{assoc * sets * 32, assoc, 32,
                                          1};
            mem::Cache cache("ref", config);
            RefCache ref{assoc, sets, 32, {{0, assoc}}};
            ref.clear();
            const std::uint32_t lines = assoc * sets * 3 / 2 + 1;
            auto access = [&cache](std::uint32_t, std::uint32_t addr,
                                   bool write) {
                return cache.access(addr, write).hit;
            };
            mem::CacheState state;

            // From cold: every way ties at stamp 0.
            bool ok = sameStream(rng, ref, lines, 1, 4000, access);
            cache.saveState(state);
            ok = ok && sameCacheState(state, ref);

            // reset() clears valid and stamps but leaves stale tags:
            // a tag match on an invalid way must miss.
            cache.reset();
            std::fill(ref.valid.begin(), ref.valid.end(), 0);
            std::fill(ref.lastUse.begin(), ref.lastUse.end(), 0);
            ref.tick = ref.misses = 0;
            ok = ok && sameStream(rng, ref, lines, 1, 4000, access);

            // A crafted, half-filled state with stamp ties and a
            // random MRU way per set, restored into the cache.
            craftState(rng, assoc, lines, ref.tags, ref.owners,
                       ref.valid, ref.lastUse, 1);
            cache.saveState(state);
            state.tags = ref.tags;
            state.valid = ref.valid;
            state.lastUse = ref.lastUse;
            for (std::uint32_t &mru : state.mruWay)
                mru = static_cast<std::uint32_t>(rng.below(assoc));
            cache.restoreState(state);
            ok = ok && sameStream(rng, ref, lines, 1, 4000, access);
            cache.saveState(state);
            ok = ok && sameCacheState(state, ref);
            CHECK(ok);
            if (!ok)
                std::fprintf(stderr, "  Cache %u-way x %u sets\n",
                             assoc, sets);
        }
    }
}

void
testSharedCacheMatchesReferenceLru()
{
    Xoshiro256StarStar rng(11);
    for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
        for (const std::uint32_t programs : {1u, 2u, 3u}) {
            for (const mem::PartitionPolicy policy :
                 {mem::PartitionPolicy::Shared,
                  mem::PartitionPolicy::WayPartitioned}) {
                const bool own =
                    policy == mem::PartitionPolicy::WayPartitioned;
                if (own && programs > assoc)
                    continue;
                const std::uint32_t sets = 8;
                mem::SharedCache cache(
                    "ref", {assoc * sets * 64, assoc, 64, 12},
                    programs, policy);
                RefCache ref{assoc, sets, 64, {}};
                // Way partitioning splits the set contiguously, the
                // first assoc % N programs taking one extra way: 8
                // ways over 3 programs are shares of 3, 3 and 2.
                std::uint32_t lo = 0;
                for (std::uint32_t p = 0; p < programs; ++p) {
                    const std::uint32_t share =
                        assoc / programs + (p < assoc % programs);
                    ref.range.emplace_back(own ? lo : 0,
                                           own ? lo + share : assoc);
                    lo += share;
                }
                ref.clear();
                const std::uint32_t lines = assoc * sets + 3;
                auto access = [&cache](std::uint32_t prog,
                                       std::uint32_t addr, bool write) {
                    return cache.access(prog, addr, write).hit;
                };
                mem::SharedCacheState state;
                bool ok =
                    sameStream(rng, ref, lines, programs, 4000, access);
                cache.saveState(state);
                ok = ok && sameSharedState(state, ref);

                craftState(rng, assoc, lines, ref.tags, ref.owners,
                           ref.valid, ref.lastUse, programs);
                state.tags = ref.tags;
                state.owners = ref.owners;
                state.valid = ref.valid;
                state.lastUse = ref.lastUse;
                for (std::uint32_t &mru : state.mruWay)
                    mru = static_cast<std::uint32_t>(rng.below(assoc));
                cache.restoreState(state);
                ok = ok &&
                     sameStream(rng, ref, lines, programs, 4000, access);
                cache.saveState(state);
                ok = ok && sameSharedState(state, ref);
                CHECK(ok);
                if (!ok)
                    std::fprintf(stderr,
                                 "  SharedCache %u-way, %u programs, "
                                 "%s\n",
                                 assoc, programs,
                                 mem::partitionPolicyName(policy));
            }
        }
    }
}

void
testTlbMatchesReferenceLru()
{
    Xoshiro256StarStar rng(13);
    for (const std::uint32_t entries : {4u, 48u, 64u}) {
        for (const std::uint32_t pageBytes : {256u, 4096u}) {
            mem::Tlb tlb({entries, pageBytes, 30});
            std::list<std::uint32_t> ref; ///< pages, MRU first.
            std::uint64_t refMisses = 0;
            bool ok = true;
            for (int round = 0; round < 2; ++round) {
                for (int i = 0; i < 20000; ++i) {
                    // Runs of same-page references exercise the MRU
                    // fast path; the pool overflows the TLB a little.
                    const auto page = static_cast<std::uint32_t>(
                        rng.below(entries * 5 / 4 + 1));
                    const std::uint32_t addr =
                        page * pageBytes +
                        static_cast<std::uint32_t>(rng.below(pageBytes));
                    auto it = std::find(ref.begin(), ref.end(), page);
                    const bool refMiss = it == ref.end();
                    if (refMiss) {
                        ++refMisses;
                        if (ref.size() == entries)
                            ref.pop_back();
                    } else {
                        ref.erase(it);
                    }
                    ref.push_front(page);
                    ok = ok && tlb.access(addr) == refMiss;
                }
                ok = ok && tlb.misses() == refMisses;
                tlb.reset();
                ref.clear();
                refMisses = 0;
            }
            CHECK(ok);
            if (!ok)
                std::fprintf(stderr, "  Tlb %u entries, %uB pages\n",
                             entries, pageBytes);
        }
    }
}

void
testGeometryValidation()
{
    const auto good = uarch::MachineConfig::eightWay();
    CHECK_EQ(uarch::validateGeometry(good), std::string());
    CHECK_EQ(uarch::validateGeometry(uarch::MachineConfig::sixteenWay()),
             std::string());

    struct Case
    {
        const char *what;
        void (*mutate)(uarch::MachineConfig &);
        const char *needle;
    };
    const Case cases[] = {
        {"48-byte lines",
         [](uarch::MachineConfig &c) { c.mem.l1d.lineBytes = 48; },
         "l1d: line size 48B"},
        {"zero line size",
         [](uarch::MachineConfig &c) { c.mem.l1i.lineBytes = 0; },
         "l1i: line size 0B"},
        {"zero associativity",
         [](uarch::MachineConfig &c) { c.mem.l2.assoc = 0; },
         "l2: associativity is 0"},
        {"zero size",
         [](uarch::MachineConfig &c) { c.mem.l1d.sizeBytes = 0; },
         "l1d: size 0B"},
        {"size not divisible into sets",
         [](uarch::MachineConfig &c) { c.mem.l2.sizeBytes = 1000; },
         "not divisible"},
        {"three sets",
         [](uarch::MachineConfig &c) {
             c.mem.l1d = {3 * 4 * 64, 4, 64, 2};
         },
         "l1d: set count 3"},
        {"zero page size",
         [](uarch::MachineConfig &c) { c.mem.dtlb.pageBytes = 0; },
         "dtlb: page size 0B"},
        {"6000-byte pages",
         [](uarch::MachineConfig &c) { c.mem.itlb.pageBytes = 6000; },
         "itlb: page size 6000B"},
        {"empty TLB",
         [](uarch::MachineConfig &c) { c.mem.dtlb.entries = 0; },
         "dtlb: no entries"},
        {"zero BTB",
         [](uarch::MachineConfig &c) { c.bpred.btbEntries = 0; },
         "bpred: BTB size 0"},
        {"500-entry BTB",
         [](uarch::MachineConfig &c) { c.bpred.btbEntries = 500; },
         "bpred: BTB size 500"},
        {"zero RAS",
         [](uarch::MachineConfig &c) { c.bpred.rasEntries = 0; },
         "bpred: RAS size 0"},
        {"6-entry RAS",
         [](uarch::MachineConfig &c) { c.bpred.rasEntries = 6; },
         "bpred: RAS size 6"},
        {"64 history bits",
         [](uarch::MachineConfig &c) { c.bpred.historyBits = 64; },
         "bpred: history of 64 bits"},
        {"25 history bits",
         [](uarch::MachineConfig &c) { c.bpred.historyBits = 25; },
         "exceeds 24"},
    };
    for (const Case &c : cases) {
        uarch::MachineConfig bad = good;
        c.mutate(bad);
        const std::string why = uarch::validateGeometry(bad);
        const bool named = why.find(c.needle) != std::string::npos;
        CHECK(named);
        if (!named)
            std::fprintf(stderr, "  %s: diagnostic \"%s\" lacks \"%s\"\n",
                         c.what, why.c_str(), c.needle);
    }

    // Non-power-of-two associativity is fine: only the set count
    // and the sizes that are indexed must be powers of two.
    uarch::MachineConfig threeWay = good;
    threeWay.mem.l2 = {3 * 512 * 64, 3, 64, 12};
    CHECK_EQ(uarch::validateGeometry(threeWay), std::string());
    uarch::MachineConfig deepHistory = good;
    deepHistory.bpred.historyBits = 24;
    CHECK_EQ(uarch::validateGeometry(deepHistory), std::string());
}

} // namespace

int
main()
{
    testCacheLruEvictionOrder();
    testCacheMruFastPathKeepsLru();
    testCacheStoresAllocateLikeLoads();
    testCacheReset();
    testTlbReach();
    testTlbLruOrderUnderReuse();
    testTlbSingleEntry();
    testTlbReset();
    testHierarchyWarmMatchesTiming();
    testHierarchyLevelsAndLatencies();
    testCacheMatchesReferenceLru();
    testSharedCacheMatchesReferenceLru();
    testTlbMatchesReferenceLru();
    testGeometryValidation();
    TEST_MAIN_SUMMARY();
}
