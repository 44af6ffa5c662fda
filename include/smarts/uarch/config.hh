/**
 * @file
 * MachineConfig: the full microarchitecture description consumed by
 * the detailed timing model, modeled after the paper's Table 2
 * 8-way and 16-way machines. Cache/L2 capacities are scaled down
 * (paper: 64KB L1s, 2/4MB L2) so the synthetic workloads' working
 * sets exercise every level the way SPEC2000 exercised the originals.
 */

#ifndef SMARTS_UARCH_CONFIG_HH
#define SMARTS_UARCH_CONFIG_HH

#include <cstdint>
#include <string>
#include <utility>

#include "bpred/branch_unit.hh"
#include "mem/hierarchy.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::uarch {

/** Per-event energy model (nanojoules), Wattch-style. */
struct EnergyParams
{
    double perInst = 0.40;     ///< decode/rename/execute/commit.
    double perCycle = 0.15;    ///< clock tree + leakage.
    double l1Access = 0.10;
    double l2Access = 0.60;
    double memAccess = 2.50;
    double bpredAccess = 0.02;
};

struct MachineConfig
{
    std::string name;

    // Core geometry.
    std::uint32_t width = 8;           ///< issue/commit width.
    std::uint32_t robSize = 128;
    std::uint32_t pipelineDepth = 14;  ///< mispredict penalty cycles.

    // Wrong-path modeling: after a mispredict the detailed front end
    // fetches this many sequential lines down the wrong path,
    // polluting the I-cache (paper Section 4.5).
    bool modelWrongPath = true;
    std::uint32_t wrongPathFetches = 4;

    // Stall overlap: fraction of a miss latency exposed to the
    // pipeline (the ROB hides the rest).
    double loadStallFactor = 0.55;
    double storeStallFactor = 0.12;

    mem::HierarchyConfig mem;
    bpred::BpredConfig bpred;
    EnergyParams energy;

    /** The paper's baseline 8-way out-of-order machine. */
    static MachineConfig
    eightWay()
    {
        MachineConfig c;
        c.name = "8-way";
        c.width = 8;
        c.robSize = 128;
        c.pipelineDepth = 14;
        c.wrongPathFetches = 4;
        c.mem.l1i = {32 * 1024, 2, 64, 1};
        c.mem.l1d = {32 * 1024, 4, 64, 2};
        c.mem.l2 = {256 * 1024, 8, 64, 12};
        c.mem.itlb = {48, 4096, 30};
        c.mem.dtlb = {64, 4096, 30};
        c.mem.memLatency = 80;
        c.bpred = {12, 512, 8};
        return c;
    }

    /** The aggressive 16-way machine (bigger everything, deeper pipe). */
    static MachineConfig
    sixteenWay()
    {
        MachineConfig c;
        c.name = "16-way";
        c.width = 16;
        c.robSize = 256;
        c.pipelineDepth = 20;
        c.wrongPathFetches = 8;
        c.loadStallFactor = 0.45;
        c.mem.l1i = {64 * 1024, 2, 64, 1};
        c.mem.l1d = {64 * 1024, 4, 64, 2};
        c.mem.l2 = {1024 * 1024, 8, 64, 16};
        c.mem.itlb = {64, 4096, 30};
        c.mem.dtlb = {128, 4096, 30};
        c.mem.memLatency = 80;
        c.bpred = {14, 2048, 16};
        c.energy.perInst = 0.55;
        c.energy.perCycle = 0.25;
        c.energy.l1Access = 0.14;
        c.energy.l2Access = 0.80;
        return c;
    }
};

/**
 * Empty when every cache, TLB and predictor table of @p c can be
 * indexed with shifts and masks — the geometry rule the simulator's
 * hot path relies on: nonzero power-of-two line sizes, set counts,
 * page sizes, BTB and RAS sizes, and at most
 * bpred::kMaxHistoryBits of gshare history. Otherwise a diagnostic
 * naming the first offending structure. Configs built in code are
 * checked when a session is made; configs decoded from a manifest
 * or a store-service request are refused at decode.
 */
inline std::string
validateGeometry(const MachineConfig &c)
{
    const std::pair<const char *, const mem::CacheConfig *> caches[] =
        {{"l1i", &c.mem.l1i}, {"l1d", &c.mem.l1d}, {"l2", &c.mem.l2}};
    for (const auto &[name, cache] : caches) {
        const std::string why = mem::validateCacheConfig(*cache);
        if (!why.empty())
            return log::format(name, ": ", why);
    }
    const std::pair<const char *, const mem::TlbConfig *> tlbs[] = {
        {"itlb", &c.mem.itlb}, {"dtlb", &c.mem.dtlb}};
    for (const auto &[name, tlb] : tlbs) {
        const std::string why = mem::validateTlbConfig(*tlb);
        if (!why.empty())
            return log::format(name, ": ", why);
    }
    const std::string why = bpred::validateBpredConfig(c.bpred);
    if (!why.empty())
        return log::format("bpred: ", why);
    return {};
}

/** @p c itself, after a fatal error if validateGeometry refuses it. */
inline const MachineConfig &
checkedGeometry(const MachineConfig &c)
{
    const std::string why = validateGeometry(c);
    if (!why.empty())
        SMARTS_FATAL("machine '", c.name, "' has an invalid geometry: ",
                     why);
    return c;
}

/**
 * FNV-1a fingerprint of the parts of a MachineConfig that shape its
 * WARM STATE TRAJECTORY: cache/TLB geometries, the branch-unit
 * tables, and the wrong-path fetch model. Deliberately EXCLUDED are
 * everything only the timing bookkeeping reads — latencies, stall
 * factors, width/ROB/pipeline depth, and the energy model — because
 * warm-state transitions never depend on them: two configs that
 * differ only in those fields produce bit-identical checkpoints, so
 * one persisted library serves an entire latency/energy sweep. This
 * hash is the "config-geometry" component of a checkpoint-library
 * key (core/checkpoint.hh); loading refuses on mismatch rather than
 * silently mis-warming.
 */
inline std::uint64_t
warmGeometryHash(const MachineConfig &c)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    // Each field widened to u64 and folded little-endian — the same
    // FNV-1a the file format's checksum uses (util/binary_io.hh).
    auto mix = [&h](std::uint64_t v) {
        std::uint8_t bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        h = util::fnv1a(bytes, sizeof bytes, h);
    };
    auto mixCache = [&mix](const mem::CacheConfig &cc) {
        mix(cc.sizeBytes);
        mix(cc.assoc);
        mix(cc.lineBytes);
    };
    auto mixTlb = [&mix](const mem::TlbConfig &tc) {
        mix(tc.entries);
        mix(tc.pageBytes);
    };
    mixCache(c.mem.l1i);
    mixCache(c.mem.l1d);
    mixCache(c.mem.l2);
    mixTlb(c.mem.itlb);
    mixTlb(c.mem.dtlb);
    mix(c.bpred.historyBits);
    mix(c.bpred.btbEntries);
    mix(c.bpred.rasEntries);
    mix(c.modelWrongPath ? 1 : 0);
    mix(c.wrongPathFetches);
    return h;
}

} // namespace smarts::uarch

#endif // SMARTS_UARCH_CONFIG_HH
