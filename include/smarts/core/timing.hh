/**
 * @file
 * TimingModel: the microarchitectural half of a simulation session —
 * one MachineConfig's caches, TLBs, branch predictor, cycle and
 * energy accumulators. A TimingModel consumes the StepInfo stream an
 * ArchCore produces, either warming long-history state (functional
 * warming, no timing) or charging the full detailed timing model.
 * Several TimingModels can consume the same stream, which is how
 * matched-pair multi-config sampling amortizes the functional
 * warming pass the paper's Table 6 identifies as the dominant cost.
 *
 * Cycle and energy accumulation is exact 48.16 fixed-point integer
 * arithmetic: every increment is a pure function of the instruction
 * and the config (never of the accumulator value), so a segment's
 * measured cycles/energy depend only on the instructions it covers —
 * not on how much simulation preceded it. That offset invariance is
 * what lets a checkpoint-resumed shard (core/checkpoint.hh) measure
 * a unit bit-identically to a serial run that reached the same unit
 * with hours of accumulated history.
 */

#ifndef SMARTS_CORE_TIMING_HH
#define SMARTS_CORE_TIMING_HH

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "bpred/branch_unit.hh"
#include "core/arch.hh"
#include "mem/hierarchy.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"

namespace smarts::core {

/** What state fast-forwarding keeps warm (paper Section 4). */
enum class WarmingMode
{
    None,       ///< architectural state only (plain fast-forward).
    CachesOnly, ///< caches + TLBs, predictors stale.
    BpredOnly,  ///< predictors, caches stale.
    Functional, ///< the paper's functional warming: everything.
};

constexpr bool
warmsCaches(WarmingMode mode)
{
    return mode == WarmingMode::CachesOnly ||
           mode == WarmingMode::Functional;
}

constexpr bool
warmsBpred(WarmingMode mode)
{
    return mode == WarmingMode::BpredOnly ||
           mode == WarmingMode::Functional;
}

/**
 * Call @p fn with @p mode as a std::integral_constant: the one place
 * a runtime warming mode becomes a compile-time one (and so picks a
 * TimingModel::WarmSink instantiation).
 */
template <typename Fn>
decltype(auto)
withWarmingMode(WarmingMode mode, Fn &&fn)
{
    using M = WarmingMode;
    switch (mode) {
      case M::CachesOnly:
        return fn(std::integral_constant<M, M::CachesOnly>{});
      case M::BpredOnly:
        return fn(std::integral_constant<M, M::BpredOnly>{});
      case M::Functional:
        return fn(std::integral_constant<M, M::Functional>{});
      case M::None:
        break;
    }
    return fn(std::integral_constant<M, M::None>{});
}

/** One detailed-simulation segment's measurements. */
struct Segment
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double energyNj = 0.0;
};

/** Cumulative event counters (all modes). */
struct Activity
{
    std::uint64_t branches = 0;
    std::uint64_t bpredLookups = 0;
    std::uint64_t bpredMispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/**
 * Serialized microarchitectural state for checkpointing: the memory
 * hierarchy, the branch unit, the fixed-point cycle/energy
 * accumulators, and the fetch-line dedup register.
 */
struct TimingState
{
    mem::HierarchyState mem;
    bpred::BranchUnitState bpred;
    std::uint64_t cyclesFx = 0;
    std::uint64_t energyFx = 0;
    std::uint32_t lastFetchLine = ~0u;
    Activity activity;

    std::size_t
    byteSize() const
    {
        return mem.byteSize() + bpred.byteSize() +
               2 * sizeof(std::uint64_t) + sizeof(std::uint32_t) +
               sizeof(Activity);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        mem.write(out);
        bpred.write(out);
        out.u64(cyclesFx);
        out.u64(energyFx);
        out.u32(lastFetchLine);
        out.u64(activity.branches);
        out.u64(activity.bpredLookups);
        out.u64(activity.bpredMispredicts);
        out.u64(activity.loads);
        out.u64(activity.stores);
    }

    void
    read(util::BinaryReader &in)
    {
        mem.read(in);
        bpred.read(in);
        cyclesFx = in.u64();
        energyFx = in.u64();
        lastFetchLine = in.u32();
        activity.branches = in.u64();
        activity.bpredLookups = in.u64();
        activity.bpredMispredicts = in.u64();
        activity.loads = in.u64();
        activity.stores = in.u64();
    }
};

class TimingModel
{
  public:
    /** 48.16 fixed point: exact for widths, latencies, stall terms. */
    static constexpr std::uint32_t kFixedShift = 16;
    static constexpr double kFixedOne = 65536.0;

    explicit TimingModel(const uarch::MachineConfig &config)
        : config_(uarch::checkedGeometry(config)),
          hierarchy_(config.mem),
          bpred_(config.bpred)
    {
        fetchLineShift_ = mem::log2Exact(config_.mem.l1i.lineBytes);
        invWidthFx_ = toFixed(1.0 / config.width);
        loadStallFx_ = toFixed(config.loadStallFactor);
        storeStallFx_ = toFixed(config.storeStallFactor);
        mispredictFx_ = static_cast<std::uint64_t>(config.pipelineDepth)
                        << kFixedShift;
        ePerInstFx_ = toFixed(config.energy.perInst);
        ePerCycleFx_ = toFixed(config.energy.perCycle);
        eL1Fx_ = toFixed(config.energy.l1Access);
        eL2Fx_ = toFixed(config.energy.l2Access);
        eMemFx_ = toFixed(config.energy.memAccess);
        eBpredFx_ = toFixed(config.energy.bpredAccess);
    }

    /**
     * ArchCore::run sinks, one per simulation mode (core/arch.hh
     * documents the event order). A sink is a reference to its
     * model, so building one per call costs nothing.
     *
     * WarmSink<Mode> fast-forwards: it counts loads, stores and
     * branches in every mode and, per @p Mode, warms the caches and
     * TLBs and/or trains the predictors in program order.
     */
    template <WarmingMode Mode>
    struct WarmSink
    {
        TimingModel &m;

        void
        fetch(std::uint32_t pc)
        {
            if constexpr (warmsCaches(Mode))
                if (m.newFetchLine(pc))
                    m.hierarchy_.warmFetch(pc);
        }

        void
        load(std::uint32_t addr)
        {
            ++m.activity_.loads;
            if constexpr (warmsCaches(Mode))
                m.hierarchy_.warmLoad(addr);
        }

        void
        store(std::uint32_t addr)
        {
            ++m.activity_.stores;
            if constexpr (warmsCaches(Mode))
                m.hierarchy_.warmStore(addr);
        }

        void
        branch(std::uint32_t pc, const sisa::DecodedInst &di,
               bool taken, std::uint32_t nextPc)
        {
            ++m.activity_.branches;
            if constexpr (warmsBpred(Mode)) {
                // Mirror the detailed core's RAS traffic: predict()
                // pops on returns there, so warming must pop too or
                // the stack depth drifts across warming gaps.
                if (di.op == sisa::Opcode::JR && di.a == 31)
                    m.bpred_.popReturn();
                m.bpred_.update(pc, di, taken, nextPc);
            }
        }
    };

    /**
     * Applies the EXACT state transitions of DetailedSink — fetch-
     * line dedup, cache/TLB fills, predictor lookups and training,
     * wrong-path I-cache pollution — while skipping the cycle/
     * energy/latency bookkeeping: functional warming, except that
     * branches take the detailed core's predict-score-train path.
     * This is the checkpoint capture pass's fast path: after it runs
     * over the instructions a serial run simulated in detail, every
     * microarchitectural structure is bit-identical to the serial
     * run's, at a fraction of the cost. The shared transitions live
     * in newFetchLine() and resolveBranch(), so the two sinks cannot
     * drift apart (tests/test_checkpoint.cc also fails on
     * divergence).
     */
    struct WarmDetailedSink : WarmSink<WarmingMode::Functional>
    {
        void
        branch(std::uint32_t pc, const sisa::DecodedInst &di,
               bool taken, std::uint32_t nextPc)
        {
            m.resolveBranch(pc, di, taken, nextPc);
        }
    };

    /** The full detailed timing and energy model. */
    struct DetailedSink
    {
        TimingModel &m;

        void
        fetch(std::uint32_t pc)
        {
            m.cyclesFx_ += m.invWidthFx_;
            m.energyFx_ += m.ePerInstFx_;
            // Front end: one I-cache access per fetched line.
            if (!m.newFetchLine(pc))
                return;
            const mem::MemResult f = m.hierarchy_.fetch(pc);
            m.chargeMem(f);
            const std::uint32_t l1 = m.config_.mem.l1i.latency;
            if (f.latency > l1)
                m.cyclesFx_ += static_cast<std::uint64_t>(f.latency - l1)
                               << kFixedShift;
        }

        void
        load(std::uint32_t addr)
        {
            ++m.activity_.loads;
            const mem::MemResult r = m.hierarchy_.load(addr);
            m.chargeMem(r);
            const std::uint32_t l1 = m.config_.mem.l1d.latency;
            if (r.latency > l1)
                m.cyclesFx_ += (r.latency - l1) * m.loadStallFx_;
        }

        void
        store(std::uint32_t addr)
        {
            ++m.activity_.stores;
            const mem::MemResult r = m.hierarchy_.store(addr);
            m.chargeMem(r);
            const std::uint32_t l1 = m.config_.mem.l1d.latency;
            if (r.latency > l1)
                m.cyclesFx_ += (r.latency - l1) * m.storeStallFx_;
        }

        void
        branch(std::uint32_t pc, const sisa::DecodedInst &di,
               bool taken, std::uint32_t nextPc)
        {
            m.energyFx_ += m.eBpredFx_;
            if (m.resolveBranch(pc, di, taken, nextPc))
                m.cyclesFx_ += m.mispredictFx_;
        }
    };

    /** Bracketing state for one detailed segment's measurements. */
    struct SegmentMark
    {
        std::uint64_t cyclesFx = 0;
        std::uint64_t energyFx = 0;
    };

    SegmentMark
    beginSegment() const
    {
        return {cyclesFx_, energyFx_};
    }

    /** Charge per-cycle energy for the segment and extract it. */
    Segment
    endSegment(const SegmentMark &mark, std::uint64_t executed)
    {
        const std::uint64_t cycDeltaFx = cyclesFx_ - mark.cyclesFx;
        energyFx_ += mulFixed(ePerCycleFx_, cycDeltaFx);
        Segment seg;
        seg.instructions = executed;
        seg.cycles = cycDeltaFx >> kFixedShift;
        seg.energyNj =
            static_cast<double>(energyFx_ - mark.energyFx) / kFixedOne;
        return seg;
    }

    /** Exact detailed cycles so far (fractional issue slots kept). */
    double
    cycleCount() const
    {
        return static_cast<double>(cyclesFx_) / kFixedOne;
    }

    /** Detailed energy so far, nanojoules. */
    double
    energyCount() const
    {
        return static_cast<double>(energyFx_) / kFixedOne;
    }

    const Activity &
    activity() const
    {
        return activity_;
    }

    const uarch::MachineConfig &
    config() const
    {
        return config_;
    }

    void
    saveState(TimingState &state) const
    {
        hierarchy_.saveState(state.mem);
        bpred_.saveState(state.bpred);
        state.cyclesFx = cyclesFx_;
        state.energyFx = energyFx_;
        state.lastFetchLine = lastFetchLine_;
        state.activity = activity_;
    }

    void
    restoreState(const TimingState &state)
    {
        hierarchy_.restoreState(state.mem);
        bpred_.restoreState(state.bpred);
        cyclesFx_ = state.cyclesFx;
        energyFx_ = state.energyFx;
        lastFetchLine_ = state.lastFetchLine;
        activity_ = state.activity;
    }

  private:
    /** Fetch-line dedup: true when @p pc starts a new I-cache line. */
    bool
    newFetchLine(std::uint32_t pc)
    {
        const std::uint32_t line = pc >> fetchLineShift_;
        if (line == lastFetchLine_)
            return false;
        lastFetchLine_ = line;
        return true;
    }

    void
    chargeMem(const mem::MemResult &r)
    {
        energyFx_ += eL1Fx_;
        if (r.level != mem::ServedBy::L1)
            energyFx_ += eL2Fx_;
        if (r.level == mem::ServedBy::Memory)
            energyFx_ += eMemFx_;
    }

    /**
     * The branch transitions the detailed core makes (and warm-as-
     * detailed mirrors): predict, score, pollute the I-side down the
     * predicted wrong path, train. True on a mispredict.
     */
    bool
    resolveBranch(std::uint32_t pc, const sisa::DecodedInst &di,
                  bool taken, std::uint32_t nextPc)
    {
        ++activity_.branches;
        ++activity_.bpredLookups;
        const bpred::Prediction p = bpred_.predict(pc, di);
        const bool mispredict =
            p.taken != taken || (taken && p.target != nextPc);
        if (mispredict) {
            ++activity_.bpredMispredicts;
            if (config_.modelWrongPath) {
                // The front end ran down the predicted (wrong) path:
                // pollute the I-side and refetch after the redirect.
                const std::uint32_t wrong = p.taken ? p.target : pc + 4;
                for (std::uint32_t i = 0; i < config_.wrongPathFetches;
                     ++i)
                    hierarchy_.warmFetch(wrong +
                                         i * config_.mem.l1i.lineBytes);
                lastFetchLine_ = ~0u;
            }
        }
        bpred_.update(pc, di, taken, nextPc);
        return mispredict;
    }

    static std::uint64_t
    toFixed(double v)
    {
        return static_cast<std::uint64_t>(
            std::llround(v * kFixedOne));
    }

    /** Exact (a * b) >> kFixedShift without 128-bit intermediates. */
    static std::uint64_t
    mulFixed(std::uint64_t a, std::uint64_t b)
    {
        const std::uint64_t hi = b >> kFixedShift;
        const std::uint64_t lo = b & ((1ull << kFixedShift) - 1);
        return a * hi + ((a * lo) >> kFixedShift);
    }

    uarch::MachineConfig config_;
    mem::MemHierarchy hierarchy_;
    bpred::BranchUnit bpred_;

    // Per-event fixed-point increments, precomputed from the config.
    std::uint64_t invWidthFx_ = 0;
    std::uint64_t loadStallFx_ = 0;
    std::uint64_t storeStallFx_ = 0;
    std::uint64_t mispredictFx_ = 0;
    std::uint64_t ePerInstFx_ = 0;
    std::uint64_t ePerCycleFx_ = 0;
    std::uint64_t eL1Fx_ = 0;
    std::uint64_t eL2Fx_ = 0;
    std::uint64_t eMemFx_ = 0;
    std::uint64_t eBpredFx_ = 0;

    std::uint64_t cyclesFx_ = 0;
    std::uint64_t energyFx_ = 0;
    std::uint32_t fetchLineShift_ = 6; ///< log2(L1I line bytes).
    std::uint32_t lastFetchLine_ = ~0u;
    Activity activity_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_TIMING_HH
