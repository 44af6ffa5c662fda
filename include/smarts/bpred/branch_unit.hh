/**
 * @file
 * BranchUnit: gshare direction predictor + direct-mapped BTB +
 * return-address stack. Like the caches, it is long-history state
 * shared between the detailed core (predict + update with timing
 * consequences) and functional warming (update only).
 */

#ifndef SMARTS_BPRED_BRANCH_UNIT_HH
#define SMARTS_BPRED_BRANCH_UNIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sisa/encoding.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::bpred {

struct BpredConfig
{
    std::uint32_t historyBits = 12; ///< gshare table = 2^historyBits.
    std::uint32_t btbEntries = 512;
    std::uint32_t rasEntries = 8;
};

/** Largest gshare history: a 16 MiB counter table. */
constexpr std::uint32_t kMaxHistoryBits = 24;

/**
 * Empty when @p config is a geometry BranchUnit can index with
 * masks: at most kMaxHistoryBits of history, and nonzero
 * power-of-two BTB and RAS sizes. Otherwise, why not.
 */
inline std::string
validateBpredConfig(const BpredConfig &config)
{
    auto pow2 = [](std::uint32_t v) { return v && !(v & (v - 1)); };
    if (config.historyBits > kMaxHistoryBits)
        return log::format("history of ", config.historyBits,
                           " bits exceeds ", kMaxHistoryBits);
    if (!pow2(config.btbEntries))
        return log::format("BTB size ", config.btbEntries,
                           " is not a nonzero power of two");
    if (!pow2(config.rasEntries))
        return log::format("RAS size ", config.rasEntries,
                           " is not a nonzero power of two");
    return {};
}

struct Prediction
{
    bool taken = false;
    std::uint32_t target = 0;
};

/**
 * Serialized predictor contents for checkpointing: gshare counters,
 * BTB, RAS, and the global history register.
 */
struct BranchUnitState
{
    std::vector<std::uint8_t> counters;
    std::vector<std::uint32_t> btbTags;
    std::vector<std::uint32_t> btbTargets;
    std::vector<std::uint32_t> ras;
    std::uint32_t history = 0;
    std::uint32_t rasTop = 0;
    std::uint64_t lookups = 0;

    std::size_t
    byteSize() const
    {
        return counters.size() +
               (btbTags.size() + btbTargets.size() + ras.size()) *
                   sizeof(std::uint32_t) +
               2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.vecU8(counters);
        out.vecU32(btbTags);
        out.vecU32(btbTargets);
        out.vecU32(ras);
        out.u32(history);
        out.u32(rasTop);
        out.u64(lookups);
    }

    void
    read(util::BinaryReader &in)
    {
        counters = in.vecU8();
        btbTags = in.vecU32();
        btbTargets = in.vecU32();
        ras = in.vecU32();
        history = in.u32();
        rasTop = in.u32();
        lookups = in.u64();
    }
};

class BranchUnit
{
  public:
    explicit BranchUnit(const BpredConfig &config) : config_(config)
    {
        const std::string why = validateBpredConfig(config);
        if (!why.empty())
            SMARTS_FATAL("branch unit: ", why);
        tableMask_ = (1u << config.historyBits) - 1u;
        btbMask_ = config.btbEntries - 1;
        rasMask_ = config.rasEntries - 1;
        counters_.assign(std::size_t(1) << config.historyBits, 1);
        btbTags_.assign(config.btbEntries, 0);
        btbTargets_.assign(config.btbEntries, 0);
        ras_.assign(config.rasEntries, 0);
    }

    /**
     * Predict direction and target for the branch at @p pc. Pops the
     * RAS for returns (JR through the r31 link convention); callers
     * never roll back, so speculative RAS repair is unnecessary.
     */
    Prediction
    predict(std::uint32_t pc, const sisa::DecodedInst &di)
    {
        ++lookups_;
        Prediction p;
        if (di.isCondBranch()) {
            p.taken = counters_[tableIndex(pc)] >= 2;
            p.target = p.taken ? di.branchTarget(pc) : pc + 4;
        } else if (di.op == sisa::Opcode::JAL) {
            p.taken = true;
            p.target = di.branchTarget(pc);
        } else if (di.op == sisa::Opcode::JR) {
            p.taken = true;
            if (di.a == 31 && rasTop_ > 0) {
                p.target = ras_[--rasTop_ & rasMask_];
            } else {
                const std::uint32_t slot = btbIndex(pc);
                p.target =
                    btbTags_[slot] == pc ? btbTargets_[slot] : pc + 4;
            }
        }
        return p;
    }

    /**
     * Train on the resolved outcome. Used by the detailed core after
     * every executed branch and by functional warming in program
     * order (WarmingMode::BpredOnly / Functional).
     */
    void
    update(std::uint32_t pc, const sisa::DecodedInst &di, bool taken,
           std::uint32_t target)
    {
        if (di.isCondBranch()) {
            std::uint8_t &ctr = counters_[tableIndex(pc)];
            if (taken && ctr < 3)
                ++ctr;
            else if (!taken && ctr > 0)
                --ctr;
            history_ = (history_ << 1) | (taken ? 1u : 0u);
        } else if (di.op == sisa::Opcode::JAL && di.a != 0) {
            ras_[rasTop_++ & rasMask_] = pc + 4;
        } else if (di.op == sisa::Opcode::JR) {
            const std::uint32_t slot = btbIndex(pc);
            btbTags_[slot] = pc;
            btbTargets_[slot] = target;
        }
    }

    /**
     * Pop the return-address stack without a prediction. Functional
     * warming uses this for returns so the RAS depth tracks what
     * the detailed core's predict() would have done.
     */
    void
    popReturn()
    {
        if (rasTop_ > 0)
            --rasTop_;
    }

    void
    reset()
    {
        std::fill(counters_.begin(), counters_.end(), 1);
        std::fill(btbTags_.begin(), btbTags_.end(), 0);
        std::fill(btbTargets_.begin(), btbTargets_.end(), 0);
        history_ = 0;
        rasTop_ = 0;
        lookups_ = 0;
    }

    void
    saveState(BranchUnitState &state) const
    {
        state.counters = counters_;
        state.btbTags = btbTags_;
        state.btbTargets = btbTargets_;
        state.ras = ras_;
        state.history = history_;
        state.rasTop = rasTop_;
        state.lookups = lookups_;
    }

    void
    restoreState(const BranchUnitState &state)
    {
        if (state.counters.size() != counters_.size() ||
            state.btbTags.size() != btbTags_.size() ||
            state.ras.size() != ras_.size())
            SMARTS_FATAL("branch-unit checkpoint geometry mismatch");
        counters_ = state.counters;
        btbTags_ = state.btbTags;
        btbTargets_ = state.btbTargets;
        ras_ = state.ras;
        history_ = state.history;
        rasTop_ = state.rasTop;
        lookups_ = state.lookups;
    }

    std::uint64_t lookups() const { return lookups_; }
    const BpredConfig &config() const { return config_; }

  private:
    std::uint32_t
    tableIndex(std::uint32_t pc) const
    {
        return ((pc >> 2) ^ history_) & tableMask_;
    }

    std::uint32_t
    btbIndex(std::uint32_t pc) const
    {
        return (pc >> 2) & btbMask_;
    }

    BpredConfig config_;
    std::uint32_t tableMask_ = 0; ///< 2^historyBits - 1.
    std::uint32_t btbMask_ = 0;   ///< btbEntries - 1 (a power of two).
    std::uint32_t rasMask_ = 0;   ///< rasEntries - 1 (a power of two).
    std::vector<std::uint8_t> counters_;
    std::vector<std::uint32_t> btbTags_;
    std::vector<std::uint32_t> btbTargets_;
    std::vector<std::uint32_t> ras_;
    std::uint32_t history_ = 0;
    std::uint32_t rasTop_ = 0;
    std::uint64_t lookups_ = 0;
};

} // namespace smarts::bpred

#endif // SMARTS_BPRED_BRANCH_UNIT_HH
