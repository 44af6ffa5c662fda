/**
 * @file
 * Set-associative write-allocate cache with true-LRU replacement.
 * This is the long-history microarchitectural state functional
 * warming must maintain (paper Section 4.4): the same object is
 * updated by warm accesses (no timing) and detailed accesses
 * (timing charged by the hierarchy).
 */

#ifndef SMARTS_MEM_CACHE_HH
#define SMARTS_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::mem {

struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 64;
    std::uint32_t latency = 1;
};

constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v && !(v & (v - 1));
}

constexpr std::uint32_t
log2Exact(std::uint32_t v)
{
    std::uint32_t shift = 0;
    while ((1u << shift) < v)
        ++shift;
    return shift;
}

/**
 * Empty when @p config is a geometry Cache can index with shifts
 * and masks: nonzero power-of-two line size, and a size that splits
 * into a nonzero power-of-two number of @p config.assoc -way sets.
 * Otherwise, why not.
 */
inline std::string
validateCacheConfig(const CacheConfig &config)
{
    if (!isPowerOfTwo(config.lineBytes))
        return log::format("line size ", config.lineBytes,
                           "B is not a nonzero power of two");
    if (!config.assoc)
        return "associativity is 0";
    const std::uint64_t setBytes =
        std::uint64_t(config.assoc) * config.lineBytes;
    if (!config.sizeBytes || config.sizeBytes % setBytes)
        return log::format("size ", config.sizeBytes,
                           "B is not divisible into ", config.assoc,
                           "-way sets of ", config.lineBytes,
                           "B lines");
    if (!isPowerOfTwo(config.sizeBytes / setBytes))
        return log::format("set count ", config.sizeBytes / setBytes,
                           " is not a power of two");
    return {};
}

/**
 * The set scan Cache and SharedCache share, over one set's @p n
 * ways. Branch-free: every way is tested, and a conditional move
 * keeps the answer.
 */
struct WayScan
{
    /** First way whose @p hit(w) holds, or @p n when none does. */
    template <typename Hit>
    static std::uint32_t
    firstHit(std::uint32_t n, Hit &&hit)
    {
        std::uint32_t way = n;
        for (std::uint32_t w = n; w-- > 0;)
            way = hit(w) ? w : way;
        return way;
    }

    /**
     * The LRU way in [@p lo, @p hi) of @p lastUse: the first way
     * holding the minimum recency stamp.
     */
    static std::uint32_t
    lru(const std::uint64_t *lastUse, std::uint32_t lo,
        std::uint32_t hi)
    {
        std::uint32_t victim = lo;
        std::uint64_t oldest = lastUse[lo];
        for (std::uint32_t w = lo + 1; w < hi; ++w) {
            const bool older = lastUse[w] < oldest;
            oldest = older ? lastUse[w] : oldest;
            victim = older ? w : victim;
        }
        return victim;
    }
};

struct AccessResult
{
    bool hit = false;
};

/**
 * Serialized cache contents for checkpointing (core/checkpoint.hh):
 * the full tag/valid/recency image plus the event counters, enough
 * to resume a warm cache bit-exactly.
 */
struct CacheState
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint64_t> lastUse;
    std::vector<std::uint32_t> mruWay;
    std::uint64_t tick = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t misses = 0;

    std::size_t
    byteSize() const
    {
        return tags.size() * sizeof(std::uint32_t) + valid.size() +
               lastUse.size() * sizeof(std::uint64_t) +
               mruWay.size() * sizeof(std::uint32_t) +
               4 * sizeof(std::uint64_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.vecU32(tags);
        out.vecU8(valid);
        out.vecU64(lastUse);
        out.vecU32(mruWay);
        out.u64(tick);
        out.u64(loads);
        out.u64(stores);
        out.u64(misses);
    }

    void
    read(util::BinaryReader &in)
    {
        tags = in.vecU32();
        valid = in.vecU8();
        lastUse = in.vecU64();
        mruWay = in.vecU32();
        tick = in.u64();
        loads = in.u64();
        stores = in.u64();
        misses = in.u64();
    }
};

class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config)
        : name_(std::move(name)), config_(config)
    {
        const std::string why = validateCacheConfig(config);
        if (!why.empty())
            SMARTS_FATAL("cache '", name_, "': ", why);
        sets_ = config.sizeBytes / (config.assoc * config.lineBytes);
        setMask_ = sets_ - 1;
        lineShift_ = log2Exact(config.lineBytes);
        tags_.assign(static_cast<std::size_t>(sets_) * config.assoc, 0);
        valid_.assign(tags_.size(), 0);
        lastUse_.assign(tags_.size(), 0);
        mruWay_.assign(sets_, 0);
    }

    /**
     * Look up @p addr, fill on miss, update LRU. @p write is
     * recorded for the store counters only: allocation policy is
     * identical for loads and stores.
     */
    AccessResult
    access(std::uint32_t addr, bool write)
    {
        ++(write ? stores_ : loads_);
        const std::uint32_t line = addr >> lineShift_;
        const std::uint32_t set = line & setMask_;
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.assoc;
        ++tick_;

        // MRU fast path: a re-reference of the set's most recent
        // line needs only its recency stamp refreshed. Exactly
        // equivalent to the full scan (a hit never changes victims).
        const std::size_t mru = base + mruWay_[set];
        if (valid_[mru] && tags_[mru] == line) {
            lastUse_[mru] = tick_;
            return {true};
        }

        // A hit needs tag AND valid: reset() leaves stale tags.
        const std::uint32_t *tags = tags_.data() + base;
        const std::uint8_t *valid = valid_.data() + base;
        std::uint32_t way =
            WayScan::firstHit(config_.assoc, [&](std::uint32_t w) {
                return (valid[w] != 0) & (tags[w] == line);
            });
        const bool hit = way != config_.assoc;
        if (!hit) {
            way = WayScan::lru(lastUse_.data() + base, 0,
                               config_.assoc);
            ++misses_;
            tags_[base + way] = line;
            valid_[base + way] = 1;
        }
        lastUse_[base + way] = tick_;
        mruWay_[set] = way;
        return {hit};
    }

    /** Hit check without any state update. */
    bool
    probe(std::uint32_t addr) const
    {
        const std::uint32_t line = addr >> lineShift_;
        const std::size_t base =
            static_cast<std::size_t>(line & setMask_) * config_.assoc;
        for (std::size_t w = base; w < base + config_.assoc; ++w)
            if (valid_[w] && tags_[w] == line)
                return true;
        return false;
    }

    void
    reset()
    {
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(lastUse_.begin(), lastUse_.end(), 0);
        std::fill(mruWay_.begin(), mruWay_.end(), 0);
        tick_ = loads_ = stores_ = misses_ = 0;
    }

    void
    saveState(CacheState &state) const
    {
        state.tags = tags_;
        state.valid = valid_;
        state.lastUse = lastUse_;
        state.mruWay = mruWay_;
        state.tick = tick_;
        state.loads = loads_;
        state.stores = stores_;
        state.misses = misses_;
    }

    void
    restoreState(const CacheState &state)
    {
        if (state.tags.size() != tags_.size() ||
            state.mruWay.size() != mruWay_.size())
            SMARTS_FATAL("cache '", name_,
                         "': checkpoint geometry mismatch");
        tags_ = state.tags;
        valid_ = state.valid;
        lastUse_ = state.lastUse;
        mruWay_ = state.mruWay;
        tick_ = state.tick;
        loads_ = state.loads;
        stores_ = state.stores;
        misses_ = state.misses;
    }

    const std::string &name() const { return name_; }
    const CacheConfig &config() const { return config_; }
    std::uint64_t accesses() const { return loads_ + stores_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::string name_;
    CacheConfig config_;
    std::uint32_t sets_ = 1;
    std::uint32_t setMask_ = 0; ///< sets_ - 1 (sets_ is 2^k).
    std::uint32_t lineShift_ = 6;
    std::vector<std::uint32_t> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> mruWay_; ///< per-set MRU fast path.
    std::uint64_t tick_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smarts::mem

#endif // SMARTS_MEM_CACHE_HH
