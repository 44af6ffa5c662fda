/**
 * @file
 * Live-points: one checkpoint per MEASURED SAMPLING UNIT, captured
 * in a single streaming pass. Where a shard checkpoint
 * (core/checkpoint.hh) resumes a contiguous slice of the unit grid
 * — so a resumed shard still pays functional warming from its
 * boundary to each of its units — a live-point carries exactly the
 * warm state one (W + U) measurement needs: restore, detailed-warm
 * at most W instructions, measure U, done. Measurement cost becomes
 * proportional to the units actually measured instead of the stream
 * length, units become independently schedulable in ANY order, and
 * the fixed-n two-pass procedure turns into an anytime estimator
 * (SystematicSampler::runAnytime): measure units in seeded-shuffle
 * order, watch the streaming confidence interval, stop the moment
 * the paper's Eq. 1-3 target is met.
 *
 * Each snapshot is taken at the serial sampling loop's iteration
 * start for that unit — after the inter-unit gap is fast-forwarded,
 * before detailed warming — where the capture pass's state is
 * bit-identical to the serial run's (fastForward over gaps,
 * SimSession::warmAsDetailed over the regions the serial run
 * simulates in detail, exactly like the shard capture pass). A unit
 * measured from its live-point therefore reproduces the serial
 * run's observation bit for bit, and runAnytime driven to
 * completion folds to an estimate byte-identical to run()'s.
 *
 * A library IS its encoded record chain (version 4 of
 * docs/checkpoint-format.md, `.smlp`): each unit's raw state is
 * delta-encoded against the previous unit's (util/delta_codec.hh) as
 * it is captured — consecutive units share nearly all serialized
 * state, so hundreds of live-points cost a small multiple of one
 * full checkpoint — and every record carries an FNV-1a checksum over
 * its ENCODED bytes, so corruption anywhere in a chain is pinned to
 * the record where it breaks. save() copies the chain out and load()
 * validates it in one pass over a rolling state buffer: both cost
 * O(delta bytes), not O(state x units). In memory the chain is
 * indexed by a few full-state keyframes — a new one starts once the
 * delta bytes since the last exceed one raw state — so
 * materialize() rebuilds any unit from its keyframe by applying at
 * most one state's worth of deltas: an early-stopping study pays for
 * the units it measures, not for the grid. CheckpointStore persists
 * live-point libraries next to shard libraries under the same
 * LibraryKey geometry-hash scheme.
 */

#ifndef SMARTS_CORE_LIVEPOINT_HH
#define SMARTS_CORE_LIVEPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "util/binary_io.hh"

namespace smarts::core {

/**
 * On-disk live-point library format version (`.smlp` files).
 * Version 4 checksums each record's encoded bytes instead of its
 * decoded state. Older versions are refused with a version
 * diagnostic; the checkpoint store treats that as a miss and
 * recaptures. The flavor byte (kCheckpointFlavorSolo/Mix, after the
 * endianness marker) stays: flavor 1 (co-run mix live-points) is
 * RESERVED — no writer exists yet, and the loader refuses it by name
 * so the reservation cannot rot silently.
 */
constexpr std::uint32_t kLivePointFormatVersion = 4;

/** Warm resume state for ONE measured unit's (W + U) window. */
struct LivePoint
{
    /** Grid index (offset + m*k form) of the measured unit. */
    std::uint64_t unitIndex = 0;

    /**
     * Instruction position of the snapshot: the serial loop's
     * iteration start for this unit (at most W before the unit).
     */
    std::uint64_t position = 0;

    ArchState arch;
    TimingState timing;
};

class LivePointLibrary
{
  public:
    /**
     * Stream @p session (fresh, at stream start) through the serial
     * sampling schedule of @p config with state-equivalent warming,
     * snapshotting every measured unit's iteration start, then run
     * the stream out so streamLength() is the true dynamic length.
     * Costs roughly one functional-warming pass plus one snapshot
     * per unit.
     */
    static LivePointLibrary build(SimSession &session,
                                  const SamplingConfig &config);

    /**
     * Per-point capture hook: called with the library slot index and
     * the freshly captured point, immediately after it is appended.
     * The reference is valid ONLY for the duration of the call (the
     * capture reuses the point's storage for the next unit) — a
     * sink that hands the point to concurrent measurement work (the
     * leapfrog overlap) must copy it.
     */
    using PointSink =
        std::function<void(std::size_t, const LivePoint &)>;

    /**
     * build() with a capture hook: @p sink fires once per captured
     * live-point, in stream order, on the calling thread. This is
     * the primitive under SystematicSampler::runAnytimeLeapfrog —
     * overlap measurement of already-captured units with capture of
     * the rest.
     */
    static LivePointLibrary build(SimSession &session,
                                  const SamplingConfig &config,
                                  const PointSink &sink);

    /**
     * Multi-config capture: ONE streaming pass over @p session (N
     * configs in lockstep off the shared architectural stream)
     * yields the per-config libraries of an N-config study —
     * library c is byte-identical to what build() over a
     * single-config session of config c would have captured, at
     * roughly 1/N of the total capture cost.
     */
    static std::vector<LivePointLibrary>
    buildMulti(MultiSession &session, const SamplingConfig &config);

    /**
     * Serialize under @p key into the `.smlp` format
     * (docs/checkpoint-format.md § Live-point libraries) and publish
     * atomically at @p path. False with @p error set on filesystem
     * failure.
     */
    bool save(const LibraryKey &key, const std::string &path,
              std::string *error = nullptr,
              bool createDirs = true) const;

    /**
     * Load a library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * missing/truncated/corrupt file, a record failing its record
     * checksum or decoding to a malformed state, any format version
     * but kLivePointFormatVersion, a key whose benchmark,
     * sampling design or config geometry differs from @p expect, or
     * records off the sampling grid. Refusal is the contract: a
     * mis-keyed live-point must never silently mis-warm a unit.
     */
    static std::optional<LivePointLibrary>
    load(const std::string &path, const LibraryKey &expect,
         std::string *error = nullptr);

    /**
     * Serialize to @p out (save() = serialize + checksummed file):
     * a header plus a copy of the already-encoded chain.
     */
    void serialize(const LibraryKey &key,
                   util::BinaryWriter &out) const;

    LivePointLibrary() = default;

    const SamplingConfig &
    samplingConfig() const
    {
        return config_;
    }

    /** True dynamic stream length (the capture pass runs the tail). */
    std::uint64_t
    streamLength() const
    {
        return streamLength_;
    }

    /** Measured units on the grid — one live-point each. */
    std::size_t
    unitCount() const
    {
        return records_.size();
    }

    /**
     * One caller's walk over the chain. materialize() rebuilds a
     * unit from the nearest raw state the cursor holds: the unit it
     * built last, when that lies earlier in the same keyframe span,
     * else the unit's keyframe — then applies the deltas up to the
     * unit in place and parses. An ascending walk (a unit range, a
     * sorted batch) therefore applies each delta about once. A
     * cursor belongs to one thread and must not outlive its
     * library, which stays const and shared.
     */
    class Cursor
    {
      public:
        explicit Cursor(const LivePointLibrary &library)
            : library_(&library)
        {
        }

        /** Rebuild unit @p unit into @p out (storage reused). */
        void materialize(std::size_t unit, LivePoint &out);

      private:
        const LivePointLibrary *library_;
        bool holding_ = false;   ///< state_ holds unit_'s raw state.
        std::size_t unit_ = 0;
        std::vector<std::uint8_t> state_;
    };

    /**
     * Rebuild unit @p unit's live-point into @p out: copy its
     * keyframe, apply at most one raw state's worth of deltas in
     * place, parse. Const and thread-safe; pool jobs that measure
     * several units use one Cursor each instead.
     */
    void
    materialize(std::size_t unit, LivePoint &out) const
    {
        Cursor(*this).materialize(unit, out);
    }

    /** In-memory footprint: the encoded chain plus the keyframes. */
    std::size_t byteSize() const;

    /** Full-state keyframes indexing the chain (at least one). */
    std::size_t
    keyframeCount() const
    {
        return keyframes_.size();
    }

  private:
    /** Where record i sits in the chain, and its keyframe. */
    struct Record
    {
        std::uint64_t unitIndex = 0;
        std::uint64_t position = 0;
        std::size_t deltaAt = 0;   ///< offset of the delta in chain_.
        std::size_t deltaSize = 0;
        std::size_t keyframe = 0;  ///< index into keyframes_.
    };

    /** The full raw state of record `unit`. */
    struct Keyframe
    {
        std::size_t unit = 0;
        std::vector<std::uint8_t> state;
    };

    /** Encode @p point onto the chain (capture side). */
    void append(const LivePoint &point, util::BinaryWriter &scratch);

    /**
     * Index the record just placed on the chain, whose raw state is
     * @p state; start a keyframe there when the delta bytes since
     * the last keyframe exceed one raw state.
     */
    void indexRecord(std::uint64_t unitIndex, std::uint64_t position,
                     std::size_t deltaAt, std::size_t deltaSize,
                     const std::vector<std::uint8_t> &state);

    SamplingConfig config_;
    std::uint64_t streamLength_ = 0;
    util::BinaryWriter chain_; ///< the records, byte for byte on disk.
    std::vector<Record> records_;
    std::vector<Keyframe> keyframes_;
    std::size_t sinceKeyframe_ = 0; ///< delta bytes since the last.
    std::vector<std::uint8_t> tail_; ///< capture's last raw state.
};

} // namespace smarts::core

#endif // SMARTS_CORE_LIVEPOINT_HH
