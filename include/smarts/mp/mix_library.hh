/**
 * @file
 * MixLibrary: the checkpoint library of a CO-RUN (mp::MixSession)
 * sampling run — core::ShardLibrary over MixCheckpoint, with
 * positions counted in ROUNDS. The lifecycle, the shard plan (a
 * round is to a mix what an instruction is to a solo run), the
 * capture pass and the `.smck` container codec
 * (docs/checkpoint-format.md) are the solo library's own; this
 * flavor adds only flavor byte 1, the mix identity block (policy and
 * program list) and a program-count check per checkpoint — so one
 * CheckpointStore serves both tiers, and a mis-flavored load refuses
 * by name from either loader.
 */

#ifndef SMARTS_MP_MIX_LIBRARY_HH
#define SMARTS_MP_MIX_LIBRARY_HH

#include <cstdint>
#include <string>

#include "core/checkpoint.hh"
#include "mp/mix_session.hh"

namespace smarts::mp {

/** Full warm co-run state, resumable into a same-mix MixSession. */
struct MixCheckpoint
{
    MixState state;

    /** Round position the checkpoint resumes at. */
    std::uint64_t position = 0;

    /** First measured grid index of the shard this resume feeds. */
    std::uint64_t unitIndex = 0;

    /** A mix library's file must match the whole mix, not just the key. */
    using Key = MixKey;
    static constexpr std::uint8_t kFlavor = core::kCheckpointFlavorMix;

    std::size_t
    byteSize() const
    {
        return state.byteSize() + 2 * sizeof(std::uint64_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(position);
        out.u64(unitIndex);
        state.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        position = in.u64();
        unitIndex = in.u64();
        state.read(in);
    }

    void
    snap(const MixSession &session)
    {
        session.saveState(state);
    }

    /** The mix identity block: partition policy, then every program. */
    static void writeIdentity(const MixKey &key, util::BinaryWriter &out);

    /** Empty when the block matches @p expect's mix, else the refusal. */
    static std::string readIdentity(util::BinaryReader &in,
                                    const MixKey &expect);

    /** Empty unless the state's program count differs from the mix's. */
    std::string check(const MixKey &key) const;
};

/**
 * The shard plan plus every captured co-run resume checkpoint of one
 * (mix, machine, sampling design), keyed by mixKey(mix, machine,
 * sampling).
 */
using MixLibrary = core::ShardLibrary<MixCheckpoint>;

} // namespace smarts::mp

#endif // SMARTS_MP_MIX_LIBRARY_HH
