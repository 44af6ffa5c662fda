#include "mp/mix_library.hh"

#include "util/logging.hh"

namespace smarts::mp {

void
MixCheckpoint::writeIdentity(const MixKey &key, util::BinaryWriter &out)
{
    const WorkloadMix &mix = key.mix;
    // The co-run state depends on EVERY program's stream and on the
    // partition policy, so both are part of what a loader must match
    // before resuming.
    out.u8(static_cast<std::uint8_t>(mix.policy));
    out.u32(static_cast<std::uint32_t>(mix.programs.size()));
    for (const workloads::BenchmarkSpec &spec : mix.programs) {
        out.str(spec.name);
        out.u32(static_cast<std::uint32_t>(spec.kernel));
        out.u32(spec.variant);
        out.u64(spec.seed);
        out.u32(static_cast<std::uint32_t>(spec.scale));
    }
}

std::string
MixCheckpoint::readIdentity(util::BinaryReader &in,
                            const MixKey &expectKey)
{
    const WorkloadMix &expect = expectKey.mix;
    const auto policy = static_cast<mem::PartitionPolicy>(in.u8());
    const std::uint32_t programCount = in.u32();
    if (in.failed() || programCount > in.remaining())
        return log::format(" is corrupt (program count ", programCount,
                           ")");
    if (policy != expect.policy ||
        programCount != expect.programs.size())
        return log::format(
            ": mix mismatch (file: ", programCount, " programs, policy ",
            mem::partitionPolicyName(policy), "; expected: ",
            expect.programs.size(), " programs, policy ",
            mem::partitionPolicyName(expect.policy), ")");
    for (std::uint32_t p = 0; p < programCount; ++p) {
        workloads::BenchmarkSpec spec;
        spec.name = in.str();
        spec.kernel = static_cast<workloads::Kernel>(in.u32());
        spec.variant = in.u32();
        spec.seed = in.u64();
        spec.scale = static_cast<workloads::Scale>(in.u32());
        const workloads::BenchmarkSpec &want = expect.programs[p];
        if (spec.name != want.name || spec.kernel != want.kernel ||
            spec.variant != want.variant || spec.seed != want.seed ||
            spec.scale != want.scale)
            return log::format(": mix mismatch (program ", p, " is ",
                               spec.name, ", expected ", want.name,
                               ")");
    }
    return {};
}

std::string
MixCheckpoint::check(const MixKey &key) const
{
    const std::size_t programs = key.mix.programs.size();
    if (state.archs.size() == programs && state.lanes.size() == programs)
        return {};
    return log::format("carries ", state.archs.size(),
                       " programs for a ", programs, "-program mix");
}

} // namespace smarts::mp
