#include "core/session.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::core {

SimSession::SimSession(const workloads::BenchmarkSpec &spec,
                       const uarch::MachineConfig &config)
    : arch_(spec), model_(config)
{
}

std::uint64_t
SimSession::fastForward(std::uint64_t maxInsts, WarmingMode mode)
{
    return withWarmingMode(mode, [&](auto m) {
        return arch_.run(maxInsts,
                         TimingModel::WarmSink<decltype(m)::value>{model_});
    });
}

std::uint64_t
SimSession::warmAsDetailed(std::uint64_t maxInsts)
{
    return arch_.run(maxInsts, TimingModel::WarmDetailedSink{model_});
}

Segment
SimSession::detailedRun(std::uint64_t maxInsts)
{
    const TimingModel::SegmentMark mark = model_.beginSegment();
    const std::uint64_t executed =
        arch_.run(maxInsts, TimingModel::DetailedSink{model_});
    return model_.endSegment(mark, executed);
}

std::vector<std::vector<double>>
SimSession::profileBbvs(std::uint64_t intervalSize, std::size_t dims)
{
    if (!intervalSize || !dims)
        SMARTS_FATAL("profileBbvs needs nonzero interval and dims");

    auto bucket = [dims](std::uint32_t blockPc) {
        return static_cast<std::size_t>(mix64(blockPc) % dims);
    };

    // Basic blocks end at branches; a block still open at an
    // interval boundary is split there.
    struct BlockSink
    {
        std::vector<double> &current;
        decltype(bucket) &bucketOf;
        std::uint32_t blockStart;
        double blockLen = 0;

        void fetch(std::uint32_t) { ++blockLen; }
        void load(std::uint32_t) {}
        void store(std::uint32_t) {}

        void
        branch(std::uint32_t, const sisa::DecodedInst &, bool,
               std::uint32_t nextPc)
        {
            current[bucketOf(blockStart)] += blockLen;
            blockStart = nextPc;
            blockLen = 0;
        }
    };

    std::vector<std::vector<double>> intervals;
    std::vector<double> current(dims, 0.0);
    BlockSink sink{current, bucket, arch_.pc()};
    // A final partial interval is dropped.
    while (arch_.run(intervalSize, sink) == intervalSize) {
        current[bucket(sink.blockStart)] += sink.blockLen;
        sink.blockLen = 0;
        sink.blockStart = arch_.pc();
        for (double &x : current)
            x /= static_cast<double>(intervalSize);
        intervals.push_back(current);
        std::fill(current.begin(), current.end(), 0.0);
    }
    return intervals;
}

} // namespace smarts::core
