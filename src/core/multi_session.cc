#include "core/multi_session.hh"

#include "util/logging.hh"

namespace smarts::core {

MultiSession::MultiSession(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs)
    : arch_(spec)
{
    if (configs.empty())
        SMARTS_FATAL("MultiSession needs at least one machine config");
    models_.reserve(configs.size());
    for (const auto &config : configs)
        models_.emplace_back(config);
}

namespace {

/** ArchCore::run sink handing each event to every model's sink. */
template <typename ModelSink>
struct EachModel
{
    std::vector<TimingModel> &models;

    void
    fetch(std::uint32_t pc)
    {
        for (TimingModel &m : models)
            ModelSink{m}.fetch(pc);
    }

    void
    load(std::uint32_t addr)
    {
        for (TimingModel &m : models)
            ModelSink{m}.load(addr);
    }

    void
    store(std::uint32_t addr)
    {
        for (TimingModel &m : models)
            ModelSink{m}.store(addr);
    }

    void
    branch(std::uint32_t pc, const sisa::DecodedInst &di, bool taken,
           std::uint32_t nextPc)
    {
        for (TimingModel &m : models)
            ModelSink{m}.branch(pc, di, taken, nextPc);
    }
};

} // namespace

std::uint64_t
MultiSession::fastForward(std::uint64_t maxInsts, WarmingMode mode)
{
    return withWarmingMode(mode, [&](auto m) {
        using Sink = TimingModel::WarmSink<decltype(m)::value>;
        return arch_.run(maxInsts, EachModel<Sink>{models_});
    });
}

std::uint64_t
MultiSession::warmAsDetailed(std::uint64_t maxInsts)
{
    return arch_.run(
        maxInsts, EachModel<TimingModel::WarmDetailedSink>{models_});
}

void
MultiSession::saveState(ArchState &arch,
                        std::vector<TimingState> &timings) const
{
    arch_.saveState(arch);
    timings.resize(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i)
        models_[i].saveState(timings[i]);
}

MultiSegment
MultiSession::detailedRun(std::uint64_t maxInsts)
{
    std::vector<TimingModel::SegmentMark> marks;
    marks.reserve(models_.size());
    for (const TimingModel &model : models_)
        marks.push_back(model.beginSegment());

    const std::uint64_t executed = arch_.run(
        maxInsts, EachModel<TimingModel::DetailedSink>{models_});

    MultiSegment seg;
    seg.instructions = executed;
    seg.per.reserve(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i)
        seg.per.push_back(models_[i].endSegment(marks[i], executed));
    return seg;
}

} // namespace smarts::core
