/**
 * @file
 * Property test for the execution core: ArchCore::run with each
 * mode's sink (core/timing.hh) must leave exactly the state, and
 * measure exactly the segments, of a reference loop that steps one
 * instruction at a time (ArchCore::step) and hands each StepInfo to
 * the same mode's sink event by event. Runs are split at
 * seeded random chunk boundaries (1, 2, 63, 4096, or anything up to
 * 20,000 instructions) so that resuming across calls, HALT and the
 * end of code are all exercised, for every quick-suite benchmark on
 * the 8-way, 16-way and a small-cache machine. MultiSession (two
 * configs, one stream) and profileBbvs get the same treatment. A
 * hand-written program pins the calls, returns and r0 writes that
 * no workload kernel executes.
 */

#include <cstring>
#include <vector>

#include "core/arch.hh"
#include "core/multi_session.hh"
#include "core/session.hh"
#include "core/timing.hh"
#include "sisa/encoding.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"
#include "workloads/program.hh"

#include "check.hh"

using namespace smarts;

namespace {

/** What one chunk runs: a warming mode, warm-as-detailed or detailed. */
enum class Mode
{
    None,
    CachesOnly,
    BpredOnly,
    Functional,
    WarmDetailed,
    Detailed,
    kCount,
};

constexpr int kModes = static_cast<int>(Mode::kCount);

core::WarmingMode
warmingOf(Mode mode)
{
    switch (mode) {
      case Mode::CachesOnly: return core::WarmingMode::CachesOnly;
      case Mode::BpredOnly: return core::WarmingMode::BpredOnly;
      case Mode::Functional: return core::WarmingMode::Functional;
      default: return core::WarmingMode::None;
    }
}

uarch::MachineConfig
smallCacheMachine()
{
    // Caches and predictor shrunk to a few KB: every level misses
    // and evicts constantly, and the RAS wraps.
    auto config = uarch::MachineConfig::eightWay();
    config.name = "small";
    config.mem.l1i = {1024, 2, 64, 1};
    config.mem.l1d = {1024, 2, 64, 2};
    config.mem.l2 = {4096, 4, 64, 12};
    config.mem.itlb = {4, 4096, 30};
    config.mem.dtlb = {8, 4096, 30};
    config.bpred = {8, 64, 4};
    return config;
}

std::vector<std::uint8_t>
stateBytes(const core::ArchState &arch, const core::TimingState &timing)
{
    util::BinaryWriter out;
    arch.write(out);
    timing.write(out);
    return out.buffer();
}

bool
sameSegment(const core::Segment &a, const core::Segment &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           std::memcmp(&a.energyNj, &b.energyNj, sizeof(double)) == 0;
}

/** Chunk lengths: the edge sizes often, anything up to 20k otherwise. */
std::uint64_t
chunkLength(Xoshiro256StarStar &rng)
{
    static constexpr std::uint64_t kEdges[] = {1, 2, 63, 4096};
    const std::uint64_t pick = rng.below(8);
    return pick < 4 ? kEdges[pick] : 1 + rng.below(20000);
}

/**
 * Feed one stepped instruction to @p sink as ArchCore::run would
 * have: fetch first, then the event its class raises.
 */
template <typename Sink>
void
replay(Sink &&sink, const core::StepInfo &info)
{
    sink.fetch(info.pc);
    if (info.di.isLoad())
        sink.load(info.memAddr);
    else if (info.di.isStore())
        sink.store(info.memAddr);
    else if (info.di.isBranch())
        sink.branch(info.pc, info.di, info.taken, info.nextPc);
}

/** The reference: one ArchCore::step at a time into one model. */
struct Reference
{
    Reference(const workloads::BenchmarkSpec &spec,
              const uarch::MachineConfig &config)
        : arch(spec), model(config)
    {
    }

    core::Segment
    run(Mode mode, std::uint64_t maxInsts)
    {
        const core::TimingModel::SegmentMark mark = model.beginSegment();
        std::uint64_t executed = 0;
        core::StepInfo info;
        while (executed < maxInsts && arch.step(info)) {
            ++executed;
            if (mode == Mode::Detailed)
                replay(core::TimingModel::DetailedSink{model}, info);
            else if (mode == Mode::WarmDetailed)
                replay(core::TimingModel::WarmDetailedSink{model}, info);
            else
                core::withWarmingMode(warmingOf(mode), [&](auto m) {
                    using Sink =
                        core::TimingModel::WarmSink<decltype(m)::value>;
                    replay(Sink{model}, info);
                });
        }
        if (mode == Mode::Detailed)
            return model.endSegment(mark, executed);
        core::Segment seg;
        seg.instructions = executed;
        return seg;
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        core::ArchState a;
        core::TimingState t;
        arch.saveState(a);
        model.saveState(t);
        return stateBytes(a, t);
    }

    core::ArchCore arch;
    core::TimingModel model;
};

core::Segment
runSession(core::SimSession &session, Mode mode, std::uint64_t maxInsts)
{
    if (mode == Mode::Detailed)
        return session.detailedRun(maxInsts);
    core::Segment seg;
    seg.instructions = mode == Mode::WarmDetailed
                           ? session.warmAsDetailed(maxInsts)
                           : session.fastForward(maxInsts,
                                                 warmingOf(mode));
    return seg;
}

std::vector<std::uint8_t>
sessionBytes(const core::SimSession &session)
{
    core::ArchState a;
    core::TimingState t;
    session.saveState(a, t);
    return stateBytes(a, t);
}

/**
 * Run @p session and @p ref side by side in random chunks until
 * @p budget instructions ran or the stream ended (then once more,
 * which must execute nothing). @p fixed < kModes pins every chunk
 * to that mode; otherwise each chunk draws one. False on the first
 * disagreement.
 */
bool
lockstep(core::SimSession &session, Reference &ref, int fixed,
         std::uint64_t budget, Xoshiro256StarStar &rng)
{
    std::uint64_t done = 0;
    bool ended = false;
    while (!ended && done < budget) {
        const Mode mode = static_cast<Mode>(
            fixed < kModes ? fixed : static_cast<int>(rng.below(kModes)));
        const std::uint64_t n = chunkLength(rng);
        const core::Segment got = runSession(session, mode, n);
        const core::Segment want = ref.run(mode, n);
        if (!sameSegment(got, want))
            return false;
        done += got.instructions;
        ended = got.instructions < n;
    }
    if (ended && (session.fastForward(1, core::WarmingMode::None) ||
                  ref.run(Mode::None, 1).instructions))
        return false;
    return sessionBytes(session) == ref.bytes();
}

void
testSessionMatchesStepReference()
{
    const uarch::MachineConfig machines[] = {
        uarch::MachineConfig::eightWay(),
        uarch::MachineConfig::sixteenWay(), smallCacheMachine()};
    Xoshiro256StarStar rng(20031);
    for (const workloads::BenchmarkSpec &spec :
         workloads::quickSuite(workloads::Scale::Mini)) {
        // The architectural state 30k instructions before the end:
        // each pair jumps there after its prefix, so every run also
        // reaches HALT / end of code without simulating the middle.
        core::ArchState nearEnd;
        {
            core::SimSession probe(spec, machines[0]);
            const std::uint64_t length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
            core::SimSession jump(spec, machines[0]);
            jump.fastForward(length - 30'000, core::WarmingMode::None);
            core::TimingState unused;
            jump.saveState(nearEnd, unused);
        }
        for (const uarch::MachineConfig &config : machines) {
            for (int fixed = 0; fixed <= kModes; ++fixed) {
                core::SimSession session(spec, config);
                Reference ref(spec, config);
                bool ok = lockstep(session, ref, fixed, 60'000, rng);

                core::ArchState arch;
                core::TimingState timing;
                session.saveState(arch, timing);
                session.restoreState(nearEnd, timing);
                ref.arch.restoreState(nearEnd);
                ref.model.restoreState(timing);
                ok = ok && lockstep(session, ref, fixed, ~0ull, rng);
                ok = ok && session.finished() && ref.arch.finished();
                CHECK(ok);
                if (!ok)
                    std::fprintf(stderr,
                                 "  %s on %s, mode %d (%d = mixed)\n",
                                 spec.name.c_str(), config.name.c_str(),
                                 fixed, kModes);
            }
        }
    }
}

void
testMultiSessionMatchesStepReference()
{
    const std::vector<uarch::MachineConfig> configs = {
        uarch::MachineConfig::eightWay(), smallCacheMachine()};
    Xoshiro256StarStar rng(4242);
    for (const workloads::BenchmarkSpec &spec :
         workloads::quickSuite(workloads::Scale::Mini)) {
        core::MultiSession multi(spec, configs);
        std::vector<Reference> refs;
        for (const uarch::MachineConfig &config : configs)
            refs.emplace_back(spec, config);

        bool ok = true;
        std::uint64_t done = 0;
        while (ok && done < 80'000) {
            const Mode mode = static_cast<Mode>(rng.below(kModes));
            const std::uint64_t n = chunkLength(rng);
            std::vector<core::Segment> got(configs.size());
            if (mode == Mode::Detailed) {
                const core::MultiSegment seg = multi.detailedRun(n);
                got = seg.per;
                for (const core::Segment &s : got)
                    ok = ok && s.instructions == seg.instructions;
            } else {
                const std::uint64_t executed =
                    mode == Mode::WarmDetailed
                        ? multi.warmAsDetailed(n)
                        : multi.fastForward(n, warmingOf(mode));
                for (core::Segment &s : got)
                    s.instructions = executed;
            }
            for (std::size_t i = 0; i < refs.size(); ++i) {
                // Every reference steps its own copy of the stream.
                ok = ok && sameSegment(got[i], refs[i].run(mode, n));
            }
            done += got[0].instructions;
        }

        core::ArchState arch;
        std::vector<core::TimingState> timings;
        multi.saveState(arch, timings);
        for (std::size_t i = 0; i < refs.size(); ++i)
            ok = ok && stateBytes(arch, timings[i]) == refs[i].bytes();
        CHECK(ok);
        if (!ok)
            std::fprintf(stderr, "  MultiSession diverged on %s\n",
                         spec.name.c_str());
    }
}

/** Every sink event, flattened, for comparing two runs. */
struct Recorder
{
    std::vector<std::uint64_t> events;

    void fetch(std::uint32_t pc) { events.push_back(pc); }
    void load(std::uint32_t addr) { events.push_back(1ull << 32 | addr); }
    void store(std::uint32_t addr) { events.push_back(2ull << 32 | addr); }

    void
    branch(std::uint32_t pc, const sisa::DecodedInst &, bool taken,
           std::uint32_t nextPc)
    {
        events.push_back((taken ? 4ull : 3ull) << 32 | pc);
        events.push_back(nextPc);
    }
};

workloads::Program
programOf(const std::vector<std::uint32_t> &code)
{
    workloads::Program program;
    program.code = code;
    program.dataBytes = 64;
    program.data.assign(16, 0);
    return program;
}

/**
 * The interpreter's semantics on a hand-written program, since no
 * workload kernel calls or returns: JAL with and without a link,
 * JR through the link, signed and equal/unequal branches, writes to
 * r0 discarded, a store/load round trip, then HALT; and a program
 * that ends by running off the end of its code. run() in one call,
 * run() one instruction at a time and step() must agree.
 */
void
testInterpreterSemantics()
{
    using sisa::Opcode;
    auto op = [](Opcode o, unsigned a, unsigned b, unsigned c, int imm) {
        return sisa::encode(o, a, b, c, imm);
    };
    const std::uint32_t base = workloads::kCodeBase;
    const std::vector<std::uint32_t> code = {
        op(Opcode::LUI, 4, 0, 0, 0x0100),  // 0: r4 = kDataBase
        op(Opcode::ADDI, 1, 0, 0, 5),      // 1: r1 = 5
        op(Opcode::ADDI, 0, 0, 0, 7),      // 2: r0 stays 0
        op(Opcode::ADD, 2, 0, 1, 0),       // 3: r2 = r0 + r1
        op(Opcode::JAL, 31, 0, 0, 12),     // 4: call 7, r31 = 5
        op(Opcode::JAL, 0, 0, 0, 20),      // 5: jump to 10, no link
        op(Opcode::HALT, 0, 0, 0, 0),      // 6: skipped
        op(Opcode::ST, 2, 4, 0, 4),        // 7: data[1] = r2
        op(Opcode::LD, 3, 4, 0, 4),        // 8: r3 = data[1]
        op(Opcode::JR, 31, 0, 0, 0),       // 9: return to 5
        op(Opcode::ADDI, 5, 0, 0, -1),     // 10: r5 = -1
        op(Opcode::BLT, 5, 0, 0, 8),       // 11: -1 < 0: to 13
        op(Opcode::HALT, 0, 0, 0, 0),      // 12: skipped
        op(Opcode::BEQ, 1, 2, 0, 8),       // 13: 5 == 5: to 15
        op(Opcode::HALT, 0, 0, 0, 0),      // 14: skipped
        op(Opcode::BNE, 1, 2, 0, 8),       // 15: not taken
        op(Opcode::SHLI, 6, 1, 0, 3),      // 16: r6 = 40
        op(Opcode::HALT, 0, 0, 0, 0),      // 17: stop here
    };

    core::ArchCore whole(programOf(code));
    Recorder wholeEvents;
    CHECK_EQ(whole.run(1000, wholeEvents), std::uint64_t(14));
    CHECK(whole.finished());
    CHECK_EQ(whole.run(1000, wholeEvents), std::uint64_t(0));

    core::ArchCore single(programOf(code));
    Recorder singleEvents;
    while (single.run(1, singleEvents) == 1) {
    }
    core::ArchCore stepped(programOf(code));
    Recorder stepEvents;
    core::StepInfo info;
    while (stepped.step(info))
        replay(stepEvents, info);
    CHECK(wholeEvents.events == singleEvents.events);
    CHECK(wholeEvents.events == stepEvents.events);

    const std::vector<std::uint64_t> branches = {
        4ull << 32 | (base + 16), base + 28, // JAL r31 -> 7
        4ull << 32 | (base + 36), base + 20, // JR r31 -> 5
        4ull << 32 | (base + 20), base + 40, // JAL r0 -> 10
        4ull << 32 | (base + 44), base + 52, // BLT taken
        4ull << 32 | (base + 52), base + 60, // BEQ taken
        3ull << 32 | (base + 60), base + 64, // BNE not taken
    };
    std::vector<std::uint64_t> seen;
    for (std::size_t i = 0; i < wholeEvents.events.size(); ++i) {
        const std::uint64_t kind = wholeEvents.events[i] >> 32;
        if (kind == 1 || kind == 2)
            CHECK_EQ(wholeEvents.events[i] & 0xffffffffu,
                     std::uint64_t(workloads::kDataBase + 4));
        if (kind >= 3) {
            seen.push_back(wholeEvents.events[i]);
            seen.push_back(wholeEvents.events[++i]);
        }
    }
    CHECK(seen == branches);

    for (const core::ArchCore *core : {&whole, &single, &stepped}) {
        core::ArchState state;
        core->saveState(state);
        CHECK_EQ(state.regs[0], 0u);
        CHECK_EQ(state.regs[1], 5u);
        CHECK_EQ(state.regs[2], 5u);
        CHECK_EQ(state.regs[3], 5u);
        CHECK_EQ(state.regs[4], workloads::kDataBase);
        CHECK_EQ(state.regs[5], 0xffffffffu);
        CHECK_EQ(state.regs[6], 40u);
        CHECK_EQ(state.regs[31], base + 20);
        CHECK_EQ(state.data[1], 5u);
        CHECK_EQ(state.pc, base + 17 * 4);
        CHECK_EQ(state.instCount, std::uint64_t(14));
        CHECK(state.finished);
    }

    // No HALT: the stream ends when the PC leaves the code.
    core::ArchCore runsOff(programOf({op(Opcode::ADDI, 1, 0, 0, 1),
                                      op(Opcode::ADDI, 1, 1, 0, 1)}));
    Recorder none;
    CHECK_EQ(runsOff.run(10, none), std::uint64_t(2));
    CHECK(runsOff.finished());
    CHECK_EQ(runsOff.pc(), base + 8);
    CHECK_EQ(runsOff.run(10, none), std::uint64_t(0));
}

/** profileBbvs as a step loop: basic blocks end at branches. */
std::vector<std::vector<double>>
referenceBbvs(core::ArchCore &arch, std::uint64_t intervalSize,
              std::size_t dims)
{
    auto bucket = [dims](std::uint32_t blockPc) {
        return static_cast<std::size_t>(mix64(blockPc) % dims);
    };
    std::vector<std::vector<double>> intervals;
    std::vector<double> current(dims, 0.0);
    std::uint64_t inInterval = 0;
    std::uint32_t blockStart = arch.pc();
    double blockLen = 0;
    core::StepInfo info;
    while (arch.step(info)) {
        ++blockLen;
        ++inInterval;
        if (info.di.isBranch()) {
            current[bucket(blockStart)] += blockLen;
            blockStart = info.nextPc;
            blockLen = 0;
        }
        if (inInterval == intervalSize) {
            current[bucket(blockStart)] += blockLen;
            blockLen = 0;
            blockStart = arch.pc();
            for (double &x : current)
                x /= static_cast<double>(intervalSize);
            intervals.push_back(current);
            std::fill(current.begin(), current.end(), 0.0);
            inInterval = 0;
        }
    }
    return intervals;
}

void
testProfileBbvsMatchesStepReference()
{
    const std::uint64_t intervals[] = {63, 1000, 4096, 100'003};
    std::size_t i = 0;
    for (const workloads::BenchmarkSpec &spec :
         workloads::quickSuite(workloads::Scale::Mini)) {
        const std::uint64_t interval = intervals[i++ % 4];
        const std::size_t dims = 5 + i;
        core::SimSession session(spec, uarch::MachineConfig::eightWay());
        core::ArchCore arch(spec);
        const auto got = session.profileBbvs(interval, dims);
        const auto want = referenceBbvs(arch, interval, dims);
        CHECK(!got.empty());
        CHECK(got == want);
        CHECK(session.finished());
    }
}

} // namespace

int
main()
{
    testSessionMatchesStepReference();
    testMultiSessionMatchesStepReference();
    testProfileBbvsMatchesStepReference();
    testInterpreterSemantics();
    TEST_MAIN_SUMMARY();
}
