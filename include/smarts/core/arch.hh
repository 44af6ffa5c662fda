/**
 * @file
 * ArchCore: the architectural half of a simulation session — program
 * image, register file, PC, and the SISA interpreter. One ArchCore
 * step stream is configuration-independent, which is what lets a
 * single functional-warming pass feed any number of per-config
 * timing models (core/timing.hh) in lockstep: interpret once, warm
 * and time N machines.
 */

#ifndef SMARTS_CORE_ARCH_HH
#define SMARTS_CORE_ARCH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sisa/encoding.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"
#include "workloads/program.hh"

namespace smarts::core {

/** Everything a timing model needs to know about one executed inst. */
struct StepInfo
{
    sisa::DecodedInst di;
    std::uint32_t pc = 0;      ///< pc of the executed inst.
    std::uint32_t memAddr = 0; ///< valid when di.isMem().
    bool taken = false;        ///< valid when di.isBranch().
    std::uint32_t nextPc = 0;
};

/**
 * Serialized architectural state for checkpointing: registers, PC,
 * progress counters, and the mutable data image (code is rebuilt
 * deterministically from the benchmark spec, so it is not stored).
 */
struct ArchState
{
    std::array<std::uint32_t, 32> regs{};
    std::uint32_t pc = 0;
    bool finished = false;
    std::uint64_t instCount = 0;
    std::vector<std::uint32_t> data;

    std::size_t
    byteSize() const
    {
        return sizeof(regs) + sizeof(pc) + sizeof(finished) +
               sizeof(instCount) + data.size() * sizeof(std::uint32_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        for (const std::uint32_t r : regs)
            out.u32(r);
        out.u32(pc);
        out.u8(finished ? 1 : 0);
        out.u64(instCount);
        out.vecU32(data);
    }

    void
    read(util::BinaryReader &in)
    {
        for (std::uint32_t &r : regs)
            r = in.u32();
        pc = in.u32();
        finished = in.u8() != 0;
        instCount = in.u64();
        data = in.vecU32();
    }
};

class ArchCore
{
  public:
    explicit ArchCore(const workloads::BenchmarkSpec &spec)
        : ArchCore(workloads::buildProgram(spec))
    {
    }

    /** Run a given program image (code at kCodeBase, data at kDataBase). */
    explicit ArchCore(workloads::Program program)
        : program_(std::move(program)),
          dataMask_(program_.dataBytes - 1),
          pc_(program_.entryPc)
    {
        if (!program_.dataBytes ||
            (program_.dataBytes & (program_.dataBytes - 1)))
            SMARTS_FATAL("data footprint must be a power of two");
        decoded_.reserve(program_.code.size());
        for (const std::uint32_t word : program_.code)
            decoded_.push_back(sisa::decode(word));
    }

    /**
     * The interpreter: execute up to @p maxInsts instructions,
     * reporting each one to @p sink, and return how many ran (fewer
     * only at HALT or end of code). PC, registers and the data
     * pointer live in locals for the whole call and are written back
     * on exit, so a call may stop anywhere and the next one resumes
     * exactly there.
     *
     * A Sink is a compile-time visitor with four events, called in
     * this order for each executed instruction (HALT raises none):
     *
     *   void fetch(std::uint32_t pc);   every instruction, first;
     *   void load(std::uint32_t addr);  then LD, or
     *   void store(std::uint32_t addr); ST, or
     *   void branch(std::uint32_t pc, const sisa::DecodedInst &di,
     *               bool taken, std::uint32_t nextPc);  BEQ..JR.
     *
     * ALU ops and NOP raise fetch only. Each simulation mode is one
     * sink (core/timing.hh), so every mode shares this one body.
     */
    template <typename Sink>
    std::uint64_t
    run(std::uint64_t maxInsts, Sink &&sink)
    {
        std::uint32_t regs[32];
        std::copy(std::begin(regs_), std::end(regs_), regs);
        const std::uint64_t executed = execute(maxInsts, sink, regs);
        std::copy(std::begin(regs), std::end(regs), regs_);
        return executed;
    }

    /**
     * Execute one instruction and describe it in @p info: the
     * per-instruction form of run(), for callers that interleave
     * several cores instruction by instruction. False at HALT/end.
     */
    bool
    step(StepInfo &info)
    {
        struct Capture
        {
            StepInfo &info;

            void
            fetch(std::uint32_t pc)
            {
                info.pc = pc;
                info.taken = false;
            }

            void load(std::uint32_t addr) { info.memAddr = addr; }
            void store(std::uint32_t addr) { info.memAddr = addr; }

            void
            branch(std::uint32_t, const sisa::DecodedInst &, bool taken,
                   std::uint32_t)
            {
                info.taken = taken;
            }
        };
        if (!execute(1, Capture{info}, regs_))
            return false;
        info.di = decoded_[(info.pc - workloads::kCodeBase) >> 2];
        info.nextPc = pc_;
        return true;
    }

    bool
    finished() const
    {
        return finished_;
    }

    /** Instructions executed so far, all modes. */
    std::uint64_t
    instCount() const
    {
        return instCount_;
    }

    std::uint32_t
    pc() const
    {
        return pc_;
    }

    void
    saveState(ArchState &state) const
    {
        std::copy(std::begin(regs_), std::end(regs_),
                  state.regs.begin());
        state.pc = pc_;
        state.finished = finished_;
        state.instCount = instCount_;
        state.data = program_.data;
    }

    void
    restoreState(const ArchState &state)
    {
        if (state.data.size() != program_.data.size())
            SMARTS_FATAL("arch checkpoint data image mismatch (",
                         state.data.size(), " words vs ",
                         program_.data.size(), ")");
        std::copy(state.regs.begin(), state.regs.end(), regs_);
        pc_ = state.pc;
        finished_ = state.finished;
        instCount_ = state.instCount;
        program_.data = state.data;
    }

  private:
    /**
     * run()'s body over the register file @p r (a local copy in
     * run(), the member itself in step()). Writes to r[0] land and
     * are undone after the instruction: cheaper than testing the
     * destination of every write.
     */
    template <typename Sink>
    std::uint64_t
    execute(std::uint64_t maxInsts, Sink &&sink, std::uint32_t *r)
    {
        using sisa::Opcode;
        if (finished_)
            return 0;
        const sisa::DecodedInst *const code = decoded_.data();
        const std::size_t codeSize = decoded_.size();
        std::uint32_t *const data = program_.data.data();
        const std::uint32_t dataMask = dataMask_;
        auto word = [data, dataMask](std::uint32_t addr)
            -> std::uint32_t & {
            return data[((addr - workloads::kDataBase) & dataMask) >>
                        2];
        };

        std::uint32_t pc = pc_;
        std::uint64_t executed = 0;
        while (executed < maxInsts) {
            const std::uint32_t idx = (pc - workloads::kCodeBase) >> 2;
            if (idx >= codeSize || code[idx].op == Opcode::HALT) {
                finished_ = true;
                break;
            }
            const sisa::DecodedInst di = code[idx];
            sink.fetch(pc);
            const std::uint32_t vb = r[di.b];
            const std::uint32_t uimm =
                static_cast<std::uint32_t>(di.imm) & 0xffffu;
            const std::uint32_t simm =
                static_cast<std::uint32_t>(di.imm);
            std::uint32_t next = pc + 4;
            auto condBranch = [&](bool taken) {
                next = taken ? pc + simm : next;
                sink.branch(pc, di, taken, next);
            };

            switch (di.op) {
              case Opcode::ADD:
                r[di.a] = vb + r[di.c];
                break;
              case Opcode::SUB:
                r[di.a] = vb - r[di.c];
                break;
              case Opcode::MUL:
                r[di.a] = vb * r[di.c];
                break;
              case Opcode::AND:
                r[di.a] = vb & r[di.c];
                break;
              case Opcode::OR:
                r[di.a] = vb | r[di.c];
                break;
              case Opcode::XOR:
                r[di.a] = vb ^ r[di.c];
                break;
              case Opcode::SLT:
                r[di.a] = static_cast<std::int32_t>(vb) <
                                  static_cast<std::int32_t>(r[di.c])
                              ? 1
                              : 0;
                break;
              case Opcode::ADDI:
                r[di.a] = vb + simm;
                break;
              case Opcode::ANDI:
                r[di.a] = vb & uimm;
                break;
              case Opcode::ORI:
                r[di.a] = vb | uimm;
                break;
              case Opcode::SHLI:
                r[di.a] = vb << (di.imm & 31);
                break;
              case Opcode::SHRI:
                r[di.a] = vb >> (di.imm & 31);
                break;
              case Opcode::LUI:
                r[di.a] = uimm << 16;
                break;
              case Opcode::LD:
                sink.load(vb + simm);
                r[di.a] = word(vb + simm);
                break;
              case Opcode::ST:
                sink.store(vb + simm);
                word(vb + simm) = r[di.a];
                break;
              case Opcode::BEQ:
                condBranch(r[di.a] == vb);
                break;
              case Opcode::BNE:
                condBranch(r[di.a] != vb);
                break;
              case Opcode::BLT:
                condBranch(static_cast<std::int32_t>(r[di.a]) <
                           static_cast<std::int32_t>(vb));
                break;
              case Opcode::BGE:
                condBranch(static_cast<std::int32_t>(r[di.a]) >=
                           static_cast<std::int32_t>(vb));
                break;
              case Opcode::JAL:
                r[di.a] = pc + 4;
                next = di.branchTarget(pc);
                sink.branch(pc, di, true, next);
                break;
              case Opcode::JR:
                next = r[di.a];
                sink.branch(pc, di, true, next);
                break;
              case Opcode::NOP:
              default:
                break;
            }
            r[0] = 0;
            pc = next;
            ++executed;
        }
        pc_ = pc;
        instCount_ += executed;
        return executed;
    }

    workloads::Program program_;
    std::vector<sisa::DecodedInst> decoded_; ///< predecoded code.
    std::uint32_t dataMask_;

    std::uint32_t regs_[32] = {};
    std::uint32_t pc_;
    bool finished_ = false;
    std::uint64_t instCount_ = 0;
};

} // namespace smarts::core

#endif // SMARTS_CORE_ARCH_HH
