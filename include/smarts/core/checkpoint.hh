/**
 * @file
 * Checkpointed functional warming: the subsystem that lets ONE
 * benchmark's stream be sharded across threads (paper Table 6 shows
 * functional warming dominating SMARTS runtime, and warming is
 * inherently serial — so a single long benchmark bottlenecks even a
 * perfectly parallel experiment grid, which is exactly what PR 2's
 * ExperimentRunner left on the table).
 *
 * An ArchCheckpoint serializes the full warm simulator state:
 * architectural (registers, PC, data image) plus microarchitectural
 * (caches, TLBs, branch predictor, fixed-point accumulators). A
 * CheckpointLibrary plans the shard split of a sampling run's unit
 * grid and captures each shard's resume checkpoint with a single
 * streaming pass that applies the serial schedule's EXACT state
 * transitions — fastForward over the warming gaps,
 * SimSession::warmAsDetailed over the regions the serial run
 * simulates in detail — so a shard resumed from its checkpoint
 * measures every unit bit-identically to the serial run.
 *
 * The capture pass costs roughly a functional-warming pass of the
 * stream, far less than the serial run's warming + detailed bill,
 * and it pipelines: shard s starts executing the moment checkpoint
 * s is captured, while the capture pass streams on toward
 * checkpoint s+1.
 *
 * Libraries are durable: save()/load() move them through a
 * versioned, endian-explicit, checksummed binary format
 * (docs/checkpoint-format.md) keyed by LibraryKey — benchmark,
 * sampling design, and the warm-state geometry hash of the machine
 * config — so a library captured once serves every later process:
 * the two-pass procedure's second run, repeated design studies, and
 * distributed runners. buildMulti() captures the per-config
 * libraries of an N-config study in ONE MultiSession streaming
 * pass. CheckpointStore (core/checkpoint_store.hh) is the directory
 * cache that runSharded/estimateSharded consult before capturing.
 */

#ifndef SMARTS_CORE_CHECKPOINT_HH
#define SMARTS_CORE_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/schedule.hh"
#include "core/session.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"
#include "workloads/benchmark.hh"

namespace smarts::core {

/**
 * On-disk library format version (docs/checkpoint-format.md).
 * Version 2 carries a FLAVOR byte after the endianness marker so one
 * `.smck` container holds either solo (flavor 0) or co-run mix
 * (flavor 1, mp::MixLibrary) state. Any other version is refused:
 * the store is a cache, so an old file is a miss and a recapture.
 */
constexpr std::uint32_t kCheckpointFormatVersion = 2;

/** File magic: 8 bytes, shared by every version and flavor. */
constexpr char kCheckpointMagic[8] = {'S', 'M', 'R', 'T',
                                      'C', 'K', 'P', 'T'};


/** v2 flavor byte: which session tier's state the payload carries. */
constexpr std::uint8_t kCheckpointFlavorSolo = 0;
constexpr std::uint8_t kCheckpointFlavorMix = 1;

/**
 * Identity of a persisted checkpoint library: what must match, field
 * for field, before stored warm state may be resumed. The benchmark
 * spec pins the instruction stream, the sampling config pins the
 * capture schedule (which regions were warmed as-detailed vs
 * fast-forwarded), and the geometry hash
 * (uarch::warmGeometryHash) pins every structure whose state the
 * checkpoints carry. Timing-only config differences (latencies,
 * width, energy) hash identically on purpose: warm state does not
 * depend on them, so one library serves a whole latency/energy
 * sweep.
 */
struct LibraryKey
{
    workloads::BenchmarkSpec benchmark;
    std::uint64_t geometryHash = 0;
    SamplingConfig sampling;

    static LibraryKey of(const workloads::BenchmarkSpec &spec,
                         const uarch::MachineConfig &config,
                         const SamplingConfig &sampling);

    /**
     * Field order is normative (docs/checkpoint-format.md § Key);
     * the distributed job manifest and result files
     * (docs/distributed-runners.md) embed the same encoding.
     */
    void write(util::BinaryWriter &out) const;
    static LibraryKey read(util::BinaryReader &in);

    /** Store subdirectory for the benchmark: "<name>-<scale>". */
    std::string dirName() const;

    /** Filesystem-safe file name encoding the sampling + geometry. */
    std::string fileName() const;

    /**
     * File name of the key's LIVE-POINT library (core/livepoint.hh):
     * same stem, `.smlp` extension — both flavors of warm state for
     * a key sit side by side in its store directory.
     */
    std::string livePointFileName() const;

    /** Empty when equal; else which component diverges (for logs). */
    std::string mismatchAgainst(const LibraryKey &other) const;
};

/**
 * Full warm simulator state, resumable into a same-spec session —
 * the solo flavor of ShardLibrary (see there for the flavor hooks).
 */
struct ArchCheckpoint
{
    ArchState arch;
    TimingState timing;

    /** Instruction position the checkpoint resumes at. */
    std::uint64_t position = 0;

    /** First measured grid index of the shard this resume feeds. */
    std::uint64_t unitIndex = 0;

    using Key = LibraryKey;
    static constexpr std::uint8_t kFlavor = kCheckpointFlavorSolo;

    /** Approximate serialized footprint, for capacity planning. */
    std::size_t
    byteSize() const
    {
        return arch.byteSize() + timing.byteSize() +
               2 * sizeof(std::uint64_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(position);
        out.u64(unitIndex);
        arch.write(out);
        timing.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        position = in.u64();
        unitIndex = in.u64();
        arch.read(in);
        timing.read(in);
    }

    void
    snap(const SimSession &session)
    {
        session.saveState(arch, timing);
    }

    /** Solo: an empty identity block and no extra check. */
    static void writeIdentity(const Key &, util::BinaryWriter &) {}
    static std::string readIdentity(util::BinaryReader &, const Key &)
    {
        return {};
    }
    std::string check(const Key &) const { return {}; }
};

/** One contiguous slice of a sampling run's measured-unit grid. */
struct ShardSpec
{
    /** Grid index (offset + m*k form) of the shard's first unit. */
    std::uint64_t firstUnitIndex = 0;

    /** Measured units owned by this shard. */
    std::uint64_t unitCount = 0;

    /** Serial instruction position at the shard's first iteration. */
    std::uint64_t resumePos = 0;

    /** Last shard: run the stream out so streamLength is exact. */
    bool runsTail = false;

    /**
     * Field order is normative (docs/checkpoint-format.md): the
     * `.smck` plan and the distributed job manifest both use it.
     */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(firstUnitIndex);
        out.u64(unitCount);
        out.u64(resumePos);
        out.u8(runsTail ? 1 : 0);
    }

    static ShardSpec
    read(util::BinaryReader &in)
    {
        ShardSpec shard;
        shard.firstUnitIndex = in.u64();
        shard.unitCount = in.u64();
        shard.resumePos = in.u64();
        shard.runsTail = in.u8() != 0;
        return shard;
    }
};

/**
 * Field-for-field equality — the ONE definition every plan/echo
 * comparison uses (store plan-match checks, the distributed
 * shard-echo refusal), so a future ShardSpec field cannot make one
 * path recapture while another accepts a stale plan. Whole plans
 * compare via std::vector's operator==.
 */
inline bool
operator==(const ShardSpec &a, const ShardSpec &b)
{
    return a.firstUnitIndex == b.firstUnitIndex &&
           a.unitCount == b.unitCount && a.resumePos == b.resumePos &&
           a.runsTail == b.runsTail;
}

inline bool
operator!=(const ShardSpec &a, const ShardSpec &b)
{
    return !(a == b);
}

namespace detail {

/**
 * The shard-checkpoint capture pass shared by every capture flavor:
 * the sampling schedule (core/schedule.hh) with state-equivalent
 * warming, calling @p snap(shard) at each shard boundary — an
 * iteration start, before the gap, where the session state is
 * bit-identical to the serial run's. The pass stops after the last
 * boundary (the tail belongs to the last shard) and at a boundary
 * the stream never reached: a stream shorter than planned (a
 * mis-stated length) ends mid-unit, and a checkpoint snapped there
 * would be one load() must forever refuse. Works for SimSession,
 * MultiSession and mp::MixSession (positions in rounds).
 */
template <typename Session, typename Snap>
void
captureSchedule(Session &session, const SamplingConfig &config,
                const std::vector<ShardSpec> &plan, Snap &&snap)
{
    struct Boundaries : WarmingVisitor<Session>
    {
        const std::vector<ShardSpec> &plan;
        Snap &snap;
        std::size_t next = 1;

        bool
        atIteration(std::uint64_t unitIdx)
        {
            for (; next < plan.size() &&
                   unitIdx >= plan[next].firstUnitIndex;
                 ++next) {
                if (this->session.instCount() < plan[next].resumePos)
                    return false;
                snap(next);
            }
            return next < plan.size();
        }
    };
    walkSchedule(session, config, config.offset, ~0ull,
                 /*runTail=*/false, Boundaries{{{}, session}, plan, snap});
}

} // namespace detail

/**
 * The flavor-independent half of every shard library: its sampling
 * design and shard plan, and the one definition of a legal plan.
 */
class ShardLibraryBase
{
  public:
    /**
     * Split the measured-unit grid of (@p config, @p streamLength)
     * into at most @p shards contiguous, non-empty shards (clamped
     * to the unit count; an empty grid yields one tail-only shard).
     * Shard boundaries land on iteration starts of the serial
     * sampling loop, i.e. just after the previous measured unit
     * completes.
     */
    static std::vector<ShardSpec>
    planShards(const SamplingConfig &config,
               std::uint64_t streamLength, std::size_t shards);

    /**
     * Check that @p plan is one planShards(@p config, ...) could
     * have produced: contiguous shard geometry, interior resume
     * positions on iteration boundaries, the tail flag on exactly
     * the last shard. Returns an empty string when valid, else a
     * diagnostic naming the offending shard. Both the library
     * loader and the distributed job manifest refuse files whose
     * plan fails this — a checksum only proves the writer was
     * careful, not honest, and executing a malformed plan would
     * MIS-MEASURE instead of failing loudly.
     */
    static std::string
    validatePlan(const SamplingConfig &config,
                 const std::vector<ShardSpec> &plan);

    const SamplingConfig &
    samplingConfig() const
    {
        return config_;
    }

    const std::vector<ShardSpec> &
    plan() const
    {
        return plan_;
    }

    std::size_t
    shardCount() const
    {
        return plan_.size();
    }

  protected:
    SamplingConfig config_;
    std::vector<ShardSpec> plan_;
};

namespace detail {

/**
 * The one `.smck` container writer (docs/checkpoint-format.md):
 * header with @p flavor, the flavor's @p identity block, @p key,
 * @p plan, then one slot per shard — slot 0 absent, every other
 * slot present and written by @p checkpoint.
 */
void serializeLibrary(
    std::uint8_t flavor, const LibraryKey &key,
    const std::vector<ShardSpec> &plan,
    const std::function<void(util::BinaryWriter &)> &identity,
    const std::function<void(std::size_t, util::BinaryWriter &)>
        &checkpoint,
    util::BinaryWriter &out);

/**
 * The one `.smck` container reader: fills @p config and @p plan and
 * returns an empty string, or returns the refusal diagnostic. The
 * flavor's hooks: @p identity reads and matches its identity block
 * (empty, or the refusal after the path); @p slots sizes the
 * checkpoint slots; @p checkpoint reads slot s and returns its
 * (position, unitIndex), which must agree with the plan; @p check
 * is the flavor's extra test of a loaded checkpoint (empty, or what
 * is wrong with it).
 */
std::string loadLibrary(
    const std::string &path, std::uint8_t flavor,
    const LibraryKey &expect, SamplingConfig &config,
    std::vector<ShardSpec> &plan,
    const std::function<std::string(util::BinaryReader &)> &identity,
    const std::function<void(std::size_t)> &slots,
    const std::function<std::pair<std::uint64_t, std::uint64_t>(
        std::size_t, util::BinaryReader &)> &checkpoint,
    const std::function<std::string(std::size_t)> &check);

} // namespace detail

/**
 * A built shard library: the shard plan plus every captured resume
 * checkpoint, reusable across runs. Capturing costs roughly one
 * warming pass; once built, sharded measurement of the same
 * (benchmark, sampling design) scales with threads and re-runs —
 * the tuned second pass of the two-pass procedure, config sweeps,
 * repeated design studies — pay no warming at all.
 *
 * One lifecycle and one codec serve both `.smck` flavors:
 * CheckpointLibrary (ArchCheckpoint) and mp::MixLibrary
 * (mp::MixCheckpoint). The Checkpoint type supplies the flavor: its
 * Key (a LibraryKey, or one extended with what the identity block
 * must match), kFlavor, write/read, snap(session), the static
 * writeIdentity(key, out) / readIdentity(in, expect) pair, and
 * check(key), which says why a loaded checkpoint does not fit
 * (empty when it does).
 */
template <typename Checkpoint>
class ShardLibrary : public ShardLibraryBase
{
  public:
    using Key = typename Checkpoint::Key;

    /** Called as checkpoint @p shard becomes available (shard >= 1). */
    using CheckpointSink =
        std::function<void(std::size_t shard, Checkpoint &&)>;

    /**
     * Stream @p session (fresh, at stream start) through the serial
     * sampling schedule using state-equivalent warming, invoking
     * @p sink the moment each shard's resume state is reached.
     * Shard 0 resumes at stream start and gets no checkpoint. The
     * pass stops after the last checkpoint — the tail belongs to
     * the last shard.
     */
    template <typename Session>
    static void
    capture(Session &session, const SamplingConfig &config,
            const std::vector<ShardSpec> &plan,
            const CheckpointSink &sink)
    {
        detail::captureSchedule(session, config, plan, [&](std::size_t s) {
            Checkpoint cp;
            cp.snap(session);
            cp.position = session.instCount();
            cp.unitIndex = plan[s].firstUnitIndex;
            sink(s, std::move(cp));
        });
    }

    /**
     * Capture every checkpoint of @p plan into a reusable library
     * (slot 0 is an empty placeholder — shard 0 needs none).
     */
    template <typename Session>
    static ShardLibrary
    build(Session &session, const SamplingConfig &config,
          const std::vector<ShardSpec> &plan)
    {
        ShardLibrary library = prepare(config, plan);
        capture(session, config, plan,
                [&library](std::size_t s, Checkpoint &&cp) {
                    library.checkpoints_[s] = std::move(cp);
                });
        library.requireComplete();
        return library;
    }

    /**
     * Solo flavor only: ONE streaming pass over @p session (N
     * configs in lockstep off the shared architectural stream)
     * produces the per-config libraries an N-config design study
     * needs — library c is byte-identical to what build() over a
     * single-config session of config c would have captured, at
     * roughly 1/N of the total capture cost. This is what makes
     * checkpoint reuse work ACROSS configs even though warm state is
     * config-dependent.
     */
    static std::vector<ShardLibrary>
    buildMulti(MultiSession &session, const SamplingConfig &config,
               const std::vector<ShardSpec> &plan);

    /**
     * An empty library for (@p config, @p plan) whose checkpoints
     * arrive later via record() — the pipelined capture path uses
     * this to collect a persistable library while shards already
     * execute.
     */
    static ShardLibrary
    prepare(const SamplingConfig &config,
            const std::vector<ShardSpec> &plan)
    {
        ShardLibrary library;
        library.config_ = config;
        library.plan_ = plan;
        library.checkpoints_.resize(plan.size());
        return library;
    }

    /** Store shard @p shard's captured checkpoint (copied). */
    void
    record(std::size_t shard, const Checkpoint &cp)
    {
        checkpoints_[shard] = cp;
    }

    /**
     * True when every resume slot (shard >= 1) holds its checkpoint:
     * a filled slot sits at its shard's resumePos, which is at least
     * one unit into the stream, and an empty one at 0.
     */
    bool
    complete() const
    {
        for (std::size_t s = 1; s < checkpoints_.size(); ++s)
            if (checkpoints_[s].position != plan_[s].resumePos)
                return false;
        return !checkpoints_.empty();
    }

    /**
     * Serialize under @p key into the versioned on-disk format
     * (docs/checkpoint-format.md).
     */
    void
    serialize(const Key &key, util::BinaryWriter &out) const
    {
        detail::serializeLibrary(
            Checkpoint::kFlavor, key, plan_,
            [&key](util::BinaryWriter &o) {
                Checkpoint::writeIdentity(key, o);
            },
            [this](std::size_t s, util::BinaryWriter &o) {
                checkpoints_[s].write(o);
            },
            out);
    }

    /**
     * serialize() and publish atomically at @p path. False with
     * @p error set on filesystem failure.
     */
    bool
    save(const Key &key, const std::string &path,
         std::string *error = nullptr, bool createDirs = true) const
    {
        util::BinaryWriter out;
        serialize(key, out);
        return out.writeFile(path, error, createDirs);
    }

    /**
     * Load a library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * missing/truncated/corrupt file (checksum), unknown format
     * version, the other flavor, an identity block or a key
     * (benchmark, sampling design, config geometry) differing from
     * @p expect. Refusal is the contract: a mis-keyed library must
     * never silently mis-warm a shard.
     */
    static std::optional<ShardLibrary>
    load(const std::string &path, const Key &expect,
         std::string *error = nullptr)
    {
        ShardLibrary library;
        std::vector<Checkpoint> &slots = library.checkpoints_;
        std::string why = detail::loadLibrary(
            path, Checkpoint::kFlavor, expect, library.config_,
            library.plan_,
            [&expect](util::BinaryReader &in) {
                return Checkpoint::readIdentity(in, expect);
            },
            [&slots](std::size_t count) { slots.resize(count); },
            [&slots](std::size_t s, util::BinaryReader &in) {
                slots[s].read(in);
                return std::make_pair(slots[s].position,
                                      slots[s].unitIndex);
            },
            [&slots, &expect](std::size_t s) {
                return slots[s].check(expect);
            });
        if (why.empty())
            return library;
        if (error)
            *error = std::move(why);
        return std::nullopt;
    }

    const Checkpoint &
    at(std::size_t shard) const
    {
        return checkpoints_[shard];
    }

    /** Total in-memory footprint of the captured checkpoints. */
    std::size_t
    byteSize() const
    {
        std::size_t total = 0;
        for (const Checkpoint &cp : checkpoints_)
            total += cp.byteSize();
        return total;
    }

  private:
    /**
     * The stream ending before every boundary means the plan's
     * streamLength was overstated; fail with a clear message rather
     * than mid-pool when a shard restores an empty snapshot.
     */
    void
    requireComplete() const
    {
        for (std::size_t s = 1; s < plan_.size(); ++s)
            if (checkpoints_[s].position != plan_[s].resumePos)
                SMARTS_FATAL("stream ended before the checkpoint for "
                             "shard ", s, " (position ",
                             plan_[s].resumePos,
                             ") — was streamLength overstated?");
    }

    std::vector<Checkpoint> checkpoints_;
};

/** The solo flavor: full single-program warm state per shard. */
using CheckpointLibrary = ShardLibrary<ArchCheckpoint>;

template <>
std::vector<CheckpointLibrary>
CheckpointLibrary::buildMulti(MultiSession &session,
                              const SamplingConfig &config,
                              const std::vector<ShardSpec> &plan);

} // namespace smarts::core

#endif // SMARTS_CORE_CHECKPOINT_HH
