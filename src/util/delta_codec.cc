#include "util/delta_codec.hh"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace smarts::util {

namespace {

/**
 * A zero run shorter than one op header (8 bytes) costs more to
 * encode as a run than to carry inside the surrounding literal, so
 * the encoder only breaks a literal for runs at least this long.
 */
constexpr std::size_t kMinZeroRun = 8;

/** Longest run or literal one op can carry (u32 length fields). */
constexpr std::size_t kMaxRun = 0xffffffffu;

// Words are compared in memory order; these find a nonzero byte's
// position within a nonzero word on either host byte order.

/** Memory-order index of the first nonzero byte of @p w (w != 0). */
inline unsigned
firstNonzeroByte(std::uint64_t w)
{
    return kHostLittleEndian ? __builtin_ctzll(w) / 8
                             : __builtin_clzll(w) / 8;
}

/** Memory-order index of the last nonzero byte of @p w (w != 0). */
inline unsigned
lastNonzeroByte(std::uint64_t w)
{
    return kHostLittleEndian ? 7 - __builtin_clzll(w) / 8
                             : 7 - __builtin_ctzll(w) / 8;
}

/** The little-endian u32 at @p p (one load on common compilers). */
inline std::uint32_t
loadU32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

/** XOR @p n bytes at @p src into @p dst, a word at a time. */
void
xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t a, b;
        std::memcpy(&a, dst + i, 8);
        std::memcpy(&b, src + i, 8);
        a ^= b;
        std::memcpy(dst + i, &a, 8);
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

/** The XOR residue of a payload against its zero-padded base. */
struct Residue
{
    const std::uint8_t *base;
    std::size_t baseSize;
    const std::uint8_t *data;
    std::size_t size;

    std::uint8_t
    at(std::size_t i) const
    {
        return static_cast<std::uint8_t>(
            data[i] ^ (i < baseSize ? base[i] : 0));
    }

    /** Residue bytes [i, i + 8) as one memory-order word. */
    std::uint64_t
    word(std::size_t i) const
    {
        std::uint64_t d, b = 0;
        std::memcpy(&d, data + i, 8);
        if (i + 8 <= baseSize)
            std::memcpy(&b, base + i, 8);
        else if (i < baseSize)
            std::memcpy(&b, base + i, baseSize - i);
        return d ^ b;
    }

    /** Length of the all-zero residue run starting at @p i. */
    std::size_t
    zeroRunAt(std::size_t i) const
    {
        std::size_t n = i;
        for (; n + 8 <= size; n += 8)
            if (const std::uint64_t w = word(n))
                return n + firstNonzeroByte(w) - i;
        while (n < size && at(n) == 0)
            ++n;
        return n - i;
    }

    /**
     * Start of the first run of kMinZeroRun zero residue bytes at or
     * after @p i, or size when there is none. A window holding a
     * nonzero byte rules out every run starting at or before that
     * byte, so the scan skips past the window's last nonzero byte.
     */
    std::size_t
    nextZeroRun(std::size_t i) const
    {
        static_assert(kMinZeroRun == 8, "the scan is one word wide");
        while (i + 8 <= size) {
            const std::uint64_t w = word(i);
            if (!w)
                return i;
            i += lastNonzeroByte(w) + 1;
        }
        return size;
    }
};

} // namespace

void
deltaEncode(const std::uint8_t *base, std::size_t baseSize,
            const std::uint8_t *data, std::size_t size,
            BinaryWriter &out)
{
    const Residue residue{base, baseSize, data, size};
    out.u64(size);

    std::size_t pos = 0;
    while (pos < size) {
        const std::size_t zeros =
            std::min(residue.zeroRunAt(pos), kMaxRun);
        const std::size_t scan = pos + zeros;
        // The literal runs to the next worthwhile zero run (or the
        // end of the payload, or the u32 length cap).
        const std::size_t literal =
            std::min(residue.nextZeroRun(scan) - scan, kMaxRun);

        out.u32(static_cast<std::uint32_t>(zeros));
        out.u32(static_cast<std::uint32_t>(literal));
        std::uint8_t *dst = out.grow(literal);
        if (literal)
            std::memcpy(dst, data + scan, literal);
        if (scan < baseSize)
            xorInto(dst, base + scan,
                    std::min(literal, baseSize - scan));
        pos = scan + literal;
    }
}

std::vector<std::uint8_t>
deltaEncode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &data)
{
    BinaryWriter out;
    deltaEncode(base.data(), base.size(), data.data(), data.size(),
                out);
    return out.buffer();
}

bool
deltaApply(std::vector<std::uint8_t> &state, const std::uint8_t *delta,
           std::size_t size, std::string *error)
{
    auto refuse = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    if (size < sizeof(std::uint64_t))
        return refuse("delta stream is truncated");
    const std::uint64_t rawSize = BinaryReader(delta, size).u64();
    const std::uint8_t *const ops = delta + sizeof(std::uint64_t);
    const std::uint8_t *const end = delta + size;

    // Structural pre-walk, allocation-free: a corrupt stream must be
    // refused BEFORE the state is resized from it, or a flipped size
    // field turns into an out-of-memory crash instead of a
    // diagnostic. Only a stream whose ops cover exactly rawSize with
    // every literal byte present reaches the applying pass.
    const std::uint8_t *at = ops;
    for (std::uint64_t covered = 0; covered < rawSize;) {
        if (end - at < 8)
            return refuse("delta stream is truncated");
        const std::uint32_t zeros = loadU32(at);
        const std::uint32_t literal = loadU32(at + 4);
        at += 8;
        if (!zeros && !literal)
            return refuse("delta contains a zero-progress op");
        if (zeros + std::uint64_t(literal) > rawSize - covered)
            return refuse("delta ops overrun the declared size");
        if (static_cast<std::size_t>(end - at) < literal)
            return refuse("delta stream is truncated");
        at += literal;
        covered += zeros + std::uint64_t(literal);
    }
    if (at != end)
        return refuse("delta stream has trailing garbage");

    // Growth zero-fills, which is the zero-padded base; a zero run
    // then leaves its bytes as they are and a literal XORs in place.
    try {
        state.resize(static_cast<std::size_t>(rawSize));
    } catch (const std::bad_alloc &) {
        return refuse("delta payload does not fit in memory");
    } catch (const std::length_error &) {
        return refuse("delta payload does not fit in memory");
    }
    at = ops;
    for (std::size_t pos = 0; pos < rawSize;) {
        pos += loadU32(at);
        const std::uint32_t literal = loadU32(at + 4);
        at += 8;
        xorInto(state.data() + pos, at, literal);
        at += literal;
        pos += literal;
    }
    return true;
}

std::optional<std::vector<std::uint8_t>>
deltaDecode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &delta, std::string *error)
{
    std::vector<std::uint8_t> out = base;
    if (!deltaApply(out, delta.data(), delta.size(), error))
        return std::nullopt;
    return out;
}

} // namespace smarts::util
