/**
 * @file
 * Binary serialization primitives for the persistent checkpoint
 * format (docs/checkpoint-format.md): a BinaryWriter that encodes
 * every multi-byte value LITTLE-ENDIAN — so a library written on any
 * host reads back on any other — and a BinaryReader that never
 * trusts the file: every read checks the remaining bytes and flips a
 * sticky fail() flag instead of running past the end, which is how
 * truncated or corrupt files are refused rather than mis-parsed.
 *
 * Scalars are assembled byte by byte. Element vectors (vecU8/U32/
 * U64) move in bulk with memcpy on little-endian hosts, where the
 * host layout IS the file layout; a big-endian host takes the
 * per-element byte loop instead. The bytes on disk are the same
 * either way. A reader either owns its bytes (fromFile, the vector
 * constructor) or is a non-owning view over bytes the caller keeps
 * alive, so a state held in a larger buffer parses without a copy.
 *
 * Writers accumulate into a memory buffer; writeFile() appends an
 * FNV-1a checksum of everything before it and publishes the file
 * atomically (write to a temp name, then rename), so a crashed or
 * concurrent writer can never leave a half-written library behind a
 * valid path.
 */

#ifndef SMARTS_UTIL_BINARY_IO_HH
#define SMARTS_UTIL_BINARY_IO_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace smarts::util {

/**
 * True when the host's byte order is the format's (little-endian):
 * element vectors are then copied in bulk instead of byte by byte.
 */
constexpr bool kHostLittleEndian =
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    true;
#else
    false;
#endif

/** FNV-1a 64-bit over @p size bytes (the format's checksum). */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size,
      std::uint64_t hash = 0xcbf29ce484222325ull)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Accumulates little-endian encoded values into a byte buffer. */
class BinaryWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buffer_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int shift = 0; shift < 32; shift += 8)
            buffer_.push_back(
                static_cast<std::uint8_t>(v >> shift));
    }

    void
    u64(std::uint64_t v)
    {
        for (int shift = 0; shift < 64; shift += 8)
            buffer_.push_back(
                static_cast<std::uint8_t>(v >> shift));
    }

    /**
     * IEEE-754 double as its raw 64-bit pattern, little-endian —
     * the round trip is bit-exact, which is what lets per-shard
     * result files reproduce an estimate byte for byte.
     */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Length-prefixed (u32) UTF-8/ASCII bytes. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buffer_.insert(buffer_.end(), s.begin(), s.end());
    }

    /** Length-prefixed (u64) element vectors. */
    void
    vecU8(const std::vector<std::uint8_t> &v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }

    void
    vecU32(const std::vector<std::uint32_t> &v)
    {
        u64(v.size());
        if constexpr (kHostLittleEndian) {
            bytes(reinterpret_cast<const std::uint8_t *>(v.data()),
                  v.size() * sizeof(std::uint32_t));
        } else {
            for (const std::uint32_t x : v)
                u32(x);
        }
    }

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        if constexpr (kHostLittleEndian) {
            bytes(reinterpret_cast<const std::uint8_t *>(v.data()),
                  v.size() * sizeof(std::uint64_t));
        } else {
            for (const std::uint64_t x : v)
                u64(x);
        }
    }

    /** Append @p size raw bytes verbatim. */
    void
    bytes(const std::uint8_t *data, std::size_t size)
    {
        if (size)
            buffer_.insert(buffer_.end(), data, data + size);
    }

    /**
     * Append @p size zero bytes and return a pointer to them, valid
     * until the next append: lets an encoder fill a span in place.
     */
    std::uint8_t *
    grow(std::size_t size)
    {
        buffer_.resize(buffer_.size() + size);
        return buffer_.data() + buffer_.size() - size;
    }

    /** Overwrite the u64 at byte offset @p at (a back-patched field). */
    void
    patchU64(std::size_t at, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buffer_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Drop the contents, keeping the capacity for reuse. */
    void
    clear()
    {
        buffer_.clear();
    }

    const std::vector<std::uint8_t> &
    buffer() const
    {
        return buffer_;
    }

    std::size_t
    size() const
    {
        return buffer_.size();
    }

    /**
     * Append the FNV-1a checksum of the buffer, then publish the
     * result at @p path atomically (temp file + rename). Returns
     * false with @p error set on any filesystem failure. Callers
     * that already guaranteed the parent directory — e.g. the
     * checkpoint store's memoized ensureDirFor — pass
     * @p createDirs false to skip the per-write re-stat.
     */
    bool writeFile(const std::string &path, std::string *error,
                   bool createDirs = true) const;

  private:
    std::vector<std::uint8_t> buffer_;
};

/**
 * Decodes a little-endian byte buffer with sticky failure: any read
 * past the end returns zero values and latches fail(), so callers
 * can parse a whole structure and check once at the end.
 */
class BinaryReader
{
  public:
    /** Owning reader: takes @p data. */
    explicit BinaryReader(std::vector<std::uint8_t> data)
        : owned_(std::move(data)), data_(owned_.data()),
          size_(owned_.size())
    {
    }

    /**
     * Non-owning view over @p size bytes at @p data, which the
     * caller keeps alive and unchanged while the reader is in use.
     */
    BinaryReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    // A moved std::vector keeps its heap buffer, so data_ stays
    // valid across a move; a copy would alias the source's buffer.
    BinaryReader(BinaryReader &&) = default;
    BinaryReader &operator=(BinaryReader &&) = default;
    BinaryReader(const BinaryReader &) = delete;
    BinaryReader &operator=(const BinaryReader &) = delete;

    /**
     * Read @p path, verify the trailing FNV-1a checksum, and return
     * a reader over the payload (checksum stripped). Nullptr-style
     * failure: ok() is false and @p error says why (missing file,
     * short file, checksum mismatch = truncation or corruption).
     */
    static BinaryReader fromFile(const std::string &path,
                                 std::string *error);

    std::uint8_t
    u8()
    {
        if (!require(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!require(4))
            return 0;
        std::uint32_t v = 0;
        for (int shift = 0; shift < 32; shift += 8)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!require(8))
            return 0;
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 8)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
        return v;
    }

    /** Bit-exact inverse of BinaryWriter::f64. */
    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        const std::uint8_t *at = bytes(n);
        return at ? std::string(at, at + n) : std::string();
    }

    std::vector<std::uint8_t>
    vecU8()
    {
        const std::uint64_t n = u64();
        const std::uint8_t *at = bytes(n);
        return at ? std::vector<std::uint8_t>(at, at + n)
                  : std::vector<std::uint8_t>();
    }

    std::vector<std::uint32_t>
    vecU32()
    {
        return vecOf<std::uint32_t>();
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        return vecOf<std::uint64_t>();
    }

    /**
     * The next @p n bytes in place (advancing past them), or nullptr
     * with fail() latched when fewer remain. The pointer lives as
     * long as the reader's bytes do.
     */
    const std::uint8_t *
    bytes(std::uint64_t n)
    {
        if (!require(n))
            return nullptr;
        const std::uint8_t *at = data_ + pos_;
        pos_ += static_cast<std::size_t>(n);
        return at;
    }

    /** False once any read overran the buffer (truncated payload). */
    bool
    failed() const
    {
        return failed_;
    }

    bool
    ok() const
    {
        return !failed_;
    }

    /** Bytes left unconsumed (a well-formed file ends at zero). */
    std::size_t
    remaining() const
    {
        return size_ - pos_;
    }

  private:
    bool
    require(std::uint64_t n)
    {
        if (failed_ || n > size_ - pos_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    /** A u64-length-prefixed vector of little-endian @p T. */
    template <typename T>
    std::vector<T>
    vecOf()
    {
        // Divide, don't multiply: sizeof(T) * n wraps for a hostile
        // length field, and the whole point is refusing such files.
        const std::uint64_t n = u64();
        if (failed_ || n > (size_ - pos_) / sizeof(T)) {
            failed_ = true;
            return {};
        }
        std::vector<T> v(static_cast<std::size_t>(n));
        if constexpr (kHostLittleEndian) {
            if (n)
                std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
            pos_ += static_cast<std::size_t>(n * sizeof(T));
        } else {
            for (T &x : v) {
                x = 0;
                for (std::size_t b = 0; b < sizeof(T); ++b)
                    x |= static_cast<T>(data_[pos_++]) << (8 * b);
            }
        }
        return v;
    }

    std::vector<std::uint8_t> owned_;
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace smarts::util

#endif // SMARTS_UTIL_BINARY_IO_HH
