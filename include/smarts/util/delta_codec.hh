/**
 * @file
 * Delta codec for consecutive checkpoint states: XOR the payload
 * against a base (the previous live-point's raw state), then
 * run-length encode the zero bytes. Successive sampling units share
 * almost all of their serialized state — data image, cache arrays,
 * predictor tables — so the XOR residue is overwhelmingly zero and a
 * library of per-unit live-points (core/livepoint.hh) stays within a
 * small multiple of one full checkpoint on disk.
 *
 * Encoded stream (little-endian, on top of BinaryWriter/Reader;
 * normative layout in docs/checkpoint-format.md § Delta codec):
 *
 *   u64 rawSize
 *   repeat until rawSize bytes are covered:
 *     u32 zeroRun      XOR-residue bytes equal to the base
 *     u32 literalLen   differing bytes, XOR residues follow verbatim
 *     u8[literalLen]
 *
 * The base is conceptually zero-padded to rawSize, so the first
 * record of a chain deltas against an empty base and simply stores
 * its literal bytes. Both directions cost O(delta), not O(state):
 * the encoder compares 8-byte words and XORs literals a word at a
 * time, and deltaApply turns a state into its successor in place —
 * a zero run leaves its bytes untouched. Decoding never trusts the
 * stream: overrunning ops, zero-progress ops, truncation and
 * trailing garbage are all refused with a diagnostic, before the
 * state is touched, instead of mis-decoded.
 */

#ifndef SMARTS_UTIL_DELTA_CODEC_HH
#define SMARTS_UTIL_DELTA_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/binary_io.hh"

namespace smarts::util {

/**
 * Append the encoding of @p size bytes at @p data, as a delta
 * against @p baseSize bytes at @p base (zero-padded), to @p out.
 */
void deltaEncode(const std::uint8_t *base, std::size_t baseSize,
                 const std::uint8_t *data, std::size_t size,
                 BinaryWriter &out);

/** Encode @p data as a delta against @p base (zero-padded). */
std::vector<std::uint8_t>
deltaEncode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &data);

/**
 * Apply the @p size-byte delta at @p delta to @p state in place:
 * @p state (the base) becomes the encoded payload, resized to the
 * delta's rawSize. False with a diagnostic in @p error on any
 * malformed input (truncated stream, ops overrunning the declared
 * size, zero-progress ops, trailing garbage); @p state is then left
 * unchanged.
 */
bool deltaApply(std::vector<std::uint8_t> &state,
                const std::uint8_t *delta, std::size_t size,
                std::string *error = nullptr);

/**
 * Copy-then-apply form of deltaApply: reconstruct the payload from
 * @p base and @p delta. Nullopt with a diagnostic in @p error on
 * malformed input.
 */
std::optional<std::vector<std::uint8_t>>
deltaDecode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &delta,
            std::string *error = nullptr);

} // namespace smarts::util

#endif // SMARTS_UTIL_DELTA_CODEC_HH
