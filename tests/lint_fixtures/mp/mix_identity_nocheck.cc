/**
 * @file
 * smarts_lint fixture: a co-run loader under an mp/ directory (the
 * file name alone names no load scope) that decodes a program count
 * before any checksum/magic validation must fire checksum-before-use.
 */

#include <cstdint>
#include <optional>

namespace util {
class BinaryReader;
} // namespace util

namespace fixture {

struct MixHeader
{
    std::uint32_t programs = 0;
};

inline std::optional<MixHeader>
loadMixHeader(util::BinaryReader &in)
{
    MixHeader header;
    header.programs = in.u32();
    return header;
}

} // namespace fixture
