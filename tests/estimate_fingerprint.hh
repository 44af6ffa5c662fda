/**
 * @file
 * Test-suite alias for the bit-exact SmartsEstimate fingerprint.
 * The ONE definition lives on the estimate itself
 * (core/sampler.hh, SmartsEstimate::fingerprint) so the tests and
 * the golden benches tighten together when the estimate grows a
 * field; this header only keeps the suites' free-function spelling.
 */

#ifndef SMARTS_TESTS_ESTIMATE_FINGERPRINT_HH
#define SMARTS_TESTS_ESTIMATE_FINGERPRINT_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/sampler.hh"

namespace smarts::test {

/** Raw bit pattern of a double (bit-exact comparisons in checks). */
inline std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

inline std::vector<std::uint64_t>
fingerprint(const core::SmartsEstimate &est)
{
    return est.fingerprint();
}

} // namespace smarts::test

#endif // SMARTS_TESTS_ESTIMATE_FINGERPRINT_HH
