/**
 * @file
 * Fixture tests for the smarts_lint contract checks: every check
 * must fire on its fixture at the expected file:line, a justified
 * suppression must silence its diagnostic, check toggles must
 * filter, and — the guard the linter exists for — dropping a field
 * from ArchState::write in the real tree must be caught. Driven
 * in-process through lint::lintFiles plus one pass through the real
 * smarts_lint binary (argv: fixtures dir, lint binary, repo root).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "lint/lint.hh"

#include "check.hh"

namespace {

using smarts::lint::Diagnostic;
using smarts::lint::Options;
using smarts::lint::Report;

std::string fixturesDir; // tests/lint_fixtures
std::string lintBinary;  // $<TARGET_FILE:smarts_lint>
std::string repoRoot;    // PROJECT_SOURCE_DIR

std::string
fixture(const std::string &name)
{
    return fixturesDir + "/" + name;
}

Report
lintOne(const std::string &name, const Options &options = {})
{
    return smarts::lint::lintFiles({fixture(name)}, options);
}

/** Count diagnostics for `check` anchored at `line`. */
int
countAt(const Report &report, const std::string &check, int line)
{
    int n = 0;
    for (const Diagnostic &d : report.diagnostics)
        if (d.check == check && d.line == line)
            ++n;
    return n;
}

void
testEachCheckFiresOnItsFixture()
{
    // no-unordered-iteration: scoped by path, and the fixture lives
    // under a core/ directory precisely so it is in scope.
    Report r = lintOne("core/unordered_iteration.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(1));
    CHECK_EQ(countAt(r, "no-unordered-iteration", 24), 1);
    CHECK(r.diagnostics[0].message.find("counts") !=
          std::string::npos);

    // no-ambient-nondeterminism: one diagnostic per offending line
    // (clock read and rand()).
    r = lintOne("ambient_nondeterminism.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(2));
    CHECK_EQ(countAt(r, "no-ambient-nondeterminism", 15), 1);
    CHECK_EQ(countAt(r, "no-ambient-nondeterminism", 17), 1);

    // serializer-completeness: a skipped field is reported against
    // both write and read, and a write/read order swap is caught.
    r = lintOne("serializer_incomplete.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(3));
    CHECK_EQ(countAt(r, "serializer-completeness", 21), 2);
    CHECK_EQ(countAt(r, "serializer-completeness", 49), 1);
    bool sawSkip = false, sawOrder = false;
    for (const Diagnostic &d : r.diagnostics) {
        if (d.message.find("'loads'") != std::string::npos)
            sawSkip = true;
        if (d.message.find("different orders") != std::string::npos)
            sawOrder = true;
    }
    CHECK(sawSkip);
    CHECK(sawOrder);

    // checksum-before-use: scoped by the "checkpoint" in the file
    // name; the unvalidated decode is anchored at the first decode.
    r = lintOne("checkpoint_load_nocheck.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(1));
    CHECK_EQ(countAt(r, "checksum-before-use", 23), 1);
    CHECK(r.diagnostics[0].message.find("tryLoadBlob") !=
          std::string::npos);

    // ...and the store-index journal loader is in the same scope
    // (the "store_index" file-name rule): decode-before-checksum
    // ordering is anchored at the premature decode line.
    r = lintOne("store_index_nocheck.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(1));
    CHECK_EQ(countAt(r, "checksum-before-use", 29), 1);
    CHECK(r.diagnostics[0].message.find("loadIndexRecord") !=
          std::string::npos);
    CHECK(r.diagnostics[0].message.find("before its first") !=
          std::string::npos);

    // ...and so is the co-run tier (the "/mp/" directory rule): a
    // mix loader that decodes before validating fires too.
    r = lintOne("mp/mix_identity_nocheck.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(1));
    CHECK_EQ(countAt(r, "checksum-before-use", 23), 1);
    CHECK(r.diagnostics[0].message.find("loadMixHeader") !=
          std::string::npos);

    // serializer-completeness over the co-run tier's state shapes
    // (dual-world lane counters, owner-tagged shared-cache arrays):
    // a forgotten newest field fires against write AND read, and a
    // vector-field order swap is caught.
    r = lintOne("mix_state_incomplete.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(3));
    CHECK_EQ(countAt(r, "serializer-completeness", 25), 2);
    CHECK_EQ(countAt(r, "serializer-completeness", 52), 1);
    bool sawShadow = false, sawTagOrder = false;
    for (const Diagnostic &d : r.diagnostics) {
        if (d.message.find("'shadowMisses'") != std::string::npos)
            sawShadow = true;
        if (d.message.find("different orders") != std::string::npos)
            sawTagOrder = true;
    }
    CHECK(sawShadow);
    CHECK(sawTagOrder);

    // float-fold-discipline: the merge-path marker opts the file
    // in; both the bare += and std::accumulate fire.
    r = lintOne("float_fold_merge.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(2));
    CHECK_EQ(countAt(r, "float-fold-discipline", 20), 1);
    CHECK_EQ(countAt(r, "float-fold-discipline", 22), 1);
}

void
testSuppressionSilencesAndIsCounted()
{
    const Report r = lintOne("suppressed_clean.cc");
    CHECK(r.clean());
    CHECK_EQ(r.diagnostics.size(), std::size_t(0));
    CHECK_EQ(r.suppressionsHonored, 1);
}

void
testCheckTogglesFilter()
{
    // Only the enabled check runs...
    Options only;
    only.enabled.push_back("no-ambient-nondeterminism");
    Report r = smarts::lint::lintFiles(
        {fixture("ambient_nondeterminism.cc"),
         fixture("float_fold_merge.cc")},
        only);
    CHECK_EQ(r.diagnostics.size(), std::size_t(2));
    for (const Diagnostic &d : r.diagnostics)
        CHECK_EQ(d.check, std::string("no-ambient-nondeterminism"));

    // ...and a disabled check stays quiet while the rest still run.
    Options no;
    no.disabled.push_back("float-fold-discipline");
    r = smarts::lint::lintFiles({fixture("float_fold_merge.cc")}, no);
    CHECK(r.clean());
}

void
testDiagnosticFormatIsClickable()
{
    const Report r = lintOne("core/unordered_iteration.cc");
    CHECK_EQ(r.diagnostics.size(), std::size_t(1));
    const std::string text =
        smarts::lint::formatDiagnostic(r.diagnostics[0]);
    // file:line: [check] message — what editors and CI logs expect.
    CHECK(text.find("unordered_iteration.cc:24: "
                    "[no-unordered-iteration]") != std::string::npos);
}

/**
 * The acceptance guard: drop one field write from the real
 * ArchState::write and the linter must notice. Works on a mutated
 * copy so the tree itself is never touched.
 */
void
testDroppedArchStateFieldIsCaught()
{
    const std::string archPath =
        repoRoot + "/include/smarts/core/arch.hh";
    std::ifstream in(archPath);
    CHECK(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string code = buffer.str();

    // Sanity: the unmutated header is clean.
    Report r = smarts::lint::lintFiles({archPath}, {});
    CHECK(r.clean());

    const std::string dropped = "out.u32(pc);";
    const std::size_t at = code.find(dropped);
    CHECK(at != std::string::npos);
    code.erase(at, dropped.size());

    // Scratch copy in the build-tree cwd, never the source tree.
    const std::string mutated = "test_lint_mutated_arch.hh";
    {
        std::ofstream out(mutated);
        out << code;
    }
    r = smarts::lint::lintFiles({mutated}, {});
    bool caught = false;
    for (const Diagnostic &d : r.diagnostics)
        caught = caught ||
                 (d.check == "serializer-completeness" &&
                  d.message.find("'pc'") != std::string::npos &&
                  d.message.find("never written") !=
                      std::string::npos);
    CHECK(caught);
    std::remove(mutated.c_str());
}

/**
 * Same acceptance guard over the co-run tier: drop the owner-tag
 * array from the real SharedCacheState::write and the linter must
 * notice — the shared hierarchy's state structs are under the same
 * serializer-completeness contract as the solo ones.
 */
void
testDroppedSharedCacheFieldIsCaught()
{
    const std::string path =
        repoRoot + "/include/smarts/mem/shared_hierarchy.hh";
    std::ifstream in(path);
    CHECK(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string code = buffer.str();

    Report r = smarts::lint::lintFiles({path}, {});
    CHECK(r.clean());

    const std::string dropped = "out.vecU8(owners);";
    const std::size_t at = code.find(dropped);
    CHECK(at != std::string::npos);
    code.erase(at, dropped.size());

    const std::string mutated = "test_lint_mutated_shared.hh";
    {
        std::ofstream out(mutated);
        out << code;
    }
    r = smarts::lint::lintFiles({mutated}, {});
    bool caught = false;
    for (const Diagnostic &d : r.diagnostics)
        caught = caught ||
                 (d.check == "serializer-completeness" &&
                  d.message.find("'owners'") != std::string::npos &&
                  d.message.find("never written") !=
                      std::string::npos);
    CHECK(caught);
    std::remove(mutated.c_str());
}

/** One pass through the installed CLI: exit codes and output. */
void
testBinaryEndToEnd()
{
    auto run = [&](const std::string &args, std::string *out) {
        const std::string cmd = lintBinary + " " + args + " 2>&1";
        FILE *pipe = popen(cmd.c_str(), "r");
        CHECK(pipe != nullptr);
        if (!pipe)
            return -1;
        char buf[512];
        out->clear();
        while (std::fgets(buf, sizeof(buf), pipe))
            out->append(buf);
        const int status = pclose(pipe);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    };

    std::string out;
    // Violations -> exit 1 with a file:line diagnostic.
    CHECK_EQ(run(fixture("ambient_nondeterminism.cc"), &out), 1);
    CHECK(out.find("ambient_nondeterminism.cc:15:") !=
          std::string::npos);

    // A suppressed fixture -> exit 0 and the suppression is counted.
    CHECK_EQ(run(fixture("suppressed_clean.cc"), &out), 0);
    CHECK(out.find("1 justified suppressions honored") !=
          std::string::npos);

    // --list-checks names all five contracts.
    CHECK_EQ(run("--list-checks", &out), 0);
    for (const std::string &name : smarts::lint::checkNames())
        CHECK(out.find(name) != std::string::npos);

    // Unknown flags and unknown checks are usage errors.
    CHECK_EQ(run("--bogus", &out), 2);
    CHECK_EQ(run("--check=no-such-check x.cc", &out), 2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: test_lint <fixtures-dir> <smarts_lint> "
                     "<repo-root>\n");
        return 2;
    }
    fixturesDir = argv[1];
    lintBinary = argv[2];
    repoRoot = argv[3];

    testEachCheckFiresOnItsFixture();
    testSuppressionSilencesAndIsCounted();
    testCheckTogglesFilter();
    testDiagnosticFormatIsClickable();
    testDroppedArchStateFieldIsCaught();
    testDroppedSharedCacheFieldIsCaught();
    testBinaryEndToEnd();

    TEST_MAIN_SUMMARY();
}
