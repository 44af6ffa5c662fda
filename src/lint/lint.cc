/**
 * @file
 * Implementation of the smarts_lint contract checks (lint/lint.hh).
 *
 * The analysis is deliberately lexical: sources are loaded, comments
 * and string/char literals are blanked out (so tokens inside them
 * never match), and each check pattern-matches the repo's own
 * serializer/load/fold idioms. That keeps the linter dependency-free
 * and fast enough to run as an ordinary ctest, at the cost of being
 * a contract checker for THIS codebase rather than a general C++
 * front end. Each check documents the idiom it assumes.
 */

#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace smarts::lint {

namespace fs = std::filesystem;

namespace {

constexpr const char *kChecks[] = {
    "no-unordered-iteration",
    "no-ambient-nondeterminism",
    "serializer-completeness",
    "checksum-before-use",
    "float-fold-discipline",
};

/** Meta "check" for malformed suppressions and I/O failures. */
constexpr const char *kMetaCheck = "suppression";

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Find @p word in @p text at or after @p from with identifier
 * boundaries on both sides (so "time" never matches inside
 * "last_write_time"). Returns std::string::npos when absent.
 */
std::size_t
findWord(const std::string &text, const std::string &word,
         std::size_t from = 0)
{
    for (std::size_t pos = text.find(word, from);
         pos != std::string::npos; pos = text.find(word, pos + 1)) {
        const bool leftOk = pos == 0 || !isIdentChar(text[pos - 1]);
        const std::size_t end = pos + word.size();
        const bool rightOk =
            end >= text.size() || !isIdentChar(text[end]);
        if (leftOk && rightOk)
            return pos;
    }
    return std::string::npos;
}

std::size_t
skipSpaces(const std::string &text, std::size_t pos)
{
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    return pos;
}

/**
 * Given @p pos at an opening delimiter, return the offset just past
 * its balanced closer, or npos if the text ends first. Works for
 * (), {}, [] and — counting only the delimiter pair — <>.
 */
std::size_t
skipBalanced(const std::string &text, std::size_t pos, char open,
             char close)
{
    int depth = 0;
    for (; pos < text.size(); ++pos) {
        if (text[pos] == open)
            ++depth;
        else if (text[pos] == close && --depth == 0)
            return pos + 1;
    }
    return std::string::npos;
}

/** Last identifier token in @p text, or "" when there is none. */
std::string
lastIdentifier(const std::string &text)
{
    std::string last, current;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (isIdentStart(text[i])) {
            current.clear();
            while (i < text.size() && isIdentChar(text[i]))
                current += text[i++];
            last = current;
        }
    }
    return last;
}

/** Identifier ending at @p end (exclusive), skipping )/] groups. */
std::string
identifierBefore(const std::string &text, std::size_t end)
{
    std::size_t i = end;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(text[i - 1])))
        --i;
    // Skip one trailing index/call group: "buf[set] +=" resolves to
    // buf, "f().x +=" is out of scope for this lexical pass.
    if (i > 0 && (text[i - 1] == ']' || text[i - 1] == ')')) {
        const char close = text[i - 1];
        const char open = close == ']' ? '[' : '(';
        int depth = 0;
        while (i > 0) {
            --i;
            if (text[i] == close)
                ++depth;
            else if (text[i] == open && --depth == 0)
                break;
        }
        while (i > 0 &&
               std::isspace(static_cast<unsigned char>(text[i - 1])))
            --i;
    }
    std::size_t stop = i;
    while (i > 0 && isIdentChar(text[i - 1]))
        --i;
    return text.substr(i, stop - i);
}

/** Blank the contents of every <...> group (templates) in place. */
std::string
blankAngles(std::string text)
{
    int depth = 0;
    for (char &c : text) {
        if (c == '<') {
            ++depth;
            c = ' ';
        } else if (c == '>') {
            if (depth > 0)
                depth = 0 < --depth ? depth : 0;
            c = ' ';
        } else if (depth > 0) {
            c = ' ';
        }
    }
    return text;
}

struct Suppression
{
    std::set<std::string> checks;
    bool used = false;
};

struct SourceFile
{
    std::string path; ///< normalized to forward slashes.
    std::string code; ///< comments + literals blanked, same layout.
    std::string mask; ///< 'c' where a comment was, else ' '.
    std::vector<std::size_t> lineStart; ///< offset of line i+1.
    std::map<int, Suppression> allowAt; ///< covered line -> checks.
    bool mergePath = false; ///< file opted into float-fold scope.
    std::vector<Diagnostic> metaDiags;

    int
    lineOf(std::size_t offset) const
    {
        const auto it = std::upper_bound(lineStart.begin(),
                                         lineStart.end(), offset);
        return static_cast<int>(it - lineStart.begin());
    }

    std::string
    lineText(int line, const std::string &text) const
    {
        if (line < 1 || line > static_cast<int>(lineStart.size()))
            return {};
        const std::size_t begin = lineStart[line - 1];
        const std::size_t end =
            line < static_cast<int>(lineStart.size())
                ? lineStart[line]
                : text.size();
        return text.substr(begin, end - begin);
    }
};

/**
 * Replace comments and string/char literal contents with spaces so
 * later pattern matching only ever sees code. Newlines survive, so
 * offsets and line numbers are shared between raw and code views.
 * @p mask records which bytes were comment text ('c'): suppression
 * directives are only honored inside comments, so a string literal
 * that happens to contain "smarts-lint:" (this linter's own source,
 * say) never becomes a directive.
 */
std::string
blankCommentsAndLiterals(const std::string &raw, std::string &mask)
{
    std::string out = raw;
    mask.assign(raw.size(), ' ');
    enum class State { Code, Line, Block, Str, Chr } state = State::Code;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::Line;
                out[i] = ' ';
                mask[i] = 'c';
            } else if (c == '/' && next == '*') {
                state = State::Block;
                out[i] = ' ';
                mask[i] = 'c';
            } else if (c == '"') {
                state = State::Str;
            } else if (c == '\'') {
                state = State::Chr;
            }
            break;
          case State::Line:
            mask[i] = 'c';
            if (c == '\n')
                state = State::Code;
            else
                out[i] = ' ';
            break;
          case State::Block:
            mask[i] = 'c';
            if (c == '*' && next == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                mask[i + 1] = 'c';
                ++i;
                state = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case State::Str:
          case State::Chr:
            if (c == '\\' && next != '\0') {
                out[i] = ' ';
                if (next != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if ((state == State::Str && c == '"') ||
                       (state == State::Chr && c == '\'')) {
                state = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

/**
 * Parse the suppression directives out of @p raw. A directive on a
 * line that also holds code covers that line; a directive on a
 * comment-only line covers the next line that holds code. The
 * justification is whatever trails the closing paren — and it is
 * mandatory: contracts may be excepted, but never silently.
 */
void
parseSuppressions(SourceFile &file, const std::string &raw)
{
    const std::string tag = "smarts-lint:";
    std::size_t pos = 0;
    while ((pos = raw.find(tag, pos)) != std::string::npos) {
        // Only comments hold directives; the tag inside a string
        // literal (or code) is just bytes.
        if (pos >= file.mask.size() || file.mask[pos] != 'c') {
            pos += tag.size();
            continue;
        }
        const int tagLine = file.lineOf(pos);
        std::size_t cursor = skipSpaces(raw, pos + tag.size());
        if (raw.compare(cursor, 10, "merge-path") == 0) {
            file.mergePath = true;
            pos = cursor;
            continue;
        }
        if (raw.compare(cursor, 6, "allow(") != 0) {
            // Not a directive — prose that happens to mention the
            // tag (documentation, this very comment).
            pos = cursor;
            continue;
        }
        const std::size_t open = cursor + 5;
        const std::size_t close = raw.find(')', open);
        if (close == std::string::npos) {
            file.metaDiags.push_back({kMetaCheck, file.path, tagLine,
                                      "unterminated allow(...)"});
            break;
        }

        // Comma-separated check list inside the parens. A <check>
        // placeholder marks documentation ABOUT the syntax, not a
        // directive — skip the whole occurrence silently.
        const std::string inside =
            raw.substr(open + 1, close - open - 1);
        if (inside.find('<') != std::string::npos) {
            pos = close;
            continue;
        }
        std::set<std::string> checks;
        std::stringstream list(inside);
        std::string item;
        while (std::getline(list, item, ',')) {
            const std::size_t b = item.find_first_not_of(" \t");
            const std::size_t e = item.find_last_not_of(" \t");
            if (b == std::string::npos)
                continue;
            item = item.substr(b, e - b + 1);
            if (!knownCheck(item) || item == kMetaCheck)
                file.metaDiags.push_back(
                    {kMetaCheck, file.path, tagLine,
                     "allow() names unknown check '" + item + "'"});
            else
                checks.insert(item);
        }

        // The justification: text after ')' to end of line.
        std::size_t eol = raw.find('\n', close);
        if (eol == std::string::npos)
            eol = raw.size();
        std::string reason = raw.substr(close + 1, eol - close - 1);
        while (!reason.empty() &&
               (reason.back() == ' ' || reason.back() == '\t' ||
                reason.back() == '/' || reason.back() == '*'))
            reason.pop_back();
        const std::size_t b = reason.find_first_not_of(" \t-:");
        if (b == std::string::npos) {
            file.metaDiags.push_back(
                {kMetaCheck, file.path, tagLine,
                 "suppression without a justification (state WHY "
                 "this site may break the contract)"});
        }

        // Covered line: this one if it holds code, else the next
        // line that does.
        int covered = tagLine;
        const int lines = static_cast<int>(file.lineStart.size());
        auto holdsCode = [&](int line) {
            const std::string text = file.lineText(line, file.code);
            return text.find_first_not_of(" \t\n\r") !=
                   std::string::npos;
        };
        if (!holdsCode(tagLine)) {
            covered = 0;
            for (int line = tagLine + 1; line <= lines; ++line) {
                if (holdsCode(line)) {
                    covered = line;
                    break;
                }
            }
        }
        if (covered) {
            Suppression &s = file.allowAt[covered];
            s.checks.insert(checks.begin(), checks.end());
        }
        pos = close;
    }
}

bool
pathContains(const std::string &path, const char *needle)
{
    return path.find(needle) != std::string::npos;
}

/**
 * The directories whose iteration order feeds estimates or
 * serialized bytes (no-unordered-iteration scope).
 */
bool
inDeterministicScope(const std::string &path)
{
    return pathContains(path, "/core/") ||
           pathContains(path, "/stats/") ||
           pathContains(path, "/mem/") ||
           pathContains(path, "/bpred/");
}

/** Files whose loads decode persisted bytes (checksum-before-use). */
bool
inLoadScope(const std::string &path)
{
    return pathContains(path, "checkpoint") ||
           pathContains(path, "livepoint") ||
           pathContains(path, "persist") ||
           pathContains(path, "store_index") ||
           pathContains(path, "/mp/");
}

/** Files on a parallel merge/fold path (float-fold-discipline). */
bool
inMergeScope(const SourceFile &file)
{
    return file.mergePath ||
           pathContains(file.path, "core/sampler") ||
           pathContains(file.path, "core/multi_session") ||
           pathContains(file.path, "core/procedure") ||
           pathContains(file.path, "core/livepoint") ||
           pathContains(file.path, "/stats/");
}

/** A struct field and where it is declared. */
struct Field
{
    std::string name;
    int line = 0;
};

/** A struct that owns a write(BinaryWriter&) serializer. */
struct SerializedStruct
{
    std::string name;
    int line = 0;
    std::size_t fileIndex = 0;
    std::vector<Field> fields;
    bool hasWrite = false;
    bool hasRead = false;
    std::string writeBody; ///< empty when defined out of class.
    std::string readBody;
    std::size_t writeBodyOffset = 0; ///< offset of body in file code.
    std::size_t readBodyOffset = 0;
    int readLine = 0; ///< anchor for order-mismatch diagnostics.
};

/** An out-of-class Name::write / Name::read definition. */
struct ExternalBody
{
    std::string body;
    std::size_t fileIndex = 0;
    std::size_t offset = 0;
};

class Linter
{
  public:
    explicit Linter(const Options &options) : options_(options) {}

    Report
    run(const std::vector<std::string> &paths)
    {
        for (const std::string &path : paths)
            loadFile(path);
        for (SourceFile &file : files_)
            for (Diagnostic &d : file.metaDiags)
                if (checkEnabled(kMetaCheck))
                    report_.diagnostics.push_back(std::move(d));

        if (checkEnabled("serializer-completeness"))
            for (std::size_t i = 0; i < files_.size(); ++i)
                indexExternalBodies(i);

        for (std::size_t i = 0; i < files_.size(); ++i) {
            SourceFile &file = files_[i];
            if (checkEnabled("no-unordered-iteration") &&
                inDeterministicScope(file.path))
                checkUnorderedIteration(file);
            if (checkEnabled("no-ambient-nondeterminism"))
                checkAmbientNondeterminism(file);
            if (checkEnabled("serializer-completeness"))
                checkSerializers(i);
            if (checkEnabled("checksum-before-use") &&
                inLoadScope(file.path))
                checkChecksumBeforeUse(file);
            if (checkEnabled("float-fold-discipline") &&
                inMergeScope(file))
                checkFloatFold(file);
        }

        std::sort(report_.diagnostics.begin(),
                  report_.diagnostics.end(),
                  [](const Diagnostic &a, const Diagnostic &b) {
                      if (a.file != b.file)
                          return a.file < b.file;
                      if (a.line != b.line)
                          return a.line < b.line;
                      return a.check < b.check;
                  });
        report_.filesScanned = static_cast<int>(files_.size());
        return std::move(report_);
    }

  private:
    bool
    checkEnabled(const std::string &name) const
    {
        for (const std::string &off : options_.disabled)
            if (off == name)
                return false;
        if (options_.enabled.empty())
            return true;
        if (name == kMetaCheck)
            return true; // meta diagnostics ride with any selection.
        for (const std::string &on : options_.enabled)
            if (on == name)
                return true;
        return false;
    }

    void
    loadFile(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::string normalized = path;
        std::replace(normalized.begin(), normalized.end(), '\\', '/');
        if (!in) {
            report_.diagnostics.push_back(
                {kMetaCheck, normalized, 0, "cannot open file"});
            return;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const std::string raw = buffer.str();

        SourceFile file;
        file.path = normalized;
        file.lineStart.push_back(0);
        for (std::size_t i = 0; i < raw.size(); ++i)
            if (raw[i] == '\n')
                file.lineStart.push_back(i + 1);
        file.code = blankCommentsAndLiterals(raw, file.mask);
        parseSuppressions(file, raw);
        files_.push_back(std::move(file));
    }

    /** Emit unless an allow(<check>) covers the line. */
    void
    emit(SourceFile &file, const char *check, int line,
         std::string message)
    {
        const auto it = file.allowAt.find(line);
        if (it != file.allowAt.end() && it->second.checks.count(check)) {
            it->second.used = true;
            ++report_.suppressionsHonored;
            return;
        }
        report_.diagnostics.push_back(
            {check, file.path, line, std::move(message)});
    }

    // ------------------------------------------------------------
    // Check 1: no-unordered-iteration.
    //
    // Idiom assumed: unordered containers are declared inline
    // (std::unordered_map<...> name / std::unordered_set<...> name)
    // in the file that iterates them. Both range-for over such a
    // name and explicit .begin()/.end() iterator walks are flagged:
    // hash-table iteration order is implementation-defined, so any
    // estimate or serialized byte derived from it breaks the
    // bit-identical-merge contract.
    // ------------------------------------------------------------
    void
    checkUnorderedIteration(SourceFile &file)
    {
        const std::string &code = file.code;
        std::set<std::string> names;
        for (const char *kind : {"unordered_map", "unordered_set"}) {
            for (std::size_t pos = findWord(code, kind);
                 pos != std::string::npos;
                 pos = findWord(code, kind, pos + 1)) {
                std::size_t i = skipSpaces(code, pos + std::string(kind).size());
                if (i < code.size() && code[i] == '<') {
                    i = skipBalanced(code, i, '<', '>');
                    if (i == std::string::npos)
                        break;
                }
                i = skipSpaces(code, i);
                while (i < code.size() &&
                       (code[i] == '&' || code[i] == '*'))
                    i = skipSpaces(code, i + 1);
                std::string name;
                while (i < code.size() && isIdentChar(code[i]))
                    name += code[i++];
                if (!name.empty())
                    names.insert(name);
            }
        }
        if (names.empty())
            return;

        // Range-for whose range expression mentions a known name.
        for (std::size_t pos = findWord(code, "for");
             pos != std::string::npos;
             pos = findWord(code, "for", pos + 1)) {
            const std::size_t open = skipSpaces(code, pos + 3);
            if (open >= code.size() || code[open] != '(')
                continue;
            const std::size_t end =
                skipBalanced(code, open, '(', ')');
            if (end == std::string::npos)
                continue;
            const std::string header =
                code.substr(open + 1, end - open - 2);
            const std::size_t colon = header.find(':');
            if (colon == std::string::npos ||
                (colon + 1 < header.size() && header[colon + 1] == ':'))
                continue;
            const std::string range = header.substr(colon + 1);
            for (const std::string &name : names) {
                if (findWord(range, name) == std::string::npos)
                    continue;
                emit(file, "no-unordered-iteration", file.lineOf(pos),
                     "range-for over unordered container '" + name +
                         "': hash iteration order is "
                         "implementation-defined and would poison "
                         "estimates/serialized output; iterate a "
                         "sorted copy or an ordered container");
                break;
            }
        }

        // Explicit iterator walks over a known name.
        for (const std::string &name : names) {
            for (std::size_t pos = findWord(code, name);
                 pos != std::string::npos;
                 pos = findWord(code, name, pos + 1)) {
                std::size_t i =
                    skipSpaces(code, pos + name.size());
                if (i >= code.size() || code[i] != '.')
                    continue;
                i = skipSpaces(code, i + 1);
                for (const char *it :
                     {"begin", "end", "cbegin", "cend"}) {
                    const std::string call(it);
                    if (code.compare(i, call.size(), call) == 0 &&
                        i + call.size() < code.size() &&
                        code[i + call.size()] == '(') {
                        emit(file, "no-unordered-iteration",
                             file.lineOf(pos),
                             "iterator walk over unordered "
                             "container '" + name +
                                 "': hash iteration order is "
                                 "implementation-defined on a "
                                 "determinism-critical path");
                        break;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------
    // Check 2: no-ambient-nondeterminism.
    //
    // Wall clocks, PRNG seeds from the environment, and environment
    // variables inject host state into what must be a pure function
    // of (benchmark, config, seed). Every hit needs a suppression
    // saying why it cannot reach an estimate or serialized byte.
    // ------------------------------------------------------------
    void
    checkAmbientNondeterminism(SourceFile &file)
    {
        const std::string &code = file.code;
        std::map<int, std::string> hits; // line -> joined labels.
        auto record = [&](std::size_t offset, const char *label) {
            std::string &labels = hits[file.lineOf(offset)];
            if (labels.find(label) != std::string::npos)
                return;
            if (!labels.empty())
                labels += ", ";
            labels += label;
        };

        for (std::size_t pos = code.find("std::chrono");
             pos != std::string::npos;
             pos = code.find("std::chrono", pos + 1))
            record(pos, "std::chrono");
        for (std::size_t pos = code.find("::now");
             pos != std::string::npos;
             pos = code.find("::now", pos + 1)) {
            const std::size_t call = skipSpaces(code, pos + 5);
            if (call < code.size() && code[call] == '(')
                record(pos, "clock read");
        }
        for (std::size_t pos = code.find("last_write_time");
             pos != std::string::npos;
             pos = code.find("last_write_time", pos + 1))
            record(pos, "file mtime");
        for (std::size_t pos = code.find("random_device");
             pos != std::string::npos;
             pos = code.find("random_device", pos + 1))
            record(pos, "std::random_device");
        for (const char *fn : {"rand", "srand", "time", "clock"}) {
            for (std::size_t pos = findWord(code, fn);
                 pos != std::string::npos;
                 pos = findWord(code, fn, pos + 1)) {
                const std::size_t call =
                    skipSpaces(code, pos + std::string(fn).size());
                if (call < code.size() && code[call] == '(')
                    record(pos, (std::string(fn) + "()").c_str());
            }
        }
        for (std::size_t pos = findWord(code, "getenv");
             pos != std::string::npos;
             pos = findWord(code, "getenv", pos + 1))
            record(pos, "getenv");

        // A multi-line chrono expression hits on every line it
        // spans; coalesce runs of adjacent lines into one
        // diagnostic (and one suppression site) at the first line.
        int groupLine = 0, prevLine = 0;
        std::string groupLabels;
        auto flush = [&]() {
            if (groupLine)
                emit(file, "no-ambient-nondeterminism", groupLine,
                     "ambient nondeterminism (" + groupLabels +
                         ") on a simulation path; results must be "
                         "a pure function of (benchmark, config, "
                         "seed) — if this site cannot reach an "
                         "estimate or a serialized byte, annotate "
                         "it with an allow() suppression saying "
                         "why");
        };
        for (const auto &[line, labels] : hits) {
            if (groupLine && line == prevLine + 1) {
                if (groupLabels.find(labels) == std::string::npos)
                    groupLabels += ", " + labels;
            } else {
                flush();
                groupLine = line;
                groupLabels = labels;
            }
            prevLine = line;
        }
        flush();
    }

    // ------------------------------------------------------------
    // Check 3: serializer-completeness.
    //
    // Idiom assumed: a checkpointable state struct declares its
    // fields and a write(util::BinaryWriter&) / read(BinaryReader&)
    // pair (in-class, or defined out of class as Name::write /
    // Name::read anywhere in the scanned file set; a static
    // read(BinaryReader&) factory also counts). Every field must
    // appear in both bodies, and fields must be touched in the same
    // order in write and read — the "forgot to serialize the new
    // field" bug class that makes format migrations dangerous.
    // ------------------------------------------------------------
    void
    indexExternalBodies(std::size_t fileIndex)
    {
        const std::string &code = files_[fileIndex].code;
        for (const char *method : {"write", "read"}) {
            for (std::size_t pos = findWord(code, method);
                 pos != std::string::npos;
                 pos = findWord(code, method, pos + 1)) {
                // Require a Qualifier:: immediately before.
                if (pos < 2 || code[pos - 1] != ':' ||
                    code[pos - 2] != ':')
                    continue;
                std::size_t q = pos - 2;
                while (q > 0 && isIdentChar(code[q - 1]))
                    --q;
                const std::string owner =
                    code.substr(q, pos - 2 - q);
                if (owner.empty())
                    continue;
                std::size_t i = skipSpaces(
                    code, pos + std::string(method).size());
                if (i >= code.size() || code[i] != '(')
                    continue;
                i = skipBalanced(code, i, '(', ')');
                if (i == std::string::npos)
                    continue;
                // Skip const/noexcept/etc. up to '{' (definition)
                // or bail at ';'/',' (a call or declaration).
                while (i < code.size()) {
                    i = skipSpaces(code, i);
                    if (i < code.size() && isIdentStart(code[i])) {
                        while (i < code.size() && isIdentChar(code[i]))
                            ++i;
                        continue;
                    }
                    break;
                }
                if (i >= code.size() || code[i] != '{')
                    continue;
                const std::size_t close =
                    skipBalanced(code, i, '{', '}');
                if (close == std::string::npos)
                    continue;
                ExternalBody body;
                body.body = code.substr(i, close - i);
                body.fileIndex = fileIndex;
                body.offset = i;
                external_[owner + "::" + method] = std::move(body);
            }
        }
    }

    void
    checkSerializers(std::size_t fileIndex)
    {
        SourceFile &file = files_[fileIndex];
        const std::string &code = file.code;
        for (const char *kind : {"struct", "class"}) {
            for (std::size_t pos = findWord(code, kind);
                 pos != std::string::npos;
                 pos = findWord(code, kind, pos + 1)) {
                // "enum struct/class" is a different beast.
                std::string before =
                    identifierBefore(code, pos);
                if (before == "enum")
                    continue;
                std::size_t i = skipSpaces(
                    code, pos + std::string(kind).size());
                std::string name;
                while (i < code.size() && isIdentChar(code[i]))
                    name += code[i++];
                if (name.empty())
                    continue;
                // Find the body '{', allowing a base-clause; bail
                // at ';' (forward declaration) or '(' (a cast or
                // function-style use).
                std::size_t open = std::string::npos;
                for (std::size_t j = i; j < code.size(); ++j) {
                    if (code[j] == '{') {
                        open = j;
                        break;
                    }
                    if (code[j] == ';' || code[j] == '(' ||
                        code[j] == ')' || code[j] == '=')
                        break;
                }
                if (open == std::string::npos)
                    continue;
                const std::size_t close =
                    skipBalanced(code, open, '{', '}');
                if (close == std::string::npos)
                    continue;
                analyzeStruct(fileIndex, name, file.lineOf(pos),
                              open + 1, close - 1);
                pos = open; // resume scan inside handled below.
            }
        }
    }

    void
    analyzeStruct(std::size_t fileIndex, const std::string &name,
                  int declLine, std::size_t bodyBegin,
                  std::size_t bodyEnd)
    {
        SourceFile &file = files_[fileIndex];
        const std::string &code = file.code;
        SerializedStruct info;
        info.name = name;
        info.line = declLine;
        info.fileIndex = fileIndex;

        std::size_t stmtStart = bodyBegin;
        std::size_t i = bodyBegin;
        int parens = 0;
        while (i < bodyEnd) {
            const char c = code[i];
            if (c == '(') {
                ++parens;
            } else if (c == ')') {
                --parens;
            } else if (c == '{' && parens == 0) {
                std::string stmt =
                    code.substr(stmtStart, i - stmtStart);
                const std::size_t end =
                    skipBalanced(code, i, '{', '}');
                if (end == std::string::npos || end > bodyEnd + 1)
                    return; // malformed; refuse to guess.
                if (stmt.find('(') != std::string::npos) {
                    recordMethod(info, file, stmt, stmtStart,
                                 code.substr(i, end - i), i);
                    i = end;
                    stmtStart = i;
                    continue;
                }
                // Brace initializer inside a declaration
                // (std::array<...> regs{};): skip it, keep
                // accumulating until the ';'.
                i = end;
                continue;
            } else if (c == ';' && parens == 0) {
                std::string stmt =
                    code.substr(stmtStart, i - stmtStart);
                recordDeclaration(info, file, stmt, stmtStart);
                stmtStart = i + 1;
            }
            ++i;
        }

        if (!info.hasWrite)
            return;
        verifyStruct(info, file);
    }

    /** Handle an in-class method definition (body available). */
    void
    recordMethod(SerializedStruct &info, SourceFile &file,
                 const std::string &header, std::size_t headerOffset,
                 std::string body, std::size_t bodyOffset)
    {
        const std::size_t paren = header.find('(');
        if (paren == std::string::npos)
            return;
        const std::string name = identifierBefore(header, paren);
        const std::size_t close =
            skipBalanced(header, paren, '(', ')');
        const std::string params =
            close == std::string::npos
                ? header.substr(paren)
                : header.substr(paren, close - paren);
        if (name == "write" &&
            params.find("BinaryWriter") != std::string::npos) {
            info.hasWrite = true;
            info.writeBody = std::move(body);
            info.writeBodyOffset = bodyOffset;
        } else if (name == "read" &&
                   params.find("BinaryReader") != std::string::npos) {
            info.hasRead = true;
            info.readBody = std::move(body);
            info.readBodyOffset = bodyOffset;
            info.readLine = file.lineOf(headerOffset);
        }
    }

    /** Handle a ';'-terminated statement: field or method decl. */
    void
    recordDeclaration(SerializedStruct &info, SourceFile &file,
                      std::string stmt, std::size_t stmtOffset)
    {
        // Strip access labels that ride along in the statement.
        for (const char *label : {"public:", "private:", "protected:"}) {
            const std::size_t at = stmt.find(label);
            if (at != std::string::npos)
                stmt.erase(0, at + std::string(label).size());
        }
        const std::size_t paren = stmt.find('(');
        if (paren != std::string::npos) {
            // Method declaration (body elsewhere): note write/read.
            const std::string name = identifierBefore(stmt, paren);
            if (name == "write" &&
                stmt.find("BinaryWriter") != std::string::npos)
                info.hasWrite = true;
            else if (name == "read" &&
                     stmt.find("BinaryReader") != std::string::npos)
                info.hasRead = true;
            return;
        }
        std::string cleaned = blankAngles(stmt);
        const std::size_t eq = cleaned.find('=');
        if (eq != std::string::npos)
            cleaned.erase(eq);
        // First word rules out non-field statements.
        std::size_t w = skipSpaces(cleaned, 0);
        std::string first;
        while (w < cleaned.size() && isIdentChar(cleaned[w]))
            first += cleaned[w++];
        static const std::set<std::string> kNotFields = {
            "using", "typedef", "friend", "static", "enum",
            "struct", "class", "template", "", "constexpr",
        };
        if (kNotFields.count(first))
            return;
        // A declaration needs a type AND a declarator: require at
        // least two identifier tokens ("mem::HierarchyState mem" has
        // three; a stray label remnant has one).
        int tokens = 0;
        for (std::size_t t = 0; t < cleaned.size(); ++t) {
            if (!isIdentStart(cleaned[t]))
                continue;
            ++tokens;
            while (t < cleaned.size() && isIdentChar(cleaned[t]))
                ++t;
        }
        const std::string name = lastIdentifier(cleaned);
        if (name.empty() || tokens < 2)
            return;
        // Anchor the field at the first code character of its
        // statement so a suppression above the declaration works.
        info.fields.push_back(
            {name,
             file.lineOf(firstCodeOffset(code(info), stmtOffset))});
    }

    const std::string &
    code(const SerializedStruct &info) const
    {
        return files_[info.fileIndex].code;
    }

    static std::size_t
    firstCodeOffset(const std::string &code, std::size_t from)
    {
        const std::size_t at =
            code.find_first_not_of(" \t\n\r", from);
        return at == std::string::npos ? from : at;
    }

    void
    verifyStruct(SerializedStruct &info, SourceFile &file)
    {
        // Resolve out-of-class bodies (LibraryKey::write lives in
        // checkpoint.cc while the struct lives in checkpoint.hh).
        if (info.writeBody.empty()) {
            const auto it = external_.find(info.name + "::write");
            if (it == external_.end())
                return; // definition outside the scanned set.
            info.writeBody = it->second.body;
        }
        if (!info.hasRead) {
            emit(file, "serializer-completeness", info.line,
                 "struct " + info.name +
                     " has write(BinaryWriter&) but no "
                     "read(BinaryReader&): checkpoints it writes "
                     "can never be loaded back");
            return;
        }
        if (info.readBody.empty()) {
            const auto it = external_.find(info.name + "::read");
            if (it == external_.end())
                return;
            info.readBody = it->second.body;
            info.readLine = info.line;
        }
        if (info.readLine == 0)
            info.readLine = info.line;

        struct Placed
        {
            const Field *field;
            std::size_t writeAt;
            std::size_t readAt;
        };
        std::vector<Placed> placed;
        for (const Field &field : info.fields) {
            // A field-level allow() exempts intentionally
            // unserialized members (caches, derived values).
            const auto at = file.allowAt.find(field.line);
            if (at != file.allowAt.end() &&
                at->second.checks.count("serializer-completeness")) {
                at->second.used = true;
                ++report_.suppressionsHonored;
                continue;
            }
            const std::size_t w =
                findWord(info.writeBody, field.name);
            const std::size_t r =
                findWord(info.readBody, field.name);
            if (w == std::string::npos)
                emit(file, "serializer-completeness", field.line,
                     "field '" + field.name + "' of " + info.name +
                         " is never written in " + info.name +
                         "::write — a checkpoint round-trip "
                         "silently drops it");
            if (r == std::string::npos)
                emit(file, "serializer-completeness", field.line,
                     "field '" + field.name + "' of " + info.name +
                         " is never read in " + info.name +
                         "::read — restored state keeps a stale "
                         "value");
            if (w != std::string::npos && r != std::string::npos)
                placed.push_back({&field, w, r});
        }

        std::vector<Placed> byWrite = placed, byRead = placed;
        std::sort(byWrite.begin(), byWrite.end(),
                  [](const Placed &a, const Placed &b) {
                      return a.writeAt < b.writeAt;
                  });
        std::sort(byRead.begin(), byRead.end(),
                  [](const Placed &a, const Placed &b) {
                      return a.readAt < b.readAt;
                  });
        for (std::size_t i = 0; i < byWrite.size(); ++i) {
            if (byWrite[i].field->name == byRead[i].field->name)
                continue;
            auto order = [](const std::vector<Placed> &seq) {
                std::string out;
                for (const Placed &p : seq) {
                    if (!out.empty())
                        out += ", ";
                    out += p.field->name;
                }
                return out;
            };
            emit(file, "serializer-completeness", info.readLine,
                 info.name + "::write and " + info.name +
                     "::read touch fields in different orders "
                     "(write: " + order(byWrite) + "; read: " +
                     order(byRead) +
                     ") — the byte stream will be decoded "
                     "misaligned");
            break;
        }
    }

    // ------------------------------------------------------------
    // Check 4: checksum-before-use.
    //
    // Idiom assumed: load paths go through BinaryReader::fromFile
    // (whole-file FNV checksum), then magic/version validation,
    // before any payload field is decoded. A load-like function
    // (load*/tryLoad*) must reach a validation token — fromFile,
    // readMagic, kMagic, fnv1a, a checksum compare — or delegate to
    // another load function BEFORE its first payload decode
    // (in.u32()/.str()/.read()/decodeDelta).
    // ------------------------------------------------------------
    void
    checkChecksumBeforeUse(SourceFile &file)
    {
        const std::string &code = file.code;
        std::size_t searchFrom = 0;
        while (searchFrom < code.size()) {
            // Next load-like identifier.
            std::size_t best = std::string::npos;
            for (const char *stem : {"load", "tryLoad", "Load"}) {
                for (std::size_t pos = code.find(stem, searchFrom);
                     pos != std::string::npos;
                     pos = code.find(stem, pos + 1)) {
                    // Identifier must START here ("payload" must
                    // not match at its inner "load").
                    if (pos > 0 && isIdentChar(code[pos - 1]))
                        continue;
                    if (pos < best)
                        best = pos;
                    break;
                }
            }
            if (best == std::string::npos)
                return;
            searchFrom = best + 1;

            // Full identifier, then require a definition: name(
            // ... ) [tokens] { — calls end in ';', ',' or ')'.
            std::size_t i = best;
            while (i < code.size() && isIdentChar(code[i]))
                ++i;
            std::size_t open = skipSpaces(code, i);
            if (open >= code.size() || code[open] != '(')
                continue;
            std::size_t after = skipBalanced(code, open, '(', ')');
            if (after == std::string::npos)
                continue;
            while (after < code.size()) {
                after = skipSpaces(code, after);
                if (after < code.size() && isIdentStart(code[after])) {
                    while (after < code.size() &&
                           isIdentChar(code[after]))
                        ++after;
                    continue;
                }
                break;
            }
            if (after >= code.size() || code[after] != '{')
                continue;
            const std::size_t close =
                skipBalanced(code, after, '{', '}');
            if (close == std::string::npos)
                continue;
            const std::string body =
                code.substr(after, close - after);
            analyzeLoadBody(file, code.substr(best, i - best),
                            best, after, body);
            searchFrom = close;
        }
    }

    void
    analyzeLoadBody(SourceFile &file, const std::string &name,
                    std::size_t nameOffset, std::size_t bodyOffset,
                    const std::string &body)
    {
        auto firstOf = [&](const std::vector<std::string> &tokens) {
            std::size_t first = std::string::npos;
            for (const std::string &token : tokens) {
                const std::size_t at = body.find(token);
                if (at != std::string::npos && at < first)
                    first = at;
            }
            return first;
        };
        std::size_t validate = firstOf(
            {"fromFile", "readMagic", "kMagic", "fnv1a", "checksum",
             "Checksum", "verifyMagic"});
        // Delegating to another load-like function inherits its
        // validation (CheckpointStore::tryLoad forwards to
        // CheckpointLibrary::load, which does the real ladder).
        for (const char *stem : {"load", "tryLoad", "Load"}) {
            for (std::size_t pos = body.find(stem, 1);
                 pos != std::string::npos;
                 pos = body.find(stem, pos + 1)) {
                if (isIdentChar(body[pos - 1]))
                    continue;
                std::size_t j = pos;
                while (j < body.size() && isIdentChar(body[j]))
                    ++j;
                j = skipSpaces(body, j);
                if (j < body.size() && body[j] == '(' &&
                    pos < validate)
                    validate = pos;
            }
        }
        const std::size_t decode = firstOf(
            {".u8(", ".u16(", ".u32(", ".u64(", ".f64(", ".str(",
             ".vecU8(", ".vecU32(", ".vecU64(", ".read(",
             "decodeDelta"});
        if (decode == std::string::npos)
            return; // nothing decoded, nothing to protect.
        if (validate == std::string::npos) {
            emit(file, "checksum-before-use",
                 file.lineOf(nameOffset),
                 "load path '" + name +
                     "' decodes persisted bytes without any "
                     "checksum/magic validation — a truncated or "
                     "corrupt file would be trusted");
            return;
        }
        if (decode < validate)
            emit(file, "checksum-before-use",
                 file.lineOf(bodyOffset + decode),
                 "load path '" + name +
                     "' decodes payload before its first "
                     "checksum/magic validation — validate the "
                     "buffer, then parse it");
    }

    // ------------------------------------------------------------
    // Check 5: float-fold-discipline.
    //
    // Floating-point addition is not associative, so a bare
    // double accumulation on a parallel merge path would make the
    // estimate depend on shard/thread order. Folds must go
    // through stats::OnlineStats (merged in deterministic stream
    // order), SystematicSampler::foldSlice, or the 48.16 fixed-
    // point accumulators (names ending in Fx).
    // ------------------------------------------------------------
    void
    checkFloatFold(SourceFile &file)
    {
        const std::string &code = file.code;
        std::set<std::string> doubles;
        for (std::size_t pos = findWord(code, "double");
             pos != std::string::npos;
             pos = findWord(code, "double", pos + 1)) {
            std::size_t i = skipSpaces(code, pos + 6);
            while (i < code.size() &&
                   (code[i] == '&' || code[i] == '*'))
                i = skipSpaces(code, i + 1);
            std::string name;
            while (i < code.size() && isIdentChar(code[i]))
                name += code[i++];
            if (!name.empty() && name != "const")
                doubles.insert(name);
        }

        for (std::size_t pos = code.find("+=");
             pos != std::string::npos;
             pos = code.find("+=", pos + 2)) {
            const std::string target = identifierBefore(code, pos);
            if (target.empty() || !doubles.count(target))
                continue;
            if (target.size() > 2 &&
                target.compare(target.size() - 2, 2, "Fx") == 0)
                continue; // 48.16 fixed-point accumulator.
            emit(file, "float-fold-discipline", file.lineOf(pos),
                 "bare double accumulation '" + target +
                     " +=' on a parallel merge path — float "
                     "addition is not associative, so the result "
                     "depends on fold order; route it through "
                     "stats::OnlineStats / foldSlice or 48.16 "
                     "fixed point");
        }
        for (std::size_t pos = code.find("std::accumulate");
             pos != std::string::npos;
             pos = code.find("std::accumulate", pos + 1))
            emit(file, "float-fold-discipline", file.lineOf(pos),
                 "std::accumulate on a parallel merge path — use "
                 "stats::OnlineStats / foldSlice (or fixed point) "
                 "so the fold is offset-invariant");
    }

    Options options_;
    Report report_;
    std::vector<SourceFile> files_;
    std::map<std::string, ExternalBody> external_;
};

} // namespace

const std::vector<std::string> &
checkNames()
{
    static const std::vector<std::string> names(std::begin(kChecks),
                                                std::end(kChecks));
    return names;
}

bool
knownCheck(const std::string &name)
{
    if (name == kMetaCheck)
        return true;
    const auto &names = checkNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

bool
collectTreeSources(const std::string &root,
                   std::vector<std::string> &paths, std::string *error)
{
    bool any = false;
    for (const char *dir : {"include", "src"}) {
        const fs::path base = fs::path(root) / dir;
        std::error_code ec;
        if (!fs::is_directory(base, ec))
            continue;
        any = true;
        for (fs::recursive_directory_iterator it(base, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext == ".hh" || ext == ".cc" || ext == ".hpp" ||
                ext == ".cpp" || ext == ".h")
                paths.push_back(it->path().string());
        }
    }
    if (!any) {
        if (error)
            *error = "no include/ or src/ directory under " + root;
        return false;
    }
    std::sort(paths.begin(), paths.end());
    return true;
}

Report
lintFiles(const std::vector<std::string> &paths,
          const Options &options)
{
    return Linter(options).run(paths);
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::ostringstream out;
    out << d.file << ":" << d.line << ": [" << d.check << "] "
        << d.message;
    return out.str();
}

} // namespace smarts::lint
