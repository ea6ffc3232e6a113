/** @file Whole-frontend tests for MiniC (lexer + parser + Sema behind
 * lang::parseAndCheck): a byte-identity golden table over generated
 * programs and their reduction-style candidates, hostile inputs that
 * must end in one diagnostic, and a deterministic mutation fuzz. */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generator.hpp"
#include "instrument/instrument.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace dce::lang {
namespace {

/** A printed, instrumented generator program: what triage reduces. */
std::string
programText(uint64_t seed)
{
    auto unit = gen::generateProgram(seed);
    return printUnit(*instrument::instrumentUnit(*unit).unit);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines, size_t skip_begin,
          size_t skip_end)
{
    std::string out;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (i >= skip_begin && i < skip_end)
            continue;
        out += lines[i];
        out += '\n';
    }
    return out;
}

constexpr size_t kLineDeletions = 16;
constexpr size_t kByteMutations = 4;
constexpr size_t kInputsPerSeed = 1 + kLineDeletions + kByteMutations;

/** The program itself, then deterministic candidates shaped like the
 * reducer's (deleted runs of 1-4 lines) and a few byte edits that
 * reach the lexer's error paths. */
std::vector<std::string>
goldenInputs(uint64_t seed)
{
    std::string text = programText(seed);
    std::vector<std::string> lines = splitLines(text);
    std::vector<std::string> inputs = {text};
    Rng rng(seed);
    for (size_t k = 0; k < kLineDeletions; ++k) {
        size_t begin = rng.below(lines.size());
        size_t end = std::min(lines.size(), begin + 1 + rng.below(4));
        inputs.push_back(joinLines(lines, begin, end));
    }
    static const char kBytes[] = "$@#`\"\\{}();=+-*/0x9a \n";
    for (size_t k = 0; k < kByteMutations; ++k) {
        std::string mutated = text;
        size_t pos = rng.below(mutated.size());
        char byte = kBytes[rng.below(sizeof(kBytes) - 1)];
        switch (rng.below(3)) {
          case 0: mutated[pos] = byte; break;
          case 1: mutated.insert(pos, 1, byte); break;
          default: mutated.erase(pos, 1); break;
        }
        inputs.push_back(std::move(mutated));
    }
    return inputs;
}

struct GoldenEntry {
    bool accepted;
    uint64_t printHash;    ///< fnv1a64 of printUnit after Sema; 0 if rejected
    const char *firstDiag; ///< first diagnostic; "" if accepted
};

constexpr uint64_t kGoldenFirstSeed = 6'000'000;
constexpr size_t kGoldenSeeds = 200;

/** The expected results, recorded with the frontend that preceded the
 * zero-copy, first-error one: per seed, the program then its
 * candidates. */
constexpr GoldenEntry kGolden[] = {
#include "frontend_golden.inc"
};

/** C string literal for @p text (octal escapes are fixed-width, so
 * they never swallow a following digit). */
std::string
cStringLiteral(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (byte < 0x20 || byte >= 0x7f) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\%03o", byte);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

TEST(FrontendGolden, GeneratedProgramsAndCandidatesMatchRecordedResults)
{
    // Regeneration: DCE_FRONTEND_GOLDEN_OUT=<file> writes the table
    // instead of checking it. Only ever regenerate from a trusted
    // frontend; the table is what the frontend is checked by.
    const char *out_path = std::getenv("DCE_FRONTEND_GOLDEN_OUT");
    std::FILE *out = out_path ? std::fopen(out_path, "w") : nullptr;
    if (out) {
        std::fprintf(out,
                     "// Expected frontend results for FrontendGolden "
                     "(tests/test_frontend.cpp):\n"
                     "// {accepted, fnv1a64(printUnit), first "
                     "diagnostic}, one line per input.\n"
                     "// Written by that test with "
                     "DCE_FRONTEND_GOLDEN_OUT set.\n");
    } else {
        ASSERT_EQ(std::size(kGolden), kGoldenSeeds * kInputsPerSeed);
    }

    size_t index = 0;
    for (uint64_t seed = kGoldenFirstSeed;
         seed < kGoldenFirstSeed + kGoldenSeeds; ++seed) {
        std::vector<std::string> inputs = goldenInputs(seed);
        ASSERT_EQ(inputs.size(), kInputsPerSeed);
        for (size_t k = 0; k < inputs.size(); ++k, ++index) {
            DiagnosticEngine diags;
            auto unit = parseAndCheck(inputs[k], diags);
            bool accepted = unit != nullptr;
            uint64_t hash =
                accepted ? support::fnv1a64(printUnit(*unit)) : 0;
            std::string first =
                diags.all().empty() ? "" : diags.all().front().str();
            if (out) {
                std::fprintf(out, "{%s, 0x%016llxull, %s},\n",
                             accepted ? "true" : "false",
                             static_cast<unsigned long long>(hash),
                             cStringLiteral(first).c_str());
                continue;
            }
            const GoldenEntry &want = kGolden[index];
            EXPECT_EQ(accepted, want.accepted)
                << "seed " << seed << " input " << k;
            EXPECT_EQ(hash, want.printHash)
                << "seed " << seed << " input " << k;
            EXPECT_EQ(first, want.firstDiag)
                << "seed " << seed << " input " << k;
        }
    }
    if (out)
        std::fclose(out);
}

/** parseAndCheck rejects @p source with exactly one error containing
 * @p needle, and the resynchronising Parser survives it too. */
void
expectOneError(const std::string &source, const char *needle)
{
    DiagnosticEngine diags;
    EXPECT_EQ(parseAndCheck(source, diags), nullptr);
    ASSERT_EQ(diags.errorCount(), 1u) << diags.str();
    EXPECT_NE(diags.all().front().message.find(needle), std::string::npos)
        << diags.all().front().str();

    DiagnosticEngine resync_diags;
    Parser(source, resync_diags).parseTranslationUnit();
    EXPECT_TRUE(resync_diags.hasErrors());
}

std::string
repeat(std::string_view piece, size_t times)
{
    std::string out;
    out.reserve(piece.size() * times);
    for (size_t i = 0; i < times; ++i)
        out += piece;
    return out;
}

TEST(FrontendHostile, RunOfBadCharactersIsOneDiagnostic)
{
    expectOneError("int a" + repeat("$", 100'000) + ";",
                   "unexpected character '$'");
}

TEST(FrontendHostile, DeepParenthesesHitTheNestingLimit)
{
    expectOneError("int a = " + repeat("(", 10'000) + "1" +
                       repeat(")", 10'000) + ";",
                   "nesting too deep");
}

TEST(FrontendHostile, DeepBlocksHitTheNestingLimit)
{
    expectOneError("int main() " + repeat("{", 100'000) +
                       repeat("}", 100'000),
                   "nesting too deep");
}

TEST(FrontendHostile, LongUnaryChainHitsTheNestingLimit)
{
    expectOneError("int main() { return " + repeat("- ", 100'000) +
                       "1; }",
                   "nesting too deep");
}

TEST(FrontendHostile, LongOperatorChainsHitTheNestingLimit)
{
    // Left-deep: each operator or suffix wraps the tree built so far.
    expectOneError("int a = " + repeat("1+", 100'000) + "1;",
                   "nesting too deep");
    expectOneError("int main() { int a[1]; return a" +
                       repeat("[0]++", 50'000) + "; }",
                   "nesting too deep");
}

TEST(FrontendHostile, NestingBelowTheLimitIsAccepted)
{
    constexpr size_t depth = Parser::kMaxNesting / 4;
    DiagnosticEngine diags;
    auto unit = parseAndCheck(
        "int main() " + repeat("{", depth) + "return " +
            repeat("(", depth) + repeat("1+", depth) + "1" +
            repeat(")", depth) + ";" +
            repeat("}", depth),
        diags);
    EXPECT_NE(unit, nullptr) << diags.str();
}

/** One random edit: byte flip, byte insert, range delete, range
 * duplicate, or a line spliced in from another program. */
void
mutate(std::string &text, const std::vector<std::string> &corpus, Rng &rng)
{
    static const char kBytes[] = "$@#`\"\\{}()[];,=+-*/%&|^!~<>?:0x9_ \n\t";
    size_t pos = rng.below(text.size() + 1);
    size_t len = std::min(text.size() - pos,
                          static_cast<size_t>(1 + rng.below(32)));
    switch (rng.below(5)) {
      case 0:
        if (pos < text.size())
            text[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        text.insert(pos, 1, kBytes[rng.below(sizeof(kBytes) - 1)]);
        break;
      case 2:
        text.erase(pos, len);
        break;
      case 3:
        text.insert(pos, text.substr(pos, len));
        break;
      default: {
        std::vector<std::string> lines =
            splitLines(corpus[rng.below(corpus.size())]);
        std::string line = lines[rng.below(lines.size())] + "\n";
        size_t at = text.rfind('\n', pos);
        text.insert(at == std::string::npos ? 0 : at + 1, line);
        break;
      }
    }
}

TEST(FrontendFuzz, MutatedProgramsEndInAUnitOrOneDiagnostic)
{
    constexpr size_t kPrograms = 16;
    constexpr size_t kInputs = 2'000;
    std::vector<std::string> corpus;
    for (uint64_t seed = 7'000'000; seed < 7'000'000 + kPrograms; ++seed)
        corpus.push_back(programText(seed));

    Rng rng(0xf0220);
    size_t accepted = 0;
    for (size_t i = 0; i < kInputs; ++i) {
        std::string input = corpus[rng.below(corpus.size())];
        for (uint64_t edits = 1 + rng.below(6); edits > 0; --edits)
            mutate(input, corpus, rng);

        DiagnosticEngine diags;
        auto unit = parseAndCheck(input, diags);
        if (unit) {
            ++accepted;
            EXPECT_FALSE(diags.hasErrors()) << "input " << i;
            // An accepted unit prints to text that parses back to
            // the same print.
            std::string printed = printUnit(*unit);
            DiagnosticEngine again;
            auto reparsed = parseAndCheck(printed, again);
            ASSERT_NE(reparsed, nullptr) << "input " << i << ": "
                                         << again.str();
            EXPECT_EQ(printUnit(*reparsed), printed) << "input " << i;
        } else {
            EXPECT_EQ(diags.errorCount(), 1u)
                << "input " << i << ": " << diags.str();
        }
        DiagnosticEngine resync_diags;
        Parser(input, resync_diags).parseTranslationUnit();
    }
    // Both outcomes are exercised.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, kInputs);
}

} // namespace
} // namespace dce::lang
