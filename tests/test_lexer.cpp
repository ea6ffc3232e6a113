/** @file Unit tests for the MiniC lexer. */
#include <gtest/gtest.h>

#include "lang/lexer.hpp"

namespace dce::lang {
namespace {

std::vector<Token>
lex(std::string_view source)
{
    DiagnosticEngine diags;
    Lexer lexer(source, diags);
    std::vector<Token> tokens = lexer.lexAll();
    EXPECT_FALSE(diags.hasErrors()) << diags.str();
    return tokens;
}

TEST(Lexer, EmptyInputYieldsEof)
{
    auto tokens = lex("");
    ASSERT_EQ(tokens.size(), 1u);
    EXPECT_TRUE(tokens[0].is(TokKind::Eof));
}

TEST(Lexer, KeywordsAndIdentifiers)
{
    auto tokens = lex("int main while whileX _x1");
    ASSERT_EQ(tokens.size(), 6u);
    EXPECT_TRUE(tokens[0].is(TokKind::KwInt));
    EXPECT_TRUE(tokens[1].is(TokKind::Identifier));
    EXPECT_EQ(tokens[1].text, "main");
    EXPECT_TRUE(tokens[2].is(TokKind::KwWhile));
    EXPECT_TRUE(tokens[3].is(TokKind::Identifier));
    EXPECT_EQ(tokens[3].text, "whileX");
    EXPECT_EQ(tokens[4].text, "_x1");
}

TEST(Lexer, DecimalAndHexLiterals)
{
    auto tokens = lex("0 42 0x2A 0XfF 42u 42L");
    EXPECT_EQ(tokens[0].intValue, 0u);
    EXPECT_EQ(tokens[1].intValue, 42u);
    EXPECT_EQ(tokens[2].intValue, 42u);
    EXPECT_EQ(tokens[3].intValue, 255u);
    EXPECT_EQ(tokens[4].intValue, 42u); // suffix ignored
    EXPECT_EQ(tokens[5].intValue, 42u);
}

TEST(Lexer, MultiCharOperatorsAreMaximalMunch)
{
    auto tokens = lex("<<= << <= < >>= >> >= > == = ++ + += && &= & || |");
    std::vector<TokKind> expected = {
        TokKind::ShlAssign, TokKind::Shl, TokKind::Le, TokKind::Lt,
        TokKind::ShrAssign, TokKind::Shr, TokKind::Ge, TokKind::Gt,
        TokKind::EqEq, TokKind::Assign, TokKind::PlusPlus, TokKind::Plus,
        TokKind::PlusAssign, TokKind::AmpAmp, TokKind::AmpAssign,
        TokKind::Amp, TokKind::PipePipe, TokKind::Pipe, TokKind::Eof};
    ASSERT_EQ(tokens.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
}

TEST(Lexer, CommentsAreSkipped)
{
    auto tokens = lex("a // line comment\n b /* block\n comment */ c");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
    EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, TracksLineAndColumn)
{
    auto tokens = lex("a\n  b");
    EXPECT_EQ(tokens[0].loc.line, 1u);
    EXPECT_EQ(tokens[0].loc.column, 1u);
    EXPECT_EQ(tokens[1].loc.line, 2u);
    EXPECT_EQ(tokens[1].loc.column, 3u);
}

TEST(Lexer, ReportsUnexpectedCharacter)
{
    DiagnosticEngine diags;
    Lexer lexer("a $ b", diags);
    auto tokens = lexer.lexAll();
    EXPECT_TRUE(diags.hasErrors());
    // The bad character is skipped; the rest still lexes.
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, ReportsUnterminatedBlockComment)
{
    DiagnosticEngine diags;
    Lexer lexer("a /* never closed", diags);
    lexer.lexAll();
    EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, OverflowingLiteralIsAnError)
{
    DiagnosticEngine diags;
    Lexer lexer("99999999999999999999999999", diags);
    lexer.lexAll();
    EXPECT_TRUE(diags.hasErrors());
}

} // namespace
} // namespace dce::lang
