/**
 * @file
 * Token definitions for the MiniC lexer.
 */
#pragma once

#include <cstdint>
#include <string_view>

#include "support/source_location.hpp"

namespace dce::lang {

/** All MiniC token kinds. */
enum class TokKind {
    Eof,
    Identifier,
    IntLiteral,

    // Keywords.
    KwVoid,
    KwChar,
    KwShort,
    KwInt,
    KwLong,
    KwUnsigned,
    KwSigned,
    KwStatic,
    KwExtern,
    KwIf,
    KwElse,
    KwWhile,
    KwDo,
    KwFor,
    KwSwitch,
    KwCase,
    KwDefault,
    KwBreak,
    KwContinue,
    KwReturn,

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semicolon,
    Comma,
    Colon,
    Question,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    PlusPlus,
    MinusMinus,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    AmpAmp,
    PipePipe,
};

/** Human-readable token kind name, for diagnostics. */
const char *tokKindName(TokKind kind);

/** One lexed token. Identifier text / literal value are populated as
 * appropriate for the kind. Tokens are views: `text` points into the
 * source buffer the Lexer was given, so a token must not outlive that
 * buffer (the parser copies names into the AST before returning). */
struct Token {
    TokKind kind = TokKind::Eof;
    SourceLoc loc;
    std::string_view text; ///< identifier spelling, a view of the source
    uint64_t intValue = 0; ///< integer literal value

    bool is(TokKind k) const { return kind == k; }
};

} // namespace dce::lang
