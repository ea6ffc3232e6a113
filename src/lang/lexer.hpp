/**
 * @file
 * Hand-written lexer for MiniC. Produces the full token stream up
 * front; MiniC sources are small enough that there is no benefit to
 * on-demand lexing, and an eager stream makes parser lookahead trivial.
 */
#pragma once

#include <string_view>
#include <vector>

#include "lang/token.hpp"
#include "support/diagnostics.hpp"

namespace dce::lang {

/** Tokenizes one MiniC source buffer. The tokens it returns view
 * @p source (Token::text), which must outlive them. */
class Lexer {
  public:
    Lexer(std::string_view source, DiagnosticEngine &diags);

    /**
     * Lex the entire buffer.
     * @return all tokens, terminated by an Eof token. On a lexical
     * error, a diagnostic is emitted and the offending character is
     * skipped, so the stream is always well-formed.
     */
    std::vector<Token> lexAll();

  private:
    char peek(size_t ahead = 0) const;
    SourceLoc here() const
    {
        return {line_, static_cast<uint32_t>(pos_ - lineStart_ + 1)};
    }
    void newline()
    {
        ++line_;
        lineStart_ = pos_;
    }

    Token lexToken();
    Token lexIdentifierOrKeyword();
    Token lexNumber();
    void skipWhitespaceAndComments();

    std::string_view source_;
    DiagnosticEngine &diags_;
    size_t pos_ = 0;
    uint32_t line_ = 1;
    size_t lineStart_ = 0; ///< offset of the current line's first byte
};

} // namespace dce::lang
