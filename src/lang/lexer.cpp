#include "lang/lexer.hpp"

namespace dce::lang {

const char *
tokKindName(TokKind kind)
{
    switch (kind) {
      case TokKind::Eof: return "end of file";
      case TokKind::Identifier: return "identifier";
      case TokKind::IntLiteral: return "integer literal";
      case TokKind::KwVoid: return "'void'";
      case TokKind::KwChar: return "'char'";
      case TokKind::KwShort: return "'short'";
      case TokKind::KwInt: return "'int'";
      case TokKind::KwLong: return "'long'";
      case TokKind::KwUnsigned: return "'unsigned'";
      case TokKind::KwSigned: return "'signed'";
      case TokKind::KwStatic: return "'static'";
      case TokKind::KwExtern: return "'extern'";
      case TokKind::KwIf: return "'if'";
      case TokKind::KwElse: return "'else'";
      case TokKind::KwWhile: return "'while'";
      case TokKind::KwDo: return "'do'";
      case TokKind::KwFor: return "'for'";
      case TokKind::KwSwitch: return "'switch'";
      case TokKind::KwCase: return "'case'";
      case TokKind::KwDefault: return "'default'";
      case TokKind::KwBreak: return "'break'";
      case TokKind::KwContinue: return "'continue'";
      case TokKind::KwReturn: return "'return'";
      case TokKind::LParen: return "'('";
      case TokKind::RParen: return "')'";
      case TokKind::LBrace: return "'{'";
      case TokKind::RBrace: return "'}'";
      case TokKind::LBracket: return "'['";
      case TokKind::RBracket: return "']'";
      case TokKind::Semicolon: return "';'";
      case TokKind::Comma: return "','";
      case TokKind::Colon: return "':'";
      case TokKind::Question: return "'?'";
      case TokKind::Plus: return "'+'";
      case TokKind::Minus: return "'-'";
      case TokKind::Star: return "'*'";
      case TokKind::Slash: return "'/'";
      case TokKind::Percent: return "'%'";
      case TokKind::Amp: return "'&'";
      case TokKind::Pipe: return "'|'";
      case TokKind::Caret: return "'^'";
      case TokKind::Tilde: return "'~'";
      case TokKind::Bang: return "'!'";
      case TokKind::Assign: return "'='";
      case TokKind::PlusAssign: return "'+='";
      case TokKind::MinusAssign: return "'-='";
      case TokKind::StarAssign: return "'*='";
      case TokKind::SlashAssign: return "'/='";
      case TokKind::PercentAssign: return "'%='";
      case TokKind::AmpAssign: return "'&='";
      case TokKind::PipeAssign: return "'|='";
      case TokKind::CaretAssign: return "'^='";
      case TokKind::ShlAssign: return "'<<='";
      case TokKind::ShrAssign: return "'>>='";
      case TokKind::PlusPlus: return "'++'";
      case TokKind::MinusMinus: return "'--'";
      case TokKind::Shl: return "'<<'";
      case TokKind::Shr: return "'>>'";
      case TokKind::Lt: return "'<'";
      case TokKind::Gt: return "'>'";
      case TokKind::Le: return "'<='";
      case TokKind::Ge: return "'>='";
      case TokKind::EqEq: return "'=='";
      case TokKind::NotEq: return "'!='";
      case TokKind::AmpAmp: return "'&&'";
      case TokKind::PipePipe: return "'||'";
    }
    return "<bad token>";
}

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || isDigit(c);
}

bool
isHexDigit(char c)
{
    char lower = static_cast<char>(c | 0x20);
    return isDigit(c) || (lower >= 'a' && lower <= 'f');
}

/** The keyword @p text spells, or Identifier: a switch on length and
 * first character leaves at most one candidate to compare. */
TokKind
keywordKind(std::string_view text)
{
    auto is = [&](std::string_view keyword, TokKind kind) {
        return text == keyword ? kind : TokKind::Identifier;
    };
    switch (text.size()) {
      case 2:
        if (text[0] == 'i')
            return is("if", TokKind::KwIf);
        if (text[0] == 'd')
            return is("do", TokKind::KwDo);
        break;
      case 3:
        if (text[0] == 'i')
            return is("int", TokKind::KwInt);
        if (text[0] == 'f')
            return is("for", TokKind::KwFor);
        break;
      case 4:
        switch (text[0]) {
          case 'v': return is("void", TokKind::KwVoid);
          case 'l': return is("long", TokKind::KwLong);
          case 'e': return is("else", TokKind::KwElse);
          case 'c':
            return text[1] == 'h' ? is("char", TokKind::KwChar)
                                  : is("case", TokKind::KwCase);
        }
        break;
      case 5:
        switch (text[0]) {
          case 's': return is("short", TokKind::KwShort);
          case 'w': return is("while", TokKind::KwWhile);
          case 'b': return is("break", TokKind::KwBreak);
        }
        break;
      case 6:
        switch (text[0]) {
          case 'e': return is("extern", TokKind::KwExtern);
          case 'r': return is("return", TokKind::KwReturn);
          case 's':
            switch (text[1]) {
              case 'i': return is("signed", TokKind::KwSigned);
              case 't': return is("static", TokKind::KwStatic);
              case 'w': return is("switch", TokKind::KwSwitch);
            }
        }
        break;
      case 7:
        return is("default", TokKind::KwDefault);
      case 8:
        if (text[0] == 'u')
            return is("unsigned", TokKind::KwUnsigned);
        return is("continue", TokKind::KwContinue);
    }
    return TokKind::Identifier;
}

Token
token(TokKind kind, SourceLoc loc)
{
    Token tok;
    tok.kind = kind;
    tok.loc = loc;
    return tok;
}

} // namespace

Lexer::Lexer(std::string_view source, DiagnosticEngine &diags)
    : source_(source), diags_(diags)
{
}

char
Lexer::peek(size_t ahead) const
{
    if (pos_ + ahead >= source_.size())
        return '\0';
    return source_[pos_ + ahead];
}

void
Lexer::skipWhitespaceAndComments()
{
    for (;;) {
        char c = peek();
        if (c == ' ' || c == '\t' || c == '\r') {
            ++pos_;
        } else if (c == '\n') {
            ++pos_;
            newline();
        } else if (c == '/' && peek(1) == '/') {
            while (peek() != '\n' && peek() != '\0')
                ++pos_;
        } else if (c == '/' && peek(1) == '*') {
            pos_ += 2;
            while (!(peek() == '*' && peek(1) == '/')) {
                char skipped = peek();
                if (skipped == '\0') {
                    diags_.error(here(), "unterminated block comment");
                    return;
                }
                ++pos_;
                if (skipped == '\n')
                    newline();
            }
            pos_ += 2;
        } else {
            return;
        }
    }
}

Token
Lexer::lexIdentifierOrKeyword()
{
    Token tok = token(TokKind::Identifier, here());
    size_t start = pos_;
    while (pos_ < source_.size() && isIdentChar(source_[pos_]))
        ++pos_;
    std::string_view text = source_.substr(start, pos_ - start);
    tok.kind = keywordKind(text);
    if (tok.kind == TokKind::Identifier)
        tok.text = text;
    return tok;
}

Token
Lexer::lexNumber()
{
    Token tok = token(TokKind::IntLiteral, here());
    uint64_t value = 0;
    bool overflow = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        pos_ += 2;
        while (isHexDigit(peek())) {
            char c = source_[pos_++];
            uint64_t digit =
                isDigit(c) ? static_cast<uint64_t>(c - '0')
                           : static_cast<uint64_t>((c | 0x20) - 'a' + 10);
            if (value > (UINT64_MAX - digit) / 16)
                overflow = true;
            value = value * 16 + digit;
        }
    } else {
        while (isDigit(peek())) {
            uint64_t digit = static_cast<uint64_t>(source_[pos_++] - '0');
            if (value > (UINT64_MAX - digit) / 10)
                overflow = true;
            value = value * 10 + digit;
        }
    }
    // C-style suffixes are accepted and ignored; MiniC literal types are
    // inferred from the value in sema.
    while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L')
        ++pos_;
    if (overflow)
        diags_.error(tok.loc, "integer literal too large");
    tok.intValue = value;
    return tok;
}

Token
Lexer::lexToken()
{
    // Loops rather than recursing past bad characters, so a run of
    // them costs no stack.
    for (;;) {
        skipWhitespaceAndComments();
        SourceLoc loc = here();
        char c = peek();
        if (c == '\0')
            return token(TokKind::Eof, loc);
        if (isIdentStart(c))
            return lexIdentifierOrKeyword();
        if (isDigit(c))
            return lexNumber();

        ++pos_;
        auto match = [&](char expected) {
            if (peek() != expected)
                return false;
            ++pos_;
            return true;
        };
        switch (c) {
          case '(': return token(TokKind::LParen, loc);
          case ')': return token(TokKind::RParen, loc);
          case '{': return token(TokKind::LBrace, loc);
          case '}': return token(TokKind::RBrace, loc);
          case '[': return token(TokKind::LBracket, loc);
          case ']': return token(TokKind::RBracket, loc);
          case ';': return token(TokKind::Semicolon, loc);
          case ',': return token(TokKind::Comma, loc);
          case ':': return token(TokKind::Colon, loc);
          case '?': return token(TokKind::Question, loc);
          case '~': return token(TokKind::Tilde, loc);
          case '+':
            if (match('+'))
                return token(TokKind::PlusPlus, loc);
            if (match('='))
                return token(TokKind::PlusAssign, loc);
            return token(TokKind::Plus, loc);
          case '-':
            if (match('-'))
                return token(TokKind::MinusMinus, loc);
            if (match('='))
                return token(TokKind::MinusAssign, loc);
            return token(TokKind::Minus, loc);
          case '*':
            if (match('='))
                return token(TokKind::StarAssign, loc);
            return token(TokKind::Star, loc);
          case '/':
            if (match('='))
                return token(TokKind::SlashAssign, loc);
            return token(TokKind::Slash, loc);
          case '%':
            if (match('='))
                return token(TokKind::PercentAssign, loc);
            return token(TokKind::Percent, loc);
          case '&':
            if (match('&'))
                return token(TokKind::AmpAmp, loc);
            if (match('='))
                return token(TokKind::AmpAssign, loc);
            return token(TokKind::Amp, loc);
          case '|':
            if (match('|'))
                return token(TokKind::PipePipe, loc);
            if (match('='))
                return token(TokKind::PipeAssign, loc);
            return token(TokKind::Pipe, loc);
          case '^':
            if (match('='))
                return token(TokKind::CaretAssign, loc);
            return token(TokKind::Caret, loc);
          case '!':
            if (match('='))
                return token(TokKind::NotEq, loc);
            return token(TokKind::Bang, loc);
          case '=':
            if (match('='))
                return token(TokKind::EqEq, loc);
            return token(TokKind::Assign, loc);
          case '<':
            if (match('<'))
                return token(match('=') ? TokKind::ShlAssign : TokKind::Shl,
                             loc);
            if (match('='))
                return token(TokKind::Le, loc);
            return token(TokKind::Lt, loc);
          case '>':
            if (match('>'))
                return token(match('=') ? TokKind::ShrAssign : TokKind::Shr,
                             loc);
            if (match('='))
                return token(TokKind::Ge, loc);
            return token(TokKind::Gt, loc);
          default:
            break;
        }
        diags_.error(loc, std::string("unexpected character '") + c + "'");
    }
}

std::vector<Token>
Lexer::lexAll()
{
    std::vector<Token> tokens;
    // Printed MiniC averages a little over three bytes per token.
    tokens.reserve(source_.size() / 3 + 2);
    do {
        tokens.push_back(lexToken());
    } while (!tokens.back().is(TokKind::Eof));
    return tokens;
}

} // namespace dce::lang
