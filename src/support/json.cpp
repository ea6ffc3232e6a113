#include "support/json.hpp"

#include <cassert>
#include <cstdio>

#include "support/hash.hpp"

namespace dce::support {

void
appendJsonEscaped(std::string &out, std::string_view text)
{
    for (unsigned char ch : text) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        default:
            if (ch < 0x20) {
                static const char kHex[] = "0123456789abcdef";
                out += "\\u00";
                out += kHex[ch >> 4];
                out += kHex[ch & 0xf];
            } else {
                out += static_cast<char>(ch);
            }
        }
    }
}

std::string
jsonEscaped(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 8);
    appendJsonEscaped(out, text);
    return out;
}

std::string
jsonDecimal(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.3f", value);
    return buffer;
}

std::string
sealJsonLine(std::string object)
{
    object.pop_back(); // the closing '}'
    std::string crc = support::crc32Hex(object);
    object += ",\"c\":\"";
    object += crc;
    object += "\"}";
    return object;
}

std::optional<JsonValue>
unsealJsonLine(std::string_view line)
{
    static constexpr std::string_view kSeal = ",\"c\":\"";
    size_t pos = line.rfind(kSeal);
    // `,"c":"` + 8 hex digits + `"}` must end the line exactly.
    if (pos == std::string_view::npos ||
        line.size() != pos + kSeal.size() + 8 + 2)
        return std::nullopt;
    std::string_view claimed = line.substr(pos + kSeal.size(), 8);
    if (support::crc32Hex(line.substr(0, pos)) != claimed)
        return std::nullopt;
    std::optional<JsonValue> value = JsonValue::parse(line);
    if (!value || !value->isObject())
        return std::nullopt;
    return value;
}

//===------------------------------------------------------------------===//
// Writer
//===------------------------------------------------------------------===//

void
JsonWriter::comma()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // value attaches to the emitted key, no comma
    }
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ += ',';
        needComma_.back() = true;
    }
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    inObject_.push_back(true);
    needComma_.push_back(false);
}

void
JsonWriter::endObject()
{
    assert(!inObject_.empty() && inObject_.back());
    out_ += '}';
    inObject_.pop_back();
    needComma_.pop_back();
}

void
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    inObject_.push_back(false);
    needComma_.push_back(false);
}

void
JsonWriter::endArray()
{
    assert(!inObject_.empty() && !inObject_.back());
    out_ += ']';
    inObject_.pop_back();
    needComma_.pop_back();
}

void
JsonWriter::key(std::string_view name)
{
    assert(!inObject_.empty() && inObject_.back());
    assert(!pendingKey_);
    comma();
    out_ += '"';
    appendJsonEscaped(out_, name);
    out_ += "\":";
    pendingKey_ = true;
}

void
JsonWriter::value(std::string_view text)
{
    comma();
    out_ += '"';
    appendJsonEscaped(out_, text);
    out_ += '"';
}

void
JsonWriter::value(uint64_t number)
{
    comma();
    out_ += std::to_string(number);
}

void
JsonWriter::value(int64_t number)
{
    comma();
    out_ += std::to_string(number);
}

void
JsonWriter::value(bool boolean)
{
    comma();
    out_ += boolean ? "true" : "false";
}

void
JsonWriter::null()
{
    comma();
    out_ += "null";
}

void
JsonWriter::raw(std::string_view json)
{
    comma();
    out_ += json;
}

//===------------------------------------------------------------------===//
// Reader
//===------------------------------------------------------------------===//

namespace {

class Parser {
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    run(std::string *error)
    {
        JsonValue value;
        if (!parseValue(value) ||
            (skipSpace(), position_ != text_.size())) {
            if (error)
                *error = error_.empty() ? "trailing garbage" : error_;
            return std::nullopt;
        }
        return value;
    }

  private:
    bool
    fail(const char *message)
    {
        if (error_.empty()) {
            error_ = message;
            error_ += " at offset ";
            error_ += std::to_string(position_);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (position_ < text_.size() &&
               (text_[position_] == ' ' || text_[position_] == '\t' ||
                text_[position_] == '\n' || text_[position_] == '\r'))
            ++position_;
    }

    bool
    consume(char expected)
    {
        skipSpace();
        if (position_ >= text_.size() || text_[position_] != expected)
            return false;
        ++position_;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(position_, word.size()) != word)
            return fail("bad literal");
        position_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (position_ < text_.size()) {
            char ch = text_[position_++];
            if (ch == '"')
                return true;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (position_ >= text_.size())
                break;
            char esc = text_[position_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out += esc;
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (position_ + 4 > text_.size())
                    return fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char hex = text_[position_++];
                    code <<= 4;
                    if (hex >= '0' && hex <= '9')
                        code |= unsigned(hex - '0');
                    else if (hex >= 'a' && hex <= 'f')
                        code |= unsigned(hex - 'a' + 10);
                    else if (hex >= 'A' && hex <= 'F')
                        code |= unsigned(hex - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The writer only emits \u00XX control bytes; decode
                // the low byte, reject anything wider.
                if (code > 0xff)
                    return fail("unsupported \\u escape");
                out += static_cast<char>(code);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (position_ >= text_.size())
            return fail("unexpected end");
        char ch = text_[position_];
        switch (ch) {
        case '{':
        case '[': {
            // Each level recurses once; bound the depth, not the stack.
            if (depth_ == JsonValue::kMaxNesting)
                return fail("nesting too deep");
            ++depth_;
            ++position_;
            const bool ok = ch == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        default: {
            out.kind = JsonValue::Kind::Int;
            out.negative = ch == '-';
            if (out.negative)
                ++position_;
            if (position_ >= text_.size() ||
                text_[position_] < '0' || text_[position_] > '9')
                return fail("expected digit");
            uint64_t magnitude = 0;
            while (position_ < text_.size() &&
                   text_[position_] >= '0' &&
                   text_[position_] <= '9') {
                uint64_t digit = uint64_t(text_[position_] - '0');
                if (magnitude > (UINT64_MAX - digit) / 10)
                    return fail("integer overflow");
                magnitude = magnitude * 10 + digit;
                ++position_;
            }
            out.magnitude = magnitude;
            return true;
        }
        }
    }

    /** The members after an opening '{'. */
    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        skipSpace();
        if (consume('}'))
            return true;
        for (;;) {
            std::string name;
            skipSpace();
            if (!parseString(name))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue member;
            if (!parseValue(member))
                return false;
            out.members.emplace(std::move(name), std::move(member));
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    /** The items after an opening '['. */
    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        skipSpace();
        if (consume(']'))
            return true;
        for (;;) {
            JsonValue item;
            if (!parseValue(item))
                return false;
            out.items.push_back(std::move(item));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    std::string_view text_;
    size_t position_ = 0;
    unsigned depth_ = 0; ///< objects and arrays open around position_
    std::string error_;
};

} // namespace

std::optional<JsonValue>
JsonValue::parse(std::string_view json, std::string *error)
{
    return Parser(json).run(error);
}

const JsonValue *
JsonValue::get(std::string_view name) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = members.find(std::string(name));
    return it == members.end() ? nullptr : &it->second;
}

uint64_t
JsonValue::getU64(std::string_view name, uint64_t fallback) const
{
    const JsonValue *member = get(name);
    return member && member->kind == Kind::Int ? member->asU64()
                                               : fallback;
}

bool
JsonValue::getBool(std::string_view name, bool fallback) const
{
    const JsonValue *member = get(name);
    return member && member->kind == Kind::Bool ? member->boolean
                                                : fallback;
}

std::string
JsonValue::getString(std::string_view name,
                     std::string_view fallback) const
{
    const JsonValue *member = get(name);
    return member && member->kind == Kind::String
               ? member->text
               : std::string(fallback);
}

} // namespace dce::support
