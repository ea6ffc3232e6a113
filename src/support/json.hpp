/**
 * @file
 * The repository's one JSON layer. Every JSON producer in the tree —
 * the Chrome-trace tracer, the structured event log, the corpus
 * store's on-disk format, the fleet's lease/plan/metrics files, the
 * ops server's bodies — escapes strings here, and every JSON reader
 * parses here:
 *
 *  - appendJsonEscaped/jsonEscaped: one definition of "what is a legal
 *    JSON string". `"` `\` and the named control escapes (\n \t \r
 *    \b \f) get their two-character forms; every other control byte
 *    < 0x20 becomes \u00XX; bytes >= 0x20 — multi-byte UTF-8 sequences
 *    included — pass through untouched, so non-ASCII span names and
 *    program text survive byte-exactly.
 *  - JsonWriter: a comma-tracking streaming writer.
 *  - JsonValue: a recursive-descent reader covering the subset the
 *    writer emits (objects, arrays, strings, 64-bit integers,
 *    booleans, null), with a fixed nesting limit. Self-contained on
 *    purpose — the container images carry no JSON library, and the
 *    tree controls both ends of every format, so a full parser would
 *    be dead weight.
 *  - sealJsonLine/unsealJsonLine: CRC-sealed one-line objects for
 *    files that must detect torn or flipped bytes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dce::support {

/** Append @p text to @p out with JSON string escaping (no quotes). */
void appendJsonEscaped(std::string &out, std::string_view text);

/** The escaped form of @p text (no surrounding quotes). */
std::string jsonEscaped(std::string_view text);

/** A decimal as the tree's JSON carries it: "%.3f" text, to be written
 * as a string value (JSON numbers here are 64-bit integers only). */
std::string jsonDecimal(double value);

/**
 * Streaming JSON writer. Keeps a begin/end nesting stack and inserts
 * commas automatically; misuse (value without key inside an object,
 * unbalanced end) trips assertions, not silent corruption.
 */
class JsonWriter {
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value call attaches to it. */
    void key(std::string_view name);

    void value(std::string_view text); ///< escaped string
    void value(const char *text) { value(std::string_view(text)); }
    void value(uint64_t number);
    void value(int64_t number);
    void value(unsigned number) { value(uint64_t(number)); }
    void value(bool boolean);
    void null();

    /** Emit @p json verbatim as one value (must itself be valid). */
    void raw(std::string_view json);

    /** key() + value() in one call. */
    template <typename T>
    void field(std::string_view name, T v)
    {
        key(name);
        value(v);
    }

    /** The serialized document. Valid once nesting is balanced. */
    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    void comma();

    std::string out_;
    std::vector<bool> inObject_; ///< nesting kinds
    std::vector<bool> needComma_;
    bool pendingKey_ = false;
};

/**
 * Parsed JSON value. Numbers keep the raw 64-bit magnitude plus a sign
 * flag so uint64 seeds and RNG states round-trip exactly.
 */
class JsonValue {
  public:
    enum class Kind { Null, Bool, Int, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    uint64_t magnitude = 0; ///< absolute value for Kind::Int
    bool negative = false;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    /** Deepest nesting of objects and arrays parse() accepts. The
     * tree's own documents nest a few levels; deeper input fails with
     * "nesting too deep" instead of recursing off the stack. */
    static constexpr unsigned kMaxNesting = 256;

    /** Parse one complete document (trailing whitespace allowed).
     * nullopt + @p error message on malformed input, including input
     * nested deeper than kMaxNesting. */
    static std::optional<JsonValue> parse(std::string_view json,
                                          std::string *error = nullptr);

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    uint64_t asU64() const { return negative ? 0 : magnitude; }
    int64_t
    asI64() const
    {
        return negative ? -static_cast<int64_t>(magnitude)
                        : static_cast<int64_t>(magnitude);
    }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *get(std::string_view name) const;

    /** Typed member accessors with defaults (missing ⇒ default). */
    uint64_t getU64(std::string_view name, uint64_t fallback = 0) const;
    bool getBool(std::string_view name, bool fallback = false) const;
    std::string getString(std::string_view name,
                          std::string_view fallback = {}) const;
};

/**
 * Seal a complete JSON @p object (a `{...}` document): append a
 * trailing `"c"` field holding the CRC-32 of everything before it.
 * The result is still one valid JSON object. unsealJsonLine verifies
 * the CRC over the same prefix, so any bit flip in the line is caught.
 */
std::string sealJsonLine(std::string object);

/** Verify + parse a sealed object; nullopt on any damage. */
std::optional<JsonValue> unsealJsonLine(std::string_view line);

} // namespace dce::support
