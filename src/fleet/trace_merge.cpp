#include "fleet/trace_merge.hpp"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "fleet/fleet.hpp"
#include "support/json.hpp"

namespace fs = std::filesystem;

namespace dce::fleet {

using corpus::setError;

namespace {

/** Re-serialize a parsed JsonValue. Object members emit in the
 * parser's (sorted) key order — deterministic for identical inputs,
 * which is all the merge contract needs. */
void
appendJsonValue(std::string &out, const support::JsonValue &value)
{
    using Kind = support::JsonValue::Kind;
    switch (value.kind) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += value.boolean ? "true" : "false";
        break;
    case Kind::Int:
        if (value.negative)
            out += '-';
        out += std::to_string(value.magnitude);
        break;
    case Kind::String:
        out += '"';
        out += support::jsonEscaped(value.text);
        out += '"';
        break;
    case Kind::Array:
        out += '[';
        for (size_t i = 0; i < value.items.size(); ++i) {
            if (i)
                out += ',';
            appendJsonValue(out, value.items[i]);
        }
        out += ']';
        break;
    case Kind::Object:
        out += '{';
        {
            bool first = true;
            for (const auto &[key, member] : value.members) {
                if (!first)
                    out += ',';
                first = false;
                out += '"';
                out += support::jsonEscaped(key);
                out += "\":";
                appendJsonValue(out, member);
            }
        }
        out += '}';
        break;
    }
    return;
}

support::JsonValue
makeInt(uint64_t number)
{
    support::JsonValue value;
    value.kind = support::JsonValue::Kind::Int;
    value.magnitude = number;
    return value;
}

} // namespace

std::optional<TraceMergeResult>
mergeTraces(const std::string &fleet_dir, const std::string &out_path,
            corpus::StoreError *error)
{
    std::string dir = tracesDir(fleet_dir);
    std::error_code ec;
    std::vector<std::string> files;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        constexpr std::string_view suffix = ".trace.json";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            files.push_back(entry.path().string());
    }
    if (ec) {
        setError(error, corpus::StoreStatus::NotFound,
                 "traces dir " + dir + ": " + ec.message());
        return std::nullopt;
    }
    // Lexical filename order fixes the pid→track mapping: the same
    // file set always merges to the same bytes, no matter who runs
    // the merge or when.
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        setError(error, corpus::StoreStatus::NotFound,
                 "no *.trace.json files under " + dir);
        return std::nullopt;
    }

    TraceMergeResult result;
    std::string out = "{\"traceEvents\":[";
    bool first_event = true;
    uint64_t merged_pid = 0;
    for (const std::string &path : files) {
        std::optional<std::string> text = corpus::readWholeFile(path, error);
        if (!text)
            return std::nullopt;
        std::optional<support::JsonValue> doc =
            support::JsonValue::parse(*text);
        if (!doc || !doc->isObject()) {
            // A SIGKILLed worker can leave a truncated file; skip it
            // rather than losing the rest of the fleet's timeline.
            continue;
        }
        const support::JsonValue *events = doc->get("traceEvents");
        if (!events || !events->isArray())
            continue;
        ++merged_pid;
        ++result.files;
        for (const support::JsonValue &event : events->items) {
            if (!event.isObject())
                continue;
            support::JsonValue patched = event;
            uint64_t original_pid = patched.getU64("pid", 1);
            patched.members["pid"] = makeInt(merged_pid);
            // Keep the real pid visible on the track label.
            if (patched.getString("name") == "process_name") {
                support::JsonValue *args =
                    patched.members.count("args")
                        ? &patched.members["args"]
                        : nullptr;
                if (args && args->isObject()) {
                    support::JsonValue &name = args->members["name"];
                    if (name.kind ==
                        support::JsonValue::Kind::String)
                        name.text += " [pid " +
                                     std::to_string(original_pid) +
                                     "]";
                }
            } else {
                ++result.events;
            }
            if (!first_event)
                out += ',';
            first_event = false;
            appendJsonValue(out, patched);
        }
    }
    out += "]}";
    if (result.files == 0) {
        setError(error, corpus::StoreStatus::Corrupt,
                 "no trace file under " + dir + " parsed cleanly");
        return std::nullopt;
    }
    if (!corpus::writeFileAtomic(out_path, out, error))
        return std::nullopt;
    setError(error, corpus::StoreStatus::Ok, "");
    return result;
}

} // namespace dce::fleet
