#include "fleet/metrics_io.hpp"

#include <algorithm>

#include "support/json.hpp"

namespace dce::fleet {

std::string
encodeRegistryDump(const CounterList &counters,
                   const HistogramList &histograms)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.key("counters");
    writer.beginArray();
    for (const auto &[key, value] : counters) {
        writer.beginObject();
        writer.field("k", key);
        writer.field("v", value);
        writer.endObject();
    }
    writer.endArray();
    writer.key("histograms");
    writer.beginArray();
    for (const auto &[key, snapshot] : histograms) {
        writer.beginObject();
        writer.field("k", key);
        writer.field("count", snapshot.count);
        writer.field("sum", snapshot.sum);
        writer.key("buckets");
        writer.beginArray();
        // Trailing zero buckets elided; absorb re-expands them.
        size_t last = 0;
        for (size_t i = 0; i < snapshot.buckets.size(); ++i) {
            if (snapshot.buckets[i])
                last = i + 1;
        }
        for (size_t i = 0; i < last; ++i)
            writer.value(snapshot.buckets[i]);
        writer.endArray();
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    return support::sealJsonLine(writer.take()) + "\n";
}

bool
absorbRegistryDump(std::string_view text,
                   support::MetricsRegistry &into)
{
    while (!text.empty() && text.back() == '\n')
        text.remove_suffix(1);
    std::optional<support::JsonValue> value =
        support::unsealJsonLine(text);
    if (!value || !value->isObject())
        return false;
    if (const support::JsonValue *counters = value->get("counters")) {
        for (const support::JsonValue &entry : counters->items) {
            uint64_t delta = entry.getU64("v");
            if (delta)
                into.counter(entry.getString("k")).add(delta);
        }
    }
    if (const support::JsonValue *histograms =
            value->get("histograms")) {
        for (const support::JsonValue &entry : histograms->items) {
            std::array<uint64_t, support::Histogram::kBuckets>
                buckets{};
            if (const support::JsonValue *raw = entry.get("buckets")) {
                size_t n = std::min(raw->items.size(),
                                    buckets.size());
                for (size_t i = 0; i < n; ++i)
                    buckets[i] = raw->items[i].asU64();
            }
            into.histogram(entry.getString("k"))
                .absorb(entry.getU64("count"), entry.getU64("sum"),
                        buckets);
        }
    }
    return true;
}

} // namespace dce::fleet
