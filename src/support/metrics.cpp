#include "support/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace dce::support {

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
}

void
Histogram::merge(const Histogram &other)
{
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    for (size_t i = 0; i < kBuckets; ++i) {
        buckets_[i].fetch_add(other.bucket(i),
                              std::memory_order_relaxed);
    }
}

void
Histogram::absorb(uint64_t count, uint64_t sum,
                  const std::array<uint64_t, kBuckets> &buckets)
{
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    for (size_t i = 0; i < kBuckets; ++i)
        buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
}

double
Histogram::percentileFromBuckets(
    const std::array<uint64_t, kBuckets> &buckets, uint64_t count,
    double q)
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the target sample, 1-based, clamped so q=0 still lands
    // on a real sample.
    uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(count) + 0.5);
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        if (!buckets[i])
            continue;
        uint64_t before = cumulative;
        cumulative += buckets[i];
        if (cumulative < rank)
            continue;
        if (i == 0)
            return 0.0; // bucket 0 holds only the exact value 0
        // Bucket i spans [2^(i-1), 2^i - 1]; interpolate by the
        // target's position among this bucket's samples. The top
        // bucket (i == kBuckets-1) is open-ended (it also absorbs
        // saturated samples) — 2^63..2^64-1 still bounds it without
        // overflowing by computing the width, not 2^64.
        double lo = static_cast<double>(uint64_t{1} << (i - 1));
        double width = lo - 1.0; // (2^i - 1) - 2^(i-1)
        double position =
            static_cast<double>(rank - before - 1) /
            static_cast<double>(buckets[i]);
        return lo + width * position;
    }
    return 0.0; // unreachable when count matches the buckets
}

double
Histogram::percentileEstimate(double q) const
{
    std::array<uint64_t, kBuckets> snapshot;
    for (size_t i = 0; i < kBuckets; ++i)
        snapshot[i] = bucket(i);
    return percentileFromBuckets(snapshot, count(), q);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

std::string
MetricsRegistry::keyFor(std::string_view name, std::string_view label)
{
    std::string key(name);
    if (!label.empty()) {
        key += '{';
        key += label;
        key += '}';
    }
    return key;
}

Counter &
MetricsRegistry::counter(std::string_view name, std::string_view label)
{
    std::string key = keyFor(name, label);
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[key];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           std::string_view label)
{
    std::string key = keyFor(name, label);
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[key];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

uint64_t
MetricsRegistry::counterValue(std::string_view name,
                              std::string_view label) const
{
    std::string key = keyFor(name, label);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second->value();
}

uint64_t
MetricsRegistry::counterTotal(std::string_view name) const
{
    std::string bare(name);
    std::string labeled = bare + '{';
    uint64_t total = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, counter] : counters_) {
        if (key == bare ||
            key.compare(0, labeled.size(), labeled) == 0)
            total += counter->value();
    }
    return total;
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::counters() const
{
    std::vector<std::pair<std::string, uint64_t>> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(counters_.size());
    for (const auto &[key, counter] : counters_)
        out.emplace_back(key, counter->value());
    return out;
}

std::vector<
    std::pair<std::string, MetricsRegistry::HistogramSnapshot>>
MetricsRegistry::histograms() const
{
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(histograms_.size());
    for (const auto &[key, histogram] : histograms_) {
        HistogramSnapshot snapshot;
        snapshot.count = histogram->count();
        snapshot.sum = histogram->sum();
        for (size_t i = 0; i < Histogram::kBuckets; ++i)
            snapshot.buckets[i] = histogram->bucket(i);
        out.emplace_back(key, snapshot);
    }
    return out;
}

namespace {

/** Split a registry key into its (name, label) parts. */
std::pair<std::string, std::string>
splitKey(const std::string &key)
{
    size_t brace = key.find('{');
    if (brace == std::string::npos || key.back() != '}')
        return {key, ""};
    return {key.substr(0, brace),
            key.substr(brace + 1, key.size() - brace - 2)};
}

/** Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Our keys only
 * ever violate this with '.' and '-', both mapped to '_'. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

/** Escape a label value per the Prometheus exposition format. */
std::string
escapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

void
appendSeries(std::string &out, const std::string &name,
             const std::string &label_pair)
{
    out += name;
    if (!label_pair.empty()) {
        out += '{';
        out += label_pair;
        out += '}';
    }
}

/** The `label="..."` pair for @p label, empty when the key was bare. */
std::string
labelPair(const std::string &label)
{
    if (label.empty())
        return "";
    return "label=\"" + escapeLabel(label) + "\"";
}

} // namespace

std::string
MetricsRegistry::expose() const
{
    // Snapshot both instrument families, re-sort by (name, label)
    // explicitly: the registry map sorts by the *combined* key, under
    // which "foo.barbaz" can fall between "foo.bar" and "foo.bar{x}"
    // — Prometheus requires every series of a metric consecutive.
    std::vector<std::tuple<std::string, std::string, uint64_t>> cs;
    for (const auto &[key, value] : counters()) {
        auto [name, label] = splitKey(key);
        cs.emplace_back(sanitizeName(name), label, value);
    }
    std::sort(cs.begin(), cs.end());
    std::vector<std::tuple<std::string, std::string, HistogramSnapshot>>
        hs;
    for (const auto &[key, snapshot] : histograms()) {
        auto [name, label] = splitKey(key);
        hs.emplace_back(sanitizeName(name), label, snapshot);
    }
    std::sort(hs.begin(), hs.end(),
              [](const auto &a, const auto &b) {
                  return std::tie(std::get<0>(a), std::get<1>(a)) <
                         std::tie(std::get<0>(b), std::get<1>(b));
              });

    std::string out;
    std::string current;
    for (const auto &[name, label, value] : cs) {
        if (name != current) {
            current = name;
            out += "# TYPE " + name + " counter\n";
        }
        appendSeries(out, name, labelPair(label));
        out += ' ';
        out += std::to_string(value);
        out += '\n';
    }
    current.clear();
    for (const auto &[name, label, snapshot] : hs) {
        if (name != current) {
            current = name;
            out += "# TYPE " + name + " histogram\n";
        }
        std::string labels = labelPair(label);
        // Bucket i of the bit-width histogram holds samples with
        // bit_width(v) == i, i.e. v in [2^(i-1), 2^i - 1] (v == 0 for
        // i == 0) — so the cumulative upper bound of bucket i is
        // 2^i - 1. Trailing empty buckets are elided; +Inf closes the
        // series with the exact total.
        size_t last = 0;
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            if (snapshot.buckets[i])
                last = i;
        }
        uint64_t cumulative = 0;
        for (size_t i = 0; i <= last; ++i) {
            cumulative += snapshot.buckets[i];
            uint64_t le =
                i == 0 ? 0 : ((uint64_t{1} << i) - 1);
            std::string bucket_labels = labels;
            if (!bucket_labels.empty())
                bucket_labels += ',';
            bucket_labels += "le=\"" + std::to_string(le) + "\"";
            appendSeries(out, name + "_bucket", bucket_labels);
            out += ' ';
            out += std::to_string(cumulative);
            out += '\n';
        }
        std::string inf_labels = labels;
        if (!inf_labels.empty())
            inf_labels += ',';
        inf_labels += "le=\"+Inf\"";
        appendSeries(out, name + "_bucket", inf_labels);
        out += ' ';
        out += std::to_string(snapshot.count);
        out += '\n';
        appendSeries(out, name + "_sum", labels);
        out += ' ';
        out += std::to_string(snapshot.sum);
        out += '\n';
        appendSeries(out, name + "_count", labels);
        out += ' ';
        out += std::to_string(snapshot.count);
        out += '\n';
    }
    return out;
}

std::string
MetricsRegistry::dumpText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto &[key, counter] : counters_) {
        out += "counter ";
        out += key;
        out += ' ';
        out += std::to_string(counter->value());
        out += '\n';
    }
    for (const auto &[key, histogram] : histograms_) {
        char line[128];
        std::snprintf(line, sizeof line,
                      " count=%llu sum=%llu mean=%.1f\n",
                      static_cast<unsigned long long>(
                          histogram->count()),
                      static_cast<unsigned long long>(
                          histogram->sum()),
                      histogram->mean());
        out += "histogram ";
        out += key;
        out += line;
    }
    return out;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    // Snapshot under other's lock, apply after releasing it, so the
    // two registry mutexes are never held together (counter() and
    // histogram() take this->mutex_ per key).
    std::vector<std::pair<std::string, uint64_t>> counter_deltas;
    std::vector<std::pair<std::string, const Histogram *>> histo_srcs;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        for (const auto &[key, counter] : other.counters_)
            counter_deltas.emplace_back(key, counter->value());
        for (const auto &[key, histogram] : other.histograms_)
            histo_srcs.emplace_back(key, histogram.get());
    }
    // keyFor(key, "") == key, so get-or-create by full key string
    // lands on exactly the instrument the original (name, label)
    // pair would.
    for (const auto &[key, delta] : counter_deltas) {
        if (delta)
            counter(key).add(delta);
    }
    for (const auto &[key, source] : histo_srcs)
        histogram(key).merge(*source);
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, counter] : counters_)
        counter->reset();
    for (auto &[key, histogram] : histograms_)
        histogram->reset();
}

} // namespace dce::support
