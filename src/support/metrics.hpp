/**
 * @file
 * A process-wide counter/histogram registry, replacing the ad-hoc
 * per-campaign metric fields. Instruments are created on demand by
 * name + optional label (`counter("campaign.invalid", "timeout")`)
 * and live for the registry's lifetime, so callers can resolve an
 * instrument once and increment a bare atomic on the hot path.
 *
 * Thread-safety: increments and observations are lock-free relaxed
 * atomics; get-or-create and the dump/reset walks take the registry
 * mutex. Totals are exact (fetch_add), only cross-instrument snapshot
 * consistency is best-effort — fine for throughput metrics.
 *
 * Benches and tests needing isolated totals construct their own
 * registry; production code defaults to MetricsRegistry::global().
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dce::support {

/**
 * Canonical Content-Type for MetricsRegistry::expose() output —
 * Prometheus text exposition format 0.0.4. Anything serving expose()
 * over HTTP (the ops server's /metrics) must use exactly this value;
 * scrapers key their parser off it.
 */
inline constexpr const char *kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/** Monotonic counter. Increment is one relaxed fetch_add. */
class Counter {
public:
    void add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Power-of-two-bucketed histogram over non-negative integer samples
 * (microseconds, instruction counts). Bucket i counts samples with
 * bit_width(value) == i; count and sum give exact totals/means.
 */
class Histogram {
public:
    static constexpr size_t kBuckets = 64;

    void observe(uint64_t value)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        buckets_[bucketOf(value)].fetch_add(
            1, std::memory_order_relaxed);
    }

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    double mean() const
    {
        uint64_t n = count();
        return n ? static_cast<double>(sum()) / static_cast<double>(n)
                 : 0.0;
    }

    uint64_t bucket(size_t index) const
    {
        return buckets_[index].load(std::memory_order_relaxed);
    }

    void reset();

    /** Fold @p other's samples into this histogram (exact: counts,
     * sums, and buckets all add). @p other should be quiescent. */
    void merge(const Histogram &other);

    /**
     * Fold an externally-recorded state (count/sum/per-bucket) into
     * this histogram — the cross-process analog of merge(), for a
     * fleet coordinator folding a worker's serialized registry dump
     * into its own (DESIGN.md §15).
     */
    void absorb(uint64_t count, uint64_t sum,
                const std::array<uint64_t, kBuckets> &buckets);

    static size_t bucketOf(uint64_t value)
    {
        size_t width = 0;
        while (value) {
            ++width;
            value >>= 1;
        }
        // 0 for sample 0, else floor(log2(v)) + 1; values at or above
        // 2^(kBuckets-1) saturate into the top bucket.
        return width < kBuckets ? width : kBuckets - 1;
    }

    /**
     * Quantile estimate (q in [0, 1]) by linear interpolation inside
     * the bit-width bucket holding the rank-q sample: bucket i spans
     * [2^(i-1), 2^i - 1] (bucket 0 is exactly 0), so the estimate is
     * exact at bucket boundaries and within a factor of 2 elsewhere.
     * Returns 0 for an empty histogram.
     */
    double percentileEstimate(double q) const;

    /** percentileEstimate() over an external snapshot — usable on a
     * MetricsRegistry::HistogramSnapshot without re-observing. */
    static double
    percentileFromBuckets(const std::array<uint64_t, kBuckets> &buckets,
                          uint64_t count, double q);

private:
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> buckets_[kBuckets]{};
};

class MetricsRegistry {
public:
    /** Process-wide default registry. */
    static MetricsRegistry &global();

    /**
     * Get-or-create the counter `name{label}` (bare `name` when the
     * label is empty). The reference stays valid for the registry's
     * lifetime — resolve once, increment lock-free.
     */
    Counter &counter(std::string_view name,
                     std::string_view label = {});

    /** Histogram analog of counter(). */
    Histogram &histogram(std::string_view name,
                         std::string_view label = {});

    /** Value of counter `name{label}`; 0 if it was never created. */
    uint64_t counterValue(std::string_view name,
                          std::string_view label = {}) const;

    /** Sum of `name{...}` over every label, the bare key included. */
    uint64_t counterTotal(std::string_view name) const;

    /** All (key, value) counter pairs, sorted by key. */
    std::vector<std::pair<std::string, uint64_t>> counters() const;

    /** Point-in-time copy of one histogram's state. */
    struct HistogramSnapshot {
        uint64_t count = 0;
        uint64_t sum = 0;
        std::array<uint64_t, Histogram::kBuckets> buckets{};
    };

    /** All (key, snapshot) histogram pairs, sorted by key. */
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const;

    /**
     * Prometheus text exposition of every instrument (DESIGN.md §12).
     * Names are sanitized (`campaign.stage_us` → `campaign_stage_us`),
     * the registry's single label value becomes `label="..."`, and
     * histograms expose cumulative `_bucket{le="2^i-1"}` series (the
     * bit-width buckets' upper bounds) plus `_sum`/`_count`. Series
     * are ordered by (name, label) — insertion order never shows, so
     * two registries with the same totals expose identical text.
     */
    std::string expose() const;

    /**
     * Human-readable dump, sorted by key:
     *   counter campaign.invalid{timeout} 3
     *   histogram campaign.stage_us{compile} count=40 sum=8123 mean=203.1
     */
    std::string dumpText() const;

    /** Zero every instrument (references stay valid). */
    void reset();

    /**
     * Fold every instrument of @p other into this registry, creating
     * missing ones. Used to commit a chunk-local registry into the
     * campaign registry at a checkpoint boundary, so counters only
     * ever reflect fully committed work. @p other must be quiescent
     * and must outlive the call; concurrent merges in opposite
     * directions are not supported.
     */
    void merge(const MetricsRegistry &other);

    /** The registry key for (name, label): name or "name{label}". */
    static std::string keyFor(std::string_view name,
                              std::string_view label);

private:
    mutable std::mutex mutex_;
    // std::map keeps dumps sorted; node stability is irrelevant since
    // instruments are held by unique_ptr anyway.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace dce::support
