/**
 * @file
 * Best-effort liveness time series (DESIGN.md §17): a fixed-capacity
 * lock-free ring of throughput samples (seeds/s, findings, cache-hit
 * rate, per-stage latency p99s) feeding the ops server's /timeseries
 * endpoint and the /dashboard sparklines.
 *
 * The ring is a per-slot seqlock over all-atomic fields: the single
 * writer (the report::Liveness sampler) stamps a slot as in-progress,
 * stores the fields, then publishes the slot's global sequence number;
 * readers double-check the stamp and skip torn or overwritten slots.
 * Because the stamp holds the *global* sequence (not a per-slot
 * counter), slot reuse always changes the stamp — no ABA.
 *
 * This data is deliberately OUTSIDE the determinism boundary: samples
 * are wall-clock-stamped, never checkpointed, and never feed the
 * summary or the campaign report, so the byte-identical kill/resume
 * and fleet-merge guarantees are untouched (the same contract as the
 * liveness pipeline's JSONL, DESIGN.md §12).
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dce::support {

/** One liveness sample. Doubles ride the ring as bit patterns. */
struct TimeSample {
    uint64_t seq = 0;    ///< monotone cursor, 0-based
    uint64_t wallMs = 0; ///< wall clock at sampling time
    uint64_t seeds = 0;  ///< cumulative campaign.seeds
    uint64_t findings = 0;
    double seedsPerSec = 0.0;  ///< derivative between samples
    double cacheHitRate = 0.0; ///< hits / (hits + misses); 0 if none
    /** p99 of campaign.stage_us{<stage>}, µs, in kStages order. */
    std::array<double, 4> stageP99Us{};
    double serveP99Us = 0.0; ///< p99 of serve.request_us
};

/** Stage labels sampled into TimeSample::stageP99Us, in order. */
inline constexpr std::array<const char *, 4> kTimeSeriesStages = {
    "generate", "ground_truth", "compile", "primary"};

class TimeSeries {
public:
    explicit TimeSeries(size_t capacity = 512);

    size_t capacity() const { return capacity_; }

    /** Cursor one past the newest published sample. */
    uint64_t next() const;

    /**
     * Publish one sample (its seq is assigned here). Single-writer:
     * concurrent appends are not supported (the sampler thread is the
     * only writer).
     */
    void append(TimeSample sample);

    /**
     * Samples with seq >= @p since, oldest first, skipping any slot
     * the writer has since overwritten or is mid-write on — readers
     * never block. At most capacity() samples (older ones are gone).
     */
    std::vector<TimeSample> read(uint64_t since) const;

private:
    // Stamp protocol: 0 = never written, kWriting = in progress,
    // else seq + 1 of the published sample.
    static constexpr uint64_t kWriting = ~uint64_t{0};
    static constexpr size_t kFields = 10;

    struct Slot {
        std::atomic<uint64_t> stamp{0};
        std::array<std::atomic<uint64_t>, kFields> fields{};
    };

    const size_t capacity_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> next_{0};
};

/** JSON for /timeseries?since=N: {"capacity":..,"next":..,
 * "points":[{...},...]}. Decimals are quoted strings ("%.3f"), the
 * repo-wide integer-JSON convention. */
std::string timeSeriesJson(const TimeSeries &series, uint64_t since);

} // namespace dce::support
