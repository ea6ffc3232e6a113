/**
 * @file
 * The liveness pipeline (DESIGN.md §12): one sampler thread that, on
 * one cadence, derives a support::TimeSample from a MetricsRegistry
 * and feeds three sinks:
 *
 *  - the ring (support::TimeSeries) behind /timeseries and the
 *    /dashboard sparklines;
 *  - a JSONL file, when a path is given: one line per sample with
 *    `seq`, `wall_ms`, every counter and every histogram's count/sum;
 *  - one health detector with two conditions, each of which flips
 *    /readyz to 503 while it holds:
 *      stalled  — `campaign.seeds` has not advanced for kStallUs (a
 *                 stall is a rate of zero held that long);
 *      degraded — the seed rate fell below kDegradeRatio × its EWMA
 *                 baseline; it recovers at kRecoverRatio × the
 *                 baseline, which is frozen while degraded so a slump
 *                 cannot drag it down and declare itself recovered.
 *
 * Transitions emit kPhaseOps events — watchdog_stall/_recovered
 * (minors 0/1) and throughput_degraded/_recovered (minors 2/3) — and
 * bump report.stalls / report.throughput_{degraded,recovered}; a stall
 * also writes a diagnostic dump (seed count plus the registry) to
 * stderr. Everything here is wall-clock operational data: it never
 * feeds the summary, the report or the checkpoint.
 *
 * stop() detaches health first, then joins the thread and takes a
 * final sample, so a finished campaign held open by --serve-wait never
 * reads as stalled or degraded. The clock is injectable and
 * sampleOnce() is synchronous, so tests script every transition.
 *
 * A sample runs under the sampler's lock — `augment` and the event
 * sink included — so samples never interleave and the ring keeps its
 * single writer. Those callbacks must not call sampleOnce() or stop();
 * stalled(), degraded() and series() take no lock.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "support/events.hpp"
#include "support/metrics.hpp"
#include "support/timeseries.hpp"

namespace dce::report {

/** Seed-count silence that reads as a stall. */
inline constexpr uint64_t kStallUs = 60'000'000;
/** EWMA smoothing factor of the seed-rate baseline. */
inline constexpr double kEwmaAlpha = 0.3;
/** Degrade when rate < kDegradeRatio × baseline. */
inline constexpr double kDegradeRatio = 0.5;
/** Recover when rate >= kRecoverRatio × baseline (hysteresis). */
inline constexpr double kRecoverRatio = 0.8;
/** Rates folded into the baseline before degradation can fire, so a
 * startup ramp never reads as a slump. */
inline constexpr uint64_t kWarmupSamples = 5;

/** Every field has a default member initializer, so callers can name
 * only the fields they set (designated initializers) without
 * -Wmissing-field-initializers warnings. */
struct LivenessOptions {
    /** Sampler cadence; 0 = 500 ms. */
    uint64_t intervalMs = 500;
    /** Registry to sample; null = the process global. */
    support::MetricsRegistry *registry = nullptr;
    /** Fold step run on a scratch copy of the registry before each
     * sample — a fleet session folds in every worker's latest dump on
     * top of the coordinator's own registry (which holds the
     * fleet-wide campaign.progress gauges), so the sample covers the
     * fleet. Null = sample the registry directly. */
    std::function<void(support::MetricsRegistry &)> augment = nullptr;
    /** JSONL file appended to on every sample; empty = no file. */
    std::string jsonlPath = {};
    /** Sink for health transition events; null = none. */
    support::EventSink *events = nullptr;
    /** Monotonic microsecond clock behind rates and stall time; null =
     * std::chrono::steady_clock. Tests inject a fake. */
    std::function<uint64_t()> clock = nullptr;
};

class Liveness {
  public:
    explicit Liveness(LivenessOptions options);
    ~Liveness(); ///< stop()

    Liveness(const Liveness &) = delete;
    Liveness &operator=(const Liveness &) = delete;

    /** Start the sampler thread. */
    void start();
    /** Detach health (clearing both conditions), join the sampler
     * thread and take one final sample. A no-op unless start() ran. */
    void stop();

    /** Derive one sample now and feed it to every sink. */
    support::TimeSample sampleOnce();

    const support::TimeSeries &series() const { return series_; }
    /** True from start() until stop() begins: the run it watches is
     * live. /progress reports it as `active`. */
    bool sampling() const { return sampling_.load(); }
    bool stalled() const { return stalled_.load(); }
    bool degraded() const { return degraded_.load(); }

  private:
    uint64_t now() const;
    void run();
    support::TimeSample sampleLocked();
    void checkStall(const support::MetricsRegistry &source,
                    uint64_t seeds, uint64_t now_us);
    void checkThroughput(double rate);

    LivenessOptions options_;
    support::TimeSeries series_;
    support::Counter *stalls_ = nullptr;
    support::Counter *degradations_ = nullptr;
    support::Counter *recoveries_ = nullptr;

    /** One sample at a time; guards everything below. */
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopRequested_ = false;
    bool healthLive_ = true;
    // The previous sample, for the seed-rate derivative.
    bool havePrevious_ = false;
    uint64_t lastSeeds_ = 0;
    uint64_t lastUs_ = 0;
    // Stall condition: when the seed count last moved.
    uint64_t seedsAtAdvance_ = 0;
    uint64_t advanceUs_ = 0;
    uint64_t stallOrdinal_ = 0;
    // Degraded condition: the EWMA baseline.
    uint64_t rates_ = 0;
    double ewma_ = 0.0;
    uint64_t degradeOrdinal_ = 0;

    std::atomic<bool> sampling_{false};
    std::atomic<bool> stalled_{false};
    std::atomic<bool> degraded_{false};
    std::thread thread_; ///< last: it uses every member above
};

/** One JSONL snapshot line (no newline): {"seq":..,"wall_ms":..,
 * "counters":{..},"histograms":{"<key>":{"count":..,"sum":..},..}}. */
std::string snapshotJsonLine(const support::MetricsRegistry &registry,
                             uint64_t seq, uint64_t wall_ms);

} // namespace dce::report
