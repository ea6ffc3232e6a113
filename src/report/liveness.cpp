#include "report/liveness.hpp"

#include <chrono>
#include <cstdio>

#include "support/json.hpp"

namespace dce::report {

namespace {

uint64_t
steadyUs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
wallMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** The registry-derived fields of a sample (no rate, no stamps). */
support::TimeSample
deriveSample(const support::MetricsRegistry &source)
{
    support::TimeSample sample;
    sample.seeds = source.counterValue("campaign.seeds");
    sample.findings =
        source.counterValue("campaign.progress", "findings");
    uint64_t hits = source.counterValue("campaign.cache_hits");
    uint64_t misses = source.counterValue("campaign.cache_misses");
    if (hits + misses)
        sample.cacheHitRate = static_cast<double>(hits) /
                              static_cast<double>(hits + misses);
    for (const auto &[key, snapshot] : source.histograms()) {
        for (size_t i = 0; i < support::kTimeSeriesStages.size(); ++i) {
            if (key == support::MetricsRegistry::keyFor(
                           "campaign.stage_us",
                           support::kTimeSeriesStages[i]))
                sample.stageP99Us[i] =
                    support::Histogram::percentileFromBuckets(
                        snapshot.buckets, snapshot.count, 0.99);
        }
        if (key == "serve.request_us")
            sample.serveP99Us = support::Histogram::percentileFromBuckets(
                snapshot.buckets, snapshot.count, 0.99);
    }
    return sample;
}

} // namespace

std::string
snapshotJsonLine(const support::MetricsRegistry &registry, uint64_t seq,
                 uint64_t wall_ms)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("seq", seq);
    writer.field("wall_ms", wall_ms);
    writer.key("counters");
    writer.beginObject();
    for (const auto &[key, value] : registry.counters())
        writer.field(key, value);
    writer.endObject();
    writer.key("histograms");
    writer.beginObject();
    for (const auto &[key, snapshot] : registry.histograms()) {
        writer.key(key);
        writer.beginObject();
        writer.field("count", snapshot.count);
        writer.field("sum", snapshot.sum);
        writer.endObject();
    }
    writer.endObject();
    writer.endObject();
    return writer.take();
}

Liveness::Liveness(LivenessOptions options)
    : options_(std::move(options))
{
    if (!options_.intervalMs)
        options_.intervalMs = 500;
    if (!options_.registry)
        options_.registry = &support::MetricsRegistry::global();
    stalls_ = &options_.registry->counter("report.stalls");
    degradations_ =
        &options_.registry->counter("report.throughput_degraded");
    recoveries_ =
        &options_.registry->counter("report.throughput_recovered");
    advanceUs_ = now();
}

Liveness::~Liveness()
{
    stop();
}

uint64_t
Liveness::now() const
{
    return options_.clock ? options_.clock() : steadyUs();
}

void
Liveness::start()
{
    sampling_ = true;
    thread_ = std::thread([this] { run(); });
}

void
Liveness::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!thread_.joinable() || stopRequested_)
            return;
        stopRequested_ = true;
        sampling_ = false;
        // The campaign is over: neither condition can hold any more,
        // and the final sample's rate collapse must not raise one.
        healthLive_ = false;
        stalled_ = false;
        degraded_ = false;
    }
    wake_.notify_all();
    thread_.join();
    sampleOnce(); // the sinks always cover shutdown
}

void
Liveness::run()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock,
                           std::chrono::milliseconds(options_.intervalMs),
                           [this] { return stopRequested_; }))
        sampleLocked();
}

support::TimeSample
Liveness::sampleOnce()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sampleLocked();
}

support::TimeSample
Liveness::sampleLocked()
{
    support::MetricsRegistry scratch;
    const support::MetricsRegistry *source = options_.registry;
    if (options_.augment) {
        scratch.merge(*options_.registry);
        options_.augment(scratch);
        source = &scratch;
    }

    support::TimeSample sample = deriveSample(*source);
    sample.seq = series_.next();
    sample.wallMs = wallMs();
    uint64_t now_us = now();
    // A clock or counter going backwards (restart, merge) yields no
    // rate; the next sample measures from here.
    bool have_rate = havePrevious_ && now_us > lastUs_ &&
                     sample.seeds >= lastSeeds_;
    if (have_rate)
        sample.seedsPerSec =
            static_cast<double>(sample.seeds - lastSeeds_) /
            (static_cast<double>(now_us - lastUs_) / 1'000'000.0);
    havePrevious_ = true;
    lastSeeds_ = sample.seeds;
    lastUs_ = now_us;

    series_.append(sample);
    if (!options_.jsonlPath.empty()) {
        // Best-effort: a lost line costs one point of the plot.
        std::string line =
            snapshotJsonLine(*source, sample.seq, sample.wallMs) + "\n";
        std::FILE *file = std::fopen(options_.jsonlPath.c_str(), "ab");
        if (file) {
            std::fwrite(line.data(), 1, line.size(), file);
            std::fclose(file);
        }
    }
    if (healthLive_) {
        checkStall(*source, sample.seeds, now_us);
        if (have_rate)
            checkThroughput(sample.seedsPerSec);
    }
    return sample;
}

void
Liveness::checkStall(const support::MetricsRegistry &source,
                     uint64_t seeds, uint64_t now_us)
{
    if (seeds != seedsAtAdvance_) {
        seedsAtAdvance_ = seeds;
        advanceUs_ = now_us;
        if (stalled_) {
            // The bookend to watchdog_stall: same ordinal, minor 1, so
            // the log records every stalled→ready transition.
            stalled_ = false;
            support::Event event("watchdog_recovered",
                                 {support::kPhaseOps, stallOrdinal_, 1});
            event.num("stall", stallOrdinal_).num("seeds_done", seeds);
            support::emitEvent(options_.events, std::move(event));
        }
        return;
    }
    uint64_t silent_us = now_us > advanceUs_ ? now_us - advanceUs_ : 0;
    if (stalled_ || silent_us < kStallUs)
        return;
    stalled_ = true; // latched: one fire until the seeds move again
    ++stallOrdinal_;
    stalls_->add();
    // kPhaseOps: wall-clock-driven, so stall events never perturb the
    // deterministic bands of the log.
    support::Event event("watchdog_stall",
                         {support::kPhaseOps, stallOrdinal_, 0});
    event.num("stall", stallOrdinal_)
        .num("silent_us", silent_us)
        .num("seeds_done", seeds);
    support::emitEvent(options_.events, std::move(event));
    std::string dump = "liveness: no progress for " +
                       std::to_string(silent_us / 1000) + " ms at " +
                       std::to_string(seeds) + " seeds\n" +
                       source.dumpText();
    std::fputs(dump.c_str(), stderr);
}

void
Liveness::checkThroughput(double rate)
{
    if (rates_ == 0)
        ewma_ = rate;
    double baseline = ewma_;
    ++rates_;
    const char *type = nullptr;
    if (!degraded_) {
        if (rates_ > kWarmupSamples && baseline > 0.0 &&
            rate < kDegradeRatio * baseline) {
            // Latch; the baseline freezes while degraded.
            degraded_ = true;
            ++degradeOrdinal_;
            degradations_->add();
            type = "throughput_degraded";
        } else {
            ewma_ = kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * ewma_;
        }
    } else if (rate >= kRecoverRatio * baseline) {
        degraded_ = false;
        recoveries_->add();
        type = "throughput_recovered";
        ewma_ = kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * ewma_;
    }
    if (!type)
        return;
    // Minors 2/3 keep the keys disjoint from watchdog_stall/_recovered
    // (minors 0/1) at the same ordinal.
    support::Event event(type, {support::kPhaseOps, degradeOrdinal_,
                                degraded_ ? 2u : 3u});
    event.num("degradation", degradeOrdinal_)
        .str("rate", support::jsonDecimal(rate))
        .str("baseline", support::jsonDecimal(baseline));
    support::emitEvent(options_.events, std::move(event));
}

} // namespace dce::report
