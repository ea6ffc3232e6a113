#include "support/timeseries.hpp"

#include <bit>

#include "support/json.hpp"

namespace dce::support {

namespace {

// Ring field layout. seq lives in the slot stamp (stamp = seq + 1).
enum Field : size_t {
    kFieldWallMs = 0,
    kFieldSeeds,
    kFieldFindings,
    kFieldSeedsPerSec,  // double bits
    kFieldCacheHitRate, // double bits
    kFieldStage0,       // 4 consecutive double-bit stage p99s
    kFieldServeP99 = kFieldStage0 + 4,
};

} // namespace

TimeSeries::TimeSeries(size_t capacity)
    : capacity_(capacity ? capacity : 1),
      slots_(std::make_unique<Slot[]>(capacity ? capacity : 1))
{
}

uint64_t
TimeSeries::next() const
{
    return next_.load();
}

void
TimeSeries::append(TimeSample sample)
{
    uint64_t seq = next_.load();
    sample.seq = seq;
    Slot &slot = slots_[seq % capacity_];
    // Per-slot seqlock, all fields atomic (seq_cst): mark in-progress,
    // store, publish. Readers that catch the kWriting stamp — or a
    // stamp from another generation — skip the slot.
    slot.stamp.store(kWriting);
    slot.fields[kFieldWallMs].store(sample.wallMs);
    slot.fields[kFieldSeeds].store(sample.seeds);
    slot.fields[kFieldFindings].store(sample.findings);
    slot.fields[kFieldSeedsPerSec].store(
        std::bit_cast<uint64_t>(sample.seedsPerSec));
    slot.fields[kFieldCacheHitRate].store(
        std::bit_cast<uint64_t>(sample.cacheHitRate));
    for (size_t i = 0; i < sample.stageP99Us.size(); ++i)
        slot.fields[kFieldStage0 + i].store(
            std::bit_cast<uint64_t>(sample.stageP99Us[i]));
    slot.fields[kFieldServeP99].store(
        std::bit_cast<uint64_t>(sample.serveP99Us));
    slot.stamp.store(seq + 1);
    next_.store(seq + 1);
}

std::vector<TimeSample>
TimeSeries::read(uint64_t since) const
{
    uint64_t end = next_.load();
    uint64_t begin = end > capacity_ ? end - capacity_ : 0;
    if (since > begin)
        begin = since;
    std::vector<TimeSample> out;
    if (begin >= end)
        return out;
    out.reserve(static_cast<size_t>(end - begin));
    for (uint64_t seq = begin; seq < end; ++seq) {
        const Slot &slot = slots_[seq % capacity_];
        if (slot.stamp.load() != seq + 1)
            continue; // overwritten or mid-write: skip, don't block
        TimeSample sample;
        sample.seq = seq;
        sample.wallMs = slot.fields[kFieldWallMs].load();
        sample.seeds = slot.fields[kFieldSeeds].load();
        sample.findings = slot.fields[kFieldFindings].load();
        sample.seedsPerSec = std::bit_cast<double>(
            slot.fields[kFieldSeedsPerSec].load());
        sample.cacheHitRate = std::bit_cast<double>(
            slot.fields[kFieldCacheHitRate].load());
        for (size_t i = 0; i < sample.stageP99Us.size(); ++i)
            sample.stageP99Us[i] = std::bit_cast<double>(
                slot.fields[kFieldStage0 + i].load());
        sample.serveP99Us = std::bit_cast<double>(
            slot.fields[kFieldServeP99].load());
        if (slot.stamp.load() != seq + 1)
            continue; // torn by a concurrent overwrite: drop it
        out.push_back(sample);
    }
    return out;
}

std::string
timeSeriesJson(const TimeSeries &series, uint64_t since)
{
    JsonWriter writer;
    writer.beginObject();
    writer.field("capacity", uint64_t(series.capacity()));
    writer.field("next", series.next());
    writer.key("points");
    writer.beginArray();
    for (const TimeSample &point : series.read(since)) {
        writer.beginObject();
        writer.field("seq", point.seq);
        writer.field("wall_ms", point.wallMs);
        writer.field("seeds", point.seeds);
        writer.field("findings", point.findings);
        writer.field("seeds_per_sec", jsonDecimal(point.seedsPerSec));
        writer.field("cache_hit_rate", jsonDecimal(point.cacheHitRate));
        writer.key("stage_p99_us");
        writer.beginObject();
        for (size_t i = 0; i < kTimeSeriesStages.size(); ++i)
            writer.field(kTimeSeriesStages[i],
                         jsonDecimal(point.stageP99Us[i]));
        writer.endObject();
        writer.field("serve_p99_us", jsonDecimal(point.serveP99Us));
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    return writer.take();
}

} // namespace dce::support
