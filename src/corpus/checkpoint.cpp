#include "corpus/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>

#include "corpus/serialize.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dce::corpus {

std::string
encodeCheckpointJson(
    const std::string &plan_json, const std::set<uint64_t> &completed,
    uint64_t watermark, uint64_t rng_state,
    const support::MetricsRegistry &registry,
    const std::map<uint64_t, std::vector<StoredFinding>> &findings)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("version", uint64_t(kFormatVersion));
    writer.key("plan");
    writer.raw(plan_json);
    writer.key("completed");
    writer.beginArray();
    for (uint64_t chunk : completed)
        writer.value(chunk);
    writer.endArray();
    writer.field("watermark", watermark);
    writer.field("rngState", rng_state);
    writer.key("counters");
    writer.beginArray();
    for (const auto &[key, value] : registry.counters()) {
        if (key.rfind("campaign.", 0) != 0)
            continue; // only the deterministic campaign counters
        writer.beginObject();
        writer.field("k", key);
        writer.field("v", value);
        writer.endObject();
    }
    writer.endArray();
    writer.key("findings");
    writer.beginArray();
    for (const auto &[chunk, list] : findings) {
        for (const StoredFinding &entry : list) {
            writer.beginObject();
            writer.field("chunk", entry.chunk);
            writer.field("slot", entry.slot);
            writer.field("seed", entry.finding.seed);
            writer.field("marker", entry.finding.marker);
            writer.endObject();
        }
    }
    writer.endArray();
    writer.endObject();
    return support::sealJsonLine(writer.take());
}

uint64_t
CampaignPlan::numChunks() const
{
    const uint64_t chunk_size = std::max(1u, chunkSize);
    return (count + chunk_size - 1) / chunk_size;
}

void
bumpCounterTo(support::MetricsRegistry &registry,
              std::string_view name, std::string_view label,
              uint64_t target)
{
    // Each progress target — committed chunks, watermark, committed
    // seeds, findings — only ever grows and has a schedule-independent
    // final value, and the checkpoint serializer persists every
    // campaign.* counter, so bump-to keeps the restored summary
    // byte-identical across kill/resume schedules.
    uint64_t current = registry.counterValue(name, label);
    if (target > current)
        registry.counter(name, label).add(target - current);
}

namespace {

std::optional<CheckpointState>
parseCheckpoint(std::string_view text)
{
    std::optional<support::JsonValue> doc = support::unsealJsonLine(text);
    if (!doc || doc->getU64("version") != kFormatVersion)
        return std::nullopt;
    const support::JsonValue *plan_json = doc->get("plan");
    if (!plan_json)
        return std::nullopt;
    std::optional<CampaignPlan> plan = readPlan(*plan_json);
    if (!plan)
        return std::nullopt;

    CheckpointState data;
    data.plan = *plan;
    data.watermark = doc->getU64("watermark");
    data.rngState = doc->getU64("rngState");
    const support::JsonValue *completed = doc->get("completed");
    if (!completed || !completed->isArray())
        return std::nullopt;
    for (const support::JsonValue &chunk : completed->items)
        data.completed.insert(chunk.asU64());
    const support::JsonValue *counters = doc->get("counters");
    if (!counters || !counters->isArray())
        return std::nullopt;
    for (const support::JsonValue &entry : counters->items)
        data.counters.emplace_back(entry.getString("k"),
                                   entry.getU64("v"));
    const support::JsonValue *findings = doc->get("findings");
    if (!findings || !findings->isArray())
        return std::nullopt;
    bool extract = plan->missedByBuild < plan->builds.size() &&
                   plan->referenceBuild < plan->builds.size();
    for (const support::JsonValue &entry : findings->items) {
        if (!extract)
            return std::nullopt; // findings without an extraction pair
        StoredFinding finding;
        finding.chunk = entry.getU64("chunk");
        finding.slot = entry.getU64("slot");
        finding.finding.seed = entry.getU64("seed");
        finding.finding.marker = unsigned(entry.getU64("marker"));
        finding.finding.missedBy = plan->builds[plan->missedByBuild];
        finding.finding.reference = plan->builds[plan->referenceBuild];
        data.findings.push_back(std::move(finding));
    }
    return data;
}

} // namespace

std::optional<CheckpointState>
readCheckpointState(CorpusStore &store, StoreError *error)
{
    if (!store.hasCheckpoint()) {
        setError(error, StoreStatus::NoCheckpoint,
                 "store has no checkpoint");
        return std::nullopt;
    }
    StoreError err;
    std::optional<std::string> text = store.readCheckpoint(&err);
    if (!text) {
        setError(error, err.status, err.message);
        return std::nullopt;
    }
    std::optional<CheckpointState> parsed = parseCheckpoint(*text);
    if (!parsed) {
        setError(error, StoreStatus::Corrupt,
                 "checkpoint failed its checksum or shape");
        return std::nullopt;
    }
    return parsed;
}

//===------------------------------------------------------------------===//
// Plan serialization
//===------------------------------------------------------------------===//

std::string
serializePlan(const CampaignPlan &plan)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("firstSeed", plan.firstSeed);
    writer.field("count", plan.count);
    writer.field("random", plan.randomSeeds);
    writer.field("stream", plan.streamSeed);
    writer.field("chunk", plan.chunkSize);
    writer.key("builds");
    writer.beginArray();
    for (const core::BuildSpec &build : plan.builds)
        writeBuildSpec(writer, build);
    writer.endArray();
    writer.field("primary", plan.computePrimary);
    writer.field("remarks", plan.collectRemarks);
    writer.key("gen");
    writeGenConfig(writer, plan.generator);
    writer.field("by", uint64_t(plan.missedByBuild));
    writer.field("ref", uint64_t(plan.referenceBuild));
    writer.field("maxFindings", plan.maxFindings);
    writer.endObject();
    return writer.take();
}

std::optional<CampaignPlan>
readPlan(const support::JsonValue &value)
{
    if (!value.isObject())
        return std::nullopt;
    CampaignPlan plan;
    plan.firstSeed = value.getU64("firstSeed");
    plan.count = value.getU64("count");
    plan.randomSeeds = value.getBool("random");
    plan.streamSeed = value.getU64("stream");
    plan.chunkSize = unsigned(value.getU64("chunk"));
    const support::JsonValue *builds = value.get("builds");
    if (!builds || !builds->isArray())
        return std::nullopt;
    for (const support::JsonValue &entry : builds->items) {
        std::optional<core::BuildSpec> build = readBuildSpec(entry);
        if (!build)
            return std::nullopt;
        plan.builds.push_back(*build);
    }
    plan.computePrimary = value.getBool("primary");
    plan.collectRemarks = value.getBool("remarks");
    const support::JsonValue *generator = value.get("gen");
    if (!generator)
        return std::nullopt;
    std::optional<gen::GenConfig> config = readGenConfig(*generator);
    if (!config)
        return std::nullopt;
    plan.generator = *config;
    plan.missedByBuild = size_t(value.getU64("by"));
    plan.referenceBuild = size_t(value.getU64("ref"));
    plan.maxFindings = unsigned(value.getU64("maxFindings"));
    return plan;
}

//===------------------------------------------------------------------===//
// The checkpointing runner
//===------------------------------------------------------------------===//

std::optional<CheckpointedCampaign>
runCheckpointed(CorpusStore &store, const CampaignPlan &plan,
                const CheckpointRunOptions &options,
                StoreError *error)
{
    support::TraceSpan span("corpus.campaign", "corpus");
    auto wall_start = std::chrono::steady_clock::now();

    CheckpointedCampaign result;
    if (options.metrics) {
        result.metrics = options.metrics;
    } else {
        result.ownedMetrics =
            std::make_shared<support::MetricsRegistry>();
        result.metrics = result.ownedMetrics.get();
    }
    support::MetricsRegistry &registry = *result.metrics;

    const std::string plan_json = serializePlan(plan);
    const uint64_t chunk_size = std::max(1u, plan.chunkSize);
    const uint64_t num_chunks = plan.numChunks();

    StoreError err;

    // Pick up the store's checkpoint, if any.
    CheckpointState ckpt;
    bool have_ckpt = false;
    if (store.hasCheckpoint()) {
        std::optional<std::string> text = store.readCheckpoint(&err);
        if (!text) {
            setError(error, err.status, err.message);
            return std::nullopt;
        }
        std::optional<CheckpointState> parsed = parseCheckpoint(*text);
        if (!parsed) {
            setError(error, StoreStatus::Corrupt,
                     "checkpoint failed its checksum or shape");
            return std::nullopt;
        }
        if (serializePlan(parsed->plan) != plan_json) {
            setError(error, StoreStatus::PlanMismatch,
                     "store checkpoint pins a different plan");
            return std::nullopt;
        }
        ckpt = std::move(*parsed);
        have_ckpt = true;
    }

    // Restore the records of checkpointed chunks. A checkpoint only
    // names durable store state (the store flushes before each
    // checkpoint write), so missing records mean outside interference;
    // the pure-chunk property still lets us self-heal by discarding
    // the checkpoint and recomputing everything.
    std::vector<core::ProgramRecord> records(plan.count);
    std::vector<char> have_record(plan.count, 0);
    if (have_ckpt && !ckpt.completed.empty()) {
        std::vector<StoredRecord> stored = store.loadRecords(&err);
        if (stored.empty() && !err.ok()) {
            setError(error, err.status, err.message);
            return std::nullopt;
        }
        for (StoredRecord &entry : stored) {
            if (entry.slot < plan.count) {
                records[entry.slot] = std::move(entry.record);
                have_record[entry.slot] = 1;
            }
        }
        bool intact = true;
        for (uint64_t chunk : ckpt.completed) {
            uint64_t begin = chunk * chunk_size;
            uint64_t end =
                std::min<uint64_t>(begin + chunk_size, plan.count);
            for (uint64_t slot = begin; slot < end && intact; ++slot)
                intact = have_record[slot] != 0;
        }
        if (!intact) {
            ckpt = CheckpointState{};
            ckpt.plan = plan;
            have_ckpt = false;
            std::fill(have_record.begin(), have_record.end(), 0);
        }
    }

    // Restore the deterministic counters and findings the checkpoint
    // carries for the completed chunks.
    if (have_ckpt) {
        for (const auto &[key, value] : ckpt.counters)
            registry.counter(key).add(value);
    }
    std::map<uint64_t, std::vector<StoredFinding>> findings_by_chunk;
    uint64_t findings_total = have_ckpt ? ckpt.findings.size() : 0;
    if (have_ckpt) {
        for (StoredFinding &finding : ckpt.findings)
            findings_by_chunk[finding.chunk].push_back(
                std::move(finding));
    }

    // Derive the seed for every slot from the watermark onward. In
    // randomSeeds mode this restores the Rng stream state saved at the
    // contiguous watermark and replays forward, recording the state at
    // each chunk boundary so the next checkpoint can do the same.
    uint64_t watermark = have_ckpt ? ckpt.watermark : 0;
    uint64_t watermark_slot =
        std::min<uint64_t>(watermark * chunk_size, plan.count);
    std::vector<uint64_t> seeds(plan.count, 0);
    std::vector<uint64_t> state_at_chunk(num_chunks + 1, 0);
    if (plan.randomSeeds) {
        Rng rng(plan.streamSeed);
        if (have_ckpt && watermark > 0)
            rng.restore(ckpt.rngState);
        for (uint64_t slot = watermark_slot; slot < plan.count;
             ++slot) {
            if (slot % chunk_size == 0)
                state_at_chunk[slot / chunk_size] = rng.state();
            seeds[slot] = rng.next();
        }
        state_at_chunk[num_chunks] = rng.state();
    } else {
        for (uint64_t slot = 0; slot < plan.count; ++slot)
            seeds[slot] = plan.firstSeed + slot;
    }

    // Execution. Chunks completed before this run are immutable input
    // (done_before); everything the workers share mutably is guarded
    // by commit_mutex.
    std::set<uint64_t> completed =
        have_ckpt ? ckpt.completed : std::set<uint64_t>{};
    result.chunksLoaded = completed.size();
    std::vector<char> done_before(num_chunks, 0);
    uint64_t seeds_done = 0;
    for (uint64_t chunk : completed) {
        done_before[chunk] = 1;
        seeds_done += std::min<uint64_t>((chunk + 1) * chunk_size,
                                         plan.count) -
                      chunk * chunk_size;
    }

    // A filtered run (fleet lease) only ever waits for its own
    // chunks: the final checkpoint fires when the eligible set —
    // filter-accepted chunks plus whatever was already committed —
    // is fully committed, not when the whole plan is.
    auto eligible = [&](uint64_t chunk) {
        return !options.chunkFilter || options.chunkFilter(chunk);
    };
    uint64_t target_chunks = 0;
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk)
        if (done_before[chunk] || eligible(chunk))
            ++target_chunks;

    const bool extract = plan.missedByBuild < plan.builds.size() &&
                         plan.referenceBuild < plan.builds.size();
    const core::BuildId by_id{plan.missedByBuild};
    const core::BuildId ref_id{plan.referenceBuild};

    // Event-log preamble. Every field is a pure function of (plan,
    // store state), so resumed and fresh runs of the same situation
    // log the same preamble at any thread count (DESIGN.md §12).
    support::EventSink *events = options.events;
    if (events) {
        support::Event started("campaign_started",
                               {support::kPhaseCampaign, 0, 0});
        started.str("plan_hash", support::fnv1a64Hex(plan_json))
            .num("seeds", plan.count)
            .num("chunks", num_chunks)
            .num("chunk_size", chunk_size)
            .num("resumed_chunks", result.chunksLoaded);
        std::string build_names;
        for (const core::BuildSpec &build : plan.builds) {
            if (!build_names.empty())
                build_names += ',';
            build_names += build.name();
        }
        started.str("builds", build_names);
        events->emit(std::move(started));
    }

    core::CampaignOptions chunk_options;
    chunk_options.computePrimary = plan.computePrimary;
    chunk_options.collectRemarks = plan.collectRemarks;
    chunk_options.generator = plan.generator;

    std::mutex commit_mutex;
    std::atomic<bool> halted{false};
    std::atomic<bool> failed{false};
    uint64_t committed_this_run = 0;
    uint64_t since_checkpoint = 0;
    uint64_t checkpoints_written = 0;
    StoreError run_error;

    support::ThreadPool pool(options.threads);
    pool.forChunks(
        plan.count, chunk_size, [&](size_t begin, size_t end) {
            uint64_t chunk = uint64_t(begin) / chunk_size;
            if (done_before[chunk] || !eligible(chunk) ||
                halted.load() || failed.load())
                return;

            // Process the chunk against a chunk-local registry: its
            // metrics join the campaign's only if it commits, so the
            // checkpointed counters cover exactly the committed work.
            support::MetricsRegistry chunk_registry;
            core::SeedProcessor processor(plan.builds, chunk_options,
                                          chunk_registry);
            core::SeedCounters counters;
            std::vector<core::ProgramRecord> chunk_records;
            std::vector<std::string> texts;
            chunk_records.reserve(end - begin);
            texts.reserve(end - begin);
            for (size_t slot = begin; slot < end; ++slot)
                chunk_records.push_back(processor.process(
                    seeds[slot], counters, &texts.emplace_back()));

            std::lock_guard<std::mutex> lock(commit_mutex);
            // A halt is the simulated kill: chunks still in flight
            // when it lands are lost, exactly like a real SIGKILL.
            if (failed.load() || halted.load())
                return;
            uint64_t chunk_valid = 0;
            std::vector<std::string> hashes(chunk_records.size());
            for (size_t i = 0; i < chunk_records.size(); ++i) {
                uint64_t slot = begin + i;
                hashes[i] = programHash(texts[i]);
                store.putProgram(hashes[i], texts[i]);
                store.putRecord(chunk_records[i], slot, chunk,
                                hashes[i]);
                chunk_valid += chunk_records[i].valid ? 1 : 0;
                records[slot] = std::move(chunk_records[i]);
            }
            registry.merge(chunk_registry);
            completed.insert(chunk);
            seeds_done += end - begin;
            uint64_t chunk_findings = 0;
            if (extract) {
                std::vector<StoredFinding> &list =
                    findings_by_chunk[chunk];
                for (size_t slot = begin; slot < end; ++slot) {
                    std::optional<core::Finding> finding =
                        core::findingForRecord(
                            records[slot], by_id, ref_id,
                            plan.builds[plan.missedByBuild],
                            plan.builds[plan.referenceBuild]);
                    if (finding) {
                        list.push_back({chunk, slot, *finding});
                        ++chunk_findings;
                        if (events) {
                            core::VerdictKey key;
                            key.programHash = hashes[slot - begin];
                            key.markers = {finding->marker};
                            key.missedBy = finding->missedBy.name();
                            key.reference = finding->reference.name();
                            support::Event discovered(
                                "finding_discovered",
                                {support::kPhaseChunk, chunk, slot});
                            discovered.num("chunk", chunk)
                                .num("slot", slot)
                                .num("seed", finding->seed)
                                .num("marker", finding->marker)
                                .str("program_hash",
                                     hashes[slot - begin])
                                .str("missed_by", key.missedBy)
                                .str("reference", key.reference)
                                .str("fingerprint", key.fingerprint());
                            events->emit(std::move(discovered));
                        }
                    }
                }
            }
            if (events) {
                support::Event committed_event(
                    "chunk_committed", {support::kPhaseChunk, chunk,
                                        support::kChunkCommitMinor});
                committed_event.num("chunk", chunk)
                    .num("first_slot", begin)
                    .num("slots", end - begin)
                    .num("valid", chunk_valid)
                    .num("invalid", (end - begin) - chunk_valid)
                    .num("findings", chunk_findings);
                events->emit(std::move(committed_event));
            }
            findings_total += chunk_findings;
            while (watermark < num_chunks &&
                   completed.count(watermark))
                ++watermark;
            ++committed_this_run;
            ++since_checkpoint;
            ++result.chunksRun;

            if (since_checkpoint >= options.checkpointEveryChunks ||
                completed.size() >= target_chunks) {
                // Set the progress gauges before the checkpoint JSON
                // is built so the durable checkpoint and the live
                // registry (/metrics, /progress) carry the same
                // committed numbers.
                bumpCounterTo(registry, "campaign.progress",
                              "completed_chunks", completed.size());
                bumpCounterTo(registry, "campaign.progress",
                              "watermark", watermark);
                bumpCounterTo(registry, "campaign.progress",
                              "seeds_committed", seeds_done);
                bumpCounterTo(registry, "campaign.progress",
                              "findings", findings_total);
                std::string json = encodeCheckpointJson(
                    plan_json, completed, watermark,
                    state_at_chunk[watermark], registry,
                    findings_by_chunk);
                if (!store.writeCheckpoint(json, &run_error)) {
                    failed.store(true);
                    return;
                }
                since_checkpoint = 0;
                ++checkpoints_written;
                if (events) {
                    // Commits are serialized, so checkpoint k always
                    // lands after loaded + k*cadence commits — the
                    // ordinal and chunk count are schedule-free even
                    // though the *set* of completed chunks is not.
                    support::Event written(
                        "checkpoint_written",
                        {support::kPhaseCheckpoint,
                         checkpoints_written, 0});
                    written.num("ordinal", checkpoints_written)
                        .num("chunks_completed", completed.size())
                        .num("seeds_done", seeds_done);
                    events->emit(std::move(written));
                }
            }
            if (options.haltAfterChunks &&
                committed_this_run >= options.haltAfterChunks)
                halted.store(true);
        });

    if (failed.load()) {
        setError(error, run_error.status, run_error.message);
        return std::nullopt;
    }

    result.resumed = have_ckpt;
    result.completed = completed.size() == num_chunks;
    result.campaign.builds = plan.builds;
    result.campaign.programs = std::move(records);
    result.campaign.metrics.seedsDone = seeds_done;
    result.campaign.metrics.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    for (const auto &[chunk, list] : findings_by_chunk) {
        for (const StoredFinding &entry : list) {
            if (result.findings.size() >= plan.maxFindings)
                break;
            result.findings.push_back(entry.finding);
        }
    }
    if (events) {
        support::Event finished("campaign_finished",
                                {support::kPhaseCampaignEnd, 0, 0});
        finished.num("seeds_done", seeds_done)
            .num("chunks_completed", completed.size())
            .num("findings", result.findings.size())
            .num("completed", result.completed ? 1 : 0);
        events->emit(std::move(finished));
    }
    span.setArg("chunks_run", result.chunksRun);
    return result;
}

//===------------------------------------------------------------------===//
// Deterministic summary
//===------------------------------------------------------------------===//

std::string
summaryText(const CheckpointedCampaign &result)
{
    const core::Campaign &campaign = result.campaign;
    std::string out;
    out += "campaign seeds=" +
           std::to_string(campaign.metrics.seedsDone) +
           " markers=" + std::to_string(campaign.totalMarkers()) +
           " dead=" + std::to_string(campaign.totalDead()) +
           " alive=" + std::to_string(campaign.totalAlive()) + "\n";
    for (size_t i = 0; i < campaign.builds.size(); ++i) {
        core::BuildId build{i};
        out += "build " + campaign.builds[i].name() +
               " missed=" +
               std::to_string(campaign.totalMissed(build)) +
               " primary=" +
               std::to_string(campaign.totalPrimaryMissed(build)) +
               "\n";
        core::KillerHistogram killers =
            killerHistogram(campaign, build);
        for (const auto &[pass, count] : killers.byPass)
            out += "  killer " + pass + " " +
                   std::to_string(count) + "\n";
    }
    out += "findings " + std::to_string(result.findings.size()) +
           "\n";
    for (const core::Finding &finding : result.findings)
        out += "  finding seed=" + std::to_string(finding.seed) +
               " marker=" + std::to_string(finding.marker) + " by=" +
               finding.missedBy.name() + " ref=" +
               finding.reference.name() + "\n";
    if (result.metrics) {
        for (const auto &[key, value] : result.metrics->counters()) {
            if (key.rfind("campaign.", 0) == 0)
                out += "counter " + key + " " +
                       std::to_string(value) + "\n";
        }
    }
    return out;
}

} // namespace dce::corpus
