#include "fleet/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "support/rng.hpp"

namespace dce::fleet {

using corpus::setError;

std::optional<corpus::CheckpointedCampaign>
mergeFleet(const std::string &fleet_dir, corpus::StoreError *error)
{
    std::optional<FleetConfig> config =
        readFleetConfig(fleet_dir, error);
    if (!config)
        return std::nullopt;
    const corpus::CampaignPlan &plan = config->plan;
    const std::string plan_json = corpus::serializePlan(plan);
    const uint64_t chunk_size = plan.chunkSize ? plan.chunkSize : 1;
    const uint64_t num_chunks = config->plan.numChunks();

    LeaseTable table(fleet_dir);
    std::optional<std::vector<Lease>> leases = table.list(error);
    if (!leases)
        return std::nullopt;
    for (const Lease &lease : *leases) {
        if (lease.state != LeaseState::Done) {
            setError(error, corpus::StoreStatus::IoError,
                     "fleet incomplete: lease " +
                         std::to_string(lease.index) + " is " +
                         leaseStateName(lease.state));
            return std::nullopt;
        }
    }

    // Pull each slot's record (and program text) from the store whose
    // done lease covers its chunk — the authoritative copy even when
    // a crashed worker's store holds a stale duplicate.
    std::vector<core::ProgramRecord> records(plan.count);
    std::vector<std::string> hashes(plan.count);
    std::vector<char> have(plan.count, 0);
    std::unordered_map<std::string, std::string> programs;
    std::map<std::string, std::set<uint64_t>> chunks_by_store;
    for (const Lease &lease : *leases) {
        for (uint64_t chunk = lease.beginChunk;
             chunk < lease.endChunk; ++chunk)
            chunks_by_store[lease.store].insert(chunk);
    }
    for (const auto &[store_name, chunks] : chunks_by_store) {
        support::MetricsRegistry scratch;
        corpus::OpenOptions open_options;
        open_options.createIfMissing = false;
        open_options.metrics = &scratch;
        std::unique_ptr<corpus::CorpusStore> store =
            corpus::CorpusStore::open(
                workerStoreDir(fleet_dir, store_name), error,
                open_options);
        if (!store)
            return std::nullopt;
        std::vector<corpus::StoredRecord> stored =
            store->loadRecords(error);
        if (error && !error->ok())
            return std::nullopt;
        for (corpus::StoredRecord &entry : stored) {
            if (!chunks.count(entry.chunk) ||
                entry.slot >= plan.count)
                continue;
            if (!programs.count(entry.programHash)) {
                std::optional<std::string> text =
                    store->getProgram(entry.programHash, error);
                if (!text)
                    return std::nullopt;
                programs.emplace(entry.programHash,
                                 std::move(*text));
            }
            records[entry.slot] = std::move(entry.record);
            hashes[entry.slot] = entry.programHash;
            have[entry.slot] = 1;
        }
    }
    for (uint64_t slot = 0; slot < plan.count; ++slot) {
        if (!have[slot]) {
            setError(error, corpus::StoreStatus::Corrupt,
                     "merge found no record for slot " +
                         std::to_string(slot));
            return std::nullopt;
        }
    }

    // Counter deltas sum associatively, so the totals are independent
    // of how chunks were partitioned into leases.
    auto owned = std::make_shared<support::MetricsRegistry>();
    for (const Lease &lease : *leases) {
        for (const auto &[key, delta] : lease.counters) {
            if (delta)
                owned->counter(key).add(delta);
        }
    }

    std::vector<LeaseFinding> findings;
    for (const Lease &lease : *leases)
        findings.insert(findings.end(), lease.findings.begin(),
                        lease.findings.end());
    std::sort(findings.begin(), findings.end(),
              [](const LeaseFinding &a, const LeaseFinding &b) {
                  return a.chunk != b.chunk ? a.chunk < b.chunk
                                            : a.slot < b.slot;
              });
    std::map<uint64_t, std::vector<corpus::StoredFinding>>
        findings_by_chunk;
    bool extract = plan.missedByBuild < plan.builds.size() &&
                   plan.referenceBuild < plan.builds.size();
    for (const LeaseFinding &entry : findings) {
        corpus::StoredFinding stored;
        stored.chunk = entry.chunk;
        stored.slot = entry.slot;
        stored.finding.seed = entry.seed;
        stored.finding.marker = entry.marker;
        if (extract) {
            stored.finding.missedBy = plan.builds[plan.missedByBuild];
            stored.finding.reference =
                plan.builds[plan.referenceBuild];
        }
        findings_by_chunk[entry.chunk].push_back(std::move(stored));
    }

    // The final-checkpoint progress gauges a single run would have
    // set just before writing its last checkpoint.
    owned->counter("campaign.progress", "completed_chunks")
        .add(num_chunks);
    owned->counter("campaign.progress", "watermark").add(num_chunks);
    owned->counter("campaign.progress", "seeds_committed")
        .add(plan.count);
    owned->counter("campaign.progress", "findings")
        .add(findings.size());

    // RNG stream state at the watermark: replay the full stream —
    // cheap (count draws) and exactly what a complete run records.
    uint64_t rng_state = 0;
    if (plan.randomSeeds) {
        Rng rng(plan.streamSeed);
        for (uint64_t draw = 0; draw < plan.count; ++draw)
            rng.next();
        rng_state = rng.state();
    }

    // Build the merged store: programs + records in slot order, then
    // the complete-campaign checkpoint, byte-for-byte what a live run
    // writes.
    std::string merged_dir = mergedStoreDir(fleet_dir);
    std::error_code ec;
    std::filesystem::remove_all(merged_dir, ec);
    support::MetricsRegistry merged_scratch;
    corpus::OpenOptions merged_options;
    merged_options.metrics = &merged_scratch;
    std::unique_ptr<corpus::CorpusStore> merged =
        corpus::CorpusStore::open(merged_dir, error, merged_options);
    if (!merged)
        return std::nullopt;
    for (uint64_t slot = 0; slot < plan.count; ++slot) {
        merged->putProgram(hashes[slot], programs.at(hashes[slot]));
        merged->putRecord(records[slot], slot, slot / chunk_size,
                          hashes[slot]);
    }
    std::set<uint64_t> completed;
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk)
        completed.insert(chunk);
    std::string checkpoint_json = corpus::encodeCheckpointJson(
        plan_json, completed, num_chunks, rng_state, *owned,
        findings_by_chunk);
    if (!merged->writeCheckpoint(checkpoint_json, error))
        return std::nullopt;
    merged.reset(); // release the writer lock for readers

    corpus::CheckpointedCampaign result;
    result.campaign.builds = plan.builds;
    result.campaign.programs = std::move(records);
    result.campaign.metrics.seedsDone = plan.count;
    result.resumed = false;
    result.completed = true;
    result.chunksLoaded = num_chunks;
    result.chunksRun = 0;
    for (const auto &[chunk, list] : findings_by_chunk) {
        for (const corpus::StoredFinding &stored : list) {
            if (result.findings.size() >= plan.maxFindings)
                break;
            result.findings.push_back(stored.finding);
        }
    }
    result.ownedMetrics = owned;
    result.metrics = owned.get();
    return result;
}

} // namespace dce::fleet
