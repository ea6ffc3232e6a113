/**
 * @file
 * Persistent corpus store (DESIGN.md §11): content-addressed program
 * texts, per-seed ProgramRecords, and triage verdicts, in an
 * append-only on-disk layout built for crash safety.
 *
 * Directory layout:
 *
 *     MANIFEST.json        {"version":1,"generation":N}   (atomic swap)
 *     LOCK                 flock'd for the writer's lifetime; holds
 *                          the writer pid (stale pids are stolen)
 *     index.<N>.jsonl      one CRC-sealed JSON line per entry
 *     payload.<N>.dat      concatenated payload blobs
 *     checkpoint.json      latest campaign checkpoint (atomic swap)
 *     equiv.json           latest metamorphic analysis (atomic swap)
 *
 * Every index line carries a trailing `"c"` field — the CRC-32 of the
 * line up to that field — and every payload blob is covered by a
 * `pcrc` recorded in its index entry. A crash can only lose the
 * unsealed tail: on open, a damaged final line (or a sealed line whose
 * payload never fully hit the disk) is dropped and the file truncated
 * back to the last durable entry; damage *before* the tail is
 * classified Corrupt and refuses the open. Rewrites (checkpoints,
 * equiv state, MANIFEST) always go through temp-file-plus-rename.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "support/metrics.hpp"

namespace dce::corpus {

/** Classified store failure. */
enum class StoreStatus {
    Ok,
    IoError,      ///< filesystem operation failed (errno in message)
    Locked,       ///< another live process holds the writer lock
    Corrupt,      ///< checksum mismatch before the recoverable tail
    BadVersion,   ///< on-disk format newer/older than kFormatVersion
    NoCheckpoint, ///< resume requested but no checkpoint exists
    PlanMismatch, ///< checkpoint plan differs from the requested one
    NotFound,     ///< lookup miss reported through an error channel
};

const char *storeStatusName(StoreStatus status);

struct StoreError {
    StoreStatus status = StoreStatus::Ok;
    std::string message;

    bool ok() const { return status == StoreStatus::Ok; }
};

//===-- the file layer (DESIGN.md §11) ----------------------------------===//
//
// Every whole-file read and write of the campaign goes through
// readWholeFile and writeFileAtomic: the store's own files, PLAN.json,
// leases, metrics dumps, traces, reports, dossiers and event logs.

/** Classify @p error as @p status with @p message; a null @p error is
 * ignored, so every error channel in the campaign is optional. */
void setError(StoreError *error, StoreStatus status, std::string message);

/** All of @p path. nullopt + NotFound when it does not exist, IoError
 * on any other failure. */
std::optional<std::string> readWholeFile(const std::string &path,
                                         StoreError *error = nullptr);

/**
 * Replace @p path with @p content durably: write `<path>.tmp`, fflush,
 * fsync, fclose, rename. A kill at any point leaves the old file or
 * none, never a truncated one; every failure removes the temp file and
 * classifies IoError. Callers that need the rename itself to survive
 * a crash fsync the directory afterwards, as the store does.
 */
bool writeFileAtomic(const std::string &path, std::string_view content,
                     StoreError *error = nullptr);

/** Aggregate counts for one open store. */
struct StoreStats {
    uint64_t programs = 0; ///< distinct content-addressed programs
    uint64_t records = 0;  ///< ProgramRecords
    uint64_t verdicts = 0; ///< cached triage verdicts
    uint64_t bytes = 0;    ///< payload bytes in the live generation
    uint64_t generation = 0;
    uint64_t recoveredLines = 0; ///< tail entries dropped at open
};

/** A ProgramRecord plus its position in the campaign plan. */
struct StoredRecord {
    core::ProgramRecord record;
    uint64_t slot = 0;  ///< index in the plan's seed sequence
    uint64_t chunk = 0; ///< scheduling chunk that produced it
    std::string programHash;
};

struct OpenOptions {
    bool createIfMissing = true;
    /** Registry for the corpus.* metrics; null = the process global. */
    support::MetricsRegistry *metrics = nullptr;
};

/**
 * The store. All methods are thread-safe (one internal mutex — the
 * store is the commit point, not the hot path). Writes are append-only
 * and become durable at the next flush()/writeCheckpoint(); readers
 * of the same in-process store see them immediately.
 */
class CorpusStore {
  public:
    /** Open (or create) the store at @p dir. Acquires the writer
     * lock; nullptr + classified @p error on failure. */
    static std::unique_ptr<CorpusStore>
    open(const std::string &dir, StoreError *error = nullptr,
         const OpenOptions &options = {});

    ~CorpusStore();
    CorpusStore(const CorpusStore &) = delete;
    CorpusStore &operator=(const CorpusStore &) = delete;

    const std::string &path() const { return dir_; }

    //===-- content-addressed programs ---------------------------------===//

    /** Store @p canonical_text under @p hash. Returns false (and bumps
     * corpus.dedup_hits) when the hash is already present. */
    bool putProgram(const std::string &hash,
                    std::string_view canonical_text);
    bool hasProgram(const std::string &hash) const;
    std::optional<std::string>
    getProgram(const std::string &hash, StoreError *error = nullptr);

    //===-- program records --------------------------------------------===//

    /** Append @p record (slot/chunk locate it in the campaign plan).
     * A record for the same slot replaces the earlier one on load. */
    void putRecord(const core::ProgramRecord &record, uint64_t slot,
                   uint64_t chunk, const std::string &program_hash);
    /** Every stored record, sorted by slot. */
    std::vector<StoredRecord>
    loadRecords(StoreError *error = nullptr);

    //===-- triage verdicts --------------------------------------------===//

    /** Store @p verdict under @p fingerprint. A re-put replaces the
     * earlier entry (last write wins), so a verdict whose payload has
     * rotted on disk can be repaired by storing it again. */
    void putVerdict(const std::string &fingerprint,
                    const core::CachedVerdict &verdict);
    std::optional<core::CachedVerdict>
    getVerdict(const std::string &fingerprint,
               StoreError *error = nullptr);

    //===-- checkpoints ------------------------------------------------===//

    /** Durably record @p json as the latest checkpoint: flush the
     * store, then temp-file-plus-rename checkpoint.json. Observes
     * corpus.checkpoint_us. */
    bool writeCheckpoint(const std::string &json,
                         StoreError *error = nullptr);
    std::optional<std::string>
    readCheckpoint(StoreError *error = nullptr);
    bool hasCheckpoint() const;

    /** Durably record @p json (a sealed equiv-summary line — see
     * equiv::serializeEquivSummary) as the store's latest metamorphic
     * analysis: flush, then temp-file-plus-rename equiv.json. Same
     * crash-safety contract as writeCheckpoint. */
    bool writeEquivState(const std::string &json,
                         StoreError *error = nullptr);
    std::optional<std::string>
    readEquivState(StoreError *error = nullptr);
    bool hasEquivState() const;

    //===-- maintenance ------------------------------------------------===//

    /** fsync the index and payload files. */
    bool flush(StoreError *error = nullptr);

    StoreStats stats() const;

  private:
    struct Entry {
        uint64_t offset = 0;
        uint64_t length = 0;
        std::string payloadCrc;
    };
    struct RecordEntry : Entry {
        uint64_t seed = 0;
        uint64_t chunk = 0;
        std::string programHash;
    };
    struct VerdictEntry : Entry {
        std::string signature;
        bool fixed = false;
        unsigned tests = 0;
    };

    CorpusStore() = default;

    /** Atomically take the writer flock on LOCK (kept on lockFd_ for
     * the store's lifetime) and record our pid in it. */
    bool acquireLock(StoreError *error);
    bool loadGeneration(StoreError *error);
    bool openAppendHandles(StoreError *error);
    std::optional<std::string> readPayload(const Entry &entry,
                                           std::string_view what,
                                           StoreError *error);
    /** Append a payload blob + its sealed index line (caller holds
     * the mutex). Returns the entry describing the blob. */
    Entry appendPayload(std::string_view bytes);
    void appendIndexLine(const std::string &body);
    bool flushLocked(StoreError *error);

    std::string dir_;
    std::string lockPath_;
    int lockFd_ = -1; ///< holds the writer flock while >= 0
    uint64_t generation_ = 0;
    uint64_t recoveredLines_ = 0;
    std::FILE *indexFile_ = nullptr;
    std::FILE *payloadFile_ = nullptr;
    uint64_t payloadSize_ = 0;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> programs_;
    std::map<uint64_t, RecordEntry> recordsBySlot_;
    std::unordered_map<std::string, VerdictEntry> verdicts_;

    support::MetricsRegistry *metrics_ = nullptr;
    support::Counter *dedupHits_ = nullptr;
    support::Counter *recordCount_ = nullptr;
    support::Counter *bytesWritten_ = nullptr;
    support::Histogram *checkpointUs_ = nullptr;
};

/**
 * core::VerdictCache backed by a CorpusStore — the bridge that lets
 * triageFindings reuse verdicts across campaign runs.
 */
class StoreVerdictCache : public core::VerdictCache {
  public:
    explicit StoreVerdictCache(CorpusStore &store) : store_(store) {}

    std::optional<core::CachedVerdict>
    lookup(const core::VerdictKey &key) override
    {
        return store_.getVerdict(key.fingerprint());
    }
    void
    store(const core::VerdictKey &key,
          const core::CachedVerdict &verdict) override
    {
        store_.putVerdict(key.fingerprint(), verdict);
    }

  private:
    CorpusStore &store_;
};

/** In-process core::VerdictCache (tests, cache-without-store runs). */
class MemoryVerdictCache : public core::VerdictCache {
  public:
    std::optional<core::CachedVerdict>
    lookup(const core::VerdictKey &key) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = verdicts_.find(key.fingerprint());
        if (it == verdicts_.end())
            return std::nullopt;
        return it->second;
    }
    void
    store(const core::VerdictKey &key,
          const core::CachedVerdict &verdict) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        verdicts_.emplace(key.fingerprint(), verdict);
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return verdicts_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, core::CachedVerdict> verdicts_;
};

} // namespace dce::corpus
