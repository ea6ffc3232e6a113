#include "corpus/store.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>

#include <limits>

#include "corpus/serialize.hpp"
#include "support/hash.hpp"
#include "support/trace.hpp"

namespace fs = std::filesystem;

namespace dce::corpus {

const char *
storeStatusName(StoreStatus status)
{
    switch (status) {
    case StoreStatus::Ok:
        return "ok";
    case StoreStatus::IoError:
        return "io_error";
    case StoreStatus::Locked:
        return "locked";
    case StoreStatus::Corrupt:
        return "corrupt";
    case StoreStatus::BadVersion:
        return "bad_version";
    case StoreStatus::NoCheckpoint:
        return "no_checkpoint";
    case StoreStatus::PlanMismatch:
        return "plan_mismatch";
    case StoreStatus::NotFound:
        return "not_found";
    }
    return "unknown";
}

void
setError(StoreError *error, StoreStatus status, std::string message)
{
    if (error) {
        error->status = status;
        error->message = std::move(message);
    }
}

std::optional<std::string>
readWholeFile(const std::string &path, StoreError *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        setError(error,
                 errno == ENOENT ? StoreStatus::NotFound
                                 : StoreStatus::IoError,
                 "open " + path + ": " + std::strerror(errno));
        return std::nullopt;
    }
    std::string out;
    char buffer[1 << 16];
    size_t got;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        out.append(buffer, got);
    bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) {
        setError(error, StoreStatus::IoError, "read " + path);
        return std::nullopt;
    }
    return out;
}

bool
writeFileAtomic(const std::string &path, std::string_view content,
                StoreError *error)
{
    std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file) {
        setError(error, StoreStatus::IoError,
                 "open " + tmp + ": " + std::strerror(errno));
        return false;
    }
    bool ok = content.empty() ||
              std::fwrite(content.data(), 1, content.size(), file) ==
                  content.size();
    ok = std::fflush(file) == 0 && ok;
    ok = ::fsync(fileno(file)) == 0 && ok;
    ok = std::fclose(file) == 0 && ok;
    if (!ok) {
        setError(error, StoreStatus::IoError, "write " + tmp);
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, StoreStatus::IoError,
                 "rename " + tmp + ": " + std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

namespace {

/** fsync the directory itself so renames within it are durable. */
void
syncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

std::string
indexPath(const std::string &dir, uint64_t generation)
{
    return dir + "/index." + std::to_string(generation) + ".jsonl";
}

std::string
payloadPath(const std::string &dir, uint64_t generation)
{
    return dir + "/payload." + std::to_string(generation) + ".dat";
}

std::string
manifestJson(uint64_t generation)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("version", uint64_t(kFormatVersion));
    writer.field("generation", generation);
    writer.endObject();
    return writer.take() + "\n";
}

} // namespace

//===------------------------------------------------------------------===//
// Open / lock / load
//===------------------------------------------------------------------===//

std::unique_ptr<CorpusStore>
CorpusStore::open(const std::string &dir, StoreError *error,
                  const OpenOptions &options)
{
    support::TraceSpan span("corpus.open", "corpus");
    setError(error, StoreStatus::Ok, "");

    std::string manifest_path = dir + "/MANIFEST.json";
    std::error_code ec;
    if (!fs::exists(manifest_path, ec)) {
        if (!options.createIfMissing) {
            setError(error, StoreStatus::NotFound,
                     "no store at " + dir);
            return nullptr;
        }
        fs::create_directories(dir, ec);
        if (ec) {
            setError(error, StoreStatus::IoError,
                     "mkdir " + dir + ": " + ec.message());
            return nullptr;
        }
        if (!writeFileAtomic(manifest_path, manifestJson(0), error))
            return nullptr;
        syncDir(dir);
    }

    std::unique_ptr<CorpusStore> store(new CorpusStore);
    store->dir_ = dir;
    store->lockPath_ = dir + "/LOCK";

    if (!store->acquireLock(error))
        return nullptr;

    std::optional<std::string> manifest_text =
        readWholeFile(manifest_path, error);
    if (!manifest_text)
        return nullptr;
    std::optional<support::JsonValue> manifest =
        support::JsonValue::parse(*manifest_text);
    if (!manifest || !manifest->isObject()) {
        setError(error, StoreStatus::Corrupt, "malformed MANIFEST");
        return nullptr;
    }
    if (manifest->getU64("version") != kFormatVersion) {
        setError(error, StoreStatus::BadVersion,
                 "store format version " +
                     std::to_string(manifest->getU64("version")) +
                     ", expected " + std::to_string(kFormatVersion));
        return nullptr;
    }
    store->generation_ = manifest->getU64("generation");

    support::MetricsRegistry &registry =
        options.metrics ? *options.metrics
                        : support::MetricsRegistry::global();
    store->metrics_ = &registry;
    store->dedupHits_ = &registry.counter("corpus.dedup_hits");
    store->recordCount_ = &registry.counter("corpus.records");
    store->bytesWritten_ = &registry.counter("corpus.bytes");
    store->checkpointUs_ = &registry.histogram("corpus.checkpoint_us");

    if (!store->loadGeneration(error))
        return nullptr;
    if (!store->openAppendHandles(error))
        return nullptr;
    return store;
}

bool
CorpusStore::acquireLock(StoreError *error)
{
    // Mutual exclusion is a BSD flock held on lockFd_ for the store's
    // lifetime: acquisition is atomic (no check-then-write window for
    // two openers to both claim the store) and the kernel drops it
    // when the owner dies, however abruptly. The pid written inside is
    // a second fence against writers that recorded themselves without
    // holding the flock, and makes `cat LOCK` meaningful.
    int fd =
        ::open(lockPath_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        setError(error, StoreStatus::IoError,
                 "open " + lockPath_ + ": " + std::strerror(errno));
        return false;
    }
    int rc;
    do {
        rc = ::flock(fd, LOCK_EX | LOCK_NB);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        // Only EWOULDBLOCK means contention. Everything else (ENOLCK,
        // EBADF, ...) is a real filesystem-level failure and must not
        // masquerade as "a live writer holds the store" — callers back
        // off and retry Locked, but an IoError needs an operator.
        int err = errno;
        if (err == EWOULDBLOCK || err == EAGAIN) {
            // Name the holder: with the flock actually held by a live
            // process, the pid it recorded is trustworthy and makes
            // the contention diagnosable across process boundaries.
            char buffer[64] = {};
            ssize_t got = ::pread(fd, buffer, sizeof buffer - 1, 0);
            long holder = got > 0 ? std::atol(buffer) : 0;
            ::close(fd);
            setError(error, StoreStatus::Locked,
                     holder > 0 ? "store locked by live pid " +
                                      std::to_string(holder)
                                : "store locked by a live writer");
        } else {
            ::close(fd);
            setError(error, StoreStatus::IoError,
                     "flock " + lockPath_ + ": " +
                         std::strerror(err));
        }
        return false;
    }
    char buffer[64] = {};
    ssize_t got = ::pread(fd, buffer, sizeof buffer - 1, 0);
    long pid = got > 0 ? std::atol(buffer) : 0;
    if (pid > 0 && pid != long(::getpid()) &&
        (::kill(pid_t(pid), 0) == 0 || errno == EPERM)) {
        // Close (releasing our flock) without disturbing the recorded
        // owner; a dead owner's pid is stale and falls through to the
        // claim below instead.
        ::close(fd);
        setError(error, StoreStatus::Locked,
                 "store locked by pid " + std::to_string(pid));
        return false;
    }
    std::string pid_text = std::to_string(::getpid()) + "\n";
    bool ok = ::ftruncate(fd, 0) == 0 &&
              ::pwrite(fd, pid_text.data(), pid_text.size(), 0) ==
                  ssize_t(pid_text.size()) &&
              ::fsync(fd) == 0;
    if (!ok) {
        setError(error, StoreStatus::IoError,
                 "write " + lockPath_ + ": " + std::strerror(errno));
        ::close(fd);
        return false;
    }
    lockFd_ = fd;
    return true;
}

CorpusStore::~CorpusStore()
{
    std::lock_guard<std::mutex> lock(mutex_);
    flushLocked(nullptr);
    if (indexFile_)
        std::fclose(indexFile_);
    if (payloadFile_)
        std::fclose(payloadFile_);
    if (lockFd_ >= 0) {
        // Only the lock we actually acquired gets released: blank the
        // pid while the flock is still held, then close to drop it.
        // The file itself stays — unlinking would race a concurrent
        // opener already holding an fd to the old inode.
        (void)!::ftruncate(lockFd_, 0);
        ::close(lockFd_);
    }
}

bool
CorpusStore::loadGeneration(StoreError *error)
{
    std::string index_path = indexPath(dir_, generation_);
    std::string payload_path = payloadPath(dir_, generation_);
    std::error_code ec;
    uint64_t payload_size = 0;
    if (fs::exists(payload_path, ec))
        payload_size = fs::file_size(payload_path, ec);
    payloadSize_ = payload_size;

    if (!fs::exists(index_path, ec))
        return true; // fresh generation, nothing to load

    std::optional<std::string> loaded = readWholeFile(index_path, error);
    if (!loaded)
        return false;
    const std::string &text = *loaded;

    size_t line_start = 0;
    size_t keep_bytes = text.size();
    bool tail_lost = false;
    std::vector<std::pair<size_t, std::string_view>> lines;
    while (line_start < text.size()) {
        size_t newline = text.find('\n', line_start);
        if (newline == std::string::npos) {
            // Unterminated final line: the crash interrupted the
            // append. Recoverable tail.
            tail_lost = true;
            keep_bytes = line_start;
            ++recoveredLines_;
            break;
        }
        lines.emplace_back(
            line_start, std::string_view(text)
                            .substr(line_start, newline - line_start));
        line_start = newline + 1;
    }

    for (size_t i = 0; i < lines.size(); ++i) {
        auto [offset, line] = lines[i];
        std::optional<support::JsonValue> entry_json =
            support::unsealJsonLine(line);
        bool payload_ok = true;
        Entry entry;
        if (entry_json) {
            entry.offset = entry_json->getU64("off");
            entry.length = entry_json->getU64("len");
            entry.payloadCrc = entry_json->getString("pcrc");
            payload_ok =
                entry.offset + entry.length <= payload_size;
        }
        if (!entry_json || !payload_ok) {
            // Damage in the final sealed lines — an index line whose
            // payload never fully reached the disk, or a torn line —
            // is the recoverable crash tail. Damage earlier than that
            // means silent corruption: refuse the store.
            bool is_tail = true;
            for (size_t j = i + 1; j < lines.size(); ++j) {
                std::optional<support::JsonValue> later =
                    support::unsealJsonLine(lines[j].second);
                if (later &&
                    later->getU64("off") + later->getU64("len") <=
                        payload_size) {
                    is_tail = false;
                    break;
                }
            }
            if (!is_tail) {
                setError(error, StoreStatus::Corrupt,
                         "index entry " + std::to_string(i) +
                             " failed its checksum before the tail");
                return false;
            }
            recoveredLines_ += lines.size() - i;
            keep_bytes = offset;
            tail_lost = true;
            break;
        }
        std::string type = entry_json->getString("t");
        if (type == "program") {
            programs_.emplace(entry_json->getString("h"), entry);
        } else if (type == "record") {
            RecordEntry record;
            static_cast<Entry &>(record) = entry;
            record.seed = entry_json->getU64("seed");
            record.chunk = entry_json->getU64("chunk");
            record.programHash = entry_json->getString("h");
            recordsBySlot_[entry_json->getU64("slot")] =
                std::move(record);
        } else if (type == "verdict") {
            VerdictEntry verdict;
            static_cast<Entry &>(verdict) = entry;
            // Last line wins: a re-put appended to repair a corrupt
            // payload supersedes the original entry.
            verdicts_[entry_json->getString("k")] =
                std::move(verdict);
        } else {
            setError(error, StoreStatus::Corrupt,
                     "unknown index entry type '" + type + "'");
            return false;
        }
    }

    if (tail_lost) {
        fs::resize_file(index_path, keep_bytes, ec);
        if (ec) {
            setError(error, StoreStatus::IoError,
                     "truncate " + index_path + ": " + ec.message());
            return false;
        }
    }
    return true;
}

bool
CorpusStore::openAppendHandles(StoreError *error)
{
    std::string index_path = indexPath(dir_, generation_);
    std::string payload_path = payloadPath(dir_, generation_);
    indexFile_ = std::fopen(index_path.c_str(), "ab");
    payloadFile_ = std::fopen(payload_path.c_str(), "a+b");
    if (!indexFile_ || !payloadFile_) {
        setError(error, StoreStatus::IoError,
                 "open generation " + std::to_string(generation_) +
                     ": " + std::strerror(errno));
        return false;
    }
    return true;
}

//===------------------------------------------------------------------===//
// Payload I/O
//===------------------------------------------------------------------===//

CorpusStore::Entry
CorpusStore::appendPayload(std::string_view bytes)
{
    Entry entry;
    entry.offset = payloadSize_;
    entry.length = bytes.size();
    entry.payloadCrc = support::crc32Hex(bytes);
    std::fwrite(bytes.data(), 1, bytes.size(), payloadFile_);
    payloadSize_ += bytes.size();
    bytesWritten_->add(bytes.size());
    return entry;
}

void
CorpusStore::appendIndexLine(const std::string &body)
{
    std::string line = support::sealJsonLine(body);
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), indexFile_);
    bytesWritten_->add(line.size());
}

std::optional<std::string>
CorpusStore::readPayload(const Entry &entry, std::string_view what,
                         StoreError *error)
{
    std::fflush(payloadFile_);
    if (entry.offset > uint64_t(std::numeric_limits<off_t>::max())) {
        setError(error, StoreStatus::IoError,
                 std::string("payload offset not seekable for ") +
                     std::string(what));
        return std::nullopt;
    }
    std::string bytes(entry.length, '\0');
    if (fseeko(payloadFile_, off_t(entry.offset), SEEK_SET) != 0 ||
        (entry.length > 0 &&
         std::fread(bytes.data(), 1, entry.length, payloadFile_) !=
             entry.length)) {
        setError(error, StoreStatus::IoError,
                 std::string("read payload for ") + std::string(what));
        return std::nullopt;
    }
    if (support::crc32Hex(bytes) != entry.payloadCrc) {
        setError(error, StoreStatus::Corrupt,
                 "payload checksum mismatch for " + std::string(what));
        return std::nullopt;
    }
    return bytes;
}

//===------------------------------------------------------------------===//
// Programs
//===------------------------------------------------------------------===//

bool
CorpusStore::putProgram(const std::string &hash,
                        std::string_view canonical_text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (programs_.count(hash)) {
        dedupHits_->add(1);
        return false;
    }
    Entry entry = appendPayload(canonical_text);
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("t", "program");
    writer.field("h", hash);
    writer.field("off", entry.offset);
    writer.field("len", entry.length);
    writer.field("pcrc", entry.payloadCrc);
    writer.endObject();
    appendIndexLine(writer.take());
    programs_.emplace(hash, std::move(entry));
    return true;
}

bool
CorpusStore::hasProgram(const std::string &hash) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return programs_.count(hash) != 0;
}

std::optional<std::string>
CorpusStore::getProgram(const std::string &hash, StoreError *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = programs_.find(hash);
    if (it == programs_.end()) {
        setError(error, StoreStatus::NotFound, "program " + hash);
        return std::nullopt;
    }
    return readPayload(it->second, "program " + hash, error);
}

//===------------------------------------------------------------------===//
// Records
//===------------------------------------------------------------------===//

void
CorpusStore::putRecord(const core::ProgramRecord &record,
                       uint64_t slot, uint64_t chunk,
                       const std::string &program_hash)
{
    std::string payload = serializeRecord(record);
    std::lock_guard<std::mutex> lock(mutex_);
    RecordEntry entry;
    static_cast<Entry &>(entry) = appendPayload(payload);
    entry.seed = record.seed;
    entry.chunk = chunk;
    entry.programHash = program_hash;
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("t", "record");
    writer.field("seed", record.seed);
    writer.field("slot", slot);
    writer.field("chunk", chunk);
    writer.field("h", program_hash);
    writer.field("off", entry.offset);
    writer.field("len", entry.length);
    writer.field("pcrc", entry.payloadCrc);
    writer.endObject();
    appendIndexLine(writer.take());
    recordsBySlot_[slot] = std::move(entry);
    recordCount_->add(1);
}

std::vector<StoredRecord>
CorpusStore::loadRecords(StoreError *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<StoredRecord> records;
    records.reserve(recordsBySlot_.size());
    for (const auto &[slot, entry] : recordsBySlot_) {
        std::optional<std::string> payload = readPayload(
            entry, "record slot " + std::to_string(slot), error);
        if (!payload)
            return {};
        std::optional<core::ProgramRecord> record =
            deserializeRecord(*payload);
        if (!record) {
            setError(error, StoreStatus::Corrupt,
                     "record slot " + std::to_string(slot) +
                         " does not deserialize");
            return {};
        }
        records.push_back({std::move(*record), slot, entry.chunk,
                           entry.programHash});
    }
    return records;
}

//===------------------------------------------------------------------===//
// Verdicts
//===------------------------------------------------------------------===//

void
CorpusStore::putVerdict(const std::string &fingerprint,
                        const core::CachedVerdict &verdict)
{
    std::string payload = serializeVerdict(verdict);
    std::lock_guard<std::mutex> lock(mutex_);
    // Last write wins (on load too): triage only re-stores
    // a fingerprint it failed to read back, so replacing is what lets
    // a verdict with a corrupt payload be repaired on the next run
    // instead of no-oping against the damaged entry forever.
    VerdictEntry entry;
    static_cast<Entry &>(entry) = appendPayload(payload);
    entry.signature = verdict.signature;
    entry.fixed = verdict.fixed;
    entry.tests = verdict.reductionTests;
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("t", "verdict");
    writer.field("k", fingerprint);
    writer.field("off", entry.offset);
    writer.field("len", entry.length);
    writer.field("pcrc", entry.payloadCrc);
    writer.endObject();
    appendIndexLine(writer.take());
    verdicts_[fingerprint] = std::move(entry);
}

std::optional<core::CachedVerdict>
CorpusStore::getVerdict(const std::string &fingerprint,
                        StoreError *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = verdicts_.find(fingerprint);
    if (it == verdicts_.end()) {
        setError(error, StoreStatus::NotFound,
                 "verdict " + fingerprint);
        return std::nullopt;
    }
    std::optional<std::string> payload =
        readPayload(it->second, "verdict " + fingerprint, error);
    if (!payload)
        return std::nullopt;
    std::optional<core::CachedVerdict> verdict =
        deserializeVerdict(*payload);
    if (!verdict) {
        setError(error, StoreStatus::Corrupt,
                 "verdict " + fingerprint + " does not deserialize");
        return std::nullopt;
    }
    return verdict;
}

//===------------------------------------------------------------------===//
// Checkpoints
//===------------------------------------------------------------------===//

bool
CorpusStore::writeCheckpoint(const std::string &json,
                             StoreError *error)
{
    support::TraceSpan span("corpus.checkpoint", "corpus");
    auto start = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    // Data first, pointer second: the checkpoint must never name
    // store state that is not yet durable.
    if (!flushLocked(error))
        return false;
    if (!writeFileAtomic(dir_ + "/checkpoint.json", json, error))
        return false;
    syncDir(dir_);
    auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    checkpointUs_->observe(uint64_t(micros));
    span.setArg("bytes", json.size());
    return true;
}

std::optional<std::string>
CorpusStore::readCheckpoint(StoreError *error)
{
    std::string path = dir_ + "/checkpoint.json";
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        setError(error, StoreStatus::NoCheckpoint,
                 "no checkpoint in " + dir_);
        return std::nullopt;
    }
    return readWholeFile(path, error);
}

bool
CorpusStore::hasCheckpoint() const
{
    std::error_code ec;
    return fs::exists(dir_ + "/checkpoint.json", ec);
}

bool
CorpusStore::writeEquivState(const std::string &json, StoreError *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Same durability order as checkpoints: data, then pointer.
    if (!flushLocked(error))
        return false;
    if (!writeFileAtomic(dir_ + "/equiv.json", json, error))
        return false;
    syncDir(dir_);
    return true;
}

std::optional<std::string>
CorpusStore::readEquivState(StoreError *error)
{
    std::string path = dir_ + "/equiv.json";
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        setError(error, StoreStatus::NotFound,
                 "no equiv state in " + dir_);
        return std::nullopt;
    }
    return readWholeFile(path, error);
}

bool
CorpusStore::hasEquivState() const
{
    std::error_code ec;
    return fs::exists(dir_ + "/equiv.json", ec);
}

//===------------------------------------------------------------------===//
// Maintenance
//===------------------------------------------------------------------===//

bool
CorpusStore::flushLocked(StoreError *error)
{
    bool ok = true;
    if (payloadFile_) {
        ok = std::fflush(payloadFile_) == 0 && ok;
        ok = ::fsync(fileno(payloadFile_)) == 0 && ok;
    }
    if (indexFile_) {
        ok = std::fflush(indexFile_) == 0 && ok;
        ok = ::fsync(fileno(indexFile_)) == 0 && ok;
    }
    if (!ok)
        setError(error, StoreStatus::IoError, "flush failed");
    return ok;
}

bool
CorpusStore::flush(StoreError *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return flushLocked(error);
}

StoreStats
CorpusStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StoreStats stats;
    stats.programs = programs_.size();
    stats.records = recordsBySlot_.size();
    stats.verdicts = verdicts_.size();
    stats.bytes = payloadSize_;
    stats.generation = generation_;
    stats.recoveredLines = recoveredLines_;
    return stats;
}

} // namespace dce::corpus
