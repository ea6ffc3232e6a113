/** @file Tests for the persistent corpus store: JSON/serialization
 * round trips, the JSON nesting bound and a seeded mutation fuzz of
 * sealed lines, crash-tail recovery and corruption classification,
 * writer locking, checkpoint/resume bit-identity, and verdict-cache
 * deduplication. */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "corpus/checkpoint.hpp"
#include "corpus/serialize.hpp"
#include "corpus/store.hpp"
#include "fleet/lease.hpp"
#include "fleet/metrics_io.hpp"
#include "session/session.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace fs = std::filesystem;

namespace dce::corpus {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

BuildSpec
alphaO3()
{
    return {CompilerId::Alpha, OptLevel::O3, SIZE_MAX};
}

BuildSpec
betaO3()
{
    return {CompilerId::Beta, OptLevel::O3, SIZE_MAX};
}

/** Fresh scratch directory, removed on destruction. */
class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_corpus_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

//===------------------------------------------------------------------===//
// JSON
//===------------------------------------------------------------------===//

TEST(Json, RoundTripsWriterOutput)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("name", "line1\nline\"2\"\\end\x01");
    writer.field("count", uint64_t(18446744073709551615ull));
    writer.field("neg", int64_t(-42));
    writer.field("flag", true);
    writer.key("items");
    writer.beginArray();
    writer.value(uint64_t(1));
    writer.beginObject();
    writer.field("inner", "x");
    writer.endObject();
    writer.null();
    writer.endArray();
    writer.endObject();

    std::string error;
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(writer.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->getString("name"), "line1\nline\"2\"\\end\x01");
    EXPECT_EQ(doc->getU64("count"), 18446744073709551615ull);
    EXPECT_EQ(doc->get("neg")->asI64(), -42);
    EXPECT_TRUE(doc->getBool("flag"));
    const support::JsonValue *items = doc->get("items");
    ASSERT_TRUE(items && items->isArray());
    ASSERT_EQ(items->items.size(), 3u);
    EXPECT_EQ(items->items[0].asU64(), 1u);
    EXPECT_EQ(items->items[1].getString("inner"), "x");
    EXPECT_EQ(items->items[2].kind, support::JsonValue::Kind::Null);
}

TEST(Json, ParserRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "12x", "\"open",
          "{\"a\":1}trailing", "[01e]"}) {
        EXPECT_FALSE(support::JsonValue::parse(bad)) << bad;
    }
}

TEST(Json, SealedLinesDetectEveryBitFlip)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("t", "record");
    writer.field("seed", uint64_t(12345));
    writer.endObject();
    std::string sealed = support::sealJsonLine(writer.take());
    ASSERT_TRUE(support::unsealJsonLine(sealed));

    for (size_t i = 0; i < sealed.size(); ++i) {
        std::string damaged = sealed;
        damaged[i] = char(damaged[i] ^ 0x20);
        EXPECT_FALSE(support::unsealJsonLine(damaged)) << "byte " << i;
    }
    EXPECT_FALSE(
        support::unsealJsonLine(sealed.substr(0, sealed.size() - 3)));
}

std::string
repeat(const std::string &text, size_t times)
{
    std::string out;
    out.reserve(text.size() * times);
    for (size_t i = 0; i < times; ++i)
        out += text;
    return out;
}

/** Parsing @p input fails with the classified nesting error. */
void
expectTooDeep(const std::string &input)
{
    std::string error;
    EXPECT_FALSE(support::JsonValue::parse(input, &error));
    EXPECT_EQ(error.rfind("nesting too deep", 0), 0u) << error;
}

TEST(JsonHostile, DeepArraysAreRejectedWithoutACrash)
{
    // One recursion per '[' used to run off the stack.
    expectTooDeep(std::string(1'000'000, '['));
    const size_t over = support::JsonValue::kMaxNesting + 1;
    expectTooDeep(std::string(over, '[') + std::string(over, ']'));
}

TEST(JsonHostile, DeepObjectsAreRejectedWithoutACrash)
{
    expectTooDeep(repeat("{\"a\":", 300'000));
    const size_t over = support::JsonValue::kMaxNesting + 1;
    expectTooDeep(repeat("{\"a\":", over) + "1" + repeat("}", over));
    // Mixed, and the limit counts both kinds.
    expectTooDeep(repeat("[{\"k\":", over / 2 + 1) + "1" +
                  repeat("}]", over / 2 + 1));
}

TEST(JsonHostile, NestingUpToTheLimitIsAccepted)
{
    const size_t limit = support::JsonValue::kMaxNesting;
    std::string error;
    std::optional<support::JsonValue> arrays = support::JsonValue::parse(
        std::string(limit, '[') + std::string(limit, ']'), &error);
    ASSERT_TRUE(arrays) << error;
    EXPECT_TRUE(arrays->isArray());
    std::optional<support::JsonValue> objects = support::JsonValue::parse(
        repeat("{\"a\":", limit - 1) + "[7]" + repeat("}", limit - 1),
        &error);
    ASSERT_TRUE(objects) << error;
    const support::JsonValue *inner = &*objects;
    for (size_t depth = 1; depth < limit; ++depth)
        inner = inner->get("a");
    ASSERT_TRUE(inner && inner->isArray());
    EXPECT_EQ(inner->items.at(0).asU64(), 7u);
    // The depth unwinds: siblings each get the full budget.
    std::string deep = std::string(limit - 1, '[') +
                       std::string(limit - 1, ']');
    EXPECT_TRUE(support::JsonValue::parse("[" + deep + "," + deep + "]",
                                          &error))
        << error;
}

/** unsealJsonLine on @p text without its trailing newlines, the way
 * the file readers call it. */
bool
unseals(std::string_view text)
{
    while (!text.empty() && text.back() == '\n')
        text.remove_suffix(1);
    return support::unsealJsonLine(text).has_value();
}

/** Valid sealed lines the tree writes and reads back: a checkpoint, a
 * lease file and a fleet metrics dump, each from its real encoder. */
std::vector<std::string>
sealedSamples()
{
    std::vector<std::string> samples;
    CampaignPlan plan;
    plan.firstSeed = 5;
    plan.count = 40;
    plan.chunkSize = 8;
    plan.builds = {alphaO3(), betaO3()};
    support::MetricsRegistry registry;
    registry.counter("campaign.seeds_done").add(16);
    registry.counter("campaign.stage_us", "optimize").add(12345);
    registry.histogram("campaign.seed_us").observe(250);
    StoredFinding stored;
    stored.chunk = 1;
    stored.slot = 3;
    stored.finding = core::Finding{11, 4, alphaO3(), betaO3()};
    samples.push_back(encodeCheckpointJson(serializePlan(plan), {0, 1},
                                           2, 0x1234abcd, registry,
                                           {{1, {stored}}}));

    TempDir dir("jsonfuzz");
    fs::create_directories(dir.str());
    EXPECT_TRUE(fleet::LeaseTable::init(dir.str(), 4, 2));
    fleet::LeaseTable table(dir.str());
    std::optional<fleet::Lease> lease =
        table.claim(::getpid(), "worker.0");
    EXPECT_TRUE(lease);
    if (lease) {
        lease->counters = {{"campaign.seeds_done", 16}};
        lease->findings = {{1, 3, 11, 4}};
        EXPECT_TRUE(table.complete(*lease));
    }
    for (const auto &entry : fs::directory_iterator(dir.str() + "/leases")) {
        std::string text = readFile(entry.path().string());
        if (text.find("\"state\":\"done\"") != std::string::npos)
            samples.push_back(text);
    }
    EXPECT_EQ(samples.size(), 2u) << "no done lease file found";

    samples.push_back(fleet::encodeRegistryDump(
        {{"campaign.seeds_done", 16}, {"reduce.tests", 300}},
        registry.histograms()));
    for (const std::string &sample : samples)
        EXPECT_TRUE(unseals(sample)) << sample;
    return samples;
}

/** One random edit: byte flip, bracket or quote insert, range delete
 * or duplicate, or a line cut spliced in from another sample. */
void
mutateJson(std::string &text, const std::vector<std::string> &samples,
           Rng &rng)
{
    static const char kBytes[] = "[]{}\":,\\-0123456789tfnu \n";
    size_t pos = rng.below(text.size() + 1);
    size_t len = std::min(text.size() - pos,
                          static_cast<size_t>(1 + rng.below(48)));
    switch (rng.below(5)) {
      case 0:
        if (pos < text.size())
            text[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        text.insert(pos, 1 + rng.below(4),
                    kBytes[rng.below(sizeof(kBytes) - 1)]);
        break;
      case 2:
        text.erase(pos, len);
        break;
      case 3:
        text.insert(pos, text.substr(pos, len));
        break;
      default: {
        const std::string &other = samples[rng.below(samples.size())];
        size_t from = rng.below(other.size());
        text.insert(pos, other.substr(from, 1 + rng.below(64)));
        break;
      }
    }
}

TEST(JsonFuzz, MutatedSealedLinesEndInAValueOrAnError)
{
    constexpr size_t kInputs = 2'000;
    const std::vector<std::string> samples = sealedSamples();
    ASSERT_FALSE(samples.empty());
    Rng rng(0x15f022);
    size_t parsed = 0;
    size_t unsealed = 0;
    for (size_t i = 0; i < kInputs; ++i) {
        std::string input = samples[rng.below(samples.size())];
        for (uint64_t edits = 1 + rng.below(4); edits > 0; --edits)
            mutateJson(input, samples, rng);
        std::string error;
        std::optional<support::JsonValue> value =
            support::JsonValue::parse(input, &error);
        if (value)
            ++parsed;
        else
            EXPECT_FALSE(error.empty()) << "input " << i;
        if (unseals(input))
            ++unsealed;
    }
    // Both outcomes are exercised by the parser; a mutated line almost
    // never keeps a valid seal.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, kInputs);
    EXPECT_LT(unsealed, kInputs / 10);
}

//===------------------------------------------------------------------===//
// Serialization
//===------------------------------------------------------------------===//

TEST(Serialize, ProgramRecordsRoundTripExactly)
{
    core::CampaignOptions options;
    options.computePrimary = true;
    options.collectRemarks = true;
    core::Campaign campaign =
        core::runCampaign(50, 8, {alphaO3(), betaO3()}, options);
    ASSERT_EQ(campaign.programs.size(), 8u);
    for (const core::ProgramRecord &record : campaign.programs) {
        std::string json = serializeRecord(record);
        std::optional<core::ProgramRecord> back =
            deserializeRecord(json);
        ASSERT_TRUE(back) << json;
        EXPECT_TRUE(*back == record) << "seed " << record.seed;
    }
    EXPECT_FALSE(deserializeRecord("{\"v\":99}"));
    EXPECT_FALSE(deserializeRecord("not json"));
}

TEST(Serialize, BuildSpecsAndPlansRoundTrip)
{
    CampaignPlan plan;
    plan.firstSeed = 77;
    plan.count = 21;
    plan.randomSeeds = true;
    plan.streamSeed = 0xdeadbeef;
    plan.chunkSize = 5;
    plan.builds = {alphaO3(),
                   {CompilerId::Alpha, OptLevel::O3, 2},
                   {CompilerId::Beta, OptLevel::Os, 0}};
    plan.collectRemarks = true;
    plan.generator.numGlobals = 7;
    plan.generator.unlikelyBranchBias = 80;
    plan.missedByBuild = 0;
    plan.referenceBuild = 2;
    plan.maxFindings = 9;

    std::string json = serializePlan(plan);
    std::optional<support::JsonValue> doc = support::JsonValue::parse(json);
    ASSERT_TRUE(doc);
    std::optional<CampaignPlan> back = readPlan(*doc);
    ASSERT_TRUE(back);
    EXPECT_EQ(serializePlan(*back), json);
    ASSERT_EQ(back->builds.size(), 3u);
    EXPECT_TRUE(back->builds[1] == plan.builds[1]);
    EXPECT_EQ(back->builds[2].commit, 0u);
    EXPECT_EQ(back->generator.numGlobals, 7u);
}

TEST(Serialize, VerdictsRoundTrip)
{
    core::CachedVerdict verdict;
    verdict.reducedSource = "int main() { return 0; }\n";
    verdict.signature = "fix@a3f9c21";
    verdict.fixed = true;
    verdict.reductionTests = 412;
    std::optional<core::CachedVerdict> back =
        deserializeVerdict(serializeVerdict(verdict));
    ASSERT_TRUE(back);
    EXPECT_EQ(back->reducedSource, verdict.reducedSource);
    EXPECT_EQ(back->signature, verdict.signature);
    EXPECT_EQ(back->fixed, verdict.fixed);
    EXPECT_EQ(back->reductionTests, verdict.reductionTests);
}

//===------------------------------------------------------------------===//
// File layer
//===------------------------------------------------------------------===//

TEST(FileLayer, OverwriteLeavesTheNewBytesAndNoTempFile)
{
    TempDir dir("overwrite");
    fs::create_directories(dir.str());
    const std::string path = dir.str() + "/report.md";
    StoreError error;
    ASSERT_TRUE(writeFileAtomic(path, "old contents, longer\n", &error))
        << error.message;
    ASSERT_TRUE(writeFileAtomic(path, "new\n", &error)) << error.message;
    EXPECT_TRUE(error.ok());
    EXPECT_EQ(readFile(path), "new\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    std::optional<std::string> back = readWholeFile(path, &error);
    ASSERT_TRUE(back) << error.message;
    EXPECT_EQ(*back, "new\n");
}

TEST(FileLayer, WriteIntoAMissingDirectoryIsAnIoErrorAndLeavesNoFile)
{
    TempDir dir("nodir");
    const std::string path = dir.str() + "/missing/report.md";
    StoreError error;
    EXPECT_FALSE(writeFileAtomic(path, "bytes", &error));
    EXPECT_EQ(error.status, StoreStatus::IoError);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    // The error channel is optional.
    EXPECT_FALSE(writeFileAtomic(path, "bytes"));
}

TEST(FileLayer, ReadingAMissingFileIsNotFound)
{
    TempDir dir("noread");
    fs::create_directories(dir.str());
    StoreError error;
    EXPECT_FALSE(readWholeFile(dir.str() + "/absent.json", &error));
    EXPECT_EQ(error.status, StoreStatus::NotFound);
    EXPECT_NE(error.message.find("absent.json"), std::string::npos);
    EXPECT_FALSE(readWholeFile(dir.str() + "/absent.json"));
}

//===------------------------------------------------------------------===//
// Store basics
//===------------------------------------------------------------------===//

TEST(Corpus, StoreRoundTripsAcrossReopen)
{
    TempDir dir("roundtrip");
    support::MetricsRegistry registry;
    OpenOptions options;
    options.metrics = &registry;

    core::CampaignOptions campaign_options;
    campaign_options.computePrimary = true;
    core::Campaign campaign = core::runCampaign(
        10, 4, {alphaO3(), betaO3()}, campaign_options);

    std::string text = canonicalProgramText(10, {});
    std::string hash = programHash(text);
    core::CachedVerdict verdict;
    verdict.reducedSource = "int x;\n";
    verdict.signature = "sig-1";
    verdict.reductionTests = 5;

    {
        StoreError error;
        auto store = CorpusStore::open(dir.str(), &error, options);
        ASSERT_TRUE(store) << error.message;
        EXPECT_TRUE(store->putProgram(hash, text));
        for (size_t i = 0; i < campaign.programs.size(); ++i)
            store->putRecord(campaign.programs[i], i, i / 2, hash);
        store->putVerdict("fp-1", verdict);
        EXPECT_TRUE(store->flush());
    }

    // The store only creates generation 0, but MANIFEST.json may name
    // any: move the files to generation 1 by hand and the store must
    // open, read and append there.
    fs::rename(dir.str() + "/index.0.jsonl", dir.str() + "/index.1.jsonl");
    fs::rename(dir.str() + "/payload.0.dat", dir.str() + "/payload.1.dat");
    writeFile(dir.str() + "/MANIFEST.json",
              "{\"version\":" + std::to_string(kFormatVersion) +
                  ",\"generation\":1}\n");

    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error, options);
    ASSERT_TRUE(store) << error.message;
    EXPECT_TRUE(store->hasProgram(hash));
    EXPECT_EQ(store->getProgram(hash).value_or(""), text);
    std::vector<StoredRecord> records = store->loadRecords(&error);
    ASSERT_EQ(records.size(), campaign.programs.size())
        << error.message;
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].slot, i);
        EXPECT_EQ(records[i].chunk, i / 2);
        EXPECT_EQ(records[i].programHash, hash);
        EXPECT_TRUE(records[i].record == campaign.programs[i]);
    }
    std::optional<core::CachedVerdict> got =
        store->getVerdict("fp-1");
    ASSERT_TRUE(got);
    EXPECT_EQ(got->signature, "sig-1");
    EXPECT_FALSE(store->getVerdict("fp-missing", &error));
    EXPECT_EQ(error.status, StoreStatus::NotFound);

    StoreStats stats = store->stats();
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.records, campaign.programs.size());
    EXPECT_EQ(stats.verdicts, 1u);
    EXPECT_EQ(stats.recoveredLines, 0u);
    EXPECT_EQ(stats.generation, 1u);
    EXPECT_TRUE(store->putProgram("h-new", "int y;\n"));
    EXPECT_TRUE(store->flush());
    EXPECT_FALSE(fs::exists(dir.str() + "/index.0.jsonl"));
}

TEST(Corpus, DuplicateProgramsCountAsDedupHits)
{
    TempDir dir("dedup");
    support::MetricsRegistry registry;
    OpenOptions options;
    options.metrics = &registry;
    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error, options);
    ASSERT_TRUE(store) << error.message;

    EXPECT_TRUE(store->putProgram("h1", "int x;\n"));
    EXPECT_FALSE(store->putProgram("h1", "int x;\n"));
    EXPECT_FALSE(store->putProgram("h1", "int x;\n"));
    EXPECT_TRUE(store->putProgram("h2", "int y;\n"));
    EXPECT_EQ(registry.counterValue("corpus.dedup_hits"), 2u);
    EXPECT_EQ(store->stats().programs, 2u);
}

//===------------------------------------------------------------------===//
// Robustness: crash tails, corruption, locking, fresh stores
//===------------------------------------------------------------------===//

/** Populate a store with @p programs entries; returns its dir. */
void
populate(const std::string &dir, unsigned programs)
{
    StoreError error;
    auto store = CorpusStore::open(dir, &error);
    ASSERT_TRUE(store) << error.message;
    for (unsigned i = 0; i < programs; ++i) {
        std::string text =
            "int g" + std::to_string(i) + ";\n// payload body\n";
        store->putProgram("hash" + std::to_string(i), text);
    }
    ASSERT_TRUE(store->flush());
}

TEST(Corpus, TruncatedPayloadTailIsRecovered)
{
    TempDir dir("trunctail");
    populate(dir.str(), 3);

    // Chop the final payload bytes — the crash happened mid-append.
    std::string payload_path = dir.str() + "/payload.0.dat";
    uint64_t size = fs::file_size(payload_path);
    fs::resize_file(payload_path, size - 5);

    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    StoreStats stats = store->stats();
    EXPECT_EQ(stats.recoveredLines, 1u);
    EXPECT_EQ(stats.programs, 2u);
    EXPECT_TRUE(store->hasProgram("hash0"));
    EXPECT_TRUE(store->hasProgram("hash1"));
    EXPECT_FALSE(store->hasProgram("hash2"));
    // The store stays writable after recovery.
    EXPECT_TRUE(store->putProgram("hash3", "int z;\n"));
    EXPECT_TRUE(store->flush());
}

TEST(Corpus, UnterminatedIndexLineIsRecovered)
{
    TempDir dir("truncline");
    populate(dir.str(), 2);

    std::string index_path = dir.str() + "/index.0.jsonl";
    std::string index = readFile(index_path);
    // Re-truncate mid final line: no trailing newline, torn JSON.
    writeFile(index_path, index.substr(0, index.size() - 7));

    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    EXPECT_EQ(store->stats().recoveredLines, 1u);
    EXPECT_TRUE(store->hasProgram("hash0"));
    EXPECT_FALSE(store->hasProgram("hash1"));

    // New appends land after the truncation point, and a reopen sees
    // a clean index again.
    EXPECT_TRUE(store->putProgram("hash9", "int q;\n"));
    store.reset();
    store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    EXPECT_EQ(store->stats().programs, 2u);
    EXPECT_TRUE(store->hasProgram("hash9"));
    EXPECT_EQ(store->stats().recoveredLines, 0u);
}

TEST(Corpus, BitFlipBeforeTailIsClassifiedCorrupt)
{
    TempDir dir("bitflip");
    populate(dir.str(), 3);

    std::string index_path = dir.str() + "/index.0.jsonl";
    std::string index = readFile(index_path);
    index[10] = char(index[10] ^ 0x08); // damage the *first* line
    writeFile(index_path, index);

    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    EXPECT_FALSE(store);
    EXPECT_EQ(error.status, StoreStatus::Corrupt);
    EXPECT_STREQ(storeStatusName(error.status), "corrupt");
}

TEST(Corpus, FlippedPayloadByteIsCaughtOnRead)
{
    TempDir dir("pcrc");
    populate(dir.str(), 1);

    std::string payload_path = dir.str() + "/payload.0.dat";
    std::string payload = readFile(payload_path);
    payload[2] = char(payload[2] ^ 0x01);
    writeFile(payload_path, payload);

    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    EXPECT_FALSE(store->getProgram("hash0", &error));
    EXPECT_EQ(error.status, StoreStatus::Corrupt);
}

TEST(Corpus, CorruptVerdictPayloadIsRepairedByRePut)
{
    TempDir dir("verdictrepair");
    core::CachedVerdict verdict;
    verdict.reducedSource = "int r;\n";
    verdict.signature = "sig-r";
    verdict.reductionTests = 7;
    {
        StoreError error;
        auto store = CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        store->putVerdict("fp-r", verdict);
        ASSERT_TRUE(store->flush());
    }

    // Rot the verdict's payload on disk.
    std::string payload_path = dir.str() + "/payload.0.dat";
    std::string payload = readFile(payload_path);
    payload[1] = char(payload[1] ^ 0x04);
    writeFile(payload_path, payload);

    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    EXPECT_FALSE(store->getVerdict("fp-r", &error));
    EXPECT_EQ(error.status, StoreStatus::Corrupt);

    // Re-storing (what triage does after the cache miss forces a
    // re-reduction) replaces the damaged entry in place...
    store->putVerdict("fp-r", verdict);
    std::optional<core::CachedVerdict> got = store->getVerdict("fp-r");
    ASSERT_TRUE(got);
    EXPECT_EQ(got->signature, "sig-r");
    EXPECT_EQ(store->stats().verdicts, 1u);
    ASSERT_TRUE(store->flush());
    store.reset();

    // ...and the replacement wins after a reload too.
    store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    got = store->getVerdict("fp-r", &error);
    ASSERT_TRUE(got) << error.message;
    EXPECT_EQ(got->reducedSource, "int r;\n");
    EXPECT_EQ(got->reductionTests, 7u);
}

TEST(Corpus, LiveLockRefusesSecondWriterAndStaleLockIsStolen)
{
    TempDir dir("lock");
    populate(dir.str(), 1);

    // pid 1 is always alive: a concurrent writer holds the store.
    writeFile(dir.str() + "/LOCK", "1\n");
    StoreError error;
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error));
    EXPECT_EQ(error.status, StoreStatus::Locked);
    // The refused open must not disturb the live owner's lock: the
    // pid survives and a retry is refused all over again.
    EXPECT_EQ(readFile(dir.str() + "/LOCK"), "1\n");
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error));
    EXPECT_EQ(error.status, StoreStatus::Locked);

    // A lock left by a dead process is stale: fork a child that
    // exits immediately and use its (now unrecycled) pid.
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    writeFile(dir.str() + "/LOCK", std::to_string(child) + "\n");
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    EXPECT_TRUE(store->hasProgram("hash0"));
}

TEST(Corpus, FlockRefusesSecondWriterUntilFirstCloses)
{
    TempDir dir("flock");
    StoreError error;
    auto first = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(first) << error.message;

    // The flock, not the pid file, is the gate: a second open races
    // no check-then-write window and is refused while the first
    // writer holds the store — even from the same process.
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error));
    EXPECT_EQ(error.status, StoreStatus::Locked);

    first.reset();
    auto second = CorpusStore::open(dir.str(), &error);
    EXPECT_TRUE(second) << error.message;
}

TEST(Corpus, CrossProcessLockContentionNamesTheHolder)
{
    // Real two-process contention, the case the fleet exercises
    // constantly: a child process opens the store and holds it while
    // the parent tries. Two pipes sequence the handshake — no sleeps.
    TempDir dir("xproc");
    int ready[2], release[2];
    ASSERT_EQ(::pipe(ready), 0);
    ASSERT_EQ(::pipe(release), 0);
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(ready[0]);
        ::close(release[1]);
        StoreError child_error;
        auto held = CorpusStore::open(dir.str(), &child_error);
        char byte = held ? 'k' : 'f';
        (void)!::write(ready[1], &byte, 1);
        ::close(ready[1]);
        char go;
        (void)!::read(release[0], &go, 1); // hold until released
        held.reset(); // destructor blanks the pid + drops the flock
        ::_exit(byte == 'k' ? 0 : 1);
    }
    ::close(ready[1]);
    ::close(release[0]);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ASSERT_EQ(byte, 'k');

    // Contended open: classified Locked, and the message names the
    // live holder so an operator can see *who* has the store.
    StoreError error;
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error));
    EXPECT_EQ(error.status, StoreStatus::Locked);
    EXPECT_NE(error.message.find(std::to_string(child)),
              std::string::npos)
        << error.message;

    // Release the child; once it exits the handover is clean.
    char go = 'g';
    ASSERT_EQ(::write(release[1], &go, 1), 1);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    auto store = CorpusStore::open(dir.str(), &error);
    EXPECT_TRUE(store) << error.message;
    ::close(ready[0]);
    ::close(release[1]);
}

TEST(Corpus, FreshStoreResumeIsClassified)
{
    TempDir dir("freshresume");
    StoreError error;

    // A resume session takes its plan from the checkpoint, never the
    // caller's: without one it fails classified, not as a silent
    // empty campaign.
    session::Session resume{CampaignPlan{},
                            {.mode = session::Mode::Resume,
                             .dir = dir.str() + "/missing"}};

    // No store at all.
    EXPECT_EQ(resume.run(stdout, &error), 1);
    EXPECT_EQ(error.status, StoreStatus::NotFound);

    // A store that never checkpointed.
    populate(dir.str(), 1);
    resume.options.dir = dir.str();
    EXPECT_EQ(resume.run(stdout, &error), 1);
    EXPECT_EQ(error.status, StoreStatus::NoCheckpoint);
}

TEST(Corpus, BadFormatVersionIsRefused)
{
    TempDir dir("badversion");
    populate(dir.str(), 1);
    writeFile(dir.str() + "/MANIFEST.json",
              "{\"version\":99,\"generation\":0}\n");
    StoreError error;
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error));
    EXPECT_EQ(error.status, StoreStatus::BadVersion);
}

//===------------------------------------------------------------------===//
// Checkpoint / resume
//===------------------------------------------------------------------===//

CampaignPlan
smallPlan()
{
    CampaignPlan plan;
    plan.count = 18;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {alphaO3(), betaO3()};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

TEST(Corpus, ResumeAfterKillIsBitIdentical)
{
    // Reference: one uninterrupted run.
    std::string reference;
    core::Campaign reference_campaign;
    {
        TempDir dir("ref");
        StoreError error;
        support::MetricsRegistry registry;
        OpenOptions open_options;
        open_options.metrics = &registry;
        auto store = CorpusStore::open(dir.str(), &error, open_options);
        ASSERT_TRUE(store) << error.message;
        CheckpointRunOptions run;
        run.metrics = &registry;
        run.checkpointEveryChunks = 2;
        std::optional<CheckpointedCampaign> result =
            runCheckpointed(*store, smallPlan(), run, &error);
        ASSERT_TRUE(result) << error.message;
        EXPECT_TRUE(result->completed);
        EXPECT_FALSE(result->resumed);
        EXPECT_EQ(result->chunksRun, 6u);
        reference = summaryText(*result);
        reference_campaign = std::move(result->campaign);
        EXPECT_FALSE(result->findings.empty() &&
                     reference.find("findings 0") == std::string::npos);
    }
    ASSERT_FALSE(reference.empty());

    // Kill at three points, resume at one and several threads: the
    // summary (records, findings, killer histograms, campaign.*
    // counters) must be byte-identical every time.
    for (uint64_t kill_after : {1u, 2u, 4u}) {
        for (unsigned threads : {1u, 3u}) {
            TempDir dir("kill");
            StoreError error;
            {
                support::MetricsRegistry registry;
                OpenOptions open_options;
                open_options.metrics = &registry;
                auto store =
                    CorpusStore::open(dir.str(), &error, open_options);
                ASSERT_TRUE(store) << error.message;
                CheckpointRunOptions run;
                run.metrics = &registry;
                run.checkpointEveryChunks = 1;
                run.haltAfterChunks = kill_after;
                run.threads = threads;
                std::optional<CheckpointedCampaign> result =
                    runCheckpointed(*store, smallPlan(), run, &error);
                ASSERT_TRUE(result) << error.message;
                EXPECT_FALSE(result->completed)
                    << "kill_after=" << kill_after
                    << " threads=" << threads
                    << " chunksRun=" << result->chunksRun;
            } // store closed: the "process" died here

            // Resume as a restarted process does: reopen the store
            // and run the plan its checkpoint pins.
            support::MetricsRegistry registry;
            OpenOptions open_options;
            open_options.createIfMissing = false;
            open_options.metrics = &registry;
            auto store = CorpusStore::open(dir.str(), &error, open_options);
            ASSERT_TRUE(store) << error.message;
            std::optional<CheckpointState> state =
                readCheckpointState(*store, &error);
            ASSERT_TRUE(state) << error.message;
            CheckpointRunOptions resume;
            resume.threads = threads;
            resume.metrics = &registry;
            std::optional<CheckpointedCampaign> resumed =
                runCheckpointed(*store, state->plan, resume, &error);
            ASSERT_TRUE(resumed) << error.message;
            EXPECT_TRUE(resumed->completed);
            EXPECT_TRUE(resumed->resumed);
            EXPECT_GT(resumed->chunksLoaded, 0u);
            EXPECT_EQ(summaryText(*resumed), reference)
                << "kill_after=" << kill_after
                << " threads=" << threads;
            ASSERT_EQ(resumed->campaign.programs.size(),
                      reference_campaign.programs.size());
            for (size_t i = 0;
                 i < reference_campaign.programs.size(); ++i) {
                EXPECT_TRUE(resumed->campaign.programs[i] ==
                            reference_campaign.programs[i])
                    << "slot " << i;
            }
        }
    }
}

TEST(Corpus, ResumeWithDifferentPlanIsClassified)
{
    TempDir dir("planmismatch");
    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;

    CheckpointRunOptions run;
    run.checkpointEveryChunks = 1;
    run.haltAfterChunks = 1;
    ASSERT_TRUE(runCheckpointed(*store, smallPlan(), run, &error))
        << error.message;

    CampaignPlan other = smallPlan();
    other.count = 24;
    EXPECT_FALSE(runCheckpointed(*store, other, run, &error));
    EXPECT_EQ(error.status, StoreStatus::PlanMismatch);

    // The matching plan continues fine.
    std::optional<CheckpointedCampaign> result =
        runCheckpointed(*store, smallPlan(), {}, &error);
    ASSERT_TRUE(result) << error.message;
    EXPECT_TRUE(result->completed);
}

//===------------------------------------------------------------------===//
// Verdict-cache deduplication
//===------------------------------------------------------------------===//

std::vector<core::Finding>
duplicateHeavyFindings()
{
    core::CampaignOptions options;
    options.computePrimary = true;
    core::Campaign campaign =
        core::runCampaign(200, 12, {alphaO3(), betaO3()}, options);
    std::vector<core::Finding> findings = core::collectFindings(
        campaign, alphaO3(), betaO3(), /*max_findings=*/2);
    // Same root causes, many sightings — the duplicate-heavy corpus.
    std::vector<core::Finding> heavy;
    for (int round = 0; round < 3; ++round)
        heavy.insert(heavy.end(), findings.begin(), findings.end());
    return heavy;
}

void
expectSameReports(const core::TriageSummary &a,
                  const core::TriageSummary &b)
{
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (size_t i = 0; i < a.reports.size(); ++i) {
        EXPECT_EQ(a.reports[i].finding.seed,
                  b.reports[i].finding.seed) << i;
        EXPECT_EQ(a.reports[i].finding.marker,
                  b.reports[i].finding.marker) << i;
        EXPECT_EQ(a.reports[i].reducedSource,
                  b.reports[i].reducedSource) << i;
        EXPECT_EQ(a.reports[i].signature, b.reports[i].signature)
            << i;
        EXPECT_EQ(a.reports[i].reductionTests,
                  b.reports[i].reductionTests) << i;
        EXPECT_EQ(a.reports[i].confirmed, b.reports[i].confirmed)
            << i;
        EXPECT_EQ(a.reports[i].duplicate, b.reports[i].duplicate)
            << i;
        EXPECT_EQ(a.reports[i].fixed, b.reports[i].fixed) << i;
    }
}

TEST(Corpus, VerdictCacheCutsReductionWorkWithoutChangingReports)
{
    std::vector<core::Finding> findings = duplicateHeavyFindings();
    if (findings.empty())
        GTEST_SKIP() << "corpus produced no alpha-vs-beta findings";

    support::MetricsRegistry baseline_registry;
    core::TriageOptions baseline;
    baseline.maxTests = 300;
    baseline.metrics = &baseline_registry;
    core::TriageSummary baseline_summary =
        core::triageFindings(findings, baseline);

    support::MetricsRegistry cached_registry;
    MemoryVerdictCache cache;
    core::TriageOptions deduped = baseline;
    deduped.metrics = &cached_registry;
    deduped.verdictCache = &cache;
    core::TriageSummary deduped_summary =
        core::triageFindings(findings, deduped);

    // No finding is lost and every report field matches...
    expectSameReports(baseline_summary, deduped_summary);
    // ...while the reduction work strictly drops.
    EXPECT_LT(cached_registry.counterValue("reduce.tests"),
              baseline_registry.counterValue("reduce.tests"));
    EXPECT_GT(cached_registry.counterValue("reduce.findings_deduped"),
              0u);
    EXPECT_GT(cache.size(), 0u);
}

TEST(Corpus, StoreBackedVerdictsPersistAcrossRuns)
{
    std::vector<core::Finding> findings = duplicateHeavyFindings();
    if (findings.empty())
        GTEST_SKIP() << "corpus produced no alpha-vs-beta findings";

    TempDir dir("verdicts");
    core::TriageSummary first_summary;
    {
        StoreError error;
        auto store = CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        StoreVerdictCache cache(*store);
        core::TriageOptions options;
        options.maxTests = 300;
        options.verdictCache = &cache;
        first_summary = core::triageFindings(findings, options);
        ASSERT_GT(store->stats().verdicts, 0u);
    }

    // A new process over the same store reduces nothing: every
    // verdict is replayed from disk, and the summary is unchanged.
    StoreError error;
    auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    StoreVerdictCache cache(*store);
    support::MetricsRegistry registry;
    core::TriageOptions options;
    options.maxTests = 300;
    options.verdictCache = &cache;
    options.metrics = &registry;
    core::TriageSummary second_summary =
        core::triageFindings(findings, options);
    expectSameReports(first_summary, second_summary);
    EXPECT_EQ(registry.counterValue("reduce.tests"), 0u);
    EXPECT_GT(registry.counterValue("reduce.verdict_cache_hits"), 0u);
}

} // namespace
} // namespace dce::corpus
