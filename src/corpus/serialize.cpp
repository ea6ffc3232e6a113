#include "corpus/serialize.hpp"

#include "compiler/compiler.hpp"
#include "lang/printer.hpp"
#include "support/hash.hpp"

namespace dce::corpus {

std::string
canonicalProgramText(uint64_t seed, const gen::GenConfig &config)
{
    instrument::Instrumented prog = core::makeProgram(seed, config);
    return lang::printUnit(*prog.unit);
}

std::string
programHash(std::string_view canonical_text)
{
    return support::fnv1a64Hex(canonical_text);
}

//===------------------------------------------------------------------===//
// BuildSpec
//===------------------------------------------------------------------===//

void
writeBuildSpec(support::JsonWriter &writer, const core::BuildSpec &spec)
{
    writer.beginObject();
    writer.field("compiler", compiler::compilerName(spec.id));
    writer.field("level", compiler::optLevelName(spec.level));
    if (spec.commit == SIZE_MAX)
        writer.field("commit", "head");
    else
        writer.field("commit", uint64_t(spec.commit));
    writer.endObject();
}

namespace {

std::optional<compiler::CompilerId>
parseCompilerId(std::string_view name)
{
    for (compiler::CompilerId id :
         {compiler::CompilerId::Alpha, compiler::CompilerId::Beta}) {
        if (name == compiler::compilerName(id))
            return id;
    }
    return std::nullopt;
}

std::optional<compiler::OptLevel>
parseOptLevel(std::string_view name)
{
    for (compiler::OptLevel level : compiler::allOptLevels()) {
        if (name == compiler::optLevelName(level))
            return level;
    }
    return std::nullopt;
}

/** Read an array of unsigned ints into @p out; false on shape errors. */
bool
readUnsignedArray(const support::JsonValue *value, std::set<unsigned> &out)
{
    if (!value || !value->isArray())
        return false;
    for (const support::JsonValue &item : value->items) {
        if (item.kind != support::JsonValue::Kind::Int || item.negative)
            return false;
        out.insert(unsigned(item.magnitude));
    }
    return true;
}

void
writeUnsignedSet(support::JsonWriter &writer, const std::set<unsigned> &set)
{
    writer.beginArray();
    for (unsigned marker : set)
        writer.value(marker);
    writer.endArray();
}

std::optional<core::InvalidReason>
parseInvalidReason(std::string_view name)
{
    for (core::InvalidReason reason :
         {core::InvalidReason::None, core::InvalidReason::Timeout,
          core::InvalidReason::Trap, core::InvalidReason::NoEntry,
          core::InvalidReason::VerifierReject}) {
        if (name == core::invalidReasonName(reason))
            return reason;
    }
    return std::nullopt;
}

} // namespace

std::optional<core::BuildSpec>
readBuildSpec(const support::JsonValue &value)
{
    if (!value.isObject())
        return std::nullopt;
    auto id = parseCompilerId(value.getString("compiler"));
    auto level = parseOptLevel(value.getString("level"));
    if (!id || !level)
        return std::nullopt;
    core::BuildSpec spec;
    spec.id = *id;
    spec.level = *level;
    const support::JsonValue *commit = value.get("commit");
    if (!commit)
        return std::nullopt;
    if (commit->kind == support::JsonValue::Kind::String) {
        if (commit->text != "head")
            return std::nullopt;
        spec.commit = SIZE_MAX;
    } else if (commit->kind == support::JsonValue::Kind::Int &&
               !commit->negative) {
        spec.commit = size_t(commit->magnitude);
    } else {
        return std::nullopt;
    }
    return spec;
}

//===------------------------------------------------------------------===//
// GenConfig
//===------------------------------------------------------------------===//

void
writeGenConfig(support::JsonWriter &writer, const gen::GenConfig &config)
{
    writer.beginObject();
    writer.field("globals", config.numGlobals);
    writer.field("helpers", config.numHelpers);
    writer.field("stmts", config.maxStmtsPerBlock);
    writer.field("depth", config.maxBlockDepth);
    writer.field("expr", config.maxExprDepth);
    writer.field("trip", config.maxLoopTrip);
    writer.field("bias", config.unlikelyBranchBias);
    writer.endObject();
}

std::optional<gen::GenConfig>
readGenConfig(const support::JsonValue &value)
{
    if (!value.isObject())
        return std::nullopt;
    gen::GenConfig config;
    config.numGlobals = unsigned(value.getU64("globals"));
    config.numHelpers = unsigned(value.getU64("helpers"));
    config.maxStmtsPerBlock = unsigned(value.getU64("stmts"));
    config.maxBlockDepth = unsigned(value.getU64("depth"));
    config.maxExprDepth = unsigned(value.getU64("expr"));
    config.maxLoopTrip = unsigned(value.getU64("trip"));
    config.unlikelyBranchBias = unsigned(value.getU64("bias"));
    return config;
}

//===------------------------------------------------------------------===//
// ProgramRecord
//===------------------------------------------------------------------===//

std::string
serializeRecord(const core::ProgramRecord &record)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("v", uint64_t(kFormatVersion));
    writer.field("seed", record.seed);
    writer.field("markers", record.markerCount);
    writer.field("valid", record.valid);
    writer.field("reason",
                 core::invalidReasonName(record.invalidReason));
    writer.key("trueAlive");
    writeUnsignedSet(writer, record.trueAlive);
    writer.key("trueDead");
    writeUnsignedSet(writer, record.trueDead);
    auto setsField = [&](const char *name,
                         const std::vector<std::set<unsigned>> &sets) {
        writer.key(name);
        writer.beginArray();
        for (const std::set<unsigned> &set : sets)
            writeUnsignedSet(writer, set);
        writer.endArray();
    };
    setsField("alive", record.alive);
    setsField("missed", record.missed);
    setsField("primary", record.primary);
    writer.key("kills");
    writer.beginArray();
    for (const std::vector<core::MarkerKill> &build : record.kills) {
        writer.beginArray();
        for (const core::MarkerKill &kill : build) {
            writer.beginObject();
            writer.field("m", kill.marker);
            writer.field("p", kill.pass);
            writer.field("i", kill.passIndex);
            writer.endObject();
        }
        writer.endArray();
    }
    writer.endArray();
    writer.endObject();
    return writer.take();
}

std::optional<core::ProgramRecord>
deserializeRecord(std::string_view json)
{
    std::optional<support::JsonValue> doc = support::JsonValue::parse(json);
    if (!doc || !doc->isObject() ||
        doc->getU64("v") != kFormatVersion)
        return std::nullopt;
    core::ProgramRecord record;
    record.seed = doc->getU64("seed");
    record.markerCount = unsigned(doc->getU64("markers"));
    record.valid = doc->getBool("valid");
    auto reason = parseInvalidReason(doc->getString("reason"));
    if (!reason)
        return std::nullopt;
    record.invalidReason = *reason;
    if (!readUnsignedArray(doc->get("trueAlive"), record.trueAlive) ||
        !readUnsignedArray(doc->get("trueDead"), record.trueDead))
        return std::nullopt;
    auto setsField = [&](const char *name,
                         std::vector<std::set<unsigned>> &sets) {
        const support::JsonValue *array = doc->get(name);
        if (!array || !array->isArray())
            return false;
        sets.resize(array->items.size());
        for (size_t i = 0; i < array->items.size(); ++i) {
            if (!readUnsignedArray(&array->items[i], sets[i]))
                return false;
        }
        return true;
    };
    if (!setsField("alive", record.alive) ||
        !setsField("missed", record.missed) ||
        !setsField("primary", record.primary))
        return std::nullopt;
    const support::JsonValue *kills = doc->get("kills");
    if (!kills || !kills->isArray())
        return std::nullopt;
    record.kills.resize(kills->items.size());
    for (size_t i = 0; i < kills->items.size(); ++i) {
        const support::JsonValue &build = kills->items[i];
        if (!build.isArray())
            return std::nullopt;
        for (const support::JsonValue &entry : build.items) {
            if (!entry.isObject())
                return std::nullopt;
            core::MarkerKill kill;
            kill.marker = unsigned(entry.getU64("m"));
            kill.pass = entry.getString("p");
            kill.passIndex = unsigned(entry.getU64("i"));
            record.kills[i].push_back(std::move(kill));
        }
    }
    return record;
}

//===------------------------------------------------------------------===//
// Finding / CachedVerdict
//===------------------------------------------------------------------===//

void
writeFinding(support::JsonWriter &writer, const core::Finding &finding)
{
    writer.beginObject();
    writer.field("seed", finding.seed);
    writer.field("marker", finding.marker);
    writer.key("by");
    writeBuildSpec(writer, finding.missedBy);
    writer.key("ref");
    writeBuildSpec(writer, finding.reference);
    writer.endObject();
}

std::optional<core::Finding>
readFinding(const support::JsonValue &value)
{
    if (!value.isObject())
        return std::nullopt;
    const support::JsonValue *by = value.get("by");
    const support::JsonValue *ref = value.get("ref");
    if (!by || !ref)
        return std::nullopt;
    auto missed_by = readBuildSpec(*by);
    auto reference = readBuildSpec(*ref);
    if (!missed_by || !reference)
        return std::nullopt;
    core::Finding finding;
    finding.seed = value.getU64("seed");
    finding.marker = unsigned(value.getU64("marker"));
    finding.missedBy = *missed_by;
    finding.reference = *reference;
    return finding;
}

std::string
serializeVerdict(const core::CachedVerdict &verdict)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("v", uint64_t(kFormatVersion));
    writer.field("src", verdict.reducedSource);
    writer.field("sig", verdict.signature);
    writer.field("fixed", verdict.fixed);
    writer.field("tests", verdict.reductionTests);
    writer.endObject();
    return writer.take();
}

std::optional<core::CachedVerdict>
deserializeVerdict(std::string_view json)
{
    std::optional<support::JsonValue> doc = support::JsonValue::parse(json);
    if (!doc || !doc->isObject() ||
        doc->getU64("v") != kFormatVersion)
        return std::nullopt;
    core::CachedVerdict verdict;
    verdict.reducedSource = doc->getString("src");
    verdict.signature = doc->getString("sig");
    verdict.fixed = doc->getBool("fixed");
    verdict.reductionTests = unsigned(doc->getU64("tests"));
    return verdict;
}

} // namespace dce::corpus
