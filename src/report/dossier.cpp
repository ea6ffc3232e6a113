#include "report/dossier.hpp"

#include <algorithm>

#include "support/json.hpp"

namespace dce::report {

using corpus::setError;

namespace {

/** The value of @p part after @p prefix, or nullopt. */
std::optional<std::string>
stripPrefix(const std::string &part, std::string_view prefix)
{
    if (part.compare(0, prefix.size(), prefix) != 0)
        return std::nullopt;
    return part.substr(prefix.size());
}

} // namespace

std::optional<core::VerdictKey>
parseFingerprint(const std::string &fingerprint)
{
    // VerdictKey::fingerprint():
    //   prog:<hash>|markers:<m,...>|by:<build>|ref:<build>
    // Build names never contain '|', so a plain split is exact.
    std::vector<std::string> parts;
    size_t begin = 0;
    while (begin <= fingerprint.size()) {
        size_t bar = fingerprint.find('|', begin);
        if (bar == std::string::npos)
            bar = fingerprint.size();
        parts.push_back(fingerprint.substr(begin, bar - begin));
        begin = bar + 1;
    }
    if (parts.size() != 4)
        return std::nullopt;
    auto hash = stripPrefix(parts[0], "prog:");
    auto markers = stripPrefix(parts[1], "markers:");
    auto by = stripPrefix(parts[2], "by:");
    auto ref = stripPrefix(parts[3], "ref:");
    if (!hash || !markers || !by || !ref)
        return std::nullopt;

    core::VerdictKey key;
    key.programHash = *hash;
    key.missedBy = *by;
    key.reference = *ref;
    size_t pos = 0;
    while (pos < markers->size()) {
        size_t comma = markers->find(',', pos);
        if (comma == std::string::npos)
            comma = markers->size();
        std::string token = markers->substr(pos, comma - pos);
        if (token.empty() ||
            token.find_first_not_of("0123456789") != std::string::npos)
            return std::nullopt;
        key.markers.push_back(
            static_cast<unsigned>(std::stoul(token)));
        pos = comma + 1;
    }
    return key;
}

std::optional<Dossier>
buildDossier(corpus::CorpusStore &store, const EventLog *log,
             const std::string &fingerprint,
             corpus::StoreError *error)
{
    std::optional<core::VerdictKey> key =
        parseFingerprint(fingerprint);
    if (!key) {
        setError(error, corpus::StoreStatus::NotFound,
                 "malformed fingerprint: " + fingerprint);
        return std::nullopt;
    }

    Dossier dossier;
    dossier.fingerprint = fingerprint;
    dossier.programHash = key->programHash;
    dossier.markers = key->markers;
    dossier.missedBy = key->missedBy;
    dossier.reference = key->reference;

    // Locate the stored record carrying this program.
    corpus::StoreError load_error;
    std::vector<corpus::StoredRecord> records =
        store.loadRecords(&load_error);
    if (!load_error.ok()) {
        setError(error, load_error.status, load_error.message);
        return std::nullopt;
    }
    const corpus::StoredRecord *stored = nullptr;
    for (const corpus::StoredRecord &candidate : records) {
        if (candidate.programHash == key->programHash) {
            stored = &candidate;
            break;
        }
    }
    if (!stored) {
        setError(error, corpus::StoreStatus::NotFound,
                 "no stored record for program " + key->programHash);
        return std::nullopt;
    }
    const core::ProgramRecord &record = stored->record;
    dossier.seed = record.seed;
    dossier.slot = stored->slot;
    dossier.chunk = stored->chunk;
    dossier.markerCount = record.markerCount;
    dossier.trueDead = record.trueDead.size();
    dossier.trueAlive = record.trueAlive.size();

    // Canonical source text (content-addressed by the hash we hold).
    corpus::StoreError text_error;
    std::optional<std::string> source =
        store.getProgram(key->programHash, &text_error);
    if (!source) {
        setError(error, text_error.status, text_error.message);
        return std::nullopt;
    }
    dossier.source = std::move(*source);

    // Build names come from the checkpointed plan when one exists;
    // a store without a checkpoint still yields a dossier, with
    // positional build labels.
    std::vector<std::string> build_names;
    if (std::optional<corpus::CheckpointState> state =
            corpus::readCheckpointState(store)) {
        for (const core::BuildSpec &spec : state->plan.builds)
            build_names.push_back(spec.name());
    }
    unsigned marker =
        dossier.markers.empty() ? 0 : dossier.markers.front();
    for (size_t i = 0; i < record.alive.size(); ++i) {
        DossierBuild build;
        build.name = i < build_names.size()
                         ? build_names[i]
                         : "build" + std::to_string(i);
        build.aliveMarkers = record.alive[i].size();
        build.missedMarkers = record.missed[i].size();
        build.missesMarker = record.missed[i].count(marker) != 0;
        if (!build.missesMarker && i < record.kills.size()) {
            auto kill = std::find_if(
                record.kills[i].begin(), record.kills[i].end(),
                [&](const core::MarkerKill &k) {
                    return k.marker == marker;
                });
            if (kill != record.kills[i].end())
                build.killerPass = kill->pass;
        }
        dossier.builds.push_back(std::move(build));
    }

    // Cached triage verdict, when triage ran against this store.
    dossier.verdict = store.getVerdict(fingerprint);

    // Reduction trajectory, when the caller kept the event log.
    if (log) {
        for (const support::Event &event : log->sorted()) {
            if (event.type() != "reduction_finished")
                continue;
            const std::string *fp = event.getStr("fingerprint");
            if (!fp || *fp != fingerprint)
                continue;
            DossierReduction reduction;
            reduction.tests = event.getNum("tests").value_or(0);
            reduction.linesBefore =
                event.getNum("lines_before").value_or(0);
            reduction.linesAfter =
                event.getNum("lines_after").value_or(0);
            reduction.passes =
                event.getNum("reduce_passes").value_or(0);
            dossier.reduction = reduction;
            break;
        }
    }

    setError(error, corpus::StoreStatus::Ok, "");
    return dossier;
}

std::string
dossierJson(const Dossier &dossier)
{
    std::string out = "{\n";
    auto str_field = [&](const char *name, const std::string &value,
                         bool comma = true) {
        out += "  \"";
        out += name;
        out += "\": \"";
        support::appendJsonEscaped(out, value);
        out += comma ? "\",\n" : "\"\n";
    };
    auto num_field = [&](const char *name, uint64_t value) {
        out += "  \"";
        out += name;
        out += "\": ";
        out += std::to_string(value);
        out += ",\n";
    };
    str_field("fingerprint", dossier.fingerprint);
    str_field("program_hash", dossier.programHash);
    out += "  \"markers\": [";
    for (size_t i = 0; i < dossier.markers.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(dossier.markers[i]);
    }
    out += "],\n";
    str_field("missed_by", dossier.missedBy);
    str_field("reference", dossier.reference);
    num_field("seed", dossier.seed);
    num_field("slot", dossier.slot);
    num_field("chunk", dossier.chunk);
    num_field("marker_count", dossier.markerCount);
    num_field("true_dead", dossier.trueDead);
    num_field("true_alive", dossier.trueAlive);
    out += "  \"builds\": [\n";
    for (size_t i = 0; i < dossier.builds.size(); ++i) {
        const DossierBuild &build = dossier.builds[i];
        out += "    {\"name\": \"";
        support::appendJsonEscaped(out, build.name);
        out += "\", \"alive\": " + std::to_string(build.aliveMarkers);
        out +=
            ", \"missed\": " + std::to_string(build.missedMarkers);
        out += ", \"misses_marker\": ";
        out += build.missesMarker ? "true" : "false";
        out += ", \"killer_pass\": \"";
        support::appendJsonEscaped(out, build.killerPass);
        out += "\"}";
        out += i + 1 < dossier.builds.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
    if (dossier.verdict) {
        out += "  \"verdict\": {\"signature\": \"";
        support::appendJsonEscaped(out, dossier.verdict->signature);
        out += "\", \"fixed\": ";
        out += dossier.verdict->fixed ? "true" : "false";
        out += ", \"reduction_tests\": ";
        out += std::to_string(dossier.verdict->reductionTests);
        out += ", \"reduced_source\": \"";
        support::appendJsonEscaped(out,
                                   dossier.verdict->reducedSource);
        out += "\"},\n";
    } else {
        out += "  \"verdict\": null,\n";
    }
    if (dossier.reduction) {
        out += "  \"reduction\": {\"tests\": ";
        out += std::to_string(dossier.reduction->tests);
        out += ", \"lines_before\": ";
        out += std::to_string(dossier.reduction->linesBefore);
        out += ", \"lines_after\": ";
        out += std::to_string(dossier.reduction->linesAfter);
        out += ", \"passes\": ";
        out += std::to_string(dossier.reduction->passes);
        out += "},\n";
    } else {
        out += "  \"reduction\": null,\n";
    }
    str_field("source", dossier.source, false);
    out += "}\n";
    return out;
}

std::string
dossierMarkdown(const Dossier &dossier)
{
    std::string out = "# Finding dossier\n\n";
    out += "Fingerprint: `" + dossier.fingerprint + "`\n\n";
    out += "- **Seed:** " + std::to_string(dossier.seed) + " (slot " +
           std::to_string(dossier.slot) + ", chunk " +
           std::to_string(dossier.chunk) + ")\n";
    out += "- **Program:** `" + dossier.programHash + "` — " +
           std::to_string(dossier.markerCount) + " markers, " +
           std::to_string(dossier.trueDead) + " truly dead, " +
           std::to_string(dossier.trueAlive) + " alive\n";
    out += "- **Markers under report:** ";
    for (size_t i = 0; i < dossier.markers.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(dossier.markers[i]);
    }
    out += "\n";
    out += "- **Missed by:** " + dossier.missedBy +
           " — **reference:** " + dossier.reference + "\n\n";

    out += "## Per-build verdicts\n\n";
    out += "| build | alive | missed | this marker | killer pass |\n";
    out += "|---|---|---|---|---|\n";
    for (const DossierBuild &build : dossier.builds) {
        out += "| " + build.name + " | " +
               std::to_string(build.aliveMarkers) + " | " +
               std::to_string(build.missedMarkers) + " | " +
               (build.missesMarker ? "missed" : "eliminated") + " | " +
               (build.killerPass.empty() ? "—" : build.killerPass) +
               " |\n";
    }
    out += "\n";

    if (dossier.verdict) {
        out += "## Triage verdict\n\n";
        out += "- signature `" + dossier.verdict->signature + "`\n";
        out += std::string("- fixed past head: ") +
               (dossier.verdict->fixed ? "yes" : "no") + "\n";
        out += "- reduction tests: " +
               std::to_string(dossier.verdict->reductionTests) +
               "\n\n";
        out += "### Reduced source\n\n```\n" +
               dossier.verdict->reducedSource;
        if (!dossier.verdict->reducedSource.empty() &&
            dossier.verdict->reducedSource.back() != '\n')
            out += '\n';
        out += "```\n\n";
    }
    if (dossier.reduction) {
        out += "## Reduction trajectory\n\n";
        out += "- " + std::to_string(dossier.reduction->tests) +
               " interestingness tests, " +
               std::to_string(dossier.reduction->linesBefore) +
               " → " + std::to_string(dossier.reduction->linesAfter) +
               " lines over " +
               std::to_string(dossier.reduction->passes) +
               " passes\n\n";
    }

    out += "## Canonical source\n\n```\n" + dossier.source;
    if (!dossier.source.empty() && dossier.source.back() != '\n')
        out += '\n';
    out += "```\n";
    return out;
}

} // namespace dce::report
