/**
 * @file
 * Versioned serialization between the core pipeline's value types and
 * the corpus store's on-disk JSON (DESIGN.md §11). Every serializer
 * here is paired with a deserializer whose round trip is
 * representation-exact: sets, kill attributions, 64-bit seeds, and RNG
 * states all come back `==` to what went in — that property (tested in
 * test_corpus) is what makes resumed campaigns byte-identical.
 *
 * Program *source* is not serialized through these helpers; programs
 * are stored as canonical printed text (lang::printUnit) and
 * re-parsed, with the printer round-trip property test guaranteeing
 * fidelity.
 */
#pragma once

#include <optional>
#include <string>

#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "support/json.hpp"

namespace dce::corpus {

/** On-disk format version; bumped on any incompatible layout change.
 * Readers reject other versions with StoreStatus::BadVersion. */
inline constexpr unsigned kFormatVersion = 1;

/** Canonical text of the instrumented program for @p seed: regenerate,
 * instrument, print. The content-address input. */
std::string canonicalProgramText(uint64_t seed,
                                 const gen::GenConfig &config);

/** Content address of @p canonical_text
 * (support::fnv1a64Hex — 16 lowercase hex digits). */
std::string programHash(std::string_view canonical_text);

//===------------------------------------------------------------------===//
// BuildSpec
//===------------------------------------------------------------------===//

/** Append @p spec as a JSON object (compiler / level names, commit
 * index with SIZE_MAX spelled "head"). */
void writeBuildSpec(support::JsonWriter &writer, const core::BuildSpec &spec);

/** Parse a writeBuildSpec object; nullopt on unknown names. */
std::optional<core::BuildSpec>
readBuildSpec(const support::JsonValue &value);

//===------------------------------------------------------------------===//
// GenConfig
//===------------------------------------------------------------------===//

void writeGenConfig(support::JsonWriter &writer, const gen::GenConfig &config);
std::optional<gen::GenConfig> readGenConfig(const support::JsonValue &value);

//===------------------------------------------------------------------===//
// ProgramRecord
//===------------------------------------------------------------------===//

/** Serialize one record to a standalone JSON document (the store's
 * per-record payload). */
std::string serializeRecord(const core::ProgramRecord &record);

/** Inverse of serializeRecord; nullopt on malformed input. */
std::optional<core::ProgramRecord>
deserializeRecord(std::string_view json);

//===------------------------------------------------------------------===//
// Finding / CachedVerdict
//===------------------------------------------------------------------===//

void writeFinding(support::JsonWriter &writer, const core::Finding &finding);
std::optional<core::Finding> readFinding(const support::JsonValue &value);

/** Serialize a verdict (reduced source + signature + classification)
 * to a standalone JSON document. */
std::string serializeVerdict(const core::CachedVerdict &verdict);
std::optional<core::CachedVerdict>
deserializeVerdict(std::string_view json);

} // namespace dce::corpus
