/**
 * @file
 * Canonicalization for code that edits program ASTs and needs to
 * re-enter the corpus pipeline — the metamorphic variant engine
 * (equiv::deriveVariant). It follows this contract:
 *
 *   1. strip the DCEMarker calls and declarations (markers are derived
 *      data — editing around them would leave stale indices);
 *   2. edit the marker-free AST;
 *   3. re-instrument, pretty-print, and hash with the store's FNV-1a —
 *      the *canonical text* whose hash content-addresses the program.
 *
 * Keeping strip / re-instrument / hash in one place is what makes
 * "canonical" mean the same bytes everywhere: a generated program and
 * an equivalence variant of the same marker-free program produce the
 * same canonical text, so the store's dedup and the equiv engine's
 * stale filter agree by construction.
 */
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "instrument/instrument.hpp"
#include "lang/ast.hpp"

namespace dce::gen {

/**
 * Remove every DCEMarker call statement and marker declaration from
 * @p unit in place (the inverse of instrument::instrumentUnit, up to
 * re-instrumentation). Exposed for tests and the reducer.
 */
void stripMarkers(lang::TranslationUnit &unit);

/**
 * Parse + sema-check @p canonical_text and strip its markers: the
 * marker-free, sema-checked editing stock for a stored program. Null
 * when the text does not parse clean.
 */
std::unique_ptr<lang::TranslationUnit>
parseStripped(std::string_view canonical_text);

/** One canonicalized program: the instrumented unit (with marker
 * table), its printed text, and the text's content hash. */
struct Canonical {
    instrument::Instrumented program;
    std::string text; ///< lang::printUnit of program.unit
    std::string hash; ///< support::fnv1a64Hex of text
};

/**
 * Re-instrument the marker-free @p unit and produce its canonical
 * text + content hash — step 3 of the contract above. @p unit must be
 * sema-checked (instrumentation asserts it stays clean).
 */
Canonical canonicalize(const lang::TranslationUnit &unit);

} // namespace dce::gen
