/**
 * @file
 * Regression bisection over a compiler's commit history — the `git
 * bisect` step of §4.2's "missed optimization diversity" analysis.
 * Given a program with a truly-dead marker that an older build
 * eliminates and a newer build misses, find the first offending commit
 * and report its component/file metadata (Tables 3 and 4).
 */
#pragma once

#include <cstddef>
#include <optional>

#include "compiler/compiler.hpp"
#include "lang/ast.hpp"
#include "support/events.hpp"

namespace dce::bisect {

/**
 * How a bisection ended. Everything but Found is an endpoint-
 * validation failure, each with a different remedy: AlreadyBadAtGood
 * wants an older good endpoint (or the miss predates the range),
 * NotBadAtBad means the regression does not reproduce at the bad
 * endpoint (stale finding, wrong level), EmptyRange is a degenerate
 * request (good >= bad).
 */
enum class BisectStatus {
    Found,            ///< endpoints validated; firstBad/commit are set
    AlreadyBadAtGood, ///< marker already missed at the good endpoint
    NotBadAtBad,      ///< marker not missed at the bad endpoint
    EmptyRange,       ///< good >= bad: nothing to search
};

/** Stable label for @p status (reports / logs). */
const char *bisectStatusName(BisectStatus status);

struct BisectResult {
    BisectStatus status = BisectStatus::EmptyRange;
    bool valid = false;      ///< status == Found (legacy convenience)
    size_t firstBad = 0;     ///< first commit index that misses
    const compiler::Commit *commit = nullptr;
};

/**
 * Binary-search the first commit in (good, bad] at which @p marker is
 * missed. @pre marker eliminated at @p good, missed at @p bad (checked
 * — result.status says which endpoint check failed; valid is true only
 * for BisectStatus::Found). When @p events is set, one bisect_resolved
 * event keyed by the marker records the outcome (DESIGN.md §12).
 */
BisectResult bisectRegression(compiler::CompilerId id,
                              compiler::OptLevel level,
                              const lang::TranslationUnit &unit,
                              unsigned marker, size_t good, size_t bad,
                              support::EventSink *events = nullptr);

} // namespace dce::bisect
