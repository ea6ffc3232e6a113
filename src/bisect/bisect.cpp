#include "bisect/bisect.hpp"

#include "ir/lowering.hpp"

namespace dce::bisect {

namespace {

/** Does the given build miss @p marker in @p lowered? */
bool
missedAt(compiler::CompilerId id, compiler::OptLevel level,
         size_t commit_index, const ir::Module &lowered, unsigned marker)
{
    return !compiler::Compiler(id, level, commit_index)
                .eliminates(lowered, marker);
}

} // namespace

const char *
bisectStatusName(BisectStatus status)
{
    switch (status) {
    case BisectStatus::Found:
        return "found";
    case BisectStatus::AlreadyBadAtGood:
        return "already-bad-at-good";
    case BisectStatus::NotBadAtBad:
        return "not-bad-at-bad";
    case BisectStatus::EmptyRange:
        return "empty-range";
    }
    return "unknown";
}

namespace {

/** One bisect_resolved event keyed by the marker under bisection. */
void
emitResolved(support::EventSink *events, unsigned marker, size_t good,
             size_t bad, const BisectResult &result)
{
    if (!events)
        return;
    support::Event event("bisect_resolved",
                         {support::kPhaseBisect, marker, 0});
    event.num("marker", marker)
        .num("good", good)
        .num("bad", bad)
        .str("status", bisectStatusName(result.status));
    if (result.valid) {
        event.num("first_bad", result.firstBad)
            .str("commit", result.commit->hash);
    }
    events->emit(std::move(event));
}

} // namespace

BisectResult
bisectRegression(compiler::CompilerId id, compiler::OptLevel level,
                 const lang::TranslationUnit &unit, unsigned marker,
                 size_t good, size_t bad, support::EventSink *events)
{
    const size_t first_good = good;
    const size_t first_bad = bad;
    BisectResult result;
    if (good >= bad) {
        result.status = BisectStatus::EmptyRange;
        emitResolved(events, marker, first_good, first_bad, result);
        return result;
    }
    // One lowering serves every probed commit.
    const std::unique_ptr<ir::Module> lowered = ir::lowerToIr(unit);
    if (missedAt(id, level, good, *lowered, marker)) {
        result.status = BisectStatus::AlreadyBadAtGood;
        emitResolved(events, marker, first_good, first_bad, result);
        return result;
    }
    if (!missedAt(id, level, bad, *lowered, marker)) {
        result.status = BisectStatus::NotBadAtBad;
        emitResolved(events, marker, first_good, first_bad, result);
        return result;
    }

    while (bad - good > 1) {
        size_t mid = good + (bad - good) / 2;
        if (missedAt(id, level, mid, *lowered, marker))
            bad = mid;
        else
            good = mid;
    }
    result.status = BisectStatus::Found;
    result.valid = true;
    result.firstBad = bad;
    result.commit = &compiler::spec(id).history()[bad];
    emitResolved(events, marker, first_good, first_bad, result);
    return result;
}

} // namespace dce::bisect
