/**
 * @file
 * Quickstart: the whole public API in ~60 effective lines. Take a
 * MiniC program, insert optimization markers, compile it with the two
 * simulated compilers, and report which truly-dead markers each one
 * failed to eliminate — a missed optimization whenever the other
 * compiler managed.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cstdio>

#include "core/analysis.hpp"
#include "core/campaign.hpp"
#include "corpus/store.hpp"
#include "instrument/instrument.hpp"
#include "lang/printer.hpp"
#include "support/trace.hpp"

using namespace dce;

int
main()
{
    // A little program with one dead branch: `a` is a static that only
    // ever holds its initializer, so `if (a)` can never be taken.
    const char *source = R"(
        static int a = 0;
        int x;
        int main() {
            if (a) {
                x = 42;
            }
            a = 0;
            return x;
        }
    )";

    // Step 1: insert DCEMarkerN() calls into every block-like construct.
    instrument::Instrumented prog = instrument::instrumentSource(source);
    std::printf("instrumented program (%u markers):\n%s\n",
                prog.markerCount(),
                lang::printUnit(*prog.unit).c_str());

    // Ground truth: run the program; executed markers are alive.
    core::GroundTruth truth = core::groundTruth(prog);
    std::printf("ground truth: %zu alive, %zu dead markers\n\n",
                truth.aliveMarkers.size(), truth.deadMarkers.size());

    // Step 2+3: compile with both compilers at -O3 and compare the
    // markers that survive in each one's assembly.
    compiler::Compiler alpha(compiler::CompilerId::Alpha,
                             compiler::OptLevel::O3);
    compiler::Compiler beta(compiler::CompilerId::Beta,
                            compiler::OptLevel::O3);
    std::set<unsigned> alpha_missed = core::missedMarkers(
        core::aliveMarkers(*prog.unit, alpha), truth);
    std::set<unsigned> beta_missed = core::missedMarkers(
        core::aliveMarkers(*prog.unit, beta), truth);

    auto report = [&](const compiler::Compiler &comp,
                      const std::set<unsigned> &missed) {
        std::printf("%s: %zu missed dead marker(s)",
                    comp.describe().c_str(), missed.size());
        for (unsigned m : missed)
            std::printf("  [DCEMarker%u]", m);
        std::printf("\n");
    };
    report(alpha, alpha_missed);
    report(beta, beta_missed);

    // Step 4: anything missed by one but eliminated by the other is a
    // feasible missed optimization.
    std::set<unsigned> findings =
        core::setMinus(alpha_missed, beta_missed);
    if (!findings.empty()) {
        std::printf("\n=> missed optimization: alpha kept DCEMarker%u "
                    "although beta proved the block dead.\n"
                    "   (This is the paper's Listing 4a / GCC PR99357 "
                    "bug class: flow-insensitive global value "
                    "analysis.)\n",
                    *findings.begin());
    }

    // Scaling up: the same differential over a random corpus, run by
    // the parallel campaign engine. Build handles (BuildId) index the
    // runner's build list; thread count never changes the records.
    // With the tracer enabled, every pipeline stage records a span.
    support::Tracer::global().setEnabled(true);
    core::CampaignOptions options;
    options.threads = 0; // one worker per hardware thread
    core::CampaignRunner runner(
        {{compiler::CompilerId::Alpha, compiler::OptLevel::O3},
         {compiler::CompilerId::Beta, compiler::OptLevel::O3}},
        options);
    core::Campaign campaign = runner.run(/*first_seed=*/1, /*count=*/40);
    core::BuildId alpha_id{0}, beta_id{1};
    std::printf("\ncampaign over 40 random programs: %llu dead markers; "
                "alpha misses %llu that beta eliminates "
                "(%.1f seeds/s on %s)\n",
                static_cast<unsigned long long>(campaign.totalDead()),
                static_cast<unsigned long long>(
                    campaign.totalMissedVersus(alpha_id, beta_id)),
                campaign.metrics.seedsPerSecond(),
                "all hardware threads");

    // The campaign left a Chrome trace behind: open it in Perfetto
    // (https://ui.perfetto.dev) or chrome://tracing to see every seed,
    // stage, and optimization pass on a per-worker timeline.
    support::Tracer::global().setEnabled(false);
    if (corpus::writeFileAtomic("quickstart_trace.json",
                                support::Tracer::global().toJson())) {
        std::printf("wrote quickstart_trace.json (%zu spans) — load it "
                    "at https://ui.perfetto.dev\n",
                    support::Tracer::global().events().size());
    }
    return 0;
}
