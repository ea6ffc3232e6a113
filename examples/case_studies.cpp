/**
 * @file
 * The paper's reduced bug reports (Listings 3, 4, 6, 7, 8, 9), ported
 * to MiniC and replayed against the simulated compilers. For each case
 * the example prints which builds miss the dead marker, next to what
 * the paper observed for GCC/LLVM — the per-listing reproduction
 * matrix summarized in EXPERIMENTS.md.
 */
#include <cstdio>
#include <vector>

#include "compiler/compiler.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"

using namespace dce;
using compiler::CompilerId;
using compiler::OptLevel;

namespace {

struct CaseStudy {
    const char *name;
    const char *paper;
    const char *source; ///< must declare DCEMarker0 as the dead probe
};

const CaseStudy kCases[] = {
    {"Listing 3 (LLVM PR49434)",
     "LLVM misses &a == &b[1]; GCC folds it",
     R"(void DCEMarker0(void);
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[1];
            if (c == d) { DCEMarker0(); }
            return 0;
        })"},
    {"Listing 4a (GCC PR99357)",
     "GCC's global value analysis is not flow-sensitive",
     R"(void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            a = 0;
            return 0;
        })"},
    {"Listing 6a (LLVM 3.8 regression)",
     "a = 1 variant: both compilers miss at head",
     R"(void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            a = 1;
            return 0;
        })"},
    {"Listing 7 (unswitch regression)",
     "LLVM eliminated at -O2 but not -O3 after a loop-unswitch change",
     R"(void DCEMarker0(void);
        int a, c;
        static int b;
        int main() {
            b = 0;
            while (a) { while (c) { if (b) { DCEMarker0(); } } }
            return 0;
        })"},
    {"Listing 8b essence (LLVM PR49731)",
     "constant-range modulo missed at -O3, fixed by 611a02cce509",
     R"(void DCEMarker0(void);
        int x;
        int main() {
            int v = x;
            if (v == 7) {
                if (v % 3 == 0) { DCEMarker0(); }
            }
            return 0;
        })"},
    {"Listing 9a essence (GCC PR102546)",
     "GCC missed (x << y) != 0 => x != 0",
     R"(void DCEMarker0(void);
        int x, y;
        int main() {
            if (x << y) {
                if (x == 0) { DCEMarker0(); }
            }
            return 0;
        })"},
    {"Listing 9b essence (GCC PR100034)",
     "uncleaned IPA husk keeps dead code in the binary at -O3",
     R"(void DCEMarker0(void);
        static int helper(int p) {
            if (p) { DCEMarker0(); }
            return 0;
        }
        int main() {
            helper(0);
            return 0;
        })"},
    {"Listing 9c essence (GCC PR100051)",
     "alias precision lost at -O3; -O1 forwards the store",
     R"(void DCEMarker0(void);
        static char b;
        static int c;
        int main() {
            b = 0;
            int *g = &c;
            *g = 5;
            if (b != 0) { DCEMarker0(); }
            return 0;
        })"},
    {"Listing 9e (GCC PR99776)",
     "vectorized pointer stores blocked folding at -O3; -O1 clean",
     R"(void DCEMarker0(void);
        static int a[2];
        static int b;
        static int *c[2];
        int main() {
            for (b = 0; b < 2; b++) {
                c[b] = &a[1];
            }
            if (!c[0]) { DCEMarker0(); }
            return 0;
        })"},
    {"Listing 9f (GCC PR99419 / dup of PR80603)",
     "uniform all-zero array load b[a] not folded by GCC",
     R"(void DCEMarker0(void);
        int a;
        static int b[2] = {0, 0};
        int main() {
            if (b[a]) { DCEMarker0(); }
            return 0;
        })"},
};

} // namespace

int
main()
{
    std::printf("%-38s %6s %6s %6s %6s   %s\n", "case", "a-O1",
                "a-O3", "b-O2", "b-O3", "paper behaviour");
    std::printf("---------------------------------------------------"
                "------------------------------------------\n");
    for (const CaseStudy &cs : kCases) {
        DiagnosticEngine diags;
        auto unit = lang::parseAndCheck(cs.source, diags);
        if (!unit) {
            std::printf("%-38s PARSE ERROR\n%s", cs.name,
                        diags.str().c_str());
            continue;
        }
        // One lowering per case; each probed build clones it (the
        // campaign engine's lowering-cache pattern).
        auto lowered = ir::lowerToIr(*unit);
        auto probe = [&](CompilerId id, OptLevel level) {
            compiler::Compiler comp(id, level);
            return comp.eliminates(*lowered, /*marker=*/0) ? "elim"
                                                            : "MISS";
        };
        std::printf("%-38s %6s %6s %6s %6s   %s\n", cs.name,
                    probe(CompilerId::Alpha, OptLevel::O1),
                    probe(CompilerId::Alpha, OptLevel::O3),
                    probe(CompilerId::Beta, OptLevel::O2),
                    probe(CompilerId::Beta, OptLevel::O3), cs.paper);
    }
    std::printf("\n('MISS' = marker survives in the build's assembly "
                "although the block is dead.)\n");
    return 0;
}
