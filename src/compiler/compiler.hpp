/**
 * @file
 * The two simulated optimizing compilers and their commit histories.
 *
 * `alpha` plays the role of GCC and `beta` the role of LLVM: both are
 * built from the same pass library (src/opt) but with deliberately
 * different PassConfig capabilities and different regression commits,
 * every one of which corresponds to a bug class catalogued by the
 * paper (DESIGN.md section 6). A Compiler is addressed by
 * (CompilerId, OptLevel, commit index); bisection walks the commit
 * axis exactly like `git bisect` over compiler builds.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compilation.hpp"
#include "ir/ir.hpp"
#include "lang/ast.hpp"
#include "opt/pass.hpp"

namespace dce::compiler {

enum class CompilerId {
    Alpha, ///< GCC-like
    Beta,  ///< LLVM-like
};

enum class OptLevel { O0, O1, Os, O2, O3 };

const char *compilerName(CompilerId id);
const char *optLevelName(OptLevel level);
/** All levels in the paper's Table 1/2 order: O0, O1, Os, O2, O3. */
const std::vector<OptLevel> &allOptLevels();

/** One synthetic commit in a compiler's history. */
struct Commit {
    std::string hash;      ///< synthetic short hash
    std::string subject;   ///< one-line commit message
    std::string component; ///< taxonomy entry (Tables 3/4 categories)
    std::vector<std::string> files; ///< synthetic touched files
    /** True if this commit is known (to us) to regress DCE; used only
     * by tests/benches for validating bisection results, never by the
     * detection pipeline itself. */
    bool knownRegression = false;
    /** Mutate the configuration for builds at or after this commit. */
    std::function<void(opt::PassConfig &, OptLevel)> apply;
};

/** A compiler's full definition: base capabilities plus history. */
class CompilerSpec {
  public:
    explicit CompilerSpec(CompilerId id);

    CompilerId id() const { return id_; }
    const std::string &name() const { return name_; }
    const std::vector<Commit> &history() const { return history_; }

    /** Index of the current release (reported-on) build. Commits after
     * head are fixes landed in response to bug reports (Table 5). */
    size_t headIndex() const { return headIndex_; }
    size_t latestIndex() const { return history_.size() - 1; }

    /** Effective configuration for a build of commit @p commit_index
     * at @p level (applies commits 0..commit_index in order). */
    opt::PassConfig configAt(OptLevel level, size_t commit_index) const;

  private:
    CompilerId id_;
    std::string name_;
    std::vector<Commit> history_;
    size_t headIndex_ = 0;
};

/** The singleton spec for each compiler. */
const CompilerSpec &spec(CompilerId id);

/**
 * A concrete compiler build: (id, level, commit). compile() lowers a
 * checked translation unit, runs the build's pipeline, and returns a
 * Compilation — the optimized module with its surviving markers read
 * from the IR on demand and errors as part of the value. A Compiler
 * carries no mutable state, so one instance is safe to share across
 * the campaign thread pool.
 */
class Compiler {
  public:
    /** @param commit_index the build's commit; SIZE_MAX = head. */
    Compiler(CompilerId id, OptLevel level,
             size_t commit_index = SIZE_MAX);

    CompilerId id() const { return id_; }
    OptLevel level() const { return level_; }
    size_t commitIndex() const { return commitIndex_; }
    /** e.g. "alpha-O3@a3f9c21". */
    std::string describe() const;

    /**
     * Compile @p unit: lower + optimize. A verification failure
     * (@p verify_each, tests) is carried in the returned Compilation's
     * error() — the Compiler itself stays immutable.
     *
     * @param observers optional remark/metric sinks for the pipeline
     *        run (DESIGN.md §9).
     */
    Compilation compile(const lang::TranslationUnit &unit,
                        bool verify_each = false,
                        BuildObservers observers = {}) const;

    /**
     * Compile from an already-lowered O0 module instead of from the
     * AST: clone @p lowered (ir::cloneModule) and run this build's
     * pipeline over the clone. @p lowered is not modified, so one
     * lowering can be shared across every build of a campaign — the
     * engine's lowering cache. Equivalent to compile() on the unit
     * @p lowered came from.
     */
    Compilation compileLowered(const ir::Module &lowered,
                               bool verify_each = false,
                               BuildObservers observers = {}) const;

    /**
     * Does this build eliminate marker @p marker (the declaration
     * named support::markerName(marker)) from @p lowered? The answer
     * equals `!compileLowered(lowered).survivingMarkers().count(marker)`,
     * but the pipeline over the clone stops as soon as it is fixed:
     * once no call to the marker is left, or every call left sits in
     * a function the final GlobalDCE must erase (opt::callsDoomed,
     * DESIGN.md §21). For single-marker questions — reduction tests,
     * signatures, bisection. @p lowered is not modified.
     */
    bool eliminates(const ir::Module &lowered, unsigned marker) const;

    /**
     * Run this build's pipeline in place over @p module (which must
     * be an O0 lowering this build owns).
     * @return the verification failure, empty on success.
     */
    std::string optimize(ir::Module &module, bool verify_each = false,
                         BuildObservers observers = {}) const;

  private:
    /** A PassManager holding this build's configured pipeline. */
    opt::PassManager pipeline() const;

    CompilerId id_;
    OptLevel level_;
    size_t commitIndex_;
};

/** Build the pass pipeline for @p level under @p config into @p pm.
 * Exposed for tests and the Figure-1 walkthrough bench. */
void buildPipeline(opt::PassManager &pm, OptLevel level);

/** Level-adjusted configuration: which pass families run at all is a
 * property of the level, applied on top of the build's capabilities. */
opt::PassConfig adjustForLevel(opt::PassConfig config, OptLevel level);

} // namespace dce::compiler
