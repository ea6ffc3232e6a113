/**
 * @file
 * The result object of the compile-side API (DESIGN.md §13): a
 * `Compilation` owns one build's optimized module and derives the
 * paper's observable from it lazily, memoized on first use.
 *
 *  - survivingMarkers(): the alive `DCEMarkerN` set read directly from
 *    the optimized IR. The reference backend (src/backend, linked only
 *    by the tests) emits every call of every function with a body, so
 *    the IR walk is exactly the set an assembly grep would find,
 *    without register allocation or text; IrVsAsmEquivalence checks
 *    that equality.
 *  - error(): verification failures are part of the value. The old
 *    `Compiler::lastError()` was a `mutable` string written from
 *    `const` methods on a Compiler shared across the campaign thread
 *    pool — a data race. A Compilation belongs to one worker.
 *
 * Thread-safety: a Compilation is a per-thread value object and is NOT
 * internally synchronized; the lazy getters mutate memoization state.
 * Hand the whole object across a thread boundary, never share one.
 */
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "ir/ir.hpp"
#include "support/metrics.hpp"
#include "support/remarks.hpp"

namespace dce::compiler {

/**
 * Observability hooks for one build's pipeline execution, replacing
 * the `remarks`/`metrics` default-pointer pairs the old API threaded
 * through compile/compileLowered/optimize. Both are optional; value
 * semantics, so `{&remarks, &registry}` at a call site reads like the
 * options struct it is.
 */
struct BuildObservers {
    support::RemarkCollector *remarks = nullptr;
    support::MetricsRegistry *metrics = nullptr;
};

/** The alive-marker set of an optimized module, read from the IR: every
 * Call to a marker declaration inside any function with a body. The
 * backend emits exactly these calls (it performs no reachability
 * pruning — a dead internal function a weak global-DCE kept is still
 * emitted), so this equals
 * backend::aliveMarkersInAsm(backend::emitAssembly(module)). */
std::set<unsigned> survivingMarkersInIr(const ir::Module &module);

class Compilation {
  public:
    /** An empty (moved-from / default) compilation; ok() is false. */
    Compilation() = default;

    Compilation(std::unique_ptr<ir::Module> module, std::string error)
        : module_(std::move(module)), error_(std::move(error))
    {
    }

    Compilation(Compilation &&) = default;
    Compilation &operator=(Compilation &&) = default;
    Compilation(const Compilation &) = delete;
    Compilation &operator=(const Compilation &) = delete;

    /** True when the pipeline ran without a verification failure and a
     * module is present. */
    bool ok() const { return module_ != nullptr && error_.empty(); }

    /** The verification failure, empty when ok. */
    const std::string &error() const { return error_; }

    /** The optimized module. @pre a module is present (default-
     * constructed Compilations have none). */
    ir::Module &
    module() const
    {
        assert(module_ && "empty Compilation");
        return *module_;
    }

    /** Give up ownership of the module (interpreter runs, tests). The
     * Compilation is empty afterwards. */
    std::unique_ptr<ir::Module>
    takeModule()
    {
        survivingMarkers_.reset();
        return std::move(module_);
    }

    /** Alive `DCEMarkerN` indices, from the optimized IR; memoized. */
    const std::set<unsigned> &
    survivingMarkers() const
    {
        if (!survivingMarkers_)
            survivingMarkers_ = survivingMarkersInIr(module());
        return *survivingMarkers_;
    }

  private:
    std::unique_ptr<ir::Module> module_;
    std::string error_;
    // Memoization caches — per-thread object, no synchronization.
    mutable std::optional<std::set<unsigned>> survivingMarkers_;
};

} // namespace dce::compiler
