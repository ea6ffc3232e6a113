/**
 * @file
 * Backend: lower optimized IR to textual x86-flavoured assembly. The
 * contract that the whole methodology rests on: a `call X` line appears
 * in the output iff a reachable Call instruction to X survived
 * optimization — markers are preserved 1:1 (the paper greps the
 * compiler's assembly for `callq DCECheckN` exactly the same way).
 *
 * The lowering is real enough to be representative: phis are demoted
 * to stack slots with edge copies, values get registers from a
 * liveness-driven linear scan (eight GPRs, spills to the frame), and
 * every surviving function — including dead internal ones a weak
 * global-DCE failed to remove — is emitted, which is exactly why
 * markers in them count as missed.
 */
#pragma once

#include <set>
#include <string>

#include "ir/ir.hpp"

namespace dce::backend {

/**
 * Emit assembly for the whole module. Mutates @p module (phi demotion
 * runs first), so pass a module you are done optimizing.
 */
std::string emitAssembly(ir::Module &module);

/** Demote all phis to stack slots (alloca + per-edge stores). Exposed
 * for tests; emitAssembly calls it internally. */
void demotePhis(ir::Module &module);

/** All symbols that appear as direct call targets in @p assembly. */
std::set<std::string> calledSymbols(const std::string &assembly);

/** Markers whose calls survive in @p assembly: the paper's grep for
 * `call DCEMarkerN`. */
std::set<unsigned> aliveMarkersInAsm(const std::string &assembly);

/** True if @p assembly contains a call to @p symbol. */
bool containsCall(const std::string &assembly, const std::string &symbol);

} // namespace dce::backend
