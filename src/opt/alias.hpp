/**
 * @file
 * Pointer analyses shared by the optimization passes:
 *
 *  - PtrBase: resolve a pointer SSA value to its base memory object
 *    (global or alloca) plus a constant element offset when derivable.
 *  - alias(): May/Must/NoAlias on two pointers. MiniC's object-level
 *    memory model (out-of-bounds accesses never touch neighbouring
 *    objects) makes distinct-base => NoAlias *exact*, not heuristic.
 *  - EscapeInfo: which globals/allocas have their address taken (stored
 *    somewhere, passed to a call, returned, or referenced by another
 *    global's initializer). Non-escaping objects can only be accessed
 *    through directly-derived pointers, enabling strong global value
 *    reasoning.
 *  - MemorySummary: per-function transitive may-read/may-write sets of
 *    global objects, for interprocedural load forwarding and exit DSE.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "ir/ir.hpp"
#include "support/small_vector.hpp"

namespace dce::opt {

/** Resolution of a pointer to its base object. */
struct PtrBase {
    enum class Kind {
        Global,  ///< object is a GlobalVar
        Alloca,  ///< object is an Alloca instruction
        Unknown, ///< loaded / phi-merged / parameter pointer
    };

    Kind kind = Kind::Unknown;
    const ir::Value *object = nullptr;
    /** Element offset from the object start, when constant. */
    std::optional<int64_t> offset;

    bool isIdentified() const { return kind != Kind::Unknown; }
};

/**
 * Walk gep (and, by default, freeze) chains to the base object.
 * Alias queries look through freeze — that is sound, freeze is the
 * identity. Folding transforms that model freeze as opaque (the
 * regression mechanism) pass look_through_freeze = false.
 */
PtrBase resolvePtrBase(const ir::Value *pointer,
                       bool look_through_freeze = true);

enum class AliasResult {
    NoAlias,
    MayAlias,
    MustAlias,
};

/** Alias relation between two pointer values. */
AliasResult alias(const ir::Value *a, const ir::Value *b);

/** Address-taken / escape facts for one module snapshot. */
class EscapeInfo {
  public:
    explicit EscapeInfo(const ir::Module &module);

    /** True if pointers to this object can exist outside directly
     * derived SSA chains (so arbitrary loads/stores may touch it). */
    bool escapes(const ir::Value *object) const
    {
        return escaped_.count(object) != 0;
    }

    bool operator==(const EscapeInfo &) const = default;

  private:
    /** Worklist and per-value-id visit stamps shared by every
     * markEscaping call of one construction. */
    struct Scratch {
        std::vector<const ir::Value *> worklist;
        std::vector<uint32_t> visited;
        uint32_t stamp = 0;
    };
    void markEscaping(const ir::Value *root, Scratch &scratch);

    std::unordered_set<const ir::Value *> escaped_;
};

/** Dense index of a module's functions or globals at construction,
 * looked up by pointer in an open-addressing hash table. Never
 * iterated, so the pointer order cannot leak into any result. */
template <typename T>
class PointerIndex {
  public:
    explicit PointerIndex(const std::vector<std::unique_ptr<T>> &items)
    {
        size_t capacity = 8;
        while (capacity < 2 * items.size())
            capacity *= 2;
        slots_.assign(capacity, {nullptr, 0});
        items_.reserve(items.size());
        for (unsigned i = 0; i < items.size(); ++i) {
            items_.push_back(items[i].get());
            size_t slot = home(items[i].get());
            while (slots_[slot].first)
                slot = (slot + 1) & (slots_.size() - 1);
            slots_[slot] = {items[i].get(), i};
        }
    }

    /** Index of @p item, or -1 when it is not indexed. */
    int
    find(const T *item) const
    {
        for (size_t slot = home(item); slots_[slot].first;
             slot = (slot + 1) & (slots_.size() - 1)) {
            if (slots_[slot].first == item)
                return static_cast<int>(slots_[slot].second);
        }
        return -1;
    }

    /** Same items at the same indexes. */
    bool
    operator==(const PointerIndex &other) const
    {
        return items_ == other.items_;
    }

  private:
    size_t
    home(const T *item) const
    {
        const uint64_t bits = reinterpret_cast<uintptr_t>(item);
        return static_cast<size_t>((bits >> 4) * 0x9E3779B97F4A7C15ULL >>
                                   32) &
               (slots_.size() - 1);
    }

    /// The items in index order.
    std::vector<const T *> items_;
    /// (item, index) pairs; a null item marks an empty slot.
    std::vector<std::pair<const T *, unsigned>> slots_;
};

/** Transitive memory effects of each function on global objects. */
class MemorySummary {
  public:
    MemorySummary(const ir::Module &module, const EscapeInfo &escape);

    /** May the call (transitively) read/write this global object? */
    bool mayRead(const ir::Function *fn, const ir::GlobalVar *g) const;
    bool mayWrite(const ir::Function *fn, const ir::GlobalVar *g) const;
    /** May the function read/write through escaped or unknown
     * pointers (clobbering anything escaped)? */
    bool readsUnknown(const ir::Function *fn) const;
    bool writesUnknown(const ir::Function *fn) const;

    bool operator==(const MemorySummary &) const = default;

  private:
    /** Read/write sets as bitmasks over the module's global index —
     * the call-graph fixpoint then unions effects with word ORs
     * instead of hash-set merges. */
    struct Effects {
        support::SmallVector<uint64_t, 1> reads;
        support::SmallVector<uint64_t, 1> writes;
        bool readsUnknown = false;
        bool writesUnknown = false;

        bool operator==(const Effects &) const = default;
    };

    const Effects &effectsOf(const ir::Function *fn) const
    {
        int index = fnIndex_.find(fn);
        assert(index >= 0 && "function not in the summarized module");
        return effects_[static_cast<size_t>(index)];
    }

    PointerIndex<ir::Function> fnIndex_;
    PointerIndex<ir::GlobalVar> globalIndex_;
    std::vector<Effects> effects_;
};

} // namespace dce::opt
