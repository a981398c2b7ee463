// Coalesced-batch assembly: the solver-side half of the serve:: dynamic
// batcher.
//
// The paper's throughput argument (§3.4) is that many small systems fused
// into one kernel launch amortize the per-launch overhead. A stream of
// independent solve requests can only exploit that if someone gathers the
// requests into one batch before it hits the device: `solve_coalesced`
// takes N compatible requests (same pattern, same options), assembles one
// combined batch, runs exactly one fused solve, and scatters each
// request's solution and convergence record back. Because every system is
// solved by its own work-group with a launch configuration that depends
// only on the system shape, the per-request results are bit-identical to
// solo `solve` calls (tests/test_serve.cpp asserts this).
#pragma once

#include <utility>
#include <vector>

#include "solver/dispatch.hpp"
#include "solver/options.hpp"

namespace batchlin::solver {

/// One request's slice of a coalesced solve. `x` carries the initial
/// guess on entry and the solution on return, exactly like `solve`.
template <typename T>
struct assembly_part {
    const batch_matrix<T>* a = nullptr;
    const mat::batch_dense<T>* b = nullptr;
    mat::batch_dense<T>* x = nullptr;

    index_type items() const { return items_of(*a); }
};

/// Whether two batches share format, dimensions, and sparsity pattern
/// (BatchCsr row pointers and column indexes, BatchEll column indexes).
/// Batch sizes and storage precision may differ.
template <typename T>
bool same_shape(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs);

/// Whether two batches may share one fused launch: `same_shape` plus the
/// same storage precision (a fused launch reads all value blocks at one
/// storage width). Batch sizes may differ.
template <typename T>
bool can_coalesce(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs);

/// Solves all parts as one fused batch on `q` and scatters each part's
/// solution back into its `x`. Part `i`'s systems occupy batch entries
/// [offset_i, offset_i + items_i) of the combined result, with offsets in
/// part order; use `split_log` to slice the combined log per part. The
/// single-part case forwards to `solve` directly (no gather/scatter).
template <typename T>
solve_result solve_coalesced(xpu::queue& q,
                             const std::vector<assembly_part<T>>& parts,
                             const solve_options& opts);

/// Extracts the per-system convergence records of one part from the
/// combined log: entries [offset, offset + items) re-indexed from zero.
log::batch_log split_log(const log::batch_log& combined, index_type offset,
                         index_type items);

/// In-place variant: writes the slice into `out`, reusing its storage
/// when it is already sized for `items` systems. The serving hot path
/// recycles log storage through the request/reply round trip, and the
/// allocating `split_log` would put three cross-thread malloc/free pairs
/// per request back on that path.
void split_log_into(const log::batch_log& combined, index_type offset,
                    index_type items, log::batch_log& out);

namespace detail {

/// Validates an assembly: every part present, shapes consistent, patterns
/// coalescible with the leader. Returns the combined batch-item count.
/// Shared by `solve_coalesced` and the graph-record path.
template <typename T>
index_type validate_assembly(const std::vector<assembly_part<T>>& parts);

/// The combined operands of one coalesced solve.
template <typename T>
struct assembled {
    batch_matrix<T> a;
    mat::batch_dense<T> b;
    mat::batch_dense<T> x;
};

/// Builds the combined batch of a validated assembly — the shared
/// pattern at the leader's storage mode — and gathers every part into it.
template <typename T>
assembled<T> gather(const std::vector<assembly_part<T>>& parts,
                    index_type total_items);

/// Copies every part's matrix values, right-hand side, and initial guess
/// into combined operands of matching shape, batch-major in part order.
/// Native parts narrow on copy into an fp32 combined matrix.
template <typename T>
void gather_into(const std::vector<assembly_part<T>>& parts,
                 batch_matrix<T>& a, mat::batch_dense<T>& b,
                 mat::batch_dense<T>& x);

/// Copies the combined solution back into each part's x (part order).
template <typename T>
void scatter(const mat::batch_dense<T>& x,
             const std::vector<assembly_part<T>>& parts);

/// The coalescing skeleton: validates the parts, gathers them into one
/// combined batch, runs `solve_batch(a, b, x)` on it once, and scatters
/// the solutions back. A single part is solved in place (no gather or
/// scatter). Returns what `solve_batch` returns; its per-system records
/// are in part order.
template <typename T, typename SolveBatch>
auto solve_assembled(const std::vector<assembly_part<T>>& parts,
                     SolveBatch&& solve_batch)
{
    const index_type total_items = validate_assembly(parts);
    if (parts.size() == 1) {
        return solve_batch(*parts.front().a, *parts.front().b,
                           *parts.front().x);
    }
    assembled<T> combined = gather(parts, total_items);
    auto result = solve_batch(std::as_const(combined.a),
                              std::as_const(combined.b), combined.x);
    scatter(combined.x, parts);
    return result;
}

/// Gathers the listed items of `a` and `b` into a fresh batch in list
/// order, keeping the matrix format and storage mode; `x` is zero. The
/// re-solve stages of `solve_resilient` run on such subsets.
template <typename T>
assembled<T> gather_items(const batch_matrix<T>& a,
                          const mat::batch_dense<T>& b,
                          const std::vector<index_type>& items);

}  // namespace detail

}  // namespace batchlin::solver
