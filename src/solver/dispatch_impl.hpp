// The one multi-level dispatch (paper §3.3, Fig. 3) behind every fused
// solve, eager (`solve_range`) and graph-recorded (`recorded_solve`).
//
// `prepare_solve` makes the host-side decision once: the storage axis,
// the preconditioner workspace, the SLM plan and the launch config.
// `dispatch_fused` then walks format -> storage -> preconditioner — the
// `if constexpr` guards keep the combinations Table 3 excludes from ever
// instantiating — builds the preconditioner once, and hands it to a
// caller-supplied launcher. Both launchers end in `launch_bound`, the
// solver axis over the recordable `run_*_bound` kernels (run_decl.hpp):
// the eager one binds the plan and the queue's spill scratch; the
// recording one first moves the preconditioner into storage the recording
// owns. One path, so a replay is bit-identical to the eager solve.
#pragma once

#include <type_traits>
#include <utility>
#include <variant>

#include "solver/instantiate.hpp"
#include "solver/options.hpp"
#include "solver/run_decl.hpp"
#include "util/error.hpp"

namespace batchlin::solver {

// The kernels are explicitly instantiated in the per-solver translation
// units (including the double-over-fp32 mixed TUs); declare those
// instantiations so the dispatching files stay cheap to compile.
#define BATCHLIN_EXTERN_CG_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_CG_BOUND(T, S, MatBatch, __VA_ARGS__)
#define BATCHLIN_EXTERN_BICGSTAB_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_BICGSTAB_BOUND(T, S, MatBatch, __VA_ARGS__)
#define BATCHLIN_EXTERN_GMRES_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_GMRES_BOUND(T, S, MatBatch, __VA_ARGS__)
#define BATCHLIN_EXTERN_RICHARDSON_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_RICHARDSON_BOUND(T, S, MatBatch, __VA_ARGS__)

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_CG_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_CG_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_CG_BOUND, double, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_BICGSTAB_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_BICGSTAB_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_BICGSTAB_BOUND, double, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_GMRES_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_GMRES_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_GMRES_BOUND, double, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_RICHARDSON_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_RICHARDSON_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_RICHARDSON_BOUND, double, float)

/// Host-side decision of one fused solve.
struct solve_setup {
    /// The kernels read fp32 payloads (S = float): the caller asked for
    /// fp32 storage, or the matrix already holds it (its native bits are
    /// gone, so it is honored as stored). A native matrix under an fp32
    /// request must be compressed before dispatch.
    bool compressed = false;
    slm_plan plan;
    kernel_config config;
};

template <typename T>
solve_setup prepare_solve(const xpu::queue& q, const batch_matrix<T>& a,
                          const solve_options& opts);

/// Level 3 of the dispatch: the solver axis, with format, storage and
/// preconditioner already resolved to concrete types.
template <typename T, typename S, typename MatBatch, typename Precond>
void launch_bound(xpu::queue& q, const MatBatch& a, const Precond& pc,
                  const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                  const solve_options& opts, const bound_plan& slots,
                  const kernel_config& config, spill_view<T> spill,
                  log::batch_log& logger, xpu::batch_range range)
{
    switch (opts.solver) {
    case solver_type::cg:
        run_cg_bound<T, MatBatch, Precond, S>(q, a, pc, b, x, opts.criterion,
                                              slots, config, spill, logger,
                                              range);
        return;
    case solver_type::bicgstab:
        run_bicgstab_bound<T, MatBatch, Precond, S>(
            q, a, pc, b, x, opts.criterion, slots, config, spill, logger,
            range);
        return;
    case solver_type::gmres:
        run_gmres_bound<T, MatBatch, Precond, S>(
            q, a, pc, b, x, opts.criterion, slots, config, spill,
            opts.gmres_restart, logger, range);
        return;
    case solver_type::richardson:
        run_richardson_bound<T, MatBatch, Precond, S>(
            q, a, pc, b, x, opts.criterion, slots, config, spill,
            static_cast<T>(opts.richardson_relaxation), logger, range);
        return;
    case solver_type::trsv:
        BATCHLIN_UNSUPPORTED("BatchTrsv is dispatched separately");
    }
}

namespace detail {

/// Level 2: the preconditioner axis. Builds the preconditioner once and
/// calls `launch(std::type_identity<S>{}, a, std::move(pc))`.
template <typename T, typename S, typename MatBatch, typename Launch>
void dispatch_precond(const MatBatch& a, const solve_options& opts,
                      Launch& launch)
{
    constexpr bool is_csr = std::is_same_v<MatBatch, mat::batch_csr<T>>;
    constexpr std::type_identity<S> storage{};
    switch (opts.preconditioner) {
    case precond::type::none:
        launch(storage, a, precond::identity<T, S>{});
        return;
    case precond::type::jacobi:
        if constexpr (is_csr) {
            launch(storage, a, precond::jacobi<T, S>(a));
        } else {
            launch(storage, a, precond::jacobi<T, S>{});
        }
        return;
    case precond::type::ilu:
        if constexpr (is_csr) {
            launch(storage, a, precond::ilu0<T, S>(a));
            return;
        }
        BATCHLIN_UNSUPPORTED("BatchIlu requires the BatchCsr format");
    case precond::type::isai:
        if constexpr (is_csr) {
            launch(storage, a, precond::isai<T, S>(a));
            return;
        }
        BATCHLIN_UNSUPPORTED("BatchIsai requires the BatchCsr format");
    case precond::type::block_jacobi:
        if constexpr (is_csr) {
            launch(storage, a,
                   precond::block_jacobi<T, S>(a, opts.block_jacobi_size));
            return;
        }
        BATCHLIN_UNSUPPORTED(
            "BatchBlockJacobi requires the BatchCsr format");
    }
}

}  // namespace detail

/// Level 1: the format axis, then the storage axis `prepare_solve`
/// resolved. When `compressed`, `a` must already hold fp32 values.
/// `launch` receives the storage tag, the concrete matrix, and the
/// preconditioner by rvalue.
template <typename T, typename Launch>
void dispatch_fused(const batch_matrix<T>& a, bool compressed,
                    const solve_options& opts, Launch&& launch)
{
    std::visit(
        [&](const auto& concrete) {
            if (compressed) {
                detail::dispatch_precond<T, float>(concrete, opts, launch);
            } else {
                detail::dispatch_precond<T, T>(concrete, opts, launch);
            }
        },
        a);
}

}  // namespace batchlin::solver
