#include "solver/assemble.hpp"

#include <algorithm>
#include <variant>

#include "util/error.hpp"

namespace batchlin::solver {

namespace {

template <typename T>
bool same_pattern(const mat::batch_csr<T>& lhs, const mat::batch_csr<T>& rhs)
{
    return lhs.rows() == rhs.rows() && lhs.cols() == rhs.cols() &&
           lhs.nnz() == rhs.nnz() && lhs.row_ptrs() == rhs.row_ptrs() &&
           lhs.col_idxs() == rhs.col_idxs();
}

template <typename T>
bool same_pattern(const mat::batch_ell<T>& lhs, const mat::batch_ell<T>& rhs)
{
    return lhs.rows() == rhs.rows() && lhs.cols() == rhs.cols() &&
           lhs.ell_width() == rhs.ell_width() &&
           lhs.col_idxs() == rhs.col_idxs();
}

template <typename T>
bool same_pattern(const mat::batch_dense<T>& lhs,
                  const mat::batch_dense<T>& rhs)
{
    return lhs.rows() == rhs.rows() && lhs.cols() == rhs.cols();
}

/// Copies the value blocks of every part's matrix into `combined`,
/// batch-major, at the combined storage width; the shared pattern already
/// lives in `combined`.
template <typename T, typename MatBatch>
void gather_values(const std::vector<assembly_part<T>>& parts,
                   MatBatch& combined)
{
    if (combined.storage_mode() == mat::storage_precision::fp32) {
        auto out = combined.values_fp32().begin();
        for (const assembly_part<T>& part : parts) {
            const auto& m = std::get<MatBatch>(*part.a);
            if (m.storage_mode() == mat::storage_precision::fp32) {
                const auto& values = m.values_fp32();
                out = std::copy(values.begin(), values.end(), out);
            } else {
                const auto& values = m.values();
                out = std::transform(
                    values.begin(), values.end(), out,
                    [](T v) { return static_cast<float>(v); });
            }
        }
        return;
    }
    auto out = combined.values().begin();
    for (const assembly_part<T>& part : parts) {
        const auto& values = std::get<MatBatch>(*part.a).values();
        out = std::copy(values.begin(), values.end(), out);
    }
}

/// The shared pattern of `leader` with room for `total_items` items.
template <typename T>
batch_matrix<T> combined_pattern(const batch_matrix<T>& leader,
                                 index_type total_items)
{
    return std::visit(
        [&](const auto& m) -> batch_matrix<T> {
            using MatBatch = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<MatBatch, mat::batch_csr<T>>) {
                return mat::batch_csr<T>(total_items, m.rows(), m.cols(),
                                         m.row_ptrs(), m.col_idxs());
            } else if constexpr (std::is_same_v<MatBatch,
                                                mat::batch_ell<T>>) {
                mat::batch_ell<T> combined(total_items, m.rows(), m.cols(),
                                           m.ell_width());
                combined.col_idxs() = m.col_idxs();
                return combined;
            } else {
                return mat::batch_dense<T>(total_items, m.rows(), m.cols());
            }
        },
        leader);
}

/// Copies the listed equal-sized item blocks of the batch-major `src`
/// into `dst`, in list order; `dst` holds exactly those blocks.
template <typename V>
void copy_items(const std::vector<V>& src, std::vector<V>& dst,
                const std::vector<index_type>& items)
{
    if (items.empty()) {
        return;
    }
    const std::size_t block = dst.size() / items.size();
    auto out = dst.begin();
    for (const index_type item : items) {
        out = std::copy_n(
            src.begin() + static_cast<std::ptrdiff_t>(
                              static_cast<std::size_t>(item) * block),
            block, out);
    }
}

}  // namespace

namespace detail {

template <typename T>
assembled<T> gather(const std::vector<assembly_part<T>>& parts,
                    index_type total_items)
{
    const batch_matrix<T>& leader = *parts.front().a;
    const index_type rows = rows_of(leader);
    assembled<T> out{combined_pattern(leader, total_items),
                     mat::batch_dense<T>(total_items, rows, 1),
                     mat::batch_dense<T>(total_items, rows, 1)};
    // The parts share one storage mode (can_coalesce checks it) and the
    // combined matrix inherits it, so a compressed batch solves
    // compressed.
    if (storage_of(leader) == mat::storage_precision::fp32) {
        compress_storage(out.a);
    }
    gather_into(parts, out.a, out.b, out.x);
    return out;
}

template <typename T>
assembled<T> gather_items(const batch_matrix<T>& a,
                          const mat::batch_dense<T>& b,
                          const std::vector<index_type>& items)
{
    const auto count = static_cast<index_type>(items.size());
    assembled<T> out{combined_pattern(a, count),
                     mat::batch_dense<T>(count, b.rows(), b.cols()),
                     mat::batch_dense<T>(count, b.rows(), b.cols())};
    const bool fp32 = storage_of(a) == mat::storage_precision::fp32;
    if (fp32) {
        compress_storage(out.a);
    }
    std::visit(
        [&](auto& sub) {
            const auto& src = std::get<std::decay_t<decltype(sub)>>(a);
            if (fp32) {
                copy_items(src.values_fp32(), sub.values_fp32(), items);
            } else {
                copy_items(src.values(), sub.values(), items);
            }
        },
        out.a);
    copy_items(b.values(), out.b.values(), items);
    return out;
}

template <typename T>
void gather_into(const std::vector<assembly_part<T>>& parts,
                 batch_matrix<T>& a, mat::batch_dense<T>& b,
                 mat::batch_dense<T>& x)
{
    std::visit([&](auto& combined) { gather_values(parts, combined); }, a);
    auto b_out = b.values().begin();
    auto x_out = x.values().begin();
    for (const assembly_part<T>& part : parts) {
        b_out = std::copy(part.b->values().begin(), part.b->values().end(),
                          b_out);
        x_out = std::copy(part.x->values().begin(), part.x->values().end(),
                          x_out);
    }
}

template <typename T>
void scatter(const mat::batch_dense<T>& x,
             const std::vector<assembly_part<T>>& parts)
{
    auto x_in = x.values().begin();
    for (const assembly_part<T>& part : parts) {
        std::copy_n(x_in, part.x->values().size(), part.x->values().begin());
        x_in += static_cast<std::ptrdiff_t>(part.x->values().size());
    }
}

template <typename T>
index_type validate_assembly(const std::vector<assembly_part<T>>& parts)
{
    BATCHLIN_ENSURE_MSG(!parts.empty(), "nothing to solve");
    index_type total_items = 0;
    const index_type rows = rows_of(*parts.front().a);
    for (const assembly_part<T>& part : parts) {
        BATCHLIN_ENSURE_MSG(part.a != nullptr && part.b != nullptr &&
                                part.x != nullptr,
                            "assembly part missing an operand");
        BATCHLIN_ENSURE_MSG(can_coalesce(*parts.front().a, *part.a),
                            "assembly parts do not share format, "
                            "dimensions, and sparsity pattern");
        const index_type items = part.items();
        BATCHLIN_ENSURE_DIMS(part.b->num_batch_items() == items &&
                                 part.x->num_batch_items() == items,
                             "batch sizes of A, b, x must match");
        BATCHLIN_ENSURE_DIMS(part.b->rows() == rows &&
                                 part.x->rows() == rows &&
                                 part.b->cols() == 1 && part.x->cols() == 1,
                             "vector shapes must match the matrix order");
        total_items += items;
    }
    return total_items;
}

}  // namespace detail

template <typename T>
bool same_shape(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs)
{
    if (lhs.index() != rhs.index()) {
        return false;
    }
    return std::visit(
        [&](const auto& l) {
            using MatBatch = std::decay_t<decltype(l)>;
            return same_pattern(l, std::get<MatBatch>(rhs));
        },
        lhs);
}

template <typename T>
bool can_coalesce(const batch_matrix<T>& lhs, const batch_matrix<T>& rhs)
{
    // Mixing storage modes in one fused launch would force the gather to
    // re-convert values per solve; refuse instead.
    return storage_of(lhs) == storage_of(rhs) && same_shape(lhs, rhs);
}

log::batch_log split_log(const log::batch_log& combined, index_type offset,
                         index_type items)
{
    log::batch_log part;
    split_log_into(combined, offset, items, part);
    return part;
}

void split_log_into(const log::batch_log& combined, index_type offset,
                    index_type items, log::batch_log& out)
{
    BATCHLIN_ENSURE_DIMS(offset >= 0 && items >= 0 &&
                             offset + items <= combined.num_systems(),
                         "log slice out of range");
    if (out.num_systems() != items) {
        out = log::batch_log(items);
    }
    for (index_type i = 0; i < items; ++i) {
        out.record(i, combined.iterations(offset + i),
                   combined.residual_norm(offset + i),
                   combined.status(offset + i));
    }
}

template <typename T>
solve_result solve_coalesced(xpu::queue& q,
                             const std::vector<assembly_part<T>>& parts,
                             const solve_options& opts)
{
    BATCHLIN_ENSURE_MSG(!opts.record_history,
                        "per-iteration history is not supported for "
                        "coalesced solves");
    return detail::solve_assembled(
        parts, [&](const batch_matrix<T>& a, const mat::batch_dense<T>& b,
                   mat::batch_dense<T>& x) { return solve(q, a, b, x, opts); });
}

#define BATCHLIN_INSTANTIATE_ASSEMBLE(T)                                    \
    template bool same_shape<T>(const batch_matrix<T>&,                     \
                                const batch_matrix<T>&);                    \
    template bool can_coalesce<T>(const batch_matrix<T>&,                   \
                                  const batch_matrix<T>&);                  \
    template solve_result solve_coalesced<T>(                               \
        xpu::queue&, const std::vector<assembly_part<T>>&,                  \
        const solve_options&);                                              \
    template index_type detail::validate_assembly<T>(                       \
        const std::vector<assembly_part<T>>&);                              \
    template detail::assembled<T> detail::gather<T>(                        \
        const std::vector<assembly_part<T>>&, index_type);                  \
    template void detail::gather_into<T>(                                   \
        const std::vector<assembly_part<T>>&, batch_matrix<T>&,             \
        mat::batch_dense<T>&, mat::batch_dense<T>&);                        \
    template void detail::scatter<T>(const mat::batch_dense<T>&,            \
                                     const std::vector<assembly_part<T>>&); \
    template detail::assembled<T> detail::gather_items<T>(                  \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                 \
        const std::vector<index_type>&)

BATCHLIN_INSTANTIATE_ASSEMBLE(float);
BATCHLIN_INSTANTIATE_ASSEMBLE(double);

}  // namespace batchlin::solver
