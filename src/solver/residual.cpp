#include "solver/residual.hpp"

#include <cmath>

#include "util/error.hpp"

namespace batchlin::solver {

namespace {

// The one host residual row loop, per format: calls emit(i, r_i) for each
// row i of `item`, r_i = b_i - sum_k a_ik x_k accumulated in FP64 in
// storage order. Compressed (fp32) payloads widen on read.
template <typename T, typename Emit>
void residual_rows(const mat::batch_csr<T>& a, const mat::batch_dense<T>& b,
                   const mat::batch_dense<T>& x, index_type item, Emit&& emit)
{
    const bool compressed =
        a.storage_mode() == mat::storage_precision::fp32;
    const T* vals = compressed ? nullptr : a.item_values(item);
    const float* vals32 = compressed ? a.item_values_fp32(item) : nullptr;
    for (index_type i = 0; i < a.rows(); ++i) {
        double r = static_cast<double>(b.at(item, i, 0));
        for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1]; ++k) {
            const double v = compressed ? static_cast<double>(vals32[k])
                                        : static_cast<double>(vals[k]);
            r -= v * static_cast<double>(x.at(item, a.col_idxs()[k], 0));
        }
        emit(i, r);
    }
}

template <typename T, typename Emit>
void residual_rows(const mat::batch_ell<T>& a, const mat::batch_dense<T>& b,
                   const mat::batch_dense<T>& x, index_type item, Emit&& emit)
{
    for (index_type i = 0; i < a.rows(); ++i) {
        double r = static_cast<double>(b.at(item, i, 0));
        for (index_type k = 0; k < a.ell_width(); ++k) {
            const index_type col = a.col_at(i, k);
            if (col != mat::ell_padding) {
                r -= static_cast<double>(a.val_at(item, i, k)) *
                     static_cast<double>(x.at(item, col, 0));
            }
        }
        emit(i, r);
    }
}

template <typename T, typename Emit>
void residual_rows(const mat::batch_dense<T>& a,
                   const mat::batch_dense<T>& b,
                   const mat::batch_dense<T>& x, index_type item, Emit&& emit)
{
    for (index_type i = 0; i < a.rows(); ++i) {
        double r = static_cast<double>(b.at(item, i, 0));
        for (index_type j = 0; j < a.cols(); ++j) {
            r -= static_cast<double>(a.at(item, i, j)) *
                 static_cast<double>(x.at(item, j, 0));
        }
        emit(i, r);
    }
}

/// Per-item ||b - A x||; when `r` is given, also stores the residual
/// vector at T and takes the norm of the stored values.
template <typename T>
std::vector<double> residual_pass(const batch_matrix<T>& a,
                                  const mat::batch_dense<T>& b,
                                  const mat::batch_dense<T>& x,
                                  mat::batch_dense<T>* r)
{
    const index_type items = items_of(a);
    BATCHLIN_ENSURE_DIMS(b.num_batch_items() == items &&
                             x.num_batch_items() == items,
                         "batch sizes must match");
    std::vector<double> norms(static_cast<std::size_t>(items), 0.0);
    std::visit(
        [&](const auto& m) {
#pragma omp parallel for schedule(static)
            for (index_type item = 0; item < items; ++item) {
                double sq = 0.0;
                residual_rows(m, b, x, item, [&](index_type i, double ri) {
                    if (r != nullptr) {
                        r->at(item, i, 0) = static_cast<T>(ri);
                        ri = static_cast<double>(r->at(item, i, 0));
                    }
                    sq += ri * ri;
                });
                norms[static_cast<std::size_t>(item)] = std::sqrt(sq);
            }
        },
        a);
    return norms;
}

}  // namespace

template <typename T>
std::vector<double> residual_norms(const batch_matrix<T>& a,
                                   const mat::batch_dense<T>& b,
                                   const mat::batch_dense<T>& x)
{
    return residual_pass<T>(a, b, x, nullptr);
}

template <typename T>
std::vector<double> residual_vectors(const batch_matrix<T>& a,
                                     const mat::batch_dense<T>& b,
                                     const mat::batch_dense<T>& x,
                                     mat::batch_dense<T>& r)
{
    return residual_pass(a, b, x, &r);
}

template <typename T>
std::vector<double> item_norms(const mat::batch_dense<T>& v)
{
    std::vector<double> norms(static_cast<std::size_t>(v.num_batch_items()));
    for (index_type item = 0; item < v.num_batch_items(); ++item) {
        double sq = 0.0;
        const T* vals = v.item_values(item);
        for (size_type k = 0; k < v.item_size(); ++k) {
            const double e = static_cast<double>(vals[k]);
            sq += e * e;
        }
        norms[static_cast<std::size_t>(item)] = std::sqrt(sq);
    }
    return norms;
}

template <typename T>
std::vector<double> relative_residual_norms(const batch_matrix<T>& a,
                                            const mat::batch_dense<T>& b,
                                            const mat::batch_dense<T>& x)
{
    std::vector<double> res = residual_norms(a, b, x);
    const std::vector<double> bnorms = item_norms(b);
    for (std::size_t item = 0; item < res.size(); ++item) {
        if (bnorms[item] > 0.0) {
            res[item] /= bnorms[item];
        }
    }
    return res;
}

#define BATCHLIN_INSTANTIATE_RESIDUAL(T)                                   \
    template std::vector<double> residual_norms<T>(                        \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                \
        const mat::batch_dense<T>&);                                       \
    template std::vector<double> residual_vectors<T>(                      \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                \
        const mat::batch_dense<T>&, mat::batch_dense<T>&);                 \
    template std::vector<double> item_norms<T>(                            \
        const mat::batch_dense<T>&);                                       \
    template std::vector<double> relative_residual_norms<T>(               \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                \
        const mat::batch_dense<T>&)

BATCHLIN_INSTANTIATE_RESIDUAL(float);
BATCHLIN_INSTANTIATE_RESIDUAL(double);

}  // namespace batchlin::solver
