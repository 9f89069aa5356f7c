#include "core/maxk.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gpusim/context.hh"

namespace maxk
{

namespace
{

/** Rows per chunk for the row-parallel loops: small enough that the
 *  unit-test graphs (128 rows) still fan out across 8 workers. */
constexpr std::size_t kRowGrain = 16;

/**
 * Top-k selection over a row containing non-finite values. Ordering:
 * +inf always wins, finite values rank by magnitude (bisection), -inf
 * ranks below every finite value, and NaN sorts last — it is selected
 * only when k exceeds the count of all non-NaN entries. Ties resolve in
 * ascending column order throughout, like the finite path.
 */
std::uint32_t
pivotSelectNonFinite(const Float *row, std::uint32_t n, std::uint32_t k,
                     bool any_finite, Float lo, Float hi,
                     std::vector<std::uint32_t> &selected)
{
    std::vector<char> keep(n, 0);
    std::uint32_t remaining = k;
    std::uint32_t iterations = 0;

    // 1) +inf, ascending column order.
    for (std::uint32_t i = 0; i < n && remaining > 0; ++i) {
        if (std::isinf(row[i]) && row[i] > 0.0f) {
            keep[i] = 1;
            --remaining;
        }
    }

    // 2) Top-`remaining` finite values — the finite-path bisection with
    //    every count restricted to finite entries.
    std::uint32_t n_fin = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        n_fin += std::isfinite(row[i]) ? 1 : 0;
    if (remaining >= n_fin) {
        for (std::uint32_t i = 0; i < n; ++i)
            if (std::isfinite(row[i]))
                keep[i] = 1;
        remaining -= n_fin;
    } else if (remaining > 0 && any_finite) {
        auto count_above = [&](Float pivot) {
            std::uint32_t c = 0;
            for (std::uint32_t i = 0; i < n; ++i)
                c += (std::isfinite(row[i]) && row[i] > pivot) ? 1 : 0;
            return c;
        };
        Float flo =
            std::nextafter(lo, -std::numeric_limits<Float>::infinity());
        Float fhi = hi;
        bool exact = false;
        Float threshold = fhi;
        for (std::uint32_t it = 0; it < 48; ++it) {
            const Float mid = 0.5f * (flo + fhi);
            if (!(mid > flo) || !(mid < fhi))
                break;
            ++iterations;
            const std::uint32_t c = count_above(mid);
            if (c == remaining) {
                threshold = mid;
                exact = true;
                break;
            }
            if (c > remaining)
                flo = mid;
            else
                fhi = mid;
        }
        if (!exact)
            threshold = fhi;

        std::uint32_t above = count_above(threshold);
        std::uint32_t need_ties = remaining - above;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!std::isfinite(row[i]))
                continue;
            if (row[i] > threshold) {
                keep[i] = 1;
            } else if (need_ties > 0 && row[i] > flo) {
                keep[i] = 1;
                --need_ties;
            }
        }
        remaining = 0;
    }

    // 3) -inf, then 4) NaN, each in ascending column order.
    for (std::uint32_t i = 0; i < n && remaining > 0; ++i) {
        if (std::isinf(row[i]) && row[i] < 0.0f && !keep[i]) {
            keep[i] = 1;
            --remaining;
        }
    }
    for (std::uint32_t i = 0; i < n && remaining > 0; ++i) {
        if (std::isnan(row[i])) {
            keep[i] = 1;
            --remaining;
        }
    }

    for (std::uint32_t i = 0; i < n; ++i)
        if (keep[i])
            selected.push_back(i);
    return iterations;
}

} // namespace

std::uint32_t
pivotSelect(const Float *row, std::uint32_t n, std::uint32_t k,
            std::vector<std::uint32_t> &selected)
{
    selected.clear();
    checkInvariant(k >= 1 && k <= n, "pivotSelect: need 1 <= k <= n");

    if (k == n) {
        for (std::uint32_t i = 0; i < n; ++i)
            selected.push_back(i);
        return 0;
    }

    // One classification sweep replaces the plain min/max scan: lo/hi
    // cover only finite entries, and the non-finite counts route rows
    // containing NaN/±inf (which break the bisection invariant) to the
    // explicit-ordering fallback.
    std::uint32_t n_nonfinite = 0;
    bool any_finite = false;
    Float lo = 0.0f, hi = 0.0f;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Float v = row[i];
        if (std::isfinite(v)) {
            if (!any_finite) {
                lo = hi = v;
                any_finite = true;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        } else {
            ++n_nonfinite;
        }
    }
    if (n_nonfinite > 0) {
        const std::uint32_t iters = pivotSelectNonFinite(
            row, n, k, any_finite, lo, hi, selected);
        checkInvariant(selected.size() == k,
                       "pivotSelect: did not select exactly k elements");
        return iters;
    }

    auto count_above = [&](Float pivot) {
        std::uint32_t c = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            c += row[i] > pivot ? 1 : 0;
        return c;
    };

    // Bisection invariant: count(> flo) >= k >= count(> fhi).
    // flo starts just below min (count = n >= k); fhi at max (count = 0).
    Float flo = std::nextafter(lo, -std::numeric_limits<Float>::infinity());
    Float fhi = hi;
    std::uint32_t iterations = 0;
    bool exact = false;
    Float threshold = fhi;
    for (std::uint32_t it = 0; it < 48; ++it) {
        const Float mid = 0.5f * (flo + fhi);
        if (!(mid > flo) || !(mid < fhi))
            break; // float precision exhausted: tie region reached
        ++iterations;
        const std::uint32_t c = count_above(mid);
        if (c == k) {
            threshold = mid;
            exact = true;
            break;
        }
        if (c > k)
            flo = mid;
        else
            fhi = mid;
    }
    if (!exact)
        threshold = fhi;

    // All strictly-above survivors first (<= k of them by the invariant),
    // then fill remaining slots with tie values in (flo, threshold] in
    // ascending column order — deterministic tie breaking.
    std::uint32_t above = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        above += row[i] > threshold ? 1 : 0;
    std::uint32_t need_ties = k - above;

    for (std::uint32_t i = 0; i < n; ++i) {
        if (row[i] > threshold) {
            selected.push_back(i);
        } else if (need_ties > 0 && row[i] > flo) {
            selected.push_back(i);
            --need_ties;
        }
    }
    checkInvariant(selected.size() == k,
                   "pivotSelect: did not select exactly k elements");
    return iterations;
}

MaxKResult
maxkCompress(const Matrix &x, std::uint32_t k, const SimOptions &opt)
{
    MaxKResult result;
    maxkCompress(x, k, opt, result);
    return result;
}

void
maxkCompress(const Matrix &x, std::uint32_t k, const SimOptions &opt,
             MaxKResult &result)
{
    checkInvariant(k >= 1 && k <= x.cols(),
                   "maxkCompress: need 1 <= k <= dimOrigin");
    const NodeId n = static_cast<NodeId>(x.rows());
    const std::uint32_t dim = static_cast<std::uint32_t>(x.cols());

    result.cbsr.ensureShape(n, k, dim);
    result.maxPivotIterations = 0;
    result.avgPivotIterations = 0.0;

    gpusim::KernelContext ctx(opt.device, "maxk_select",
                              opt.simulateCaches);
    ctx.beginPhase("select+compress");

    const auto chunks =
        splitRange(0, n, kRowGrain, resolveThreads(opt.threads));
    std::vector<std::uint64_t> chunk_iters(chunks.size(), 0);
    std::vector<std::uint32_t> chunk_max(chunks.size(), 0);

    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t tid,
                                        IndexRange rows) {
        std::vector<std::uint32_t> selected;
        std::uint64_t total_iters = 0;
        std::uint32_t max_iters = 0;
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            const std::uint64_t warp = r; // one warp per row, id == row
            const Float *row = x.row(r);
            // Buffer the row in shared memory (coalesced read), then run
            // the pivot search entirely on-chip.
            dev.globalRead(warp, row, dim * sizeof(Float));
            dev.sharedOps(dim, dim * sizeof(Float));

            const std::uint32_t iters = pivotSelect(row, dim, k, selected);
            total_iters += iters;
            max_iters = std::max(max_iters, iters);
            // Each bisection pass re-scans the buffered row on-chip.
            // These are warp-wide vectorised shared loads (all 32 lanes
            // count in parallel), which retire ~20x faster than the
            // scalar scatter/atomic ops the sharedOps counter is
            // calibrated for.
            dev.sharedOps(std::uint64_t(iters + 1) * dim / 20, 0);
            dev.flops(std::uint64_t(iters + 1) * dim);

            Float *data = result.cbsr.dataRow(static_cast<NodeId>(r));
            for (std::uint32_t kk = 0; kk < k; ++kk) {
                data[kk] = row[selected[kk]];
                result.cbsr.setIndex(static_cast<NodeId>(r), kk,
                                     selected[kk]);
            }
            dev.globalWrite(warp, data, result.cbsr.dataRowBytes());
            dev.globalWrite(warp,
                            result.cbsr.indexRowAddr(
                                static_cast<NodeId>(r)),
                            result.cbsr.indexRowBytes());
        }
        chunk_iters[tid] = total_iters;
        chunk_max[tid] = max_iters;
    });

    std::uint64_t total_iters = 0;
    for (std::size_t t = 0; t < chunks.size(); ++t) {
        total_iters += chunk_iters[t];
        result.maxPivotIterations =
            std::max(result.maxPivotIterations, chunk_max[t]);
    }
    result.avgPivotIterations =
        n ? static_cast<double>(total_iters) / n : 0.0;
    result.stats = ctx.finish();
}

void
maxkDense(const Matrix &x, std::uint32_t k, Matrix &out)
{
    out.ensureShape(x.rows(), x.cols());
    out.setZero();
    parallelFor(0, x.rows(), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    std::vector<std::uint32_t> selected;
                    for (std::size_t r = begin; r < end; ++r) {
                        pivotSelect(x.row(r),
                                    static_cast<std::uint32_t>(x.cols()),
                                    k, selected);
                        for (std::uint32_t idx : selected)
                            out.at(r, idx) = x.at(r, idx);
                    }
                });
}

void
maxkBackwardDense(const Matrix &forward_input, std::uint32_t k,
                  const Matrix &grad_out, Matrix &grad_in)
{
    checkInvariant(forward_input.rows() == grad_out.rows() &&
                       forward_input.cols() == grad_out.cols(),
                   "maxkBackwardDense: shape mismatch");
    grad_in.ensureShape(grad_out.rows(), grad_out.cols());
    grad_in.setZero();
    parallelFor(
        0, forward_input.rows(), kRowGrain,
        [&](std::uint32_t, std::size_t begin, std::size_t end) {
            std::vector<std::uint32_t> selected;
            for (std::size_t r = begin; r < end; ++r) {
                pivotSelect(forward_input.row(r),
                            static_cast<std::uint32_t>(
                                forward_input.cols()),
                            k, selected);
                for (std::uint32_t idx : selected)
                    grad_in.at(r, idx) = grad_out.at(r, idx);
            }
        });
}

} // namespace maxk
