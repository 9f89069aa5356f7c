#include "kernels/spmm_outer_naive.hh"

#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/transpose_gather.hh"
#include "gpusim/context.hh"

namespace maxk
{

gpusim::KernelStats
spmmOuterNaive(const CsrGraph &a, const Matrix &x, Matrix &y,
               const SimOptions &opt)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spmmOuterNaive: X row count != |V|");
    const std::size_t dim = x.cols();
    y.resize(a.numNodes(), dim);
    y.setZero();

    gpusim::KernelContext ctx(opt.device, "spmm_outer_naive",
                              opt.simulateCaches);
    ctx.beginPhase("compute+accumulate");

    // Scatter-shaped kernel: every source row writes arbitrary output
    // rows. The traffic walk (purely structural) shards over source
    // rows; the numeric side, when parallel, runs as a gather over the
    // stable transpose so each output element receives its
    // contributions in the exact serial edge order — bitwise-identical
    // results for any thread count. The single-chunk path keeps the
    // original fused loop.
    const auto chunks =
        splitRange(0, a.numNodes(), 16, resolveThreads(opt.threads));

    auto walk = [&](auto &dev, IndexRange rows, bool numeric) {
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            const NodeId i = static_cast<NodeId>(r);
            const std::uint64_t warp = r; // one warp per row, id == row
            const EdgeId begin = a.rowPtr()[i], end = a.rowPtr()[i + 1];
            if (begin == end)
                continue;
            dev.globalReadStreaming(warp, &a.values()[begin],
                                    (end - begin) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[begin],
                                    (end - begin) * sizeof(NodeId));
            const Float *xr = x.row(i);
            for (EdgeId e = begin; e < end; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                // No prefetch: the dense input row is re-read per nonzero.
                dev.globalRead(warp, xr, dim * sizeof(Float));
                dev.flops(2 * dim);
                Float *yr = y.row(j);
                if (numeric) {
                    for (std::size_t d = 0; d < dim; ++d)
                        yr[d] += v * xr[d];
                }
                // Full dense output row accumulated atomically in global
                // memory; every nonzero of column j contends on it.
                dev.sharedOps(dim, 0);
                dev.globalAtomicAccum(warp, yr, dim * sizeof(Float));
            }
        }
    };

    if (chunks.size() <= 1) {
        if (!chunks.empty())
            walk(ctx, chunks[0], true);
        return ctx.finish();
    }

    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange rows) {
        walk(dev, rows, false);
    });

    gatherTransposedDense(a, x, y, opt.threads);
    return ctx.finish();
}

} // namespace maxk
