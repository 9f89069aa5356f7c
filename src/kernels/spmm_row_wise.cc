#include "kernels/spmm_row_wise.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gpusim/context.hh"

namespace maxk
{

gpusim::KernelStats
spmmRowWise(const CsrGraph &a, const Matrix &x, Matrix &y,
            const SimOptions &opt)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spmmRowWise: X row count != |V|");
    const std::size_t dim = x.cols();
    // ensureShape: every row (empty ones included) stores its full
    // output slice below, so a shape-matching relaunch neither
    // reallocates nor pre-zeroes.
    y.ensureShape(a.numNodes(), dim);

    gpusim::KernelContext ctx(opt.device, "spmm_row_wise",
                              opt.simulateCaches);
    ctx.beginPhase("compute");

    // Row-parallel: each output row is owned by exactly one chunk, so
    // the numeric path needs no reduction and matches the serial sweep
    // bitwise; accounting shards replay in row order.
    const auto chunks =
        splitRange(0, a.numNodes(), 16, resolveThreads(opt.threads));
    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange rows) {
        std::vector<double> acc(dim);
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            const NodeId i = static_cast<NodeId>(r);
            const std::uint64_t warp = r; // one warp per row, id == row
            const EdgeId begin = a.rowPtr()[i], end = a.rowPtr()[i + 1];
            if (begin == end) {
                // Row of zeros still writes its (zero) output slice.
                Float *yr = y.row(i);
                for (std::size_t d = 0; d < dim; ++d)
                    yr[d] = 0.0f;
                dev.globalWrite(warp, y.row(i), dim * sizeof(Float));
                continue;
            }

            // CSR metadata for the row: edge values + column indices.
            dev.globalReadStreaming(warp, &a.values()[begin],
                                    (end - begin) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[begin],
                                    (end - begin) * sizeof(NodeId));

            std::fill(acc.begin(), acc.end(), 0.0);
            for (EdgeId e = begin; e < end; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                const Float *xr = x.row(j);
                // Full dense row fetch per nonzero: the 4*dim*nnz term.
                dev.globalRead(warp, xr, dim * sizeof(Float));
                dev.flops(2 * dim);
                for (std::size_t d = 0; d < dim; ++d)
                    acc[d] += static_cast<double>(v) * xr[d];
            }

            Float *yr = y.row(i);
            for (std::size_t d = 0; d < dim; ++d)
                yr[d] = static_cast<Float>(acc[d]);
            dev.globalWrite(warp, yr, dim * sizeof(Float));
        }
    });
    return ctx.finish();
}

} // namespace maxk
