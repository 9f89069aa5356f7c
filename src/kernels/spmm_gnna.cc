#include "kernels/spmm_gnna.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gpusim/context.hh"

namespace maxk
{

gpusim::KernelStats
spmmGnna(const CsrGraph &a, const EdgeGroupPartition &part, const Matrix &x,
         Matrix &y, const SimOptions &opt)
{
    checkInvariant(x.rows() == a.numNodes(), "spmmGnna: X row count != |V|");
    checkInvariant(part.covers(a), "spmmGnna: partition does not cover A");
    const std::size_t dim = x.cols();
    // ensureShape: a shape-matching relaunch must not reallocate or
    // double-fill (the setZero below is the only write before accumulate).
    y.ensureShape(a.numNodes(), dim);
    y.setZero();

    gpusim::KernelContext ctx(opt.device, "spmm_gnna", opt.simulateCaches);
    ctx.beginPhase("compute+accumulate");

    // EG-parallel with row-aligned chunk boundaries: all EGs of one
    // adjacency row stay in one chunk, so each output row has a single
    // writer accumulating in serial EG order (bitwise-identical result).
    const auto chunks = rowAlignedChunks(part.groups(), 32,
                                         resolveThreads(opt.threads));
    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange egs) {
        // Row accumulator held in double across all of a row's EGs (the
        // row-aligned chunks guarantee they share one chunk), flushed
        // with a single cast at the row's last EG — reference-order
        // numerics, so the result is bitwise-identical to spmmReference.
        std::vector<double> buf(dim);
        for (std::size_t gi = egs.begin; gi < egs.end; ++gi) {
            const EdgeGroup &eg = part.groups()[gi];
            const std::uint64_t warp = gi + 1; // serial loop pre-increments
            const bool first_eg_of_row = eg.begin == a.rowPtr()[eg.row];
            const bool last_eg_of_row = eg.end == a.rowPtr()[eg.row + 1];
            // Neighbour-group metadata (group descriptor: row id + extent).
            dev.globalReadStreaming(warp, &eg, sizeof(EdgeGroup));
            dev.globalReadStreaming(warp, &a.values()[eg.begin],
                                    (eg.end - eg.begin) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[eg.begin],
                                    (eg.end - eg.begin) * sizeof(NodeId));

            if (first_eg_of_row)
                std::fill(buf.begin(), buf.end(), 0.0);
            for (EdgeId e = eg.begin; e < eg.end; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                const Float *xr = x.row(j);
                dev.globalRead(warp, xr, dim * sizeof(Float));
                dev.flops(2 * dim);
                // Dense accumulation into the shared-memory staging
                // buffer: contiguous lanes, so it vectorises (4
                // elements/issue) — unlike the index-scattered
                // accumulation of SpGEMM.
                dev.sharedOps(dim / 4 + 1, dim * sizeof(Float));
                for (std::size_t d = 0; d < dim; ++d)
                    buf[d] += static_cast<double>(v) * xr[d];
            }

            // Atomic merge of the group's partial sum into global output;
            // groups beyond a row's first serialize on the same addresses.
            Float *yr = y.row(eg.row);
            if (last_eg_of_row)
                for (std::size_t d = 0; d < dim; ++d)
                    yr[d] = static_cast<Float>(buf[d]);
            dev.sharedOps(first_eg_of_row ? dim / 4 : 2 * dim, 0);
            dev.globalAtomicAccum(warp, yr, dim * sizeof(Float));
        }
    });
    return ctx.finish(kGnnaEfficiency);
}

} // namespace maxk
