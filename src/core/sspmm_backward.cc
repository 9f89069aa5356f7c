#include "core/sspmm_backward.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/transpose_gather.hh"
#include "gpusim/context.hh"

namespace maxk
{

gpusim::KernelStats
sspmmBackward(const CsrGraph &a, const EdgeGroupPartition &part,
              const Matrix &dxl, CbsrMatrix &dxs, const SimOptions &opt)
{
    checkInvariant(dxl.rows() == a.numNodes(),
                   "sspmmBackward: dXl row count != |V|");
    checkInvariant(dxs.rows() == a.numNodes(),
                   "sspmmBackward: dXs row count != |V|");
    checkInvariant(dxs.dimOrigin() == dxl.cols(),
                   "sspmmBackward: dimOrigin mismatch");
    checkInvariant(part.covers(a),
                   "sspmmBackward: partition does not cover A");

    const std::uint32_t dim_k = dxs.dimK();
    const std::uint32_t dim_origin = dxs.dimOrigin();
    dxs.zeroData();

    gpusim::KernelContext ctx(opt.device, "sspmm_backward",
                              opt.simulateCaches);
    const std::uint32_t egs_per_warp =
        EdgeGroupPartition::egsPerWarp(dim_k);

    // In-degrees decide output atomic contention: sp_data[j] receives
    // one RMW per in-edge of j; only rows with >1 writer serialize.
    std::vector<EdgeId> in_deg(a.numNodes(), 0);
    for (NodeId c : a.colIdx())
        ++in_deg[c];

    // Scatter-shaped kernel: EGs of source row i write dxs rows of
    // arbitrary destinations j. The traffic walk (purely structural)
    // shards over row-aligned EG chunks — alignment keeps the per-row
    // dense-gradient prefetch inside one chunk, so the recorded
    // prefetch sequence matches the serial sweep. The numeric side,
    // when parallel, runs as a gather over the stable transpose so each
    // sp_data element folds its contributions in the exact serial edge
    // order — bitwise-identical for any thread count. The single-chunk
    // path keeps the original fused loop.
    const auto chunks = rowAlignedChunks(part.groups(), 32,
                                         resolveThreads(opt.threads));

    auto walk = [&](auto &dev, IndexRange egs, bool numeric) {
        // All EGs of one adjacency row share a thread block, so the
        // dense gradient row is prefetched into shared memory once per
        // row — the 4*N*dimOrigin read term of Sec. 4.3. EGs are
        // emitted row-contiguous by the partitioner, so tracking the
        // last row suffices.
        std::vector<Float> buf(dim_origin);
        bool have_row = false;
        NodeId buffered_row = 0;
        std::vector<const void *> gather_addrs(dim_k);
        for (std::size_t gi = egs.begin; gi < egs.end; ++gi) {
            const EdgeGroup &eg = part.groups()[gi];
            const std::uint64_t warp = gi / egs_per_warp;
            const Float *dense_row = dxl.row(eg.row);

            if (opt.sspmmPrefetch &&
                (!have_row || buffered_row != eg.row)) {
                dev.usePhase("prefetch");
                dev.globalRead(warp, dense_row,
                               dim_origin * sizeof(Float));
                dev.sharedOps(dim_origin, dim_origin * sizeof(Float));
                if (numeric)
                    std::copy(dense_row, dense_row + dim_origin,
                              buf.begin());
                have_row = true;
                buffered_row = eg.row;
            }

            dev.usePhase("compute+accumulate");
            dev.globalReadStreaming(warp, &a.values()[eg.begin],
                                    (eg.end - eg.begin) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[eg.begin],
                                    (eg.end - eg.begin) * sizeof(NodeId));

            for (EdgeId e = eg.begin; e < eg.end; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                // sp_index fetch: coalesced global read.
                dev.globalRead(warp, dxs.indexRowAddr(j),
                               dxs.indexRowBytes());
                dev.flops(2ull * dim_k);
                Float *out = dxs.dataRow(j);
                if (opt.sspmmPrefetch) {
                    // Irregular gather happens inside shared memory
                    // (Algorithm 2 line 9) — the point of the prefetch.
                    dev.sharedOps(dim_k, dim_k * sizeof(Float));
                    if (numeric) {
                        for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                            out[kk] += v * buf[dxs.indexAt(j, kk)];
                    }
                } else {
                    // Ablation: gather the dense gradient row straight
                    // from global memory through sp_index — uncoalesced.
                    for (std::uint32_t kk = 0; kk < dim_k; ++kk) {
                        const std::uint32_t col = dxs.indexAt(j, kk);
                        gather_addrs[kk] = dense_row + col;
                        if (numeric)
                            out[kk] += v * dense_row[col];
                    }
                    dev.globalReadScattered(warp, gather_addrs.data(),
                                            dim_k, sizeof(Float));
                }
                // Coalesced atomic accumulation of the dim_k-wide
                // result; contended rows (in-degree > 1) pay serialized
                // RMW issue.
                dev.sharedOps(in_deg[j] > 1 ? dim_k : dim_k / 4 + 1, 0);
                dev.globalAtomicAccum(warp, out, dxs.dataRowBytes());
            }
        }
    };

    if (chunks.size() <= 1) {
        if (!chunks.empty())
            walk(ctx, chunks[0], true);
        return ctx.finish();
    }

    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange egs) {
        walk(dev, egs, false);
    });

    // Numeric side: bitwise-deterministic gather over the stable
    // transpose (see core/transpose_gather.hh). Reads dxl directly —
    // the same values the serial loop's prefetch buffer (or the
    // no-prefetch ablation) consumed.
    gatherTransposedCbsr(a, dxl, dxs, opt.threads);
    return ctx.finish();
}

} // namespace maxk
