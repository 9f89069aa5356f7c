#include "layers.hh"

#include <algorithm>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "graph/edge_groups.hh"
#include "graph/partition.hh"
#include "kernels/spmm_ref.hh"
#include "nn/gnn_layer.hh"
#include "nn/trainer.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

double
PhaseTotals::agg() const
{
    double s = 0.0;
    for (std::uint32_t l = 0; l < kLayerSlots; ++l)
        s += fwdCombine[l] + bwdAgg[l];
    return s;
}

double
PhaseTotals::linear() const
{
    double s = 0.0;
    for (std::uint32_t l = 0; l < kLayerSlots; ++l)
        s += fwdCompute[l] + bwdPost[l];
    return s;
}

PhaseTotals &
PhaseTotals::operator+=(const PhaseTotals &o)
{
    for (std::uint32_t l = 0; l < kLayerSlots; ++l) {
        fwdCompute[l] += o.fwdCompute[l];
        fwdCombine[l] += o.fwdCombine[l];
        bwdAgg[l] += o.bwdAgg[l];
        bwdPost[l] += o.bwdPost[l];
    }
    loss += o.loss;
    optim += o.optim;
    return *this;
}

PhaseTotals
PhaseTotals::scaled(double f) const
{
    PhaseTotals t;
    for (std::uint32_t l = 0; l < kLayerSlots; ++l) {
        t.fwdCompute[l] = fwdCompute[l] * f;
        t.fwdCombine[l] = fwdCombine[l] * f;
        t.bwdAgg[l] = bwdAgg[l] * f;
        t.bwdPost[l] = bwdPost[l] * f;
    }
    t.loss = loss * f;
    t.optim = optim * f;
    return t;
}

namespace
{

std::string
layerSpan(std::size_t l, const char *phase)
{
    return "nn.L" + std::to_string(l) + "." + phase;
}

/** Slot of layer l (deeper layers than the slots fold into the last). */
std::size_t
slot(std::size_t l)
{
    return std::min<std::size_t>(l, kLayerSlots - 1);
}

} // namespace

const Matrix &
PhaseReplay::forward(nn::GnnModel &model, const CsrGraph &a, const Matrix &x,
                     bool training, const Seam &seam)
{
    auto &layers = model.layers();
    outs_.resize(layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
        nn::GnnLayer &layer = layers[l];
        const Matrix &in = l == 0 ? x : outs_[l - 1];
        {
            Scope s(tracer_, layerSpan(l, "fwd_compute"), lane_,
                    &totals_.fwdCompute[slot(l)]);
            layer.forwardCompute(in, training, model.dropoutRng());
        }
        if (seam) {
            Scope s(tracer_, "dist.exchange", lane_);
            seam(layer);
        }
        {
            Scope s(tracer_, layerSpan(l, "fwd_combine"), lane_,
                    &totals_.fwdCombine[slot(l)]);
            layer.forwardCombine(a, outs_[l]);
        }
    }
    return outs_.back();
}

void
PhaseReplay::backward(nn::GnnModel &model, const CsrGraph &a,
                      const Matrix &grad, const Seam &seam)
{
    auto &layers = model.layers();
    const Matrix *upstream = &grad;
    for (std::size_t l = layers.size(); l-- > 0;) {
        nn::GnnLayer &layer = layers[l];
        {
            Scope s(tracer_, layerSpan(l, "bwd_agg"), lane_,
                    &totals_.bwdAgg[slot(l)]);
            layer.backwardAgg(a, *upstream);
        }
        if (seam) {
            Scope s(tracer_, "dist.exchange", lane_);
            seam(layer);
        }
        {
            Scope s(tracer_, layerSpan(l, "bwd_post"), lane_,
                    &totals_.bwdPost[slot(l)]);
            layer.backwardPost(a, *upstream, gradPrev_);
        }
        std::swap(gradCur_, gradPrev_);
        upstream = &gradCur_;
    }
}

TracedEpochs
traceEpochs(Tracer &tracer, std::uint32_t lane,
            const std::function<void()> &epoch)
{
    TracedEpochs out;
    for (int i = 0; i < kTracedEpochs; ++i) {
        double ms = 0.0;
        {
            Scope s(tracer, "bench.epoch", lane, &ms);
            out.spans.push_back(s.id());
            epoch();
        }
        out.ms.push_back(ms);
    }
    return out;
}

void
reportTraceQuality(Sheet &sheet, const Tracer &tracer,
                   const TracedEpochs &traced, double untraced_epoch_s)
{
    double wall_ms = 0.0, covered_ms = 0.0;
    for (std::size_t i = 0; i < traced.spans.size(); ++i) {
        wall_ms += traced.ms[i];
        covered_ms += tracer.childrenMs(traced.spans[i]);
    }
    sheet.set("trace.overhead",
              median(traced.ms) / (untraced_epoch_s * 1e3) - 1.0, "ratio");
    sheet.set("trace.coverage", covered_ms / wall_ms, "ratio");
}

void
reportPhases(Sheet &sheet, const PhaseTotals &t)
{
    for (std::uint32_t l = 0; l < kLayerSlots; ++l) {
        const std::string p = "nn.L" + std::to_string(l) + ".";
        sheet.set(p + "fwd_compute_ms", t.fwdCompute[l], "ms");
        sheet.set(p + "fwd_combine_ms", t.fwdCombine[l], "ms");
        sheet.set(p + "bwd_agg_ms", t.bwdAgg[l], "ms");
        sheet.set(p + "bwd_post_ms", t.bwdPost[l], "ms");
    }
    sheet.set("nn.loss_ms", t.loss, "ms");
    sheet.set("nn.optim_ms", t.optim, "ms");
}

namespace
{

/** Thread count of the parallel side of nn.agg_*_scaling; its 1-thread
 *  side is nn.agg_*_ms, timed at the workloads' thread count. */
constexpr std::uint32_t kScalingThreads = 4;
static_assert(kWorkloadThreads == 1);

/**
 * Median per-call milliseconds of fn(), repeated until 0.25 s passed
 * and at least 3 calls ran (one untimed warm-up call first).
 */
double
timeCallMs(const std::function<void()> &fn)
{
    constexpr double kBudgetS = 0.25;
    constexpr std::size_t kMinReps = 3;
    fn();
    std::vector<double> ms;
    const auto t0 = Clock::now();
    while (ms.size() < kMinReps || secondsSince(t0) < kBudgetS) {
        const auto c0 = Clock::now();
        fn();
        ms.push_back(secondsSince(c0) * 1e3);
    }
    return median(ms);
}

void
probeAggregation(Sheet &sheet, const CsrGraph &a, const Matrix &h,
                 const CbsrMatrix &hs)
{
    const double n = a.numNodes();
    const double e = static_cast<double>(a.numEdges());
    const double d = static_cast<double>(h.cols());
    const double k = hs.dimK();
    // Computed traffic: CSR arrays once, one gathered source row per
    // edge, one written output row per node.
    const double csr_bytes = 8.0 * (n + 1) + 8.0 * e;
    const double dense_bytes = csr_bytes + 4.0 * e * d + 4.0 * n * d;
    const double cbsr_fwd_bytes =
        csr_bytes + e * k * (4.0 + hs.indexBytes()) + 4.0 * n * d;
    const double cbsr_bwd_bytes =
        csr_bytes + 4.0 * e * k + n * k * (4.0 + hs.indexBytes());

    Matrix y;
    CbsrMatrix dxs;
    dxs.adoptPattern(hs);

    struct Probe
    {
        const char *name;
        double bytes;
        std::function<void()> run;
    };
    const std::vector<Probe> probes = {
        {"nn.agg_dense", dense_bytes,
         [&] { nn::aggregateDense(a, h, y); }},
        {"nn.agg_dense_t", dense_bytes,
         [&] { nn::aggregateDenseTransposed(a, h, y); }},
        {"nn.agg_cbsr", cbsr_fwd_bytes,
         [&] { nn::aggregateCbsr(a, hs, y); }},
        {"nn.agg_cbsr_bwd", cbsr_bwd_bytes,
         [&] { nn::aggregateCbsrBackward(a, h, dxs); }},
    };
    for (const Probe &p : probes) {
        const double ms = timeCallMs(p.run);
        setDefaultThreads(kScalingThreads);
        const double parallel_ms = timeCallMs(p.run);
        setDefaultThreads(kWorkloadThreads);
        const std::string name = p.name;
        sheet.set(name + "_ms", ms, "ms");
        sheet.set(name + "_gbps", p.bytes / (ms * 1e-3) / 1e9, "GB/s");
        sheet.set(name + "_scaling", ms / parallel_ms, "ratio");
    }
}

void
probeGemm(Sheet &sheet, std::size_t rows, std::size_t dim,
          std::uint64_t seed)
{
    Rng rng(rngKey(seed, 0x6E33ull, 1));
    Matrix x(rows, dim), w(dim, dim), y, dw, dx;
    fillNormal(x, rng, 0.0f, 1.0f);
    fillNormal(w, rng, 0.0f, 0.1f);
    const double flop = 2.0 * static_cast<double>(rows) * dim * dim;
    const auto gflops = [&](double ms) { return flop / (ms * 1e-3) / 1e9; };
    sheet.set("tensor.gemm_gflops",
              gflops(timeCallMs([&] { gemm(x, w, y); })), "GFLOP/s");
    sheet.set("tensor.gemm_ta_gflops",
              gflops(timeCallMs([&] { gemmTransA(x, y, dw); })), "GFLOP/s");
    sheet.set("tensor.gemm_tb_gflops",
              gflops(timeCallMs([&] { gemmTransB(y, w, dx); })), "GFLOP/s");
}

double
probeNonlinearity(Sheet &sheet, std::size_t rows, std::size_t dim,
                  std::uint32_t k, std::uint64_t seed)
{
    Rng rng(rngKey(seed, 0x6E33ull, 2));
    Matrix y(rows, dim), h;
    fillNormal(y, rng, 0.0f, 1.0f);
    CbsrMatrix out;
    sheet.set("core.maxk_compress_ms",
              timeCallMs([&] { nn::maxkCompressFast(y, k, out); }), "ms");
    return timeCallMs([&] { reluForward(y, h); });
}

void
probeSimulated(Sheet &sheet, const nn::ModelConfig &cfg, const CsrGraph &a,
               const PhaseTotals &host_step, double host_nonlin_ms)
{
    SimOptions opt;
    opt.simulateCaches = false;
    const EdgeGroupPartition part =
        EdgeGroupPartition::build(a, opt.workloadCap);
    const nn::EpochTiming t = nn::profileEpoch(cfg, a, part, opt);
    sheet.set("sim.agg_fwd_ms", t.aggFwd * 1e3, "ms");
    sheet.set("sim.agg_bwd_ms", t.aggBwd * 1e3, "ms");
    sheet.set("sim.linear_ms", t.linear * 1e3, "ms");
    sheet.set("sim.nonlin_ms", t.nonlin * 1e3, "ms");
    sheet.set("sim.other_ms", t.other * 1e3, "ms");
    const auto ratio = [](double host_ms, double sim_s) {
        return sim_s > 0.0 ? host_ms / (sim_s * 1e3) : 0.0;
    };
    sheet.set("host_over_sim.agg",
              ratio(host_step.agg(), t.aggFwd + t.aggBwd), "ratio");
    sheet.set("host_over_sim.linear",
              ratio(std::max(0.0, host_step.linear() - host_nonlin_ms),
                    t.linear),
              "ratio");
    sheet.set("host_over_sim.nonlin", ratio(host_nonlin_ms, t.nonlin),
              "ratio");
}

} // namespace

void
checkAggregation(Sheet &sheet, const CsrGraph &a, const Activation &act)
{
    constexpr double kTol = 1e-4;
    const Matrix &h = act.dense;
    const CbsrMatrix &hs = act.cbsr;
    Matrix y, y_ref, hs_dense;
    nn::aggregateDense(a, h, y);
    spmmReference(a, h, y_ref);
    sheet.attempt(maxRelDiff(y, y_ref) <= kTol,
                  "aggregateDense != spmmReference");
    nn::aggregateDenseTransposed(a, h, y);
    spmmTransposedReference(a, h, y_ref);
    sheet.attempt(maxRelDiff(y, y_ref) <= kTol,
                  "aggregateDenseTransposed != spmmTransposedReference");
    hs.decompress(hs_dense);
    nn::aggregateCbsr(a, hs, y);
    spmmReference(a, hs_dense, y_ref);
    sheet.attempt(maxRelDiff(y, y_ref) <= kTol,
                  "aggregateCbsr != spmmReference(decompressed)");
    // SSpMM: A^T * h sampled at the forward pattern.
    CbsrMatrix dxs;
    dxs.adoptPattern(hs);
    nn::aggregateCbsrBackward(a, h, dxs);
    spmmTransposedReference(a, h, y_ref);
    Matrix want(hs.rows(), hs.dimK()), got(hs.rows(), hs.dimK());
    for (NodeId r = 0; r < hs.rows(); ++r)
        for (std::uint32_t kk = 0; kk < hs.dimK(); ++kk) {
            want.at(r, kk) = y_ref.at(r, hs.indexAt(r, kk));
            got.at(r, kk) = dxs.dataRow(r)[kk];
        }
    sheet.attempt(maxRelDiff(got, want) <= kTol,
                  "aggregateCbsrBackward != sampled spmmTransposedReference");
}

void
checkAggregationSample(Sheet &sheet, const nn::ModelConfig &cfg,
                       const CsrGraph &g, std::uint64_t seed)
{
    // The lowest ids hold the hubs of both generators, so the induced
    // subgraph keeps the skewed rows.
    constexpr NodeId kNodes = 512;
    std::vector<NodeId> nodes(std::min(kNodes, g.numNodes()));
    for (NodeId v = 0; v < nodes.size(); ++v)
        nodes[v] = v;
    const CsrGraph sub = extractSubgraph(g, nodes);
    Rng rng(rngKey(seed, 0x6E33ull, 3));
    Activation act;
    act.dense.resize(sub.numNodes(), cfg.hiddenDim);
    fillNormal(act.dense, rng, 0.0f, 1.0f);
    nn::maxkCompressFast(act.dense, cfg.maxkK, act.cbsr);
    checkAggregation(sheet, sub, act);
}

Activation
layerActivation(nn::GnnLayer &layer, std::uint32_t k)
{
    Activation act;
    if (layer.activationIsCbsr()) {
        act.cbsr = layer.lastCbsr();
        act.cbsr.decompress(act.dense);
    } else {
        act.dense = layer.activationDense();
        nn::maxkCompressFast(act.dense, k, act.cbsr);
    }
    return act;
}

void
probeLayers(Sheet &sheet, const nn::ModelConfig &cfg, const CsrGraph &a,
            const Activation &act, const PhaseTotals &host_step,
            std::uint64_t seed)
{
    sheet.set("core.cbsr_bytes_ratio",
              static_cast<double>(act.cbsr.storageBytes()) /
                  (static_cast<double>(act.dense.size()) * sizeof(Float)),
              "ratio");
    probeAggregation(sheet, a, act.dense, act.cbsr);
    checkAggregation(sheet, a, act);
    probeGemm(sheet, a.numNodes(), cfg.hiddenDim, seed);
    const double relu_ms =
        probeNonlinearity(sheet, a.numNodes(), cfg.hiddenDim, cfg.maxkK, seed);
    // Every layer but the last runs the nonlinearity once per step.
    const double nonlin_ms =
        (cfg.numLayers - 1) * (cfg.nonlin == nn::Nonlinearity::MaxK
                                   ? sheet.get("core.maxk_compress_ms")
                                   : relu_ms);
    probeSimulated(sheet, cfg, a, host_step, nonlin_ms);
}

const std::vector<MetricDef> &
endToEndCatalog()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"epoch_s", "s"},
        {"loss_final", "nats"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerCatalog()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"machine.calib_gflops.start", "GFLOP/s"},
            {"machine.calib_gflops.end", "GFLOP/s"},
            {"machine.copy_gbps.start", "GB/s"},
            {"machine.copy_gbps.end", "GB/s"},
            {"trace.overhead", "ratio"},
            {"trace.coverage", "ratio"},
        };
        for (std::uint32_t l = 0; l < kLayerSlots; ++l)
            for (const char *phase :
                 {"fwd_compute_ms", "fwd_combine_ms", "bwd_agg_ms",
                  "bwd_post_ms"})
                d.push_back(
                    {"nn.L" + std::to_string(l) + "." + phase, "ms"});
        d.push_back({"nn.loss_ms", "ms"});
        d.push_back({"nn.optim_ms", "ms"});
        for (const char *agg :
             {"nn.agg_dense", "nn.agg_dense_t", "nn.agg_cbsr",
              "nn.agg_cbsr_bwd"}) {
            d.push_back({std::string(agg) + "_ms", "ms"});
            d.push_back({std::string(agg) + "_gbps", "GB/s"});
            d.push_back({std::string(agg) + "_scaling", "ratio"});
        }
        const std::vector<MetricDef> rest = {
            {"tensor.gemm_gflops", "GFLOP/s"},
            {"tensor.gemm_ta_gflops", "GFLOP/s"},
            {"tensor.gemm_tb_gflops", "GFLOP/s"},
            {"tensor.steady_allocs", "count"},
            {"core.maxk_compress_ms", "ms"},
            {"core.cbsr_bytes_ratio", "ratio"},
            {"sim.agg_fwd_ms", "ms"},
            {"sim.agg_bwd_ms", "ms"},
            {"sim.linear_ms", "ms"},
            {"sim.nonlin_ms", "ms"},
            {"sim.other_ms", "ms"},
            {"host_over_sim.agg", "ratio"},
            {"host_over_sim.linear", "ratio"},
            {"host_over_sim.nonlin", "ratio"},
            {"sample.sample_ms", "ms"},
            {"sample.extract_ms", "ms"},
            {"sample.step_ms", "ms"},
            {"sample.useful_row_ratio", "ratio"},
            {"sample.exposed_ms_per_batch", "ms"},
            {"serve.req_per_s", "req/s"},
            {"serve.ms_p50", "ms"},
            {"serve.ms_p99", "ms"},
            {"serve.requests", "count"},
            {"serve.sim_p99_us", "us"},
            {"serve.hit_ratio", "ratio"},
            {"serve.rows_recomputed_per_req", "rows"},
            {"serve.rows_injected_per_req", "rows"},
            {"serve.useful_row_ratio", "ratio"},
            {"serve.steady_allocs", "count"},
            {"dist.halo_bytes_per_epoch", "B"},
            {"dist.reduce_bytes_per_epoch", "B"},
            {"dist.halo_ratio", "ratio"},
            {"dist.exchange_ms", "ms"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

void
zeroLayer(Sheet &sheet, const std::string &prefix)
{
    for (const MetricDef &m : perLayerCatalog())
        if (m.name.compare(0, prefix.size(), prefix) == 0)
            sheet.set(m.name, 0.0, m.unit);
}

} // namespace hostbench
