/**
 * @file
 * Per-layer instruments of the traced run.
 *
 * PhaseReplay drives a GnnModel through the public GnnLayer phase seam
 * (forwardCompute / forwardCombine / backwardAgg / backwardPost) — the
 * same calls, in the same order, that GnnModel and dist::ShardedModel
 * make — with one span around each call. The isolated probes time one
 * layer's public functions on a workload's own graph and activations.
 */

#ifndef HOSTBENCH_LAYERS_HH
#define HOSTBENCH_LAYERS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/cbsr.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"

namespace hostbench
{

/** Number of layer slots the nn.L<i>.* metrics cover. */
inline constexpr std::uint32_t kLayerSlots = 3;

/** Per-layer phase totals (ms) accumulated over traced epochs. */
struct PhaseTotals
{
    double fwdCompute[kLayerSlots] = {};
    double fwdCombine[kLayerSlots] = {};
    double bwdAgg[kLayerSlots] = {};
    double bwdPost[kLayerSlots] = {};
    double loss = 0.0;
    double optim = 0.0;

    double agg() const;     //!< Σ fwdCombine + bwdAgg
    double linear() const;  //!< Σ fwdCompute + bwdPost

    PhaseTotals &operator+=(const PhaseTotals &o);
    /** Every total multiplied by f. */
    PhaseTotals scaled(double f) const;
};

/** Phase-by-phase forward/backward replay with a span per call. */
class PhaseReplay
{
  public:
    /** Called between a layer's two phases (halo exchange seam). */
    using Seam = std::function<void(nn::GnnLayer &)>;

    PhaseReplay(Tracer &tracer, std::uint32_t lane, PhaseTotals &totals)
        : tracer_(tracer), lane_(lane), totals_(totals)
    {
    }

    const maxk::Matrix &forward(nn::GnnModel &model, const maxk::CsrGraph &a,
                                const maxk::Matrix &x, bool training,
                                const Seam &seam = {});
    void backward(nn::GnnModel &model, const maxk::CsrGraph &a,
                  const maxk::Matrix &grad, const Seam &seam = {});

  private:
    Tracer &tracer_;
    std::uint32_t lane_;
    PhaseTotals &totals_;
    std::vector<maxk::Matrix> outs_;
    maxk::Matrix gradCur_;
    maxk::Matrix gradPrev_;
};

/** Measured epochs of a traced run. */
struct TracedEpochs
{
    std::vector<std::int64_t> spans;  //!< "bench.epoch" span ids
    std::vector<double> ms;           //!< their wall times
};

/** Epochs each traced run measures (after one warm-up epoch). */
inline constexpr int kTracedEpochs = 3;

/**
 * Run `epoch` kTracedEpochs times, each inside a "bench.epoch" span on
 * `lane`. The caller runs one warm-up epoch first and clears its phase
 * totals, so the totals cover exactly these epochs.
 */
TracedEpochs traceEpochs(Tracer &tracer, std::uint32_t lane,
                         const std::function<void()> &epoch);

/**
 * trace.overhead: median traced epoch / median untraced epoch - 1;
 * trace.coverage: Σ top-level spans inside the traced epochs / Σ their
 * wall time.
 */
void reportTraceQuality(Sheet &sheet, const Tracer &tracer,
                        const TracedEpochs &traced, double untraced_epoch_s);

/** Put the phase totals into the sheet as nn.L<i>.* / nn.loss_ms /
 *  nn.optim_ms (slots beyond the model's depth read 0). */
void reportPhases(Sheet &sheet, const PhaseTotals &t);

/** Layer 0's last activation in both forms: its CBSR at the model's
 *  k (compressed here for a ReLU layer) and the dense matrix. */
struct Activation
{
    maxk::Matrix dense;
    maxk::CbsrMatrix cbsr;
};
Activation layerActivation(nn::GnnLayer &layer, std::uint32_t k);

/** Check the four aggregation calls on graph `a` with activation
 *  `act` against spmm_ref (relative error at most 1e-4). */
void checkAggregation(Sheet &sheet, const maxk::CsrGraph &a,
                      const Activation &act);

/**
 * The kernel check of every run: checkAggregation on the subgraph that
 * the first 512 nodes of `g` induce (edge values as trained), with a
 * Gaussian activation of the model's hidden width and its CBSR at k.
 */
void checkAggregationSample(Sheet &sheet, const nn::ModelConfig &cfg,
                            const maxk::CsrGraph &g, std::uint64_t seed);

/**
 * Every isolated probe of a workload on its step graph `a` (the graph
 * one training step runs on):
 *  - the four aggregation calls with layer 0's activation `act`
 *    (nn.agg_*_ms), with their 1-thread over 4-thread time
 *    (nn.agg_*_scaling), then checkAggregation;
 *  - gemm / gemmTransA / gemmTransB on |a| x hidden by hidden x hidden
 *    (tensor.gemm_*);
 *  - maxkCompressFast and the ReLU forward on |a| x hidden (core.*);
 *  - profileEpoch of `cfg` on `a` against the host phase totals of one
 *    step, `host_step` (sim.*, host_over_sim.*).
 */
void probeLayers(Sheet &sheet, const nn::ModelConfig &cfg,
                 const maxk::CsrGraph &a, const Activation &act,
                 const PhaseTotals &host_step, std::uint64_t seed);

/** A declared metric: name and unit. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Every end-to-end metric (printed by untraced runs). */
const std::vector<MetricDef> &endToEndCatalog();
/** Every per-layer metric (printed by traced runs). */
const std::vector<MetricDef> &perLayerCatalog();

/** Set every per-layer metric named `prefix`* to 0: the workload does
 *  not run that layer. */
void zeroLayer(Sheet &sheet, const std::string &prefix);

} // namespace hostbench

#endif // HOSTBENCH_LAYERS_HH
