/**
 * @file
 * One GNN layer in both of the paper's configurations (Fig. 2):
 *
 *  ReLU baseline:  out = Agg(A, ReLU(Linear1(x)))  [+ model-specific term]
 *  MaxK-GNN:       out = Agg(A, MaxK_k(Linear1(x))) with the sparsified
 *                  activation held in CBSR, aggregated by SpGEMM forward
 *                  and SSpMM backward.
 *
 * Model-specific combination:
 *  SAGE: out += Linear2(x)        (self connection, mean aggregator A)
 *  GCN:  out = Agg(...)           (symmetric-normalised A)
 *  GIN:  out += (1 + eps) * h     (sum aggregator A)
 *
 * The final layer of a network skips the nonlinearity (logits stay
 * dense), so both variants run one dense SpMM there.
 *
 * This class implements the fast functional path used for training
 * epochs; simulated kernel timing is produced separately by
 * profileEpoch() in trainer.hh.
 */

#ifndef MAXK_NN_GNN_LAYER_HH
#define MAXK_NN_GNN_LAYER_HH

#include <cstdint>
#include <string>

#include "core/cbsr.hh"
#include "graph/csr.hh"
#include "nn/dropout.hh"
#include "nn/linear.hh"
#include "nn/param.hh"
#include "tensor/matrix.hh"

namespace maxk::nn
{

/** GNN architecture family. */
enum class GnnKind { Sage, Gcn, Gin };

/** Nonlinearity placed before the aggregation (Fig. 2). */
enum class Nonlinearity { Relu, MaxK };

const char *gnnKindName(GnnKind kind);
const char *nonlinearityName(Nonlinearity n);

/** Aggregator convention a model kind uses for its edge weights. */
Aggregator aggregatorFor(GnnKind kind);

/** Configuration of one layer. */
struct GnnLayerConfig
{
    GnnKind kind = GnnKind::Sage;
    Nonlinearity nonlin = Nonlinearity::Relu;
    std::uint32_t maxkK = 32;   //!< clamped to the layer width
    bool lastLayer = false;     //!< last layer: identity nonlinearity
    Float ginEps = 0.0f;
    Float dropout = 0.0f;
};

/** One trainable GNN layer (fast functional path). */
class GnnLayer
{
  public:
    GnnLayer(const GnnLayerConfig &cfg, std::size_t in_dim,
             std::size_t out_dim, Rng &rng, const std::string &name);

    /*
     * The layer runs as two forward and two backward phases. A full
     * forward is forwardCompute() then forwardCombine(); a full backward
     * (accumulating parameter gradients and producing dx from the cached
     * forward state) is backwardAgg() then backwardPost(). GnnModel runs
     * every layer this way with its LayerHook in between: the sharded
     * executor exchanges boundary activation rows between the
     * nonlinearity and the aggregation (the point where MaxK models
     * carry CBSR rows — the paper's compounding communication win), and
     * partial gradients between the reverse aggregation and the rest of
     * the backward pass. The structural transpose is never
     * materialised: CSR(A) is CSC(A^T), so the same arrays serve the
     * reverse aggregation, as in the paper's SSpMM (Fig. 5).
     */

    /** Forward phase 1: dropout + Linear1 + nonlinearity (no
     *  aggregation). Fills the activation accessible below. */
    void forwardCompute(const Matrix &x, bool training, Rng &rng);

    /** Forward phase 2: aggregation over `a` plus the model-specific
     *  combination (SAGE self path / GIN eps term) into `out`. */
    void forwardCombine(const CsrGraph &a, Matrix &out);

    /** Whether the current forward activation is CBSR (MaxK non-last
     *  layer) rather than dense. Valid after forwardCompute(). */
    bool activationIsCbsr() const { return usedCbsr_; }

    /** Mutable activation buffers — the sharded executor overwrites the
     *  halo rows with the owners' exchanged values before
     *  forwardCombine(). */
    Matrix &activationDense() { return hDense_; }
    CbsrMatrix &activationCbsr() { return cbsr_; }

    /** Backward phase 1: reverse aggregation only (A^T * d_out, dense
     *  or SSpMM at the forward pattern). */
    void backwardAgg(const CsrGraph &a, const Matrix &d_out);

    /** Mutable reverse-aggregation gradients — the sharded executor
     *  ships the halo rows back to their owners (which add them into
     *  their local rows) and zeroes them before backwardPost(). */
    Matrix &gradAggDense() { return dh_; }
    CbsrMatrix &gradAggCbsr() { return dcbsr_; }

    /** Backward phase 2: nonlinearity backward, Linear backward, self
     *  path, dropout backward — everything after the aggregation. */
    void backwardPost(const CsrGraph &a, const Matrix &d_out, Matrix &dx);

    void collectParams(ParamRefs &out);

    const GnnLayerConfig &config() const { return cfg_; }
    std::size_t inDim() const { return linear1_.inDim(); }
    std::size_t outDim() const { return linear1_.outDim(); }

    /** Effective k after clamping to the layer width. */
    std::uint32_t effectiveK() const;

    /** CBSR activation of the last forward (MaxK layers only). */
    const CbsrMatrix &lastCbsr() const { return cbsr_; }

  private:
    GnnLayerConfig cfg_;
    Linear linear1_;
    Linear linear2_;  //!< SAGE self path only
    Dropout dropout_;

    // Cached forward state.
    Matrix xDropped_;   //!< layer input after dropout
    Matrix y_;          //!< Linear1 output (pre-activation)
    Matrix hDense_;     //!< activation (dense form; ReLU/identity path)
    CbsrMatrix cbsr_;   //!< activation (CBSR form; MaxK path)
    bool usedCbsr_ = false;

    // Persistent backward/forward workspaces: every per-call temporary
    // lives here so steady-state epochs perform zero Matrix/CbsrMatrix
    // heap allocations (asserted by tests/test_workspace.cc via
    // tensor/alloc_probe.hh).
    Matrix self_;       //!< SAGE self-path output (forward)
    CbsrMatrix dcbsr_;  //!< CBSR gradient at the forward pattern
    Matrix dh_;         //!< reverse-aggregated dense gradient
    Matrix dy_;         //!< gradient w.r.t. the pre-activation
    Matrix dxDropped_;  //!< gradient w.r.t. the dropped input
    Matrix dxSelf_;     //!< SAGE self-path input gradient
};

/** out = A * x for dense x (reference aggregation, fast path). */
void aggregateDense(const CsrGraph &a, const Matrix &x, Matrix &out);

/** out = A^T * x for dense x (reverse aggregation, fast path). */
void aggregateDenseTransposed(const CsrGraph &a, const Matrix &x,
                              Matrix &out);

/** out = A * cbsr (row-wise product SpGEMM semantics, fast path). */
void aggregateCbsr(const CsrGraph &a, const CbsrMatrix &xs, Matrix &out);

/**
 * dxs.data = sampled A^T * dxl at dxs's pattern (SSpMM semantics, fast
 * path). dxs must already carry the forward pattern.
 */
void aggregateCbsrBackward(const CsrGraph &a, const Matrix &dxl,
                           CbsrMatrix &dxs);

/** MaxK + CBSR compression without device simulation (fast path). */
void maxkCompressFast(const Matrix &x, std::uint32_t k, CbsrMatrix &out);

} // namespace maxk::nn

#endif // MAXK_NN_GNN_LAYER_HH
