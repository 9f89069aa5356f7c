/**
 * @file
 * Multi-layer GNN model: a stack of GnnLayer with the architecture the
 * paper evaluates (Table 3: 3-4 layers, hidden 256/384, SAGE/GCN/GIN).
 */

#ifndef MAXK_NN_MODEL_HH
#define MAXK_NN_MODEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/csr.hh"
#include "nn/gnn_layer.hh"
#include "nn/param.hh"
#include "tensor/matrix.hh"

namespace maxk::nn
{

/** Whole-network configuration. */
struct ModelConfig
{
    GnnKind kind = GnnKind::Sage;
    Nonlinearity nonlin = Nonlinearity::Relu;
    std::uint32_t maxkK = 32;       //!< k for MaxK layers
    bool fusedForward = false;      //!< profileEpoch charges fused MaxK+SpGEMM
    std::uint32_t numLayers = 3;
    std::size_t inDim = 64;
    std::size_t hiddenDim = 64;
    std::size_t outDim = 8;
    Float dropout = 0.5f;
    Float ginEps = 0.0f;
    std::uint64_t seed = 42;
};

/**
 * Stack of GNN layers: the one place a layer stack runs, for the
 * single-device, sampled, serving and sharded paths alike.
 */
class GnnModel
{
  public:
    explicit GnnModel(const ModelConfig &cfg);

    /** Full-batch forward. Returns the logits (N x outDim). */
    const Matrix &forward(const CsrGraph &a, const Matrix &x,
                          bool training);

    /**
     * Per-layer hook at the activation seam. In forwardFrom() it runs
     * between forwardCompute and forwardCombine, when the activation
     * (CBSR for MaxK layers, dense otherwise) is complete but not yet
     * aggregated: the serving layer injects and harvests cached
     * embedding rows there, the sharded executor exchanges halo rows.
     * In backward() it runs between backwardAgg and backwardPost, where
     * the sharded executor hands partial gradients back to their owners.
     */
    using LayerHook = std::function<void(std::uint32_t layer, GnnLayer &)>;

    /**
     * Forward starting at layer `first` (0 == forward()): `x` is taken
     * as the input of layer `first` and layers below it are skipped
     * entirely. This is the cached-embedding entry point: when every
     * activation a serving batch needs below `first` comes out of the
     * EmbeddingCache, the lower layers contribute no arithmetic at all.
     * The optional `hook` runs per executed layer (see LayerHook).
     * Layer `first` reads `x` in place (no copy); the model keeps only
     * each executed layer's output, so the returned logits stay valid
     * until the next forward. backward() needs none of them: every
     * layer caches its own dropped input and activation. No dropout
     * stream is consumed for skipped layers when `training` is false
     * (the serving mode), so partial and full forwards stay
     * bitwise-consistent.
     */
    const Matrix &forwardFrom(std::uint32_t first, const CsrGraph &a,
                              const Matrix &x, bool training,
                              const LayerHook &hook = {});

    /**
     * Backprop from d(loss)/d(logits), top layer first; accumulates
     * parameter grads. The optional `hook` runs once per layer between
     * its backwardAgg and backwardPost (see LayerHook).
     */
    void backward(const CsrGraph &a, const Matrix &grad_logits,
                  const LayerHook &hook = {});

    ParamRefs params();

    const ModelConfig &config() const { return cfg_; }
    std::vector<GnnLayer> &layers() { return layers_; }

    /**
     * The dropout RNG stream every training forward draws from.
     * Checkpoints save and restore it; a caller replaying the layer
     * phases itself must draw from it exactly like forward() does.
     */
    Rng &dropoutRng() { return dropRng_; }

    /** Input/output width of layer l per the stacking rule. */
    std::size_t layerInDim(std::uint32_t l) const;
    std::size_t layerOutDim(std::uint32_t l) const;

  private:
    ModelConfig cfg_;
    Rng dropRng_;
    std::vector<GnnLayer> layers_;
    std::vector<Matrix> outs_;  //!< outs_[l] = output of layer l

    // Persistent backward ping-pong buffers: backward() alternates the
    // downstream gradient between these two workspaces instead of
    // moving locals (which would strand their storage and force a
    // reallocation every epoch).
    Matrix gradCur_;
    Matrix gradPrev_;
};

} // namespace maxk::nn

#endif // MAXK_NN_MODEL_HH
