#include "nn/model.hh"

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"

namespace maxk::nn
{

namespace
{

/** "layerN" tag for span args; empty (and free) when disarmed. */
void
layerTag(char (&tag)[32], std::size_t l)
{
    tag[0] = '\0';
    if (telemetry::armed())
        std::snprintf(tag, sizeof(tag), "layer%zu", l);
}

} // namespace

GnnModel::GnnModel(const ModelConfig &cfg)
    : cfg_(cfg), dropRng_(cfg.seed ^ 0xD80C7ull)
{
    checkInvariant(cfg.numLayers >= 1, "GnnModel: need >= 1 layer");
    Rng init_rng(cfg.seed);
    layers_.reserve(cfg.numLayers);
    for (std::uint32_t l = 0; l < cfg.numLayers; ++l) {
        GnnLayerConfig lc;
        lc.kind = cfg.kind;
        lc.nonlin = cfg.nonlin;
        lc.maxkK = cfg.maxkK;
        lc.lastLayer = l + 1 == cfg.numLayers;
        lc.ginEps = cfg.ginEps;
        lc.dropout = cfg.dropout;
        layers_.emplace_back(lc, layerInDim(l), layerOutDim(l), init_rng,
                             "layer" + std::to_string(l));
    }
}

std::size_t
GnnModel::layerInDim(std::uint32_t l) const
{
    return l == 0 ? cfg_.inDim : cfg_.hiddenDim;
}

std::size_t
GnnModel::layerOutDim(std::uint32_t l) const
{
    return l + 1 == cfg_.numLayers ? cfg_.outDim : cfg_.hiddenDim;
}

const Matrix &
GnnModel::forward(const CsrGraph &a, const Matrix &x, bool training)
{
    return forwardFrom(0, a, x, training);
}

const Matrix &
GnnModel::forwardFrom(std::uint32_t first, const CsrGraph &a,
                      const Matrix &x, bool training,
                      const LayerHook &hook)
{
    checkInvariant(first < layers_.size(),
                   "GnnModel::forwardFrom: layer index out of range");
    checkInvariant(x.rows() == a.numNodes(),
                   "GnnModel::forwardFrom: feature row count != |V|");
    outs_.resize(layers_.size());
    for (std::size_t l = first; l < layers_.size(); ++l) {
        GnnLayer &layer = layers_[l];
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.forward", tag);
        layer.forwardCompute(l == first ? x : outs_[l - 1], training,
                             dropRng_);
        if (hook)
            hook(static_cast<std::uint32_t>(l), layer);
        layer.forwardCombine(a, outs_[l]);
    }
    return outs_.back();
}

void
GnnModel::backward(const CsrGraph &a, const Matrix &grad_logits,
                   const LayerHook &hook)
{
    // The top layer reads the caller's gradient in place; below it the
    // upstream gradient is the previous layer's dx in gradCur_.
    const Matrix *upstream = &grad_logits;
    for (std::size_t l = layers_.size(); l-- > 0;) {
        GnnLayer &layer = layers_[l];
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.backward", tag);
        layer.backwardAgg(a, *upstream);
        if (hook)
            hook(static_cast<std::uint32_t>(l), layer);
        layer.backwardPost(a, *upstream, gradPrev_);
        std::swap(gradCur_, gradPrev_);
        upstream = &gradCur_;
    }
}

ParamRefs
GnnModel::params()
{
    ParamRefs refs;
    for (auto &layer : layers_)
        layer.collectParams(refs);
    return refs;
}

} // namespace maxk::nn
