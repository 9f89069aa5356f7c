#include "dist/sharded_model.hh"

namespace maxk::dist
{

const Matrix &
ShardedModel::forward(Communicator &comm, HaloExchange &ex,
                      const Matrix &x_ext, bool training)
{
    // Boundary activation exchange at the paper's wire point: after the
    // nonlinearity (CBSR for MaxK layers), before the aggregation that
    // reads the halo rows.
    return model_.forwardFrom(
        0, shard_.extGraph, x_ext, training,
        [&](std::uint32_t, nn::GnnLayer &layer) {
            if (layer.activationIsCbsr())
                ex.exchangeCbsr(comm, layer.activationCbsr());
            else
                ex.exchangeDense(comm, layer.activationDense());
        });
}

void
ShardedModel::backward(Communicator &comm, HaloExchange &ex,
                       const Matrix &grad_logits)
{
    // Reverse halo exchange: the partial gradients this rank
    // accumulated for remote-owned rows travel back to their owners;
    // our own boundary rows absorb the peers' partials.
    model_.backward(shard_.extGraph, grad_logits,
                    [&](std::uint32_t, nn::GnnLayer &layer) {
                        if (layer.activationIsCbsr())
                            ex.reverseCbsr(comm, layer.gradAggCbsr());
                        else
                            ex.reverseDense(comm, layer.gradAggDense());
                    });
}

} // namespace maxk::dist
