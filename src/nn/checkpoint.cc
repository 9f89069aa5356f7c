#include "nn/checkpoint.hh"

namespace maxk::nn
{

void
writeModelState(formats::Checkpoint &ck, GnnModel &model,
                const Adam &adam)
{
    const ParamRefs params = model.params();
    ck.setU64("param.count", params.size());
    std::vector<std::uint64_t> shapes;
    shapes.reserve(params.size() * 2);
    for (const Param *p : params) {
        shapes.push_back(p->value.rows());
        shapes.push_back(p->value.cols());
    }
    ck.setU64s("param.shape", shapes);
    for (std::size_t i = 0; i < params.size(); ++i) {
        ck.setMatrix("param." + std::to_string(i), params[i]->value);
        ck.setMatrix("adam.m." + std::to_string(i),
                     adam.firstMoments()[i]);
        ck.setMatrix("adam.v." + std::to_string(i),
                     adam.secondMoments()[i]);
    }
    ck.setU64("adam.t", adam.stepCount());

    std::uint64_t words[4];
    model.dropoutRng().stateWords(words);
    ck.setU64s("rng.drop", {words[0], words[1], words[2], words[3]});
}

namespace
{

Unexpected<IoError>
mismatch(std::string msg)
{
    return unexpected(
        IoError{IoErrorCode::CountMismatch, "", 0, std::move(msg)});
}

} // namespace

Expected<std::monostate, IoError>
checkModelState(const formats::Checkpoint &ck, const ParamRefs &params)
{
    auto count = ck.getU64("param.count");
    if (!count)
        return unexpected(std::move(count.error()));
    if (count.value() != params.size())
        return mismatch("checkpoint holds " +
                        std::to_string(count.value()) +
                        " parameter tensors but the model has " +
                        std::to_string(params.size()));

    auto shapes = ck.getU64s("param.shape", params.size() * 2);
    if (!shapes)
        return unexpected(std::move(shapes.error()));
    for (std::size_t i = 0; i < params.size(); ++i) {
        const Matrix &live = params[i]->value;
        const std::string idx = std::to_string(i);
        bool same = shapes.value()[2 * i] == live.rows() &&
                    shapes.value()[2 * i + 1] == live.cols();
        for (const std::string &name :
             {"param." + idx, "adam.m." + idx, "adam.v." + idx}) {
            auto shape = ck.matrixShape(name);
            if (!shape)
                return unexpected(std::move(shape.error()));
            same = same && shape.value().rows == live.rows() &&
                   shape.value().cols == live.cols();
        }
        if (!same)
            return mismatch("checkpoint parameter " + idx + " ('" +
                            params[i]->name +
                            "') was written with a different shape — "
                            "the checkpoint belongs to a different model "
                            "configuration");
    }

    if (auto t = ck.getU64("adam.t"); !t)
        return unexpected(std::move(t.error()));
    if (auto words = ck.getU64s("rng.drop", 4); !words)
        return unexpected(std::move(words.error()));
    return std::monostate{};
}

Expected<std::monostate, IoError>
readModelState(const formats::Checkpoint &ck, GnnModel &model,
               Adam &adam)
{
    const ParamRefs params = model.params();
    if (auto ok = checkModelState(ck, params); !ok)
        return ok;

    // Every section is now known to be present and shaped like the live
    // model, so the reads below cannot fail. Moments go through
    // temporary matrices because Adam owns its state (resume is a
    // one-time path; the per-epoch save path is the allocation-free
    // one).
    std::vector<Matrix> m(params.size()), v(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::string idx = std::to_string(i);
        ck.getMatrix("param." + idx, params[i]->value).value();
        ck.getMatrix("adam.m." + idx, m[i]).value();
        ck.getMatrix("adam.v." + idx, v[i]).value();
    }
    adam.restoreState(m, v, ck.getU64("adam.t").value());
    model.dropoutRng().setStateWords(ck.getU64s("rng.drop").value().data());
    return std::monostate{};
}

} // namespace maxk::nn
