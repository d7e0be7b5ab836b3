#include "serve/engine.hpp"

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::serve {

namespace {

/// The artifact's network, switched to the float mode. Serving always runs
/// it, whatever engine the model was built with: replay digests are pinned
/// to float inference, and the kernel skips the silent waves of sparse
/// rate-coded traffic either way.
snn::Network serving_network(const ServingArtifact& artifact) {
  artifact.validate();
  snn::Network net = artifact.model.net;
  net.set_engine(snn::EngineKind::kEvent);
  return net;
}

}  // namespace

Engine::Engine(const ServingArtifact& artifact)
    : artifact_(&artifact),
      scratch_(serving_network(artifact)),
      ecc_(artifact.layers.size()) {
  for (const auto& layer : artifact.layers) tables_.push_back(&layer.frozen);
}

ClassifyReply Engine::classify(const ClassifyRequest& request) {
  const auto& cfg = scratch_.net().config();
  SPARKXD_REQUIRE(request.image.size() == cfg.n_inputs,
                  "request image size does not match the model's inputs");
  const error::SanitizeRange sanitize{cfg.stdp.w_min, artifact_->weight_clip};

  // Fault injection through the frozen tables, keyed by the request seed
  // where core::evaluate_corrupted keys it by trial index.
  ClassifyReply reply;
  reply.id = request.id;
  reply.flips = static_cast<std::uint32_t>(scratch_.corrupt(
      tables_, ecc_, hash_combine(request.seed, 0), sanitize));

  Rng spike_rng(hash_combine(request.seed, 1));
  const auto counts =
      scratch_.net().infer(scratch_.state(), request.image, spike_rng);
  reply.label = snn::vote_spike_counts(counts, artifact_->model.labels);
  for (const std::uint32_t c : counts) reply.spikes += c;

  // Restore the scratch weights bit for bit — the next request (on this
  // worker) starts from the pristine artifact weights again.
  scratch_.restore();
  return reply;
}

}  // namespace sparkxd::serve
