#include "serve/engine.hpp"

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::serve {

Engine::Engine(const ServingArtifact& artifact)
    : artifact_(&artifact),
      scratch_(artifact.model.net),
      state_(scratch_),
      flips_(artifact.model.net.n_layers()) {
  artifact.validate();
  scratch_.sync_transpose();
  // Serving always runs the float mode, whatever engine the model was
  // built with: replay digests are pinned to float inference, and the
  // kernel skips the silent waves of sparse rate-coded traffic either way.
  scratch_.set_engine(snn::EngineKind::kEvent);
}

ClassifyReply Engine::classify(const ClassifyRequest& request) {
  const auto& cfg = scratch_.config();
  SPARKXD_REQUIRE(request.image.size() == cfg.n_inputs,
                  "request image size does not match the model's inputs");
  const std::size_t n_layers = scratch_.n_layers();
  const error::SanitizeRange sanitize{cfg.stdp.w_min, artifact_->weight_clip};

  // Fault injection through the frozen tables — same per-layer stream
  // discipline as core::evaluate_corrupted's trials, keyed by the request
  // seed instead of a trial index.
  const std::uint64_t inject_seed = hash_combine(request.seed, 0);
  ClassifyReply reply;
  reply.id = request.id;
  for (std::size_t l = 0; l < n_layers; ++l) {
    Rng inject_rng = n_layers == 1
                         ? Rng(inject_seed)
                         : Rng(inject_seed).fork(static_cast<std::uint64_t>(l));
    flips_[l].clear();
    reply.flips += static_cast<std::uint32_t>(artifact_->layers[l].frozen.inject(
        scratch_.weights_delta(l), inject_rng, sanitize, &flips_[l]));
    for (const auto& f : flips_[l]) scratch_.mirror_weight(l, f.word);
  }

  Rng spike_rng(hash_combine(request.seed, 1));
  const auto counts = scratch_.infer(state_, request.image, spike_rng);
  reply.label = snn::vote_spike_counts(counts, artifact_->model.labels);
  for (const std::uint32_t c : counts) reply.spikes += c;

  // Restore the scratch weights bit for bit — the next request (on this
  // worker) starts from the pristine artifact weights again.
  for (std::size_t l = 0; l < n_layers; ++l) {
    error::revert_flips(scratch_.weights_delta(l), flips_[l]);
    for (const auto& f : flips_[l]) scratch_.mirror_weight(l, f.word);
  }
  return reply;
}

}  // namespace sparkxd::serve
