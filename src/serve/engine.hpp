#pragma once
// Per-worker classification engine over a shared, frozen ServingArtifact.
//
// Determinism contract (the serving layer's core guarantee): a request's
// `seed` FULLY determines its reply. The engine derives two streams from
// it —
//
//   inject stream  hash_combine(seed, 0): the inject_seed of
//                  core::CorruptionScratch::corrupt, which drives the
//                  weak-cell flip decisions through the artifact's frozen
//                  tables with the same per-layer stream discipline as
//                  core::evaluate_corrupted's trials;
//   spike stream   hash_combine(seed, 1): drives the Poisson encoding of
//                  the request's image.
//
// Nothing else is stochastic, and CorruptionScratch::restore returns the
// scratch weights bit for bit to the artifact's after every request, so
// replies are replayable regardless of batching, worker assignment, or the
// order requests reach a worker. That is what lets the server batch freely
// and lets a replay client verify a deployment byte for byte.
//
// An Engine is the per-worker mutable half: one core::CorruptionScratch
// (a corruptible weight copy, O(total weights), plus an
// snn::InferenceState, both paid once per worker; a request allocates
// nothing once the flip logs have grown). The artifact itself is shared
// read-only across any number of engines on any number of threads.

#include <cstdint>
#include <vector>

#include "core/fault_aware.hpp"
#include "serve/artifact.hpp"

namespace sparkxd::serve {

/// One classification request.
struct ClassifyRequest {
  std::uint64_t id = 0;    ///< echoed in the reply (client correlation)
  std::uint64_t seed = 0;  ///< determinism root: encoding + injected faults
  std::vector<float> image;  ///< n_inputs pixels in [0, 1]
};

/// One classification reply. label/spikes/flips are pure functions of
/// (artifact, request) — the replay digest hashes all of them.
struct ClassifyReply {
  std::uint64_t id = 0;
  std::int32_t label = -1;   ///< predicted class, -1 if no neuron fired
  std::uint32_t spikes = 0;  ///< total output-layer spikes
  std::uint32_t flips = 0;   ///< weak-cell bits flipped for this request

  friend bool operator==(const ClassifyReply&, const ClassifyReply&) = default;
};

class Engine {
 public:
  /// Copies the artifact's network once (the per-worker corruptible copy)
  /// and keeps pointers into the artifact, which must outlive the engine.
  explicit Engine(const ServingArtifact& artifact);

  /// Classifies one request; deterministic in (artifact, request), no
  /// observable state carried between calls. NOT thread-safe — one engine
  /// per worker thread.
  [[nodiscard]] ClassifyReply classify(const ClassifyRequest& request);

  [[nodiscard]] const ServingArtifact& artifact() const noexcept {
    return *artifact_;
  }

 private:
  const ServingArtifact* artifact_;
  core::CorruptionScratch scratch_;  ///< private corruptible copy + state
  core::LayerTables tables_;         ///< the artifact's per-layer tables
  core::LayerEcc ecc_;               ///< all unprotected: no check words
};

}  // namespace sparkxd::serve
