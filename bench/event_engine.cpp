// Event-engine density sweep: wall-clock of Network::infer with the dense
// transposed-gather reference versus the event-driven engine, across spike
// densities (max_rate sweep) plus the all-zero-image short-circuit.
//
// The event engine's contract is "bitwise-identical counts, strictly less
// work": it gathers only over set bitset words and skips whole (layer,
// timestep) updates that are provably the identity — empty input wave, LIF
// state exactly at rest. At the paper's default rate (0.30) waves are rarely
// empty and the engines should be near parity; as the rate drops the skip
// rate climbs and the event engine pulls ahead. Every timed leg checksums
// its spike counts, and a dense/event checksum mismatch exits non-zero —
// the speedup claim is only meaningful if the results are identical.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace sparkxd;

std::vector<float> random_image(std::size_t n, std::uint64_t seed,
                                double density) {
  Rng rng(seed);
  std::vector<float> img(n, 0.0f);
  for (auto& px : img)
    if (rng.uniform() < density) px = static_cast<float>(rng.uniform());
  return img;
}

/// Trained-ish network at the given Poisson rate: a couple of STDP passes so
/// thetas and weight rows are non-trivial, then frozen for inference.
snn::Network make_network(float max_rate, std::uint64_t seed,
                          std::vector<std::size_t> hidden = {}) {
  snn::NetworkConfig cfg;
  cfg.n_inputs = 784;
  cfg.n_neurons = 64;
  cfg.hidden_neurons = std::move(hidden);
  cfg.timesteps = 60;
  cfg.max_rate = max_rate;
  cfg.seed = seed;
  snn::Network net(cfg);
  Rng rng(seed);
  for (int pass = 0; pass < 2; ++pass)
    (void)net.train_step(random_image(784, seed + pass, 0.4), rng);
  net.sync_transpose();
  return net;
}

struct LegResult {
  double ms = 0.0;
  std::uint64_t checksum = 0;  ///< order-weighted spike-count sum
};

/// Times `reps` passes over the image batch with the given engine. Every
/// (rep, image) pair reseeds its Rng deterministically, so the dense and
/// event legs replay the exact same spike trains.
LegResult run_leg(const snn::Network& base, snn::EngineKind engine,
                  const std::vector<std::vector<float>>& images,
                  std::size_t reps, std::uint64_t seed) {
  snn::Network net = base;
  net.set_engine(engine);
  snn::InferenceState state(net);
  LegResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      Rng rng(hash_combine(seed, rep * images.size() + i));
      const auto counts = net.infer(state, images[i], rng);
      for (std::size_t n = 0; n < counts.size(); ++n)
        r.checksum += static_cast<std::uint64_t>(counts[n]) * (n + 1);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparkxd;
  const char* json_path = bench::json_out_path(argc, argv);
  bench::banner("event-driven inference — spike-density sweep",
                "event engine matches dense bitwise and wins wall-clock as "
                "spike density drops (empty waves get skipped outright)");

  const std::uint64_t seed = experiment_seed();
  const std::size_t reps = std::max<std::size_t>(scaled(24), 4);
  const std::size_t batch = 8;

  // Low-density images so low rates actually produce empty waves.
  std::vector<std::vector<float>> images;
  for (std::size_t i = 0; i < batch; ++i)
    images.push_back(random_image(784, seed + 100 + i, 0.15));
  const std::vector<std::vector<float>> black(
      batch, std::vector<float>(784, 0.0f));

  const std::vector<float> rates = {0.30f, 0.10f, 0.03f, 0.01f, 0.003f};

  Table t("event_engine",
          {"max_rate", "dense [ms]", "event [ms]", "speedup", "bit-equal"});
  bench::BenchReport report("event_engine");
  bool all_equal = true;
  double low_density_speedup = 0.0;

  for (const float rate : rates) {
    const auto net = make_network(rate, seed);
    // Warm-up legs (cache + page-in), then the timed pair.
    (void)run_leg(net, snn::EngineKind::kDense, images, 1, seed);
    (void)run_leg(net, snn::EngineKind::kEvent, images, 1, seed);
    const auto dense =
        run_leg(net, snn::EngineKind::kDense, images, reps, seed);
    const auto event =
        run_leg(net, snn::EngineKind::kEvent, images, reps, seed);
    const bool equal = dense.checksum == event.checksum;
    all_equal &= equal;
    const double speedup = dense.ms / std::max(event.ms, 1e-3);
    low_density_speedup = speedup;  // last row = lowest rate
    t.add_row({Table::num(rate, 3), Table::num(dense.ms, 2),
               Table::num(event.ms, 2), Table::num(speedup, 2),
               equal ? "yes" : "NO"});
    auto& phase = report.add_phase("rate_" + Table::num(rate, 3),
                                   reps * batch, event.ms * 1e6);
    phase.metrics.emplace_back("max_rate", rate);
    phase.metrics.emplace_back("dense_ms", dense.ms);
    phase.metrics.emplace_back("event_ms", event.ms);
    phase.metrics.emplace_back("speedup", speedup);
    phase.metrics.emplace_back("checksum_equal", equal ? 1.0 : 0.0);
  }

  // Deep stacks are where per-layer skipping bites hardest: hidden layers
  // sit exactly at rest until the first wave reaches them, and at low input
  // rates the upper layers stay silent for most (often all) of the sample.
  for (const float rate : {0.10f, 0.01f}) {
    const auto net = make_network(rate, seed, {64, 64});
    (void)run_leg(net, snn::EngineKind::kDense, images, 1, seed);
    (void)run_leg(net, snn::EngineKind::kEvent, images, 1, seed);
    const auto dense =
        run_leg(net, snn::EngineKind::kDense, images, reps, seed);
    const auto event =
        run_leg(net, snn::EngineKind::kEvent, images, reps, seed);
    const bool equal = dense.checksum == event.checksum;
    all_equal &= equal;
    const double speedup = dense.ms / std::max(event.ms, 1e-3);
    t.add_row({"deep " + Table::num(rate, 2), Table::num(dense.ms, 2),
               Table::num(event.ms, 2), Table::num(speedup, 2),
               equal ? "yes" : "NO"});
    auto& phase = report.add_phase("deep_rate_" + Table::num(rate, 2),
                                   reps * batch, event.ms * 1e6);
    phase.metrics.emplace_back("max_rate", rate);
    phase.metrics.emplace_back("dense_ms", dense.ms);
    phase.metrics.emplace_back("event_ms", event.ms);
    phase.metrics.emplace_back("speedup", speedup);
    phase.metrics.emplace_back("checksum_equal", equal ? 1.0 : 0.0);
  }

  // The degenerate extreme: an all-zero image short-circuits the whole
  // sample (no active pixels -> no Rng draws -> provable silence).
  {
    const auto net = make_network(0.30f, seed);
    const auto dense =
        run_leg(net, snn::EngineKind::kDense, black, reps, seed);
    const auto event =
        run_leg(net, snn::EngineKind::kEvent, black, reps, seed);
    const bool equal = dense.checksum == event.checksum;
    all_equal &= equal;
    const double speedup = dense.ms / std::max(event.ms, 1e-3);
    t.add_row({"all-zero", Table::num(dense.ms, 2), Table::num(event.ms, 2),
               Table::num(speedup, 2), equal ? "yes" : "NO"});
    auto& phase =
        report.add_phase("all_zero_image", reps * batch, event.ms * 1e6);
    phase.metrics.emplace_back("dense_ms", dense.ms);
    phase.metrics.emplace_back("event_ms", event.ms);
    phase.metrics.emplace_back("speedup", speedup);
    phase.metrics.emplace_back("checksum_equal", equal ? 1.0 : 0.0);
  }
  t.emit();

  std::printf("\nevent counts bit-identical to dense on every leg: %s\n",
              all_equal ? "yes" : "NO — EQUIVALENCE VIOLATION");
  std::printf("lowest-rate speedup: %.2fx (expect >1 once most waves are "
              "empty; ~1x at the paper's default rate 0.30)\n",
              low_density_speedup);
  if (json_path != nullptr && !report.write(json_path)) return 2;
  return all_equal ? 0 : 1;
}
