#include "snn/model_io.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/contracts.hpp"
#include "common/pod_io.hpp"

namespace sparkxd::snn {

namespace {

constexpr char kMagic[4] = {'S', 'X', 'D', 'M'};
// v2: layer-stack models — hidden layer sizes plus one weight/theta blob
// per layer replace the single-layer blobs of v1.
// v3: LifParams/StdpParams are serialized field by field instead of as raw
// struct images (raw images leaked uninitialized alignment padding).
// v4: the LIF and STDP blocks, dt_ms, max_rate and norm_target are gone:
// they are compile-time constants (snn/params.hpp), not model identity.
constexpr std::uint32_t kVersion = 4;
constexpr const char* kTruncated = "truncated model file";

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Reads a length-prefixed vector whose declared length must lie in
/// [min_elems, max_elems] — bounds taken from data already loaded, checked
/// before anything is allocated; `msg` names the mismatch.
template <typename T>
void read_vec(std::istream& is, std::vector<T>& v, std::uint64_t min_elems,
              std::uint64_t max_elems, const char* msg) {
  std::uint64_t n = 0;
  read_pod(is, n, kTruncated);
  SPARKXD_REQUIRE(n >= min_elems && n <= max_elems, msg);
  v.resize(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  SPARKXD_REQUIRE(is.good(), kTruncated);
}

/// Bytes between the stream's read position and its end.
std::uint64_t bytes_left(std::istream& is) {
  const std::streampos pos = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(pos);
  SPARKXD_REQUIRE(pos != std::streampos(-1) && end != std::streampos(-1) &&
                      is.good(),
                  "model stream is not seekable");
  return static_cast<std::uint64_t>(end - pos);
}

/// Rejects a stored shape whose weights and thetas (plus their two count
/// words per layer) need more FP32 words than the stream has left. Each
/// product is bounded by a division first, so no multiplication wraps.
void require_payload_fits(const NetworkConfig& cfg, std::uint64_t left) {
  std::uint64_t floats = left / sizeof(float);
  for (std::size_t l = 0; l < cfg.n_layers(); ++l) {
    const std::uint64_t n_in = cfg.layer_inputs(l);
    const std::uint64_t n_out = cfg.layer_neurons(l);
    SPARKXD_REQUIRE(n_out <= floats && (n_out == 0 || n_in <= floats / n_out),
                    "model file is too short for its declared shape");
    const std::uint64_t layer = n_in * n_out + n_out + 4;
    SPARKXD_REQUIRE(layer <= floats,
                    "model file is too short for its declared shape");
    floats -= layer;
  }
}

}  // namespace

void save_model(const TrainedModel& model, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);

  const auto& cfg = model.net.config();
  write_pod(os, static_cast<std::uint64_t>(cfg.n_inputs));
  write_pod(os, static_cast<std::uint64_t>(cfg.n_neurons));
  write_vec(os, std::vector<std::uint64_t>(cfg.hidden_neurons.begin(),
                                           cfg.hidden_neurons.end()));
  write_pod(os, static_cast<std::uint64_t>(cfg.timesteps));
  write_pod(os, cfg.seed);

  for (std::size_t l = 0; l < model.net.n_layers(); ++l) {
    write_vec(os, model.net.weights(l));
    write_vec(os, model.net.thetas(l));
  }
  write_vec(os, model.labels.label);
  write_vec(os, model.labels.bias);
  write_pod(os, static_cast<std::uint64_t>(model.labels.num_classes));
  write_pod(os, model.clean_accuracy);
  SPARKXD_ENSURE(os.good(), "model write failed");
}

void save_model(const TrainedModel& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SPARKXD_REQUIRE(os.good(), "cannot open model file for writing");
  save_model(model, static_cast<std::ostream&>(os));
  os.close();
  SPARKXD_ENSURE(os.good(), "model write failed");
}

TrainedModel load_model(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  SPARKXD_REQUIRE(is.good() && std::memcmp(magic, kMagic, 4) == 0,
                  "not a SparkXD model file");
  std::uint32_t version = 0;
  read_pod(is, version, kTruncated);
  SPARKXD_REQUIRE(version == kVersion, "unsupported model file version");

  NetworkConfig cfg;
  std::uint64_t n_inputs = 0, n_neurons = 0, timesteps = 0;
  read_pod(is, n_inputs, kTruncated);
  read_pod(is, n_neurons, kTruncated);
  std::vector<std::uint64_t> hidden;
  read_vec(is, hidden, 0, 1024, "model file declares an absurd layer count");
  read_pod(is, timesteps, kTruncated);
  cfg.n_inputs = static_cast<std::size_t>(n_inputs);
  cfg.n_neurons = static_cast<std::size_t>(n_neurons);
  cfg.hidden_neurons.assign(hidden.begin(), hidden.end());
  cfg.timesteps = static_cast<std::size_t>(timesteps);
  read_pod(is, cfg.seed, kTruncated);

  // The layer payloads are read before the network is built, so the shape
  // must first fit the bytes actually stored. Every payload count below
  // must then equal the count the stored shape implies.
  require_payload_fits(cfg, bytes_left(is));
  std::vector<std::vector<float>> weights(cfg.n_layers());
  std::vector<std::vector<float>> thetas(cfg.n_layers());
  for (std::size_t l = 0; l < cfg.n_layers(); ++l) {
    const std::size_t n_w = cfg.layer_weight_count(l);
    const std::size_t n_th = cfg.layer_neurons(l);
    read_vec(is, weights[l], n_w, n_w,
             "weight payload does not match the stored shape");
    read_vec(is, thetas[l], n_th, n_th,
             "theta payload does not match the stored shape");
  }
  // The constructor checks the config, finiteness and the Q47.16 bound.
  TrainedModel model{Network(cfg, std::move(weights), std::move(thetas)),
                     {}, 0.0};

  read_vec(is, model.labels.label, cfg.n_neurons, cfg.n_neurons,
           "label payload does not match the stored shape");
  read_vec(is, model.labels.bias, cfg.n_neurons, cfg.n_neurons,
           "label payload does not match the stored shape");
  // Biases reach the vote (the network checked its own parameters).
  for (const double b : model.labels.bias)
    SPARKXD_REQUIRE(std::isfinite(b),
                    "model file holds a non-finite label bias");
  std::uint64_t num_classes = 0;
  read_pod(is, num_classes, kTruncated);
  // Every served request votes into num_classes slots indexed by these
  // labels: bound both before a crafted file can reach the readout.
  // Dataset labels are uint8, so labelling never yields more than 256.
  SPARKXD_REQUIRE(num_classes >= 1 && num_classes <= 256,
                  "model file declares a class count outside [1, 256]");
  for (const std::int32_t c : model.labels.label)
    SPARKXD_REQUIRE(c >= -1 && c < static_cast<std::int32_t>(num_classes),
                    "model file holds a neuron label outside "
                    "[-1, num_classes)");
  model.labels.num_classes = static_cast<std::size_t>(num_classes);
  read_pod(is, model.clean_accuracy, kTruncated);
  return model;
}

TrainedModel load_model(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SPARKXD_REQUIRE(is.good(), "cannot open model file for reading");
  return load_model(static_cast<std::istream&>(is));
}

}  // namespace sparkxd::snn
