#include "serve/artifact.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/contracts.hpp"
#include "common/pod_io.hpp"
#include "snn/model_io.hpp"

namespace sparkxd::serve {

namespace {

constexpr char kMagic[4] = {'S', 'X', 'D', 'A'};
constexpr std::uint32_t kVersion = 2;
constexpr const char* kTruncated = "truncated artifact file";

/// Reads `n` fixed-size records in one block. The caller bounds `n` before
/// calling, so the buffer is never sized from an unchecked count; a short
/// read is a truncated file.
std::vector<char> read_records(std::istream& is, std::size_t n,
                               std::size_t record_bytes) {
  std::vector<char> buf(n * record_bytes);
  is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  SPARKXD_REQUIRE(is.good(), kTruncated);
  return buf;
}

/// Decodes one field from a record block and advances past it.
template <typename T>
const char* take(const char* p, T& v) {
  std::memcpy(&v, p, sizeof(T));
  return p + sizeof(T);
}

/// Encodes one field into a record block and advances past it.
template <typename T>
char* put(char* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  std::uint64_t n = 0;
  read_pod(is, n, kTruncated);
  SPARKXD_REQUIRE(n <= 4096, "artifact string length is absurd");
  std::string s(static_cast<std::size_t>(n), '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  SPARKXD_REQUIRE(is.good(), kTruncated);
  return s;
}

void write_frozen(std::ostream& os, const error::FrozenInjection& f) {
  write_pod(os, f.ber());
  write_pod(os, f.p0());
  write_pod(os, f.p1());
  write_pod(os, static_cast<std::uint8_t>(f.data_dependent() ? 1 : 0));
  write_pod(os, static_cast<std::uint64_t>(f.payload_bytes()));
  write_pod(os, static_cast<std::uint64_t>(f.entries().size()));
  std::vector<char> block(f.entries().size() *
                          (sizeof(std::uint32_t) + sizeof(std::uint8_t)));
  char* q = block.data();
  for (const auto& e : f.entries()) {
    q = put(q, e.word);
    q = put(q, e.bit);
  }
  os.write(block.data(), static_cast<std::streamsize>(block.size()));
}

/// Reads one layer's frozen table. The payload must be the layer's FP32
/// weights, and each payload bit is listed at most once, which bounds the
/// declared entry count before the vector is allocated.
error::FrozenInjection read_frozen(std::istream& is, std::size_t n_weights) {
  double ber = 0.0, p0 = 0.0, p1 = 0.0;
  read_pod(is, ber, kTruncated);
  read_pod(is, p0, kTruncated);
  read_pod(is, p1, kTruncated);
  std::uint8_t dd = 0;
  read_pod(is, dd, kTruncated);
  SPARKXD_REQUIRE(dd <= 1, "artifact data-dependence flag is corrupt");
  std::uint64_t payload = 0, n = 0;
  read_pod(is, payload, kTruncated);
  SPARKXD_REQUIRE(payload == n_weights * sizeof(float),
                  "artifact frozen table does not cover the layer weights");
  read_pod(is, n, kTruncated);
  SPARKXD_REQUIRE(n <= payload * 8,
                  "artifact frozen table has more entries than payload bits");
  std::vector<error::FrozenInjection::Entry> entries(
      static_cast<std::size_t>(n));
  const auto block = read_records(
      is, entries.size(), sizeof(std::uint32_t) + sizeof(std::uint8_t));
  const char* q = block.data();
  for (auto& e : entries) {
    q = take(q, e.word);
    q = take(q, e.bit);
  }
  // from_parts re-validates every entry against the payload size.
  return error::FrozenInjection::from_parts(std::move(entries), ber, p0, p1,
                                            dd != 0,
                                            static_cast<std::size_t>(payload));
}

}  // namespace

void ServingArtifact::validate() const {
  SPARKXD_REQUIRE(!scenario.empty(), "artifact needs a scenario name");
  SPARKXD_REQUIRE(std::isfinite(v_supply) && v_supply > 0.0,
                  "artifact supply voltage must be positive and finite");
  SPARKXD_REQUIRE(std::isfinite(module_ber) && module_ber >= 0.0 &&
                      module_ber < 1.0,
                  "artifact module BER must lie in [0, 1)");
  const auto& cfg = model.net.config();
  core::require_weight_clip(weight_clip);
  SPARKXD_REQUIRE(layers.size() == model.net.n_layers(),
                  "artifact needs one layer entry per network layer");
  for (std::size_t l = 0; l < layers.size(); ++l)
    SPARKXD_REQUIRE(layers[l].frozen.payload_bytes() ==
                        cfg.layer_weight_count(l) * sizeof(float),
                    "artifact frozen table does not cover the layer weights");
}

ServingArtifact make_artifact(std::string scenario_name,
                              core::ArtifactState&& captured) {
  SPARKXD_REQUIRE(captured.model.has_value(),
                  "artifact capture holds no model — run run_pipeline with "
                  "this ArtifactState first");
  ServingArtifact art(std::move(*captured.model));
  art.scenario = std::move(scenario_name);
  art.v_supply = captured.v_supply;
  art.module_ber = captured.module_ber;
  art.weight_clip = captured.weight_clip;
  SPARKXD_REQUIRE(captured.frozen.size() == art.model.net.n_layers(),
                  "artifact capture is incomplete — frozen tables missing "
                  "for some layers");
  art.layers.reserve(captured.frozen.size());
  for (auto& frozen : captured.frozen)
    art.layers.push_back({std::move(frozen)});
  art.validate();
  return art;
}

void save_artifact(const ServingArtifact& artifact, const std::string& path) {
  artifact.validate();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SPARKXD_REQUIRE(os.good(), "cannot open artifact file for writing");
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_string(os, artifact.scenario);
  write_pod(os, artifact.v_supply);
  write_pod(os, artifact.module_ber);
  write_pod(os, artifact.weight_clip);
  // The model section embeds the complete model_io container (magic +
  // version + payload), so artifact and standalone model files share one
  // format and one loader.
  snn::save_model(artifact.model, static_cast<std::ostream&>(os));
  write_pod(os, static_cast<std::uint64_t>(artifact.layers.size()));
  for (const auto& layer : artifact.layers) write_frozen(os, layer.frozen);
  os.close();
  SPARKXD_ENSURE(os.good(), "artifact write failed");
}

ServingArtifact load_artifact(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SPARKXD_REQUIRE(is.good(), "cannot open artifact file for reading");
  char magic[4];
  is.read(magic, sizeof(magic));
  SPARKXD_REQUIRE(is.good() && std::memcmp(magic, kMagic, 4) == 0,
                  "not a SparkXD serving artifact");
  std::uint32_t version = 0;
  read_pod(is, version, kTruncated);
  SPARKXD_REQUIRE(version == kVersion, "unsupported artifact version");
  const std::string scenario = read_string(is);
  double v_supply = 0.0, module_ber = 0.0;
  float weight_clip = 0.0f;
  read_pod(is, v_supply, kTruncated);
  read_pod(is, module_ber, kTruncated);
  read_pod(is, weight_clip, kTruncated);
  ServingArtifact art(snn::load_model(static_cast<std::istream&>(is)));
  art.scenario = scenario;
  art.v_supply = v_supply;
  art.module_ber = module_ber;
  art.weight_clip = weight_clip;
  std::uint64_t n_layers = 0;
  read_pod(is, n_layers, kTruncated);
  SPARKXD_REQUIRE(n_layers == art.model.net.n_layers(),
                  "artifact layer count does not match the stored model");
  art.layers.reserve(static_cast<std::size_t>(n_layers));
  const auto& cfg = art.model.net.config();
  for (std::size_t l = 0; l < n_layers; ++l)
    art.layers.push_back({read_frozen(is, cfg.layer_weight_count(l))});
  art.validate();
  return art;
}

std::shared_ptr<const ServingArtifact> load_artifact_shared(
    const std::string& path) {
  return std::make_shared<const ServingArtifact>(load_artifact(path));
}

}  // namespace sparkxd::serve
