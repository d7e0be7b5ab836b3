// Seeded mutation fuzz of the two on-disk formats: SXDM model files
// (snn::load_model) and SXDA serving artifacts (serve::load_artifact).
// Every truncation and every single-byte mutation of a valid file must
// either load or throw ContractViolation — never crash, over-read, or
// allocate from an unchecked length (std::bad_alloc and std::length_error
// escape the loaders and fail the test). The sanitizer CI job runs this
// under ASan+UBSan, which turns any out-of-bounds read into a failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "scenario/scenario.hpp"
#include "serve/artifact.hpp"
#include "snn/model_io.hpp"

namespace sparkxd {
namespace {

/// Runs `load`; true when it returned, false when it threw
/// ContractViolation. Any other exception propagates and fails the test.
template <typename Load>
bool loads(Load&& load) {
  try {
    load();
    return true;
  } catch (const ContractViolation&) {
    return false;
  }
}

/// A small trained-shape model saved to bytes: random weights and thetas
/// from the Network initialisation, a label and bias per output neuron.
std::string saved_model(snn::NetworkConfig cfg) {
  snn::TrainedModel model{snn::Network(cfg), {}, 0.75};
  for (std::size_t n = 0; n < cfg.n_neurons; ++n) {
    model.labels.label.push_back(static_cast<std::int32_t>(n % 4) - 1);
    model.labels.bias.push_back(0.25 * static_cast<double>(n));
  }
  model.labels.num_classes = 3;
  std::ostringstream os;
  snn::save_model(model, static_cast<std::ostream&>(os));
  return os.str();
}

bool model_loads(const std::string& bytes) {
  return loads([&] {
    std::istringstream is(bytes);
    (void)snn::load_model(static_cast<std::istream&>(is));
  });
}

/// Truncation at every length, then `mutations` seeded single-byte
/// mutations (some with a trailing garbage byte).
void fuzz_model(const std::string& pristine, std::uint64_t seed,
                int mutations) {
  ASSERT_TRUE(model_loads(pristine));
  for (std::size_t cut = 0; cut < pristine.size(); ++cut)
    EXPECT_FALSE(model_loads(pristine.substr(0, cut))) << "cut " << cut;
  Rng rng(seed);
  int loaded = 0, rejected = 0;
  for (int i = 0; i < mutations; ++i) {
    std::string mutated = pristine;
    mutated[rng.index(mutated.size())] =
        static_cast<char>(rng.uniform_int(0, 255));
    if (rng.bernoulli(0.1)) mutated.push_back('\xff');
    (model_loads(mutated) ? loaded : rejected) += 1;
  }
  // Both outcomes occur, so the mutations reach past the header checks.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ModelFileFuzz, FlatModelSurvivesTruncationAndMutation) {
  snn::NetworkConfig cfg;
  cfg.n_inputs = 16;
  cfg.n_neurons = 6;
  cfg.timesteps = 10;
  fuzz_model(saved_model(cfg), 0xF1A7, 3000);
}

TEST(ModelFileFuzz, DeepModelSurvivesTruncationAndMutation) {
  snn::NetworkConfig cfg;
  cfg.n_inputs = 16;
  cfg.hidden_neurons = {5, 4};
  cfg.n_neurons = 6;
  cfg.timesteps = 10;
  fuzz_model(saved_model(cfg), 0xDEE9, 3000);
}

/// The exported artifact of the golden smoke scenario, the file
/// `sparkxd_run --scenario smoke-digits-m0 --export-artifact` writes.
class ArtifactFileFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    const scenario::Scenario* s = scenario::find_scenario("smoke-digits-m0");
    ASSERT_NE(s, nullptr);
    core::ArtifactState state;
    (void)core::run_pipeline(s->pipeline_config(), &state);
    path_ = ::testing::TempDir() + "file_fuzz_test.sxda";
    serve::save_artifact(serve::make_artifact(s->name, std::move(state)),
                         path_);
    std::ifstream is(path_, std::ios::binary);
    pristine_.assign(std::istreambuf_iterator<char>(is), {});
  }
  void TearDown() override { std::remove(path_.c_str()); }

  bool artifact_loads(const std::string& bytes) const {
    {
      std::ofstream os(path_, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return loads([&] { (void)serve::load_artifact(path_); });
  }

  std::string path_;
  std::string pristine_;
};

TEST_F(ArtifactFileFuzz, SmokeArtifactSurvivesTruncationAndMutation) {
  ASSERT_TRUE(artifact_loads(pristine_));
  // A cut past the embedded model loads the whole model before the short
  // read (about 0.5 ms each), and the file is 150 KB: every length of
  // the first and last KiB, which hold every header and count field of the
  // artifact and of the model, plus every 127th length in between.
  const std::size_t size = pristine_.size();
  for (std::size_t cut = 0; cut < size;
       cut += (cut < 1024 || cut + 1024 >= size) ? 1 : 127)
    EXPECT_FALSE(artifact_loads(pristine_.substr(0, cut))) << "cut " << cut;

  Rng rng(0xA27F);
  int loaded = 0, rejected = 0;
  const auto mutate_at = [&](std::size_t pos) {
    std::string mutated = pristine_;
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    (artifact_loads(mutated) ? loaded : rejected) += 1;
  };
  for (std::size_t pos = 0; pos < 256; ++pos) mutate_at(pos);
  for (int i = 0; i < 300; ++i) mutate_at(rng.index(size));
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace sparkxd
