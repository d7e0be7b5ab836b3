// Tests for trained-model serialization (save_model / load_model).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/contracts.hpp"
#include "data/dataset.hpp"
#include "snn/model_io.hpp"

namespace sparkxd::snn {
namespace {

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(is.good()) << path;
  std::vector<char> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// The first ten test samples get the same vote from both models, drawing
/// the same spike trains.
void expect_same_votes(const TrainedModel& a, const TrainedModel& b,
                       const data::Dataset& test) {
  InferenceState state_a(a.net), state_b(b.net);
  Rng rng_a(9), rng_b(9);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(vote_spike_counts(a.net.infer(state_a, test.images[i], rng_a),
                                a.labels),
              vote_spike_counts(b.net.infer(state_b, test.images[i], rng_b),
                                b.labels));
}

/// Writes `value`'s bytes at `offset` of the file at `path`.
template <typename T>
void patch_file(const std::string& path, std::streamoff offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "sparkxd_model_io_test.sxdm";
    const auto all = data::make_dataset(data::Task::kDigits, 120, 3);
    train_ = all.take(90);
    test_ = all.drop(90);
    NetworkConfig cfg;
    cfg.n_neurons = 25;
    cfg.timesteps = 30;
    cfg.seed = 3;
    Rng rng(3);
    model_ = std::make_unique<TrainedModel>(
        train_and_label(cfg, train_, test_, 1, rng));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  data::Dataset train_, test_;
  std::unique_ptr<TrainedModel> model_;
};

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  save_model(*model_, path_);
  const auto loaded = load_model(path_);
  EXPECT_EQ(loaded.net.weights(0), model_->net.weights(0));
  EXPECT_EQ(loaded.net.thetas(0), model_->net.thetas(0));
  EXPECT_EQ(loaded.labels.label, model_->labels.label);
  EXPECT_EQ(loaded.labels.bias, model_->labels.bias);
  EXPECT_EQ(loaded.labels.num_classes, model_->labels.num_classes);
  EXPECT_EQ(loaded.clean_accuracy, model_->clean_accuracy);
  const auto& a = loaded.net.config();
  const auto& b = model_->net.config();
  EXPECT_EQ(a.n_inputs, b.n_inputs);
  EXPECT_EQ(a.n_neurons, b.n_neurons);
  EXPECT_EQ(a.timesteps, b.timesteps);
  EXPECT_EQ(a.seed, b.seed);
}

TEST_F(ModelIoTest, LoadedModelPredictsIdentically) {
  save_model(*model_, path_);
  auto loaded = load_model(path_);
  expect_same_votes(loaded, *model_, test_);
}

TEST_F(ModelIoTest, RejectsMissingFile) {
  EXPECT_THROW((void)load_model("/nonexistent/dir/model.sxdm"),
               ContractViolation);
}

TEST_F(ModelIoTest, RejectsBadMagic) {
  std::ofstream os(path_, std::ios::binary);
  os << "NOTAMODELFILE_____________________";
  os.close();
  EXPECT_THROW((void)load_model(path_), ContractViolation);
}

TEST_F(ModelIoTest, RejectsTruncatedFile) {
  save_model(*model_, path_);
  // Truncate to half size.
  std::ifstream is(path_, std::ios::binary | std::ios::ate);
  const auto full = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  std::vector<char> buf(full / 2);
  is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  is.close();
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  os.close();
  EXPECT_THROW((void)load_model(path_), ContractViolation);
}

TEST_F(ModelIoTest, SaveLoadSaveIsByteIdentical) {
  save_model(*model_, path_);
  const auto loaded = load_model(path_);
  const std::string path2 = path_ + ".resaved";
  save_model(loaded, path2);
  EXPECT_EQ(file_bytes(path_), file_bytes(path2));
  std::remove(path2.c_str());
}

// Two *separately constructed* models with identical values must serialize
// to identical bytes. This is the reproducible-artifact contract: v2 wrote
// LifParams/StdpParams as raw struct images, so uninitialized alignment
// padding leaked into the file and two exports of the same scenario
// differed on disk. v3 serialized them field by field; v4 stores neither
// (they are compile-time constants).
TEST_F(ModelIoTest, IndependentlyTrainedTwinsSerializeIdentically) {
  NetworkConfig cfg;
  cfg.n_neurons = 25;
  cfg.timesteps = 30;
  cfg.seed = 3;
  Rng rng(3);
  const TrainedModel twin = train_and_label(cfg, train_, test_, 1, rng);
  const std::string path2 = path_ + ".twin";
  save_model(*model_, path_);
  save_model(twin, path2);
  EXPECT_EQ(file_bytes(path_), file_bytes(path2));
  std::remove(path2.c_str());
}

TEST_F(ModelIoTest, RejectsBadVersion) {
  save_model(*model_, path_);
  // Corrupt the version field (u32 right after the 4-byte magic).
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);
  const std::uint32_t bogus = 999;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  EXPECT_THROW((void)load_model(path_), ContractViolation);
}

TEST_F(ModelIoTest, RejectsAVersion3File) {
  // A v3 file: the v4 layout plus dt_ms, max_rate and norm_target before
  // the seed, and the LIF (38 bytes) and STDP (20 bytes) blocks after it.
  save_model(*model_, path_);
  std::vector<char> bytes = file_bytes(path_);
  const std::uint32_t v3 = 3;
  std::memcpy(bytes.data() + 4, &v3, sizeof(v3));
  // magic, version, n_inputs, n_neurons, empty hidden list, timesteps.
  const std::size_t seed_at = 4 + 4 + 8 + 8 + 8 + 8;
  bytes.insert(bytes.begin() + seed_at + 8, 38 + 20, '\0');
  const float dt_rate_norm[3] = {1.0f, 0.3f, 11.0f};
  const char* raw = reinterpret_cast<const char*>(dt_rate_norm);
  bytes.insert(bytes.begin() + seed_at, raw, raw + sizeof(dt_rate_norm));
  {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)load_model(path_);
    ADD_FAILURE() << "a v3 model file loaded";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported model file version"),
              std::string::npos)
        << e.what();
  }
}

// The deep-stack variants: the container must round-trip a multi-layer
// model (per-layer weight/theta blobs) just as faithfully as the flat one.
class ModelIoDeepTest : public ModelIoTest {
 protected:
  void SetUp() override {
    ModelIoTest::SetUp();
    NetworkConfig cfg;
    cfg.n_neurons = 20;
    cfg.hidden_neurons = {12};
    cfg.timesteps = 30;
    cfg.seed = 3;
    Rng rng(3);
    model_ = std::make_unique<TrainedModel>(
        train_and_label(cfg, train_, test_, 1, rng));
  }
};

TEST_F(ModelIoDeepTest, RoundTripPreservesEveryLayer) {
  ASSERT_EQ(model_->net.n_layers(), 2u);
  save_model(*model_, path_);
  const auto loaded = load_model(path_);
  ASSERT_EQ(loaded.net.n_layers(), model_->net.n_layers());
  for (std::size_t l = 0; l < model_->net.n_layers(); ++l) {
    EXPECT_EQ(loaded.net.weights(l), model_->net.weights(l));
    EXPECT_EQ(loaded.net.thetas(l), model_->net.thetas(l));
  }
  EXPECT_EQ(loaded.net.config().hidden_neurons,
            model_->net.config().hidden_neurons);
  EXPECT_EQ(loaded.clean_accuracy, model_->clean_accuracy);
}

TEST_F(ModelIoDeepTest, LoadedModelPredictsIdentically) {
  save_model(*model_, path_);
  auto loaded = load_model(path_);
  expect_same_votes(loaded, *model_, test_);
}

TEST_F(ModelIoDeepTest, SaveLoadSaveIsByteIdentical) {
  save_model(*model_, path_);
  const auto loaded = load_model(path_);
  const std::string path2 = path_ + ".resaved";
  save_model(loaded, path2);
  EXPECT_EQ(file_bytes(path_), file_bytes(path2));
  std::remove(path2.c_str());
}

TEST_F(ModelIoDeepTest, RejectsTruncatedFile) {
  save_model(*model_, path_);
  const auto bytes = file_bytes(path_);
  // Cut inside the second layer's blobs.
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 64));
  os.close();
  EXPECT_THROW((void)load_model(path_), ContractViolation);
}

// The readout payload sits at the end of the file: label vector (u64 count
// + int32 per neuron), bias vector (u64 count + f64 per neuron),
// num_classes (u64), clean accuracy (f64). A label outside
// [-1, num_classes) would make every vote index past its class table.
TEST_F(ModelIoTest, RejectsOutOfRangeLabel) {
  save_model(*model_, path_);
  const auto n = static_cast<std::streamoff>(model_->labels.label.size());
  const auto size = static_cast<std::streamoff>(file_bytes(path_).size());
  const std::streamoff first_label = size - 8 - 8 - (8 + 8 * n) - 4 * n;
  patch_file(path_, first_label + 4 * 3, std::int32_t{50});
  EXPECT_THROW((void)load_model(path_), ContractViolation);
  patch_file(path_, first_label + 4 * 3, std::int32_t{-2});
  EXPECT_THROW((void)load_model(path_), ContractViolation);
  patch_file(path_, first_label + 4 * 3, std::int32_t{-1});  // "never fired"
  EXPECT_NO_THROW((void)load_model(path_));
}

TEST_F(ModelIoTest, RejectsAbsurdClassCount) {
  // Every request allocates num_classes votes; Dataset labels are uint8, so
  // more than 256 classes can never come from labelling.
  save_model(*model_, path_);
  const auto size = static_cast<std::streamoff>(file_bytes(path_).size());
  patch_file(path_, size - 16, std::uint64_t{1} << 40);
  EXPECT_THROW((void)load_model(path_), ContractViolation);
  patch_file(path_, size - 16, std::uint64_t{0});
  EXPECT_THROW((void)load_model(path_), ContractViolation);
  patch_file(path_, size - 16, std::uint64_t{256});  // labels all < 10
  EXPECT_NO_THROW((void)load_model(path_));
}

// Payload offsets of a flat model: the header ends with the seed; the
// weight blob (u64 count + f32 each) follows, then the
// theta blob (u64 count + f32 each), then the readout above.
TEST_F(ModelIoTest, RejectsNonFiniteWeightsThetasAndBiases) {
  save_model(*model_, path_);
  const auto pristine = file_bytes(path_);
  const auto size = static_cast<std::streamoff>(pristine.size());
  const auto n = static_cast<std::streamoff>(model_->labels.label.size());
  const auto n_w = static_cast<std::streamoff>(model_->net.weights(0).size());
  const std::streamoff first_bias = size - 8 - 8 - 8 * n;
  const std::streamoff first_theta = first_bias - 8 - 4 * n - 8 - 4 * n;
  const std::streamoff first_weight = first_theta - 8 - 4 * n_w;
  // The offsets land on the stored values.
  float w = 0.0f, th = 0.0f;
  double b = 0.0;
  std::memcpy(&w, pristine.data() + first_weight + 4 * 7, sizeof(w));
  std::memcpy(&th, pristine.data() + first_theta + 4 * 2, sizeof(th));
  std::memcpy(&b, pristine.data() + first_bias + 8 * 4, sizeof(b));
  ASSERT_EQ(w, model_->net.weights(0)[7]);
  ASSERT_EQ(th, model_->net.thetas(0)[2]);
  ASSERT_EQ(b, model_->labels.bias[4]);

  const auto restore = [&] {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
  };
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    patch_file(path_, first_weight + 4 * 7, bad);
    EXPECT_THROW((void)load_model(path_), ContractViolation)
        << "weight " << bad;
    restore();
    patch_file(path_, first_theta + 4 * 2, bad);
    EXPECT_THROW((void)load_model(path_), ContractViolation) << "theta " << bad;
    restore();
    patch_file(path_, first_bias + 8 * 4, static_cast<double>(bad));
    EXPECT_THROW((void)load_model(path_), ContractViolation) << "bias " << bad;
    restore();
  }
  EXPECT_NO_THROW((void)load_model(path_));
}

TEST_F(ModelIoTest, RejectsWeightsThatCouldOverflowTheFxAccumulator) {
  // The event-fx kernel sums |w| * 2^16 over a layer's fan-in in an int64;
  // a finite weight with |w| * 2^16 * fan_in >= 2^62 is refused at load.
  save_model(*model_, path_);
  const auto pristine = file_bytes(path_);
  const auto size = static_cast<std::streamoff>(pristine.size());
  const auto n = static_cast<std::streamoff>(model_->labels.label.size());
  const auto n_w = static_cast<std::streamoff>(model_->net.weights(0).size());
  const std::streamoff first_bias = size - 8 - 8 - 8 * n;
  const std::streamoff first_theta = first_bias - 8 - 4 * n - 8 - 4 * n;
  const std::streamoff first_weight = first_theta - 8 - 4 * n_w;
  const double fan_in =
      static_cast<double>(model_->net.config().layer_inputs(0));
  const float limit = static_cast<float>(0x1p62 / (0x1p16 * fan_in));
  const auto restore = [&] {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
  };
  for (const float bad : {limit * 1.01f, -limit * 1.01f, 1e30f,
                          std::numeric_limits<float>::max()}) {
    patch_file(path_, first_weight + 4 * 7, bad);
    EXPECT_THROW((void)load_model(path_), ContractViolation) << bad;
    restore();
  }
  // Just under the bound still loads.
  patch_file(path_, first_weight + 4 * 7, limit * 0.99f);
  EXPECT_NO_THROW((void)load_model(path_));
  restore();
}

TEST_F(ModelIoTest, RejectsCorruptShape) {
  save_model(*model_, path_);
  const auto pristine = file_bytes(path_);
  const auto restore = [&] {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
  };
  // Corrupt the stored n_neurons field (offset: magic 4 + version 4 +
  // n_inputs 8 = byte 16).
  patch_file(path_, 16, std::uint64_t{9999});
  EXPECT_THROW((void)load_model(path_), ContractViolation);

  // A layer shape whose n_in x n_out overflows (2^62 x 4 wraps to 0) or
  // exceeds 2^32 synapses is refused before Network allocates it.
  restore();
  patch_file(path_, 8, std::uint64_t{1} << 62);
  patch_file(path_, 16, std::uint64_t{4});
  EXPECT_THROW((void)load_model(path_), ContractViolation);
  restore();
  patch_file(path_, 16, std::uint64_t{1} << 32);
  EXPECT_THROW((void)load_model(path_), ContractViolation);

  // Crafted payload counts (u64 before each blob, offsets as in
  // RejectsNonFiniteWeightsThetasAndBiases) must equal the stored shape:
  // a 2^31-element count would otherwise be allocated before the shape
  // check.
  const auto size = static_cast<std::streamoff>(pristine.size());
  const auto n = static_cast<std::streamoff>(model_->labels.label.size());
  const auto n_w = static_cast<std::streamoff>(model_->net.weights(0).size());
  const std::streamoff bias_count = size - 8 - 8 - 8 * n - 8;
  const std::streamoff label_count = bias_count - 4 * n - 8;
  const std::streamoff theta_count = label_count - 4 * n - 8;
  const std::streamoff weight_count = theta_count - 4 * n_w - 8;
  const auto u64_at = [&](std::streamoff off) {
    std::uint64_t v = 0;
    std::memcpy(&v, pristine.data() + off, sizeof(v));
    return v;
  };
  // The offsets land on the stored counts.
  ASSERT_EQ(u64_at(bias_count), model_->labels.bias.size());
  ASSERT_EQ(u64_at(label_count), model_->labels.label.size());
  ASSERT_EQ(u64_at(theta_count), model_->net.thetas(0).size());
  ASSERT_EQ(u64_at(weight_count), model_->net.weights(0).size());
  for (const std::streamoff at :
       {weight_count, theta_count, label_count, bias_count})
    for (const std::uint64_t bogus :
         {std::uint64_t{1} << 31, u64_at(at) + 1, u64_at(at) - 1}) {
      restore();
      patch_file(path_, at, bogus);
      EXPECT_THROW((void)load_model(path_), ContractViolation)
          << "count at " << at << " = " << bogus;
    }
  restore();
  EXPECT_NO_THROW((void)load_model(path_));
}

TEST_F(ModelIoTest, RejectsShapeLargerThanTheFileBeforeAllocating) {
  // n_neurons inflated from 25 to 1024: 784 x 1024 weights (about 3 MiB
  // per FP32 copy) declared by a file of about 80 KiB. The loader must
  // refuse the shape against the bytes left in the stream, before it
  // sizes a payload vector from it.
  save_model(*model_, path_);
  patch_file(path_, 16, std::uint64_t{1024});
  try {
    (void)load_model(path_);
    FAIL() << "inflated shape loaded";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("too short for its declared shape"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sparkxd::snn
