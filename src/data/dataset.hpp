#pragma once
// Dataset substrate.
//
// The paper evaluates on MNIST and Fashion-MNIST. Those files are not
// available in this offline environment, so we substitute deterministic
// *procedural* datasets with the same interface contract the experiments rely
// on: 28x28 grayscale images in [0,1], 10 classes, a harder second task.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sparkxd::data {

/// Side length of every generated image (28x28 pixels, like MNIST).
inline constexpr std::size_t kImageSide = 28;

/// A labelled set of same-sized grayscale images, pixel values in [0, 1].
struct Dataset {
  std::size_t width = 0;
  std::size_t height = 0;
  /// images[i] has width*height pixels, row-major.
  std::vector<std::vector<float>> images;
  /// labels[i] in [0, num_classes).
  std::vector<std::uint8_t> labels;
  std::size_t num_classes = 0;
  std::string name;

  [[nodiscard]] std::size_t size() const noexcept { return images.size(); }
  [[nodiscard]] std::size_t pixels() const noexcept { return width * height; }

  /// Splits off the first `n` samples into a new dataset (view-by-copy).
  [[nodiscard]] Dataset take(std::size_t n) const;
  /// Returns samples [n, size()).
  [[nodiscard]] Dataset drop(std::size_t n) const;
};

/// Which synthetic task to generate.
enum class Task : std::uint8_t {
  kDigits,   ///< MNIST stand-in: stroke-rendered digits 0-9.
  kFashion,  ///< Fashion-MNIST stand-in: garment silhouettes (harder).
};

[[nodiscard]] const char* to_string(Task t) noexcept;

/// Generates `n` samples of the given task; class labels are balanced
/// round-robin. Deterministic in (task, n, seed).
[[nodiscard]] Dataset make_dataset(Task task, std::size_t n,
                                   std::uint64_t seed);

}  // namespace sparkxd::data
