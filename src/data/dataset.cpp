#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "data/canvas.hpp"

namespace sparkxd::data {

namespace {

/// Per-sample geometric jitter parameters.
struct Jitter {
  double rot;        // radians
  double scale;      // isotropic
  double dx, dy;     // pixels
  double thickness;  // stroke thickness in pixels
};

Jitter draw_jitter(Rng& rng, double max_rot, double max_shift) {
  Jitter j{};
  j.rot = rng.uniform(-max_rot, max_rot);
  j.scale = rng.uniform(0.85, 1.12);
  j.dx = rng.uniform(-max_shift, max_shift);
  j.dy = rng.uniform(-max_shift, max_shift);
  j.thickness = rng.uniform(1.6, 2.6);
  return j;
}

/// Renders one digit glyph (classes 0-9) with the given stroke thickness.
/// Glyphs are authored as short stroke/ellipse programs in normalized
/// coordinates; they are deliberately simple — intra-class variation comes
/// from the affine jitter and noise, mirroring handwritten variation.
void render_digit(Canvas& c, int cls, double t) {
  switch (cls) {
    case 0:
      c.ellipse(0.50, 0.50, 0.17, 0.26, t);
      break;
    case 1:
      c.stroke(0.55, 0.22, 0.55, 0.78, t);
      c.stroke(0.44, 0.34, 0.55, 0.22, t);
      break;
    case 2:
      c.stroke(0.33, 0.33, 0.42, 0.24, t);
      c.stroke(0.42, 0.24, 0.60, 0.24, t);
      c.stroke(0.60, 0.24, 0.67, 0.35, t);
      c.stroke(0.67, 0.35, 0.34, 0.76, t);
      c.stroke(0.34, 0.76, 0.68, 0.76, t);
      break;
    case 3:
      c.stroke(0.34, 0.25, 0.64, 0.25, t);
      c.stroke(0.64, 0.25, 0.48, 0.48, t);
      c.stroke(0.48, 0.48, 0.66, 0.58, t);
      c.stroke(0.66, 0.58, 0.60, 0.74, t);
      c.stroke(0.60, 0.74, 0.36, 0.76, t);
      break;
    case 4:
      c.stroke(0.58, 0.22, 0.34, 0.58, t);
      c.stroke(0.34, 0.58, 0.70, 0.58, t);
      c.stroke(0.58, 0.22, 0.58, 0.78, t);
      break;
    case 5:
      c.stroke(0.66, 0.23, 0.37, 0.23, t);
      c.stroke(0.37, 0.23, 0.37, 0.48, t);
      c.stroke(0.37, 0.48, 0.58, 0.46, t);
      c.stroke(0.58, 0.46, 0.67, 0.60, t);
      c.stroke(0.67, 0.60, 0.56, 0.76, t);
      c.stroke(0.56, 0.76, 0.35, 0.73, t);
      break;
    case 6:
      c.stroke(0.60, 0.22, 0.42, 0.48, t);
      c.ellipse(0.49, 0.62, 0.15, 0.15, t);
      break;
    case 7:
      c.stroke(0.33, 0.24, 0.68, 0.24, t);
      c.stroke(0.68, 0.24, 0.45, 0.78, t);
      break;
    case 8:
      c.ellipse(0.50, 0.36, 0.13, 0.13, t);
      c.ellipse(0.50, 0.64, 0.16, 0.15, t);
      break;
    case 9:
      c.ellipse(0.50, 0.38, 0.15, 0.15, t);
      c.stroke(0.64, 0.44, 0.55, 0.78, t);
      break;
    default:
      SPARKXD_REQUIRE(false, "digit class out of range");
  }
}

/// Renders one garment silhouette (Fashion-MNIST stand-in classes):
/// 0 t-shirt, 1 trouser, 2 pullover, 3 dress, 4 coat, 5 sandal, 6 shirt,
/// 7 sneaker, 8 bag, 9 ankle boot. The four torso classes (0/2/4/6) and the
/// three shoe classes (5/7/9) intentionally overlap, which makes this task
/// harder than digits — matching Fashion-MNIST's relative difficulty.
void render_fashion(Canvas& c, int cls, double t) {
  switch (cls) {
    case 0:  // t-shirt: torso + short sleeves
      c.fill_rect(0.37, 0.32, 0.63, 0.74);
      c.stroke(0.37, 0.34, 0.24, 0.44, t + 1.5);
      c.stroke(0.63, 0.34, 0.76, 0.44, t + 1.5);
      break;
    case 1:  // trouser: waistband + two legs
      c.fill_rect(0.38, 0.24, 0.62, 0.32);
      c.fill_rect(0.38, 0.32, 0.47, 0.80);
      c.fill_rect(0.53, 0.32, 0.62, 0.80);
      break;
    case 2:  // pullover: torso + long straight sleeves
      c.fill_rect(0.37, 0.30, 0.63, 0.76);
      c.stroke(0.37, 0.33, 0.26, 0.70, t + 1.6);
      c.stroke(0.63, 0.33, 0.74, 0.70, t + 1.6);
      break;
    case 3:  // dress: narrow bodice widening to a skirt
      c.fill_rect(0.42, 0.26, 0.58, 0.46);
      c.fill_rect(0.38, 0.46, 0.62, 0.62);
      c.fill_rect(0.33, 0.62, 0.67, 0.80);
      break;
    case 4:  // coat: long torso, long sleeves, front opening gap
      c.fill_rect(0.36, 0.28, 0.48, 0.80);
      c.fill_rect(0.52, 0.28, 0.64, 0.80);
      c.stroke(0.36, 0.31, 0.25, 0.72, t + 1.6);
      c.stroke(0.64, 0.31, 0.75, 0.72, t + 1.6);
      break;
    case 5:  // sandal: thin sole + diagonal straps
      c.stroke(0.22, 0.68, 0.78, 0.68, t + 1.0);
      c.stroke(0.30, 0.68, 0.44, 0.46, t - 0.4);
      c.stroke(0.44, 0.46, 0.58, 0.68, t - 0.4);
      c.stroke(0.58, 0.68, 0.70, 0.50, t - 0.4);
      break;
    case 6:  // shirt: torso + sleeves + collar marks
      c.fill_rect(0.38, 0.32, 0.62, 0.76);
      c.stroke(0.38, 0.34, 0.27, 0.56, t + 1.2);
      c.stroke(0.62, 0.34, 0.73, 0.56, t + 1.2);
      c.stroke(0.46, 0.30, 0.50, 0.38, t - 0.5);
      c.stroke(0.54, 0.30, 0.50, 0.38, t - 0.5);
      break;
    case 7:  // sneaker: low body + thick sole
      c.fill_ellipse(0.48, 0.58, 0.24, 0.10);
      c.fill_rect(0.22, 0.62, 0.78, 0.70);
      break;
    case 8:  // bag: body + handle arc
      c.fill_rect(0.30, 0.44, 0.70, 0.74);
      c.ellipse(0.50, 0.42, 0.13, 0.12, t);
      break;
    case 9:  // ankle boot: shaft + foot + sole
      c.fill_rect(0.40, 0.30, 0.56, 0.62);
      c.fill_rect(0.40, 0.54, 0.74, 0.70);
      c.fill_rect(0.38, 0.68, 0.76, 0.74);
      break;
    default:
      SPARKXD_REQUIRE(false, "fashion class out of range");
  }
}

std::vector<float> render_sample(Task task, int cls, Rng& rng) {
  Canvas c(kImageSide, kImageSide);
  // Garments tolerate less rotation than digit strokes before becoming
  // ambiguous with neighbours; keep their jitter slightly tighter.
  const Jitter j = task == Task::kDigits ? draw_jitter(rng, 0.16, 1.8)
                                         : draw_jitter(rng, 0.10, 1.6);
  if (task == Task::kDigits)
    render_digit(c, cls, j.thickness);
  else
    render_fashion(c, cls, j.thickness);
  c.affine(j.rot, j.scale, j.dx, j.dy);
  c.blur(1);

  auto img = c.take();
  // Pixel noise: mild Gaussian everywhere plus occasional salt specks, then
  // clamp — approximates sensor/antialias noise in the original datasets.
  const double sigma = task == Task::kDigits ? 0.05 : 0.08;
  for (float& p : img) {
    p += static_cast<float>(rng.normal(0.0, sigma));
    if (rng.bernoulli(0.002)) p += 0.8f;
    p = std::clamp(p, 0.0f, 1.0f);
  }
  return img;
}

}  // namespace

const char* to_string(Task t) noexcept {
  return t == Task::kDigits ? "SynthDigits" : "SynthFashion";
}

Dataset Dataset::take(std::size_t n) const {
  SPARKXD_REQUIRE(n <= size(), "take(n) beyond dataset size");
  Dataset out = *this;
  out.images.assign(images.begin(), images.begin() + static_cast<long>(n));
  out.labels.assign(labels.begin(), labels.begin() + static_cast<long>(n));
  return out;
}

Dataset Dataset::drop(std::size_t n) const {
  SPARKXD_REQUIRE(n <= size(), "drop(n) beyond dataset size");
  Dataset out = *this;
  out.images.assign(images.begin() + static_cast<long>(n), images.end());
  out.labels.assign(labels.begin() + static_cast<long>(n), labels.end());
  return out;
}

Dataset make_dataset(Task task, std::size_t n, std::uint64_t seed) {
  Dataset ds;
  ds.width = kImageSide;
  ds.height = kImageSide;
  ds.num_classes = 10;
  ds.name = to_string(task);
  ds.images.reserve(n);
  ds.labels.reserve(n);

  Rng rng(hash_combine(seed, static_cast<std::uint64_t>(task)));
  // Balanced labels in shuffled order so any prefix is roughly balanced.
  std::vector<std::uint8_t> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<std::uint8_t>(i % 10);
  rng.shuffle(labels);

  for (std::size_t i = 0; i < n; ++i) {
    Rng sample_rng = rng.fork(i);
    ds.images.push_back(render_sample(task, labels[i], sample_rng));
    ds.labels.push_back(labels[i]);
  }
  return ds;
}

}  // namespace sparkxd::data
