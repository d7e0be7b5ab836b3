#pragma once
// Tiny grayscale rasterizer used to synthesize dataset images.
//
// Shapes are authored in a normalized [0,1]x[0,1] coordinate system (origin at
// the top-left) and painted with soft (anti-aliased) edges via signed distance
// fields, which gives MNIST-like soft strokes after blur + noise.

#include <cstddef>
#include <vector>

namespace sparkxd::data {

/// A float image buffer with soft-brush drawing primitives.
class Canvas {
 public:
  Canvas(std::size_t width, std::size_t height);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] const std::vector<float>& pixels() const noexcept {
    return px_;
  }

  /// Paints a thick line segment; coordinates normalized, thickness in pixels.
  void stroke(double x0, double y0, double x1, double y1, double thickness_px,
              float intensity = 1.0f);

  /// Paints an ellipse outline (rx, ry normalized radii; thickness in pixels).
  void ellipse(double cx, double cy, double rx, double ry, double thickness_px,
               float intensity = 1.0f);

  /// Fills an ellipse.
  void fill_ellipse(double cx, double cy, double rx, double ry,
                    float intensity = 1.0f);

  /// Fills an axis-aligned rectangle (normalized corners).
  void fill_rect(double x0, double y0, double x1, double y1,
                 float intensity = 1.0f);

  /// 3x3 binomial blur, `passes` times.
  void blur(int passes = 1);

  /// Applies an affine jitter: rotate by `radians` about the image centre,
  /// scale by `scale`, then translate by (dx, dy) pixels (bilinear resample).
  void affine(double radians, double scale, double dx_px, double dy_px);

  /// Extracts the buffer (leaves the canvas cleared to black).
  [[nodiscard]] std::vector<float> take();

 private:
  /// Max-blends `intensity * coverage` into pixel (x, y).
  void blend(std::size_t x, std::size_t y, float value) noexcept;

  std::size_t width_;
  std::size_t height_;
  std::vector<float> px_;
};

}  // namespace sparkxd::data
