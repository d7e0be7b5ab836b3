#include "data/canvas.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::data {

namespace {

/// Distance from point p to segment (a, b), all in pixel coordinates.
double dist_to_segment(double px, double py, double ax, double ay, double bx,
                       double by) noexcept {
  const double vx = bx - ax;
  const double vy = by - ay;
  const double wx = px - ax;
  const double wy = py - ay;
  const double len2 = vx * vx + vy * vy;
  double t = len2 > 0.0 ? (wx * vx + wy * vy) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const double dx = px - (ax + t * vx);
  const double dy = py - (ay + t * vy);
  return std::sqrt(dx * dx + dy * dy);
}

/// Soft coverage for a signed "distance beyond the edge" with a 1px AA ramp.
float coverage(double signed_dist) noexcept {
  return static_cast<float>(std::clamp(0.5 - signed_dist, 0.0, 1.0));
}

}  // namespace

Canvas::Canvas(std::size_t width, std::size_t height)
    : width_(width), height_(height), px_(width * height, 0.0f) {
  SPARKXD_REQUIRE(width > 0 && height > 0, "canvas must be non-empty");
}

void Canvas::blend(std::size_t x, std::size_t y, float value) noexcept {
  float& p = px_[y * width_ + x];
  p = std::max(p, value);
}

void Canvas::stroke(double x0, double y0, double x1, double y1,
                    double thickness_px, float intensity) {
  SPARKXD_REQUIRE(thickness_px > 0.0, "stroke thickness must be positive");
  const double ax = x0 * static_cast<double>(width_);
  const double ay = y0 * static_cast<double>(height_);
  const double bx = x1 * static_cast<double>(width_);
  const double by = y1 * static_cast<double>(height_);
  const double r = thickness_px * 0.5;
  const auto lo_x = static_cast<std::size_t>(
      std::max(0.0, std::floor(std::min(ax, bx) - r - 1)));
  const auto hi_x = static_cast<std::size_t>(std::min(
      static_cast<double>(width_ - 1), std::ceil(std::max(ax, bx) + r + 1)));
  const auto lo_y = static_cast<std::size_t>(
      std::max(0.0, std::floor(std::min(ay, by) - r - 1)));
  const auto hi_y = static_cast<std::size_t>(std::min(
      static_cast<double>(height_ - 1), std::ceil(std::max(ay, by) + r + 1)));
  for (std::size_t y = lo_y; y <= hi_y; ++y)
    for (std::size_t x = lo_x; x <= hi_x; ++x) {
      const double d = dist_to_segment(static_cast<double>(x) + 0.5,
                                       static_cast<double>(y) + 0.5, ax, ay,
                                       bx, by);
      blend(x, y, intensity * coverage(d - r));
    }
}

void Canvas::ellipse(double cx, double cy, double rx, double ry,
                     double thickness_px, float intensity) {
  SPARKXD_REQUIRE(rx > 0.0 && ry > 0.0, "ellipse radii must be positive");
  const double pcx = cx * static_cast<double>(width_);
  const double pcy = cy * static_cast<double>(height_);
  const double prx = rx * static_cast<double>(width_);
  const double pry = ry * static_cast<double>(height_);
  const double half = thickness_px * 0.5;
  for (std::size_t y = 0; y < height_; ++y)
    for (std::size_t x = 0; x < width_; ++x) {
      const double dx = (static_cast<double>(x) + 0.5 - pcx);
      const double dy = (static_cast<double>(y) + 0.5 - pcy);
      // Approximate distance to the ellipse: scale into the unit circle and
      // rescale by the local radius (adequate for near-circular shapes).
      const double rho = std::sqrt((dx / prx) * (dx / prx) +
                                   (dy / pry) * (dy / pry));
      const double local_r = 0.5 * (prx + pry);
      const double d = std::abs(rho - 1.0) * local_r;
      blend(x, y, intensity * coverage(d - half));
    }
}

void Canvas::fill_ellipse(double cx, double cy, double rx, double ry,
                          float intensity) {
  SPARKXD_REQUIRE(rx > 0.0 && ry > 0.0, "ellipse radii must be positive");
  const double pcx = cx * static_cast<double>(width_);
  const double pcy = cy * static_cast<double>(height_);
  const double prx = rx * static_cast<double>(width_);
  const double pry = ry * static_cast<double>(height_);
  for (std::size_t y = 0; y < height_; ++y)
    for (std::size_t x = 0; x < width_; ++x) {
      const double dx = (static_cast<double>(x) + 0.5 - pcx);
      const double dy = (static_cast<double>(y) + 0.5 - pcy);
      const double rho = std::sqrt((dx / prx) * (dx / prx) +
                                   (dy / pry) * (dy / pry));
      const double local_r = 0.5 * (prx + pry);
      blend(x, y, intensity * coverage((rho - 1.0) * local_r));
    }
}

void Canvas::fill_rect(double x0, double y0, double x1, double y1,
                       float intensity) {
  const double ax = std::min(x0, x1) * static_cast<double>(width_);
  const double bx = std::max(x0, x1) * static_cast<double>(width_);
  const double ay = std::min(y0, y1) * static_cast<double>(height_);
  const double by = std::max(y0, y1) * static_cast<double>(height_);
  for (std::size_t y = 0; y < height_; ++y)
    for (std::size_t x = 0; x < width_; ++x) {
      const double px = static_cast<double>(x) + 0.5;
      const double py = static_cast<double>(y) + 0.5;
      // Signed distance to the rectangle: positive outside, negative inside
      // (so interior pixels get full coverage, not the 50% edge value).
      const double ddx = std::max({ax - px, 0.0, px - bx});
      const double ddy = std::max({ay - py, 0.0, py - by});
      double d = std::sqrt(ddx * ddx + ddy * ddy);
      if (d == 0.0)
        d = -std::min({px - ax, bx - px, py - ay, by - py});
      blend(x, y, intensity * coverage(d));
    }
}

void Canvas::blur(int passes) {
  SPARKXD_REQUIRE(passes >= 0, "blur passes must be non-negative");
  std::vector<float> tmp(px_.size());
  for (int pass = 0; pass < passes; ++pass) {
    // Horizontal 1-2-1.
    for (std::size_t y = 0; y < height_; ++y)
      for (std::size_t x = 0; x < width_; ++x) {
        const float l = x > 0 ? px_[y * width_ + x - 1] : 0.0f;
        const float c = px_[y * width_ + x];
        const float r = x + 1 < width_ ? px_[y * width_ + x + 1] : 0.0f;
        tmp[y * width_ + x] = 0.25f * l + 0.5f * c + 0.25f * r;
      }
    // Vertical 1-2-1.
    for (std::size_t y = 0; y < height_; ++y)
      for (std::size_t x = 0; x < width_; ++x) {
        const float u = y > 0 ? tmp[(y - 1) * width_ + x] : 0.0f;
        const float c = tmp[y * width_ + x];
        const float d = y + 1 < height_ ? tmp[(y + 1) * width_ + x] : 0.0f;
        px_[y * width_ + x] = 0.25f * u + 0.5f * c + 0.25f * d;
      }
  }
}

void Canvas::affine(double radians, double scale, double dx_px, double dy_px) {
  SPARKXD_REQUIRE(scale > 0.0, "affine scale must be positive");
  const double cx = static_cast<double>(width_) * 0.5;
  const double cy = static_cast<double>(height_) * 0.5;
  const double c = std::cos(-radians) / scale;
  const double s = std::sin(-radians) / scale;
  std::vector<float> out(px_.size(), 0.0f);
  for (std::size_t y = 0; y < height_; ++y)
    for (std::size_t x = 0; x < width_; ++x) {
      // Inverse-map destination pixel to source coordinates.
      const double rx = static_cast<double>(x) + 0.5 - cx - dx_px;
      const double ry = static_cast<double>(y) + 0.5 - cy - dy_px;
      const double sx = c * rx - s * ry + cx - 0.5;
      const double sy = s * rx + c * ry + cy - 0.5;
      const auto x0 = static_cast<std::int64_t>(std::floor(sx));
      const auto y0 = static_cast<std::int64_t>(std::floor(sy));
      const double fx = sx - static_cast<double>(x0);
      const double fy = sy - static_cast<double>(y0);
      const auto at = [&](std::int64_t xi, std::int64_t yi) -> double {
        if (xi < 0 || yi < 0 || xi >= static_cast<std::int64_t>(width_) ||
            yi >= static_cast<std::int64_t>(height_))
          return 0.0;
        return px_[static_cast<std::size_t>(yi) * width_ +
                   static_cast<std::size_t>(xi)];
      };
      const double v = at(x0, y0) * (1 - fx) * (1 - fy) +
                       at(x0 + 1, y0) * fx * (1 - fy) +
                       at(x0, y0 + 1) * (1 - fx) * fy +
                       at(x0 + 1, y0 + 1) * fx * fy;
      out[y * width_ + x] = static_cast<float>(v);
    }
  px_ = std::move(out);
}

std::vector<float> Canvas::take() {
  std::vector<float> out = std::move(px_);
  px_.assign(width_ * height_, 0.0f);
  return out;
}

}  // namespace sparkxd::data
