#include "floorplan/cmp.h"

#include <stdexcept>
#include <string>

namespace oftec::floorplan {

namespace {

/// Simplified core tile on the unit square (8 units, exact tiling):
///   y 0.00–0.35 : Icache (left half), Dcache (right half)
///   y 0.35–0.70 : IntExec (0.40), IntReg (0.30), LdStQ (0.30)
///   y 0.70–1.00 : FPAdd (0.35), FPMul (0.35), Bpred (0.30)
struct FracBlock {
  const char* name;
  double x, y, w, h;
  UnitKind kind;
};

constexpr FracBlock kCoreTile[] = {
    {"Icache", 0.00, 0.00, 0.50, 0.35, UnitKind::kCache},
    {"Dcache", 0.50, 0.00, 0.50, 0.35, UnitKind::kCache},
    {"IntExec", 0.00, 0.35, 0.40, 0.35, UnitKind::kCore},
    {"IntReg", 0.40, 0.35, 0.30, 0.35, UnitKind::kCore},
    {"LdStQ", 0.70, 0.35, 0.30, 0.35, UnitKind::kCore},
    {"FPAdd", 0.00, 0.70, 0.35, 0.30, UnitKind::kCore},
    {"FPMul", 0.35, 0.70, 0.35, 0.30, UnitKind::kCore},
    {"Bpred", 0.70, 0.70, 0.30, 0.30, UnitKind::kCore},
};

}  // namespace

Floorplan make_cmp_floorplan(const CmpOptions& options) {
  if (options.cores_x == 0 || options.cores_y == 0) {
    throw std::invalid_argument("make_cmp_floorplan: need >= 1 core");
  }
  if (options.die_side <= 0.0) {
    throw std::invalid_argument("make_cmp_floorplan: die_side must be > 0");
  }
  if (options.shared_l2_fraction <= 0.0 || options.shared_l2_fraction >= 1.0) {
    throw std::invalid_argument(
        "make_cmp_floorplan: shared_l2_fraction must be in (0, 1)");
  }

  const double side = options.die_side;
  Floorplan fp(side, side);

  // Shared L2 slab across the bottom.
  Block l2;
  l2.name = "L2_shared";
  l2.x = 0.0;
  l2.y = 0.0;
  l2.width = side;
  l2.height = options.shared_l2_fraction * side;
  l2.kind = UnitKind::kCache;
  fp.add_block(std::move(l2));

  // Core tiles fill the rest.
  const double tiles_y0 = options.shared_l2_fraction * side;
  const double tile_w = side / static_cast<double>(options.cores_x);
  const double tile_h =
      (side - tiles_y0) / static_cast<double>(options.cores_y);

  std::size_t core_id = 0;
  for (std::size_t cy = 0; cy < options.cores_y; ++cy) {
    for (std::size_t cx = 0; cx < options.cores_x; ++cx, ++core_id) {
      const double x0 = static_cast<double>(cx) * tile_w;
      const double y0 = tiles_y0 + static_cast<double>(cy) * tile_h;
      for (const FracBlock& fb : kCoreTile) {
        Block b;
        b.name = "c";
        b.name += std::to_string(core_id);
        b.name += '_';
        b.name += fb.name;
        b.x = x0 + fb.x * tile_w;
        b.y = y0 + fb.y * tile_h;
        b.width = fb.w * tile_w;
        b.height = fb.h * tile_h;
        b.kind = fb.kind;
        fp.add_block(std::move(b));
      }
    }
  }
  fp.require_full_coverage(1e-9);
  return fp;
}

}  // namespace oftec::floorplan
