#include "core/multizone.h"

#include "floorplan/grid_map.h"

namespace oftec::core {

namespace {

[[nodiscard]] bool is_integer_cluster_unit(const std::string& name) {
  return name == "IntExec" || name == "IntReg" || name == "IntQ" ||
         name == "IntMap" || name == "LdStQ" || name == "DTB";
}

[[nodiscard]] bool is_fp_cluster_unit(const std::string& name) {
  return name.rfind("FP", 0) == 0;  // FPAdd, FPMul, FPReg, FPMap, FPQ
}

}  // namespace

ZonePartition ZonePartition::by_unit_cluster(const floorplan::Floorplan& fp,
                                             std::size_t nx, std::size_t ny) {
  const floorplan::GridMap grid(fp, nx, ny);
  const std::vector<bool> covered = grid.tec_coverage();

  ZonePartition part;
  part.zone_of_cell.assign(grid.cell_count(), kUnzoned);
  part.zone_names = {"int", "fp", "misc"};
  part.zone_count = 3;

  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    if (!covered[cell]) continue;
    const std::string& unit = fp.blocks()[grid.dominant_block(cell)].name;
    if (is_integer_cluster_unit(unit)) {
      part.zone_of_cell[cell] = 0;
    } else if (is_fp_cluster_unit(unit)) {
      part.zone_of_cell[cell] = 1;
    } else {
      part.zone_of_cell[cell] = 2;
    }
  }
  return part;
}

ZonePartition ZonePartition::single_zone(const floorplan::Floorplan& fp,
                                         std::size_t nx, std::size_t ny) {
  const floorplan::GridMap grid(fp, nx, ny);
  const std::vector<bool> covered = grid.tec_coverage();
  ZonePartition part;
  part.zone_of_cell.assign(grid.cell_count(), kUnzoned);
  part.zone_names = {"all"};
  part.zone_count = 1;
  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    if (covered[cell]) part.zone_of_cell[cell] = 0;
  }
  return part;
}

}  // namespace oftec::core
