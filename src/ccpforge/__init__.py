"""ccpforge: construction and verification toolkit for constant-curvature
polyhedra (closed polyhedral surfaces whose angular defect is the same at
every vertex)."""

from .mesh import (MeshMetadata, Polyhedron, TopologyClass,
                   build_polyhedron, classify, euler_characteristic,
                   is_orientable)
from .metrics import (DefectProfile, IntersectionWitness, angular_defect,
                      corner_angle, defect_profile, descartes_residual,
                      dihedral_angle, edge_length, is_embedded,
                      self_intersections)
from .surgery import (DrillSpec, FaceCorrespondence, choose_prism_order,
                      connect_sum, drill, drill_repeat, retile_pierced_face)
from .generators import (CATALOG, BlockParams, FamilyRequest, a_coeff,
                         f_angle_sum, gen_cubohemioctahedron,
                         gen_flat_torus9, gen_minimal, gen_n5g_odd,
                         gen_nonorientable, gen_orientable, gen_p2_24,
                         gen_q2_9, gen_q3_18, gen_r_block, gen_s_base,
                         gen_small_dodecahemidodecahedron, gen_t_block,
                         gen_tetrahedron, gen_tetrahemihexahedron,
                         gen_rhombihexahedron, gen_v6g, gen_v7gm7, gen_v8g,
                         generate_family, solve_block_params)
from .verify import VerificationReport, format_pi_multiple, verify
from .fileio import (load_json, load_mesh, read_obj, save_json, save_mesh,
                     write_obj, write_stl)

__all__ = [
    "MeshMetadata", "Polyhedron", "TopologyClass", "build_polyhedron",
    "classify", "euler_characteristic", "is_orientable",
    "DefectProfile", "IntersectionWitness", "angular_defect", "corner_angle",
    "defect_profile", "descartes_residual", "dihedral_angle", "edge_length",
    "is_embedded", "self_intersections",
    "DrillSpec", "FaceCorrespondence", "choose_prism_order", "connect_sum",
    "drill", "drill_repeat", "retile_pierced_face",
    "CATALOG", "BlockParams", "FamilyRequest", "a_coeff", "f_angle_sum",
    "gen_cubohemioctahedron", "gen_flat_torus9", "gen_minimal",
    "gen_n5g_odd", "gen_nonorientable", "gen_orientable", "gen_p2_24",
    "gen_q2_9", "gen_q3_18", "gen_r_block", "gen_s_base",
    "gen_small_dodecahemidodecahedron", "gen_t_block", "gen_tetrahedron",
    "gen_tetrahemihexahedron", "gen_rhombihexahedron", "gen_v6g",
    "gen_v7gm7", "gen_v8g", "generate_family", "solve_block_params",
    "VerificationReport", "format_pi_multiple", "verify",
    "load_json", "load_mesh", "read_obj", "save_json", "save_mesh",
    "write_obj", "write_stl",
]

__version__ = "0.1.0"
