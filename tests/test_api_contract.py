"""Bad arguments to the generator, metric, report and file entry points
end in the CcpError that names the fault, never in a TypeError,
ValueError, IndexError or OverflowError, and no bad value is accepted;
a defect that is not finite prints as a float.  gen_t_block's l and d
are among the generator parameters of
test_generators.py::test_real_parameters_must_be_finite_reals."""

import math

import pytest

from ccpforge import (a_coeff, angular_defect, corner_angle, dihedral_angle,
                      edge_length, f_angle_sum, format_pi_multiple,
                      gen_p2_24, generate_family, load_mesh,
                      retile_pierced_face, save_mesh)
from ccpforge.errors import (BadFile, BadParameters, GenusOutOfRange,
                             IndexOutOfRange)
from ccpforge.generators import FamilyRequest

P = gen_p2_24()

BAD_CALLS = [
    ("a_coeff-k-str", lambda: a_coeff("x", 3), BadParameters),
    ("a_coeff-g-str", lambda: a_coeff(1, "x"), GenusOutOfRange),
    ("a_coeff-k-float", lambda: a_coeff(1.5, 3), BadParameters),
    ("a_coeff-k-bool", lambda: a_coeff(True, 3), BadParameters),
    ("f_angle_sum-l-str", lambda: f_angle_sum("x", 1.0), BadParameters),
    ("f_angle_sum-d-str", lambda: f_angle_sum(1.0, "x"), BadParameters),
    ("generate_family-params-None", lambda: generate_family(
        FamilyRequest("p2-24", params=None)), BadParameters),
    ("generate_family-params-int", lambda: generate_family(
        FamilyRequest("p2-24", params=5)), BadParameters),
    ("generate_family-params-int-key", lambda: generate_family(
        FamilyRequest("p2-24", params={1: 2})), BadParameters),
    ("corner_angle-face-str", lambda: corner_angle(P, "x", 0),
     IndexOutOfRange),
    ("corner_angle-face-99", lambda: corner_angle(P, 99, 0),
     IndexOutOfRange),
    ("edge_length-str", lambda: edge_length(P, "x"), IndexOutOfRange),
    ("edge_length-999", lambda: edge_length(P, 999), IndexOutOfRange),
    ("edge_length-negative", lambda: edge_length(P, -1), IndexOutOfRange),
    ("dihedral_angle-999", lambda: dihedral_angle(P, 999), IndexOutOfRange),
    ("angular_defect-str", lambda: angular_defect(P, "x"), IndexOutOfRange),
    ("angular_defect-99", lambda: angular_defect(P, 99), IndexOutOfRange),
    ("format_pi_multiple-str", lambda: format_pi_multiple("x"),
     BadParameters),
    ("format_pi_multiple-bool", lambda: format_pi_multiple(True),
     BadParameters),
    ("format_pi_multiple-huge-int", lambda: format_pi_multiple(10 ** 400),
     BadParameters),
    ("retile_pierced_face-str", lambda: retile_pierced_face("x", "y"),
     BadParameters),
    ("retile_pierced_face-2d", lambda: retile_pierced_face(
        [[0, 0], [1, 0], [0, 1]], [[0, 0]]), BadParameters),
    ("load_mesh-int", lambda: load_mesh(5), BadFile),
    ("save_mesh-None", lambda: save_mesh(P, None), BadFile),
]


@pytest.mark.parametrize("call,error", [case[1:] for case in BAD_CALLS],
                         ids=[case[0] for case in BAD_CALLS])
def test_bad_call_raises_the_error_that_names_it(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("x,text", [(math.nan, "nan"), (math.inf, "inf"),
                                    (-math.inf, "-inf")])
def test_a_defect_that_is_not_finite_prints_as_a_float(x, text):
    assert format_pi_multiple(x) == text
