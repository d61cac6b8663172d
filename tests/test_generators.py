"""Family generators: counts, defects, printed angle/length identities and
the minimal-family parameter solver."""

import math

import numpy as np
import pytest

import ccpforge.generators as generators_mod
import ccpforge.mesh as mesh_mod
from ccpforge import (CATALOG, a_coeff, classify, corner_angle,
                      defect_profile, f_angle_sum, gen_cubohemioctahedron,
                      gen_flat_torus9, gen_minimal, gen_n5g_odd,
                      gen_nonorientable, gen_orientable, gen_p2_24,
                      gen_q2_9, gen_q3_18, gen_r_block,
                      gen_rhombihexahedron, gen_s_base,
                      gen_small_dodecahemidodecahedron, gen_t_block,
                      gen_tetrahedron, gen_tetrahemihexahedron, gen_v6g,
                      gen_v7gm7, gen_v8g, generate_family, FamilyRequest,
                      is_embedded, self_intersections, solve_block_params,
                      verify)
from ccpforge.errors import (BadParameters, CcpError, DegenerateFace,
                             DomainError, GenusOutOfRange)

PI = math.pi


def counts(p):
    return p.n_vertices, p.n_edges, p.n_faces


class TestClosedForms:
    def test_tetrahedron(self):
        p = gen_tetrahedron()
        assert classify(p).genus == 0
        dp = defect_profile(p)
        assert dp.is_constant and dp.mean == pytest.approx(PI, abs=1e-12)
        assert is_embedded(p)

    def test_flat_torus(self):
        p = gen_flat_torus9()
        assert counts(p) == (9, 27, 18)
        t = classify(p)
        assert t.orientable and t.genus == 1
        dp = defect_profile(p)
        assert dp.is_constant and abs(dp.mean) < 1e-12

    def test_p2_24_default(self):
        p = gen_p2_24()
        assert counts(p) == (24, 44, 18)
        t = classify(p)
        assert t.orientable and t.genus == 2
        dp = defect_profile(p)
        assert dp.is_constant
        assert dp.mean == pytest.approx(-PI / 6, abs=1e-12)
        assert is_embedded(p)

    def test_p2_24_arctan_identity(self):
        assert math.atan(1 / (2 * math.sqrt(3))) + \
            math.atan(math.sqrt(3) / 7) == pytest.approx(PI / 6, abs=1e-15)

    def test_p2_24_random_parameters(self):
        rng = np.random.default_rng(42)
        s3 = math.sqrt(3)
        for _ in range(25):
            c = rng.uniform(0.005, 1 / (4 * s3) - 0.005)
            b = rng.uniform(c + 0.005, 1 / s3 - 0.005)
            dp = defect_profile(gen_p2_24(b, c))
            assert dp.is_constant
            assert dp.mean == pytest.approx(-PI / 6, abs=1e-9)

    def test_p2_24_bad_parameters(self):
        with pytest.raises(BadParameters):
            gen_p2_24(0.01, 0.02)          # b < c
        with pytest.raises(BadParameters):
            gen_p2_24(0.8, 0.01)           # sqrt(3) b > 1

    def test_p2_24_meshes_share_no_mutable_part(self):
        """P^2_24's faces, metadata and sign rows are built once per
        process and every mesh shares them: the metadata is frozen, the
        faces a tuple of tuples and the sign rows read-only."""
        p = gen_p2_24()
        with pytest.raises(TypeError):
            p.metadata.vertex_labels["v1+++"] = 5
        q = gen_p2_24(0.2, 0.05)
        assert q.metadata is p.metadata is generators_mod._P2_META
        assert q.label("v1+++") == 0
        assert q.faces == generators_mod._P2_FACES
        assert set(map(type, generators_mod._P2_FACES)) == {tuple}
        assert not generators_mod._P2_SIGNS.flags.writeable

    def test_thh(self):
        p = gen_tetrahemihexahedron()
        assert counts(p) == (6, 12, 7)
        t = classify(p)
        assert not t.orientable and t.genus == 1
        assert defect_profile(p).mean == pytest.approx(PI / 3, abs=1e-12)
        assert self_intersections(p)

    def test_r_block_counts(self):
        p = gen_r_block(0.5, 1.0)
        assert counts(p) == (6, 12, 7)
        assert classify(p) .genus == 1

    def test_s_base(self):
        p = gen_s_base()
        assert p.n_vertices == 9
        assert classify(p).euler_characteristic == 2
        h2 = math.sqrt(-4 * math.sin(PI / 18) ** 2
                       + 2 * math.sin(PI / 18) + 2)
        assert math.sqrt(9 / 4 - h2 * h2) == pytest.approx(
            -2 * math.sin(PI / 18) + 0.5, abs=1e-12)
        d = np.linalg.norm(p.vertices[p.label("v1,1")]
                           - p.vertices[p.label("v2,2")])
        assert d == pytest.approx(math.sqrt(6 * (math.sin(PI / 18) + 1)),
                                  abs=1e-12)

    def test_q2_9(self):
        p = gen_q2_9()
        assert counts(p) == (9, 21, 12)
        t = classify(p)
        assert not t.orientable and t.genus == 2
        dp = defect_profile(p)
        assert dp.is_constant and abs(dp[p.label("v1")]) < 1e-12
        assert abs(dp[p.label("v6")]) < 1e-12

    def test_q3_18(self):
        p = gen_q3_18()
        assert counts(p) == (18, 42, 23)
        t = classify(p)
        assert not t.orientable and t.genus == 3
        dp = defect_profile(p)
        assert dp.is_constant
        assert dp[p.label("v2")] == pytest.approx(-PI / 9, abs=1e-12)
        leg = 2 * math.sin(PI / 9) / (1 + 2 * math.sin(PI / 9))
        h = math.sqrt(-4 * math.sin(PI / 9) ** 2 - 2 * math.sin(PI / 9)
                      + 2) / (1 + 2 * math.sin(PI / 9))
        assert math.sqrt(leg * leg - leg + 1 + h * h) == pytest.approx(
            math.sqrt(3) / (1 + 2 * math.sin(PI / 9)), abs=1e-12)
        apex = next(i for i, f in enumerate(p.faces)
                    if {p.label("v1,2"), p.label("v2,2"),
                        p.label("v1,1")} <= set(f))
        assert corner_angle(p, apex, p.label("v1,2")) == pytest.approx(
            4 * PI / 9, abs=1e-12)

    def test_cho(self):
        p = gen_cubohemioctahedron()
        assert counts(p) == (12, 24, 10)
        t = classify(p)
        assert not t.orientable and t.genus == 4
        assert defect_profile(p).mean == pytest.approx(-PI / 3, abs=1e-12)
        assert self_intersections(p)

    def test_hemi_star_polyhedra(self):
        rh = gen_rhombihexahedron()
        assert rh.n_vertices == 24
        assert classify(rh).genus == 8
        assert defect_profile(rh).mean == pytest.approx(-PI / 2, abs=1e-12)
        sd = gen_small_dodecahemidodecahedron()
        assert sd.n_vertices == 30
        assert classify(sd).genus == 14
        assert defect_profile(sd).mean == pytest.approx(-4 * PI / 5,
                                                        abs=1e-12)


class TestDrilledFamilies:
    @pytest.mark.parametrize("g", [0, 1, 2, 3, 5])
    def test_orientable(self, g):
        p = gen_orientable(g)
        t = classify(p)
        assert t.orientable and t.genus == g
        if g >= 2:
            assert p.n_vertices == 24 * (g - 1)
            dp = defect_profile(p, tol=1e-6)
            assert dp.is_constant
            assert dp.mean == pytest.approx(-PI / 6, abs=1e-6)

    @pytest.mark.parametrize("g,expect_v", [(1, 6), (2, 9), (3, 18),
                                            (4, 12), (5, 54), (6, 24),
                                            (7, 90), (8, 36)])
    def test_nonorientable_chain(self, g, expect_v):
        p = gen_nonorientable(g)
        t = classify(p)
        assert not t.orientable and t.genus == g
        assert p.n_vertices == expect_v
        assert defect_profile(p, tol=1e-6).is_constant

    @pytest.mark.parametrize("g,expect_v", [(5, 25), (6, 24), (8, 24),
                                            (10, 32), (13, 77), (14, 30)])
    def test_nonorientable_fewest(self, g, expect_v):
        p = gen_nonorientable(g, prefer_fewest=True)
        t = classify(p)
        assert not t.orientable and t.genus == g
        assert p.n_vertices == expect_v
        assert defect_profile(p, tol=1e-6).is_constant


class TestAppendixFamilies:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_v8g(self, g):
        p = gen_v8g(g)
        assert counts(p) == (8 * g, 16 * g, 6 * g + 2)
        t = classify(p)
        assert t.orientable and t.genus == g
        dp = defect_profile(p)
        assert dp.is_constant
        assert dp.mean == pytest.approx(PI * (1 - g) / (2 * g), abs=1e-9)

    @pytest.mark.parametrize("g", [5, 8])
    def test_v6g(self, g):
        p = gen_v6g(g)
        assert counts(p) == (6 * g, 13 * g, 5 * g + 2)
        dp = defect_profile(p)
        assert dp.is_constant
        assert dp.mean == pytest.approx(2 * PI * (1 - g) / (3 * g),
                                        abs=1e-9)

    @pytest.mark.parametrize("g", [4, 5, 6])
    def test_v7gm7(self, g):
        p = gen_v7gm7(g)
        assert counts(p) == (7 * g - 7, 18 * g - 18, 9 * g - 9)
        t = classify(p)
        assert t.orientable and t.genus == g
        dp = defect_profile(p)
        assert dp.is_constant
        assert dp.mean == pytest.approx(-4 * PI / 7, abs=1e-9)

    def test_appendix_dispatch_and_ranges(self):
        assert generate_family(FamilyRequest("v8g", 3)).n_vertices == 24
        for fam, g in (("v8g", 1), ("v6g", 4), ("v7gm7", 7)):
            with pytest.raises(GenusOutOfRange):
                generate_family(FamilyRequest(fam, g))

    @pytest.mark.parametrize("g", [3, 5, 11])
    def test_n5g(self, g):
        p = gen_n5g_odd(g)
        assert counts(p) == (5 * g, 13 * g, 7 * g + 2)
        t = classify(p)
        assert not t.orientable and t.genus == g
        dp = defect_profile(p)
        assert dp.is_constant
        assert dp.mean == pytest.approx((4 - 2 * g) * PI / (5 * g),
                                        abs=1e-9)

    def test_n5g_extension(self):
        p = gen_n5g_odd(13)
        assert p.n_vertices == 7 * 13 - 14
        assert classify(p).genus == 13
        with pytest.raises(GenusOutOfRange):
            gen_n5g_odd(4)


class TestMinimalFamily:
    def test_t_block(self):
        p = gen_t_block(2.0, 2.5)
        assert counts(p) == (6, 15, 9)
        t = classify(p)
        assert t.orientable and t.genus == 1

    def test_t_block_bad_params(self):
        with pytest.raises(BadParameters):
            gen_t_block(1.0, 2.0)
        with pytest.raises(BadParameters):
            gen_t_block(1.0, 0.0)

    def test_t_block_apex_sum_matches_f(self):
        p = gen_t_block(1.7, 2.2)
        v4 = p.label("v4")
        tri_faces = [f for f in p.vertex_faces(v4) if len(p.faces[f]) == 3]
        total = sum(corner_angle(p, f, v4) for f in tri_faces)
        assert total == pytest.approx(f_angle_sum(1.7, 2.2), abs=1e-12)

    def test_a_coeff(self):
        g = 9
        assert a_coeff(1, g) == pytest.approx(6 * PI / (g + 2), abs=1e-15)
        assert a_coeff(2, g) == pytest.approx(9 * PI / (g + 2), abs=1e-15)
        vals = [a_coeff(k, g) for k in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_f_identities(self):
        for l in (0.5, 2.0, 9.7):
            assert f_angle_sum(l, 0) == pytest.approx(
                PI - 2 * math.atan(l), abs=1e-12)
            assert f_angle_sum(l, l) == pytest.approx(PI, abs=1e-12)
            assert f_angle_sum(l, 2 * l) == pytest.approx(
                PI + 4 * math.atan(l), abs=1e-12)
        with pytest.raises(DomainError):
            f_angle_sum(2.0, 4.5)

    def test_f_monotone(self):
        for l in (0.7, 3.0):
            d = np.linspace(0, 2 * l, 200)
            vals = [f_angle_sum(l, x) for x in d]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_solver_paper_examples(self):
        bp = solve_block_params(7, 2.0)
        got = [d for _, d in bp.pairs] + [bp.terminal[1]]
        for value, expect in zip(got, (3.94799, 6.93234, 9.83752, 8.30361)):
            assert value == pytest.approx(expect, abs=1e-4)
        assert bp.terminal[0] == pytest.approx(9.83752, abs=1e-4)
        bp = solve_block_params(8, 2.0)
        got = [d for _, d in bp.pairs]
        for value, expect in zip(got, (3.99386, 7.21534, 11.01272,
                                       13.64880)):
            assert value == pytest.approx(expect, abs=1e-4)

    def test_solver_residuals_and_brackets(self):
        for g in (5, 8, 13):
            bp = solve_block_params(g, 2.0)
            for k, (l, d) in enumerate(bp.pairs, start=1):
                assert l < d < 2 * l
                assert abs(f_angle_sum(l, d)
                           - (3 * PI - a_coeff(k, g))) < 1e-11
            if bp.terminal is not None:
                lg, dg = bp.terminal
                target = 3 * PI - a_coeff((g - 1) // 2, g) \
                    - 6 * PI / (g + 2)
                assert abs(f_angle_sum(lg, dg) - target) < 1e-11

    def test_chain_recursion(self):
        bp = solve_block_params(8, 2.0)
        for (l1, d1), (l2, _) in zip(bp.pairs, bp.pairs[1:]):
            assert l2 == d1

    def test_target_pi_means_d_equals_l(self):
        bp = solve_block_params(1, 3.0)
        lt, dt = bp.terminal
        assert dt == pytest.approx(lt, abs=1e-10)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 6, 7])
    def test_meshes(self, g):
        p = gen_minimal(g)
        assert counts(p) == (2 * g + 4, 11 * g + 4, 7 * g + 2)
        t = classify(p)
        assert t.orientable and t.genus == g
        dp = defect_profile(p, tol=1e-6)
        assert dp.is_constant
        assert dp.mean == pytest.approx(-(2 * g - 2) * PI / (g + 2),
                                        abs=1e-6)
        if g >= 2:
            assert self_intersections(p)


def test_generate_family_dispatch():
    assert generate_family(FamilyRequest("minimal", 7)).n_vertices == 18
    assert generate_family(
        FamilyRequest("nonorientable", 4, prefer_fewest=True)
    ).n_vertices == 12
    assert generate_family(FamilyRequest("orientable", 0)).n_vertices == 4
    assert generate_family(
        FamilyRequest("r-block", params={"r": 1.0, "h": math.sqrt(2)})
    ).n_vertices == 6
    with pytest.raises(GenusOutOfRange):
        generate_family(FamilyRequest("minimal"))
    with pytest.raises(BadParameters, match="unknown family"):
        generate_family(FamilyRequest("octahedron"))


@pytest.mark.parametrize("build", [
    lambda g: generate_family(FamilyRequest("minimal", g)),
    lambda g: generate_family(FamilyRequest("orientable", g)),
    lambda g: generate_family(FamilyRequest("flat-torus-9", g)),
    gen_orientable, gen_nonorientable, gen_v8g, gen_v6g, gen_v7gm7,
    gen_n5g_odd, gen_minimal, solve_block_params])
@pytest.mark.parametrize("genus", [2.5, 2.0, 5.0, "3", True, np.True_])
def test_genus_must_be_an_integer(build, genus):
    """A genus that is not an integer, a bool included, raises
    GenusOutOfRange naming it, in generate_family and in every generator
    that takes one."""
    with pytest.raises(GenusOutOfRange, match="is not an integer"):
        build(genus)


BAD_REALS = ["x", "0.25", None, math.nan, math.inf, -math.inf, True,
             np.False_, 1j, [0.25], 10**400]


@pytest.mark.parametrize("build,name", [
    (lambda x: gen_p2_24(b=x), "p2-24 b"),
    (lambda x: gen_p2_24(c=x), "p2-24 c"),
    (lambda x: generate_family(FamilyRequest("p2-24", params={"b": x})),
     "p2-24 b"),
    (lambda x: gen_r_block(x, 1.0), "r-block r"),
    (lambda x: gen_r_block(0.5, x), "r-block h"),
    (lambda x: gen_t_block(x, 1.0), "T-block l"),
    (lambda x: gen_t_block(2.0, x), "T-block d"),
    (lambda x: generate_family(FamilyRequest(
        "r-block", params={"r": 0.5, "h": x})), "r-block h"),
    (lambda x: gen_minimal(3, l1=x), "l1"),
    (lambda x: generate_family(FamilyRequest("minimal", 4,
                                             params={"l1": x})), "l1"),
    (lambda x: solve_block_params(3, x), "l1")])
@pytest.mark.parametrize("value", BAD_REALS, ids=map(repr, BAD_REALS))
def test_real_parameters_must_be_finite_reals(build, name, value):
    """A generator parameter that is not a finite real number, a bool
    included, raises BadParameters naming it, before any bound on it is
    compared."""
    with pytest.raises(BadParameters) as info:
        build(value)
    assert str(info.value) == \
        f"{name} {value!r} is not a finite real number"


try:
    from hypothesis import given, settings, strategies as st
except ImportError:             # the drawn parameters need hypothesis
    st = None

if st is not None:
    S3 = math.sqrt(3)

    def _p2_near(edge, x, u):
        """A (b, c) at distance 10**x from one edge of P^2_24's domain, u
        placing the other parameter along the domain."""
        near = 10.0 ** x
        if edge == "b":
            return near, u * near
        if edge == "c":
            return near + u * (1 / S3 - near), near
        if edge == "b-c":
            c = u / (4 * S3)
            return c + near, c
        if edge == "4*sqrt3*c":
            c = (1 - near) / (4 * S3)
            return c + u * (1 / S3 - c), c
        return (1 - near) / S3, u / (4 * S3)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(edge=st.sampled_from(["b", "c", "b-c", "4*sqrt3*c", "sqrt3*b"]),
           x=st.floats(-16, -1), u=st.floats(0, 1))
    def test_p2_24_near_its_domain_edges_verifies_or_raises(edge, x, u):
        """A (b, c) drawn log-uniform towards each edge of the domain:
        gen_p2_24 raises a CcpError, or its mesh verifies as embedded with
        defect -pi/6."""
        try:
            p = gen_p2_24(*_p2_near(edge, x, u))
        except CcpError:
            return
        report = verify(p)
        assert report.verdict == "ccp_embedded"
        assert report.defects.mean == pytest.approx(-PI / 6, abs=1e-9)


@pytest.mark.parametrize("b,c", [(9e-6, 8e-6), (0.3, 9e-7),
                                 (0.1, 0.1 - 9e-11),
                                 (0.3, (1 - 5e-10) / (4 * math.sqrt(3)))])
def test_p2_24_floors(b, c):
    """Each floor of P^2_24's domain raises BadParameters just below it."""
    with pytest.raises(BadParameters, match="too near the edge"):
        gen_p2_24(b, c)


@pytest.mark.xfail(strict=True, raises=DegenerateFace,
                   reason="the build accepts a face that verify's ear clip "
                   "cannot triangulate (ROADMAP item 4)")
def test_p2_24_raw_parts_below_the_floors_verify_once_built():
    """P^2_24's raw vertices at (b, c) = (2.9e-7, 1.45e-7), below
    gen_p2_24's floors, on its record: build_polyhedron accepts them, so
    verify gives the mesh a verdict with defect -pi/6.  Today it raises
    DegenerateFace ("no ear found"): the build and the triangulation
    disagree on a face, which item 4's one polygon kernel mends."""
    b, c = 2.9e-7, 1.45e-7
    base = np.array([[1.0, 1.0, 1.0],
                     [1 - math.sqrt(3) * b, 1 - b, 1.0],
                     [1 - math.sqrt(3) * c, 1 - c, 1 - 4 * math.sqrt(3) * c]])
    p = mesh_mod.build_polyhedron(
        (base[:, None] * generators_mod._P2_SIGNS).reshape(-1, 3),
        generators_mod._P2_RECORD, generators_mod._P2_META)
    report = verify(p)
    assert report.verdict.startswith("ccp")
    assert report.defects.mean == pytest.approx(-PI / 6, abs=1e-9)


@pytest.mark.parametrize("l1", [0.0, -2.0, -0.0, np.float64(-1e-300)])
def test_l1_must_be_positive(l1):
    for build in (lambda: gen_minimal(3, l1=l1),
                  lambda: solve_block_params(4, l1)):
        with pytest.raises(BadParameters) as info:
            build()
        assert str(info.value) == f"l1 {float(l1)!r} must be positive"


def test_real_parameters_of_any_real_type_build_alike():
    """numpy floats and ints pass as the float of their value."""
    want = gen_p2_24(0.25, 0.125)
    for b, c in ((np.float64(0.25), 0.125), (0.25, np.float32(0.125))):
        assert gen_p2_24(b, c).vertices.tobytes() == want.vertices.tobytes()
    assert gen_r_block(1, 2).vertices.tobytes() == \
        gen_r_block(1.0, 2.0).vertices.tobytes()
    assert gen_minimal(3, np.float64(2)).vertices.tobytes() == \
        gen_minimal(3).vertices.tobytes()


def test_numpy_integer_genus_builds_with_an_int_genus():
    p = generate_family(FamilyRequest("minimal", np.int64(3)))
    assert type(p.metadata.genus) is int and p.metadata.genus == 3
    assert gen_v8g(np.int32(2)).metadata.genus == 2


@pytest.mark.parametrize("argv,error", [
    (["--family", "tetrahedron", "--genus", "5"], "GenusOutOfRange"),
    (["--family", "p2-24", "--genus", "3"], "GenusOutOfRange"),
    (["--family", "cho", "--genus", "0"], "GenusOutOfRange"),
    (["--family", "orientable", "--genus", "3", "--prefer-fewest"],
     "BadParameters"),
    (["--family", "tetrahedron", "--prefer-fewest"], "BadParameters"),
    (["--family", "n5g", "--genus", "5", "--prefer-fewest"],
     "BadParameters"),
    (["--family", "minimal", "--genus", "3", "--param", "root_tol=1e-12"],
     "BadParameters"),
    (["--family", "r-block", "--param", "r=0.5"], "BadParameters"),
])
def test_generate_rejects_what_the_family_does_not_take(tmp_path, capsys,
                                                        argv, error):
    """A genus, --prefer-fewest or --param the family's catalog row does
    not allow exits 2 with a typed error and writes no file."""
    from ccpforge.cli import main
    out = tmp_path / "mesh.json"
    assert main(["generate", *argv, "-o", str(out)]) == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family,genus", [
    ("tetrahedron", 0), ("p2-24", 2), ("thh", 1), ("q3-18", 3)])
def test_generate_takes_the_fixed_genus(tmp_path, family, genus):
    from ccpforge.cli import main
    out = tmp_path / "mesh.json"
    assert main(["generate", "--family", family, "--genus", str(genus),
                 "-o", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("family,genus", [
    ("orientable", 0), ("orientable", 1), ("orientable", 2),
    ("orientable", 3), ("nonorientable", 1), ("nonorientable", 2),
    ("nonorientable", 3)])
def test_generate_records_the_requested_family(tmp_path, family, genus):
    """The saved metadata names the family asked for at every genus,
    also where that genus is built by a base polyhedron."""
    import json
    from ccpforge.cli import main
    out = tmp_path / "mesh.json"
    assert main(["generate", "--family", family, "--genus", str(genus),
                 "-o", str(out)]) == 0
    meta = json.loads(out.read_text())["metadata"]
    assert (meta["family"], meta["genus"]) == (family, genus)


def test_catalog_rows_are_consistent():
    """A fixed genus matches the advertised range, and the builder of a
    family with a genus range takes the genus first.  `genus` and
    `genus_range` are views of the row's `genera`: the only genus of a
    one-genus row, and its ends, with "odd" for a range of odd genera."""
    import inspect
    for info in CATALOG:
        genera = info.genera
        assert isinstance(genera, range) and len(genera) >= 1, info.family
        assert genera.step == 1 or genera.step == 2 and genera[0] % 2 == 1
        if len(genera) == 1:
            assert info.genus == genera[0], info.family
            assert info.genus_range == str(genera[0]), info.family
        else:
            assert info.genus is None, info.family
            odd = "odd " if genera.step == 2 else ""
            assert info.genus_range == f"{odd}{genera[0]}..{genera[-1]}"
        if info.genus is None:
            assert next(iter(inspect.signature(info.build).parameters)) \
                == "g", info.family
        assert info.fewest == ("prefer_fewest" in
                               inspect.signature(info.build).parameters)


def _readme_family_table():
    """The rows of README's family table, as lists of cell texts with the
    backticks taken off."""
    from itertools import dropwhile, takewhile
    from pathlib import Path
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = text.split("## What it can build", 1)[1].splitlines()
    table = takewhile(lambda line: line.startswith("|"), dropwhile(
        lambda line: not line.startswith("|"), lines))
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in list(table)[2:]]


def test_readme_family_table_is_the_catalog():
    """README's family table has one row per CATALOG family, in its
    order, with its genus range, vertex count and orientability."""
    rows = _readme_family_table()
    assert [row[:4] for row in rows] == [
        [info.family, info.genus_range, info.vertex_count, info.orientable]
        for info in CATALOG]


def cap_turn_misses(monkeypatch, build, genus) -> np.ndarray:
    """Per face of build(genus)'s parts, how far its exterior angles, pi
    less each corner angle, sum off 2 * pi, as build_polyhedron's turn
    check sums them, without the rest of the build."""
    parts = []
    monkeypatch.setattr(generators_mod, "build_polyhedron",
                        lambda *args: parts.append(args))
    build(genus)
    vertices, faces = parts[0][:2]
    geo = mesh_mod.MeshGeometry(vertices, mesh_mod.Combinatorics.of(
        faces, len(vertices)))
    turn = np.bincount(geo.corner_face, weights=np.pi - geo.corner_angles)
    return np.abs(turn - 2 * np.pi)


@pytest.mark.parametrize("family,build,last", [("v8g", gen_v8g, 12000),
                                               ("v6g", gen_v6g, 16000)])
def test_a_cap_row_turns_once_at_its_last_genus(monkeypatch, family, build,
                                                last):
    """v8g and v6g reach genus 12,000 and 16,000, where a cap is a 36,000-
    or a 32,000-gon: summed over exterior angles, each near 0, the turn
    of every face of the parts rounds off 2 * pi by less than 1e-11,
    where a sum of interior angles, each near pi, missed (k - 2) * pi by
    more than DEFECT_TOL from about 4,200 corners."""
    assert next(row for row in CATALOG if row.family == family
                ).genera[-1] == last
    assert cap_turn_misses(monkeypatch, build, last).max() < 1e-11


class TestGenusLimits:
    """Each family builds and verifies up to the limit it advertises and
    raises GenusOutOfRange, naming that limit, before any work beyond."""

    @pytest.mark.parametrize("family,genus,fewest", [
        ("minimal", 45, False), ("n5g", 19, False),
        ("nonorientable", 19, True)])
    def test_last_genus_builds_and_verifies(self, family, genus, fewest):
        from ccpforge import verify
        report = verify(generate_family(
            FamilyRequest(family, genus, prefer_fewest=fewest)))
        assert report.verdict == "ccp_immersed"
        assert report.topology.genus == genus

    @pytest.fixture
    def work(self, monkeypatch):
        """The names of the solver, surgery and build calls made while a
        test runs, in order."""
        import ccpforge.generators as generators
        import ccpforge.mesh as mesh
        import ccpforge.surgery as surgery
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls.append(name)
                return fn(*args, **kw)
            return wrapper

        for module, name in ((generators, "solve_block_params"),
                             (surgery, "drill"), (surgery, "drill_repeat"),
                             (surgery, "connect_sum"), (surgery, "glue"),
                             (surgery, "assemble"), (surgery, "construct"),
                             (mesh, "build_polyhedron"),
                             (surgery, "build_polyhedron"),
                             (generators, "build_polyhedron")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize("family,genus,fewest,limit", [
        ("minimal", 46, False, "1..45"), ("minimal", 100, False, "1..45"),
        ("n5g", 21, False, "3..19"), ("n5g", 25, False, "3..19"),
        ("n5g", 41, False, "3..19"), ("nonorientable", 21, True, "up to 19"),
        ("nonorientable", 25, True, "up to 19")])
    def test_beyond_the_limit_raises_before_any_work(
            self, work, tmp_path, family, genus, fewest, limit):
        from ccpforge.cli import main
        with pytest.raises(GenusOutOfRange, match=limit):
            generate_family(FamilyRequest(family, genus, prefer_fewest=fewest))
        assert work == []
        out = tmp_path / "mesh.json"
        argv = ["generate", "--family", family, "--genus", str(genus),
                "-o", str(out)] + ["--prefer-fewest"] * fewest
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("family,genus", [
        (info.family, g) for info in CATALOG
        for g in (info.genera[0] - 1, info.genera[-1] + 1)])
    def test_a_genus_just_outside_the_row_raises_at_once(
            self, work, tmp_path, capsys, family, genus):
        """One genus below a row's least and one above its greatest raise
        GenusOutOfRange naming the row's range, within 1 ms and before any
        solve, surgery or build: through generate_family, through the
        builder where it takes a genus, and through `ccp generate`."""
        import timeit
        from ccpforge.cli import main
        info = next(row for row in CATALOG if row.family == family)
        message = f"{family} covers genus {info.genus_range}, not {genus}"
        params = {"r": 1.0, "h": 2.0} if info.required else {}  # r-block
        calls = [lambda: generate_family(FamilyRequest(family, genus,
                                                       params))]
        if info.genus is None:
            calls.append(lambda: info.build(genus))
        for call in calls:
            with pytest.raises(GenusOutOfRange) as raised:
                call()
            assert str(raised.value) == message

            def timed():
                with pytest.raises(GenusOutOfRange):
                    call()
            assert min(timeit.repeat(timed, number=1, repeat=5)) < 1e-3
        assert work == []
        out = tmp_path / "mesh.json"
        assert main(["generate", "--family", family, "--genus", str(genus),
                     "-o", str(out)] + [f"--param={name}={value}" for
                                        name, value in params.items()]) == 2
        assert f"error: GenusOutOfRange: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert work == []

    def test_catalog_advertises_the_limits(self):
        from ccpforge import CATALOG
        ranges = {f.family: f.genus_range for f in CATALOG}
        assert ranges["minimal"] == "1..45"
        assert ranges["n5g"] == "odd 3..19"
        counts = {f.family: f.vertex_count for f in CATALOG}
        assert "odd (<=19)" in counts["nonorientable"]
