"""Family generators: counts, defects, printed angle/length identities and
the minimal-family parameter solver."""

import math

import numpy as np
import pytest

from ccpforge import (a_coeff, classify, corner_angle, defect_profile,
                      f_angle_sum, gen_cubohemioctahedron,
                      gen_flat_torus9, gen_minimal, gen_n5g_odd,
                      gen_nonorientable, gen_orientable, gen_p2_24,
                      gen_q2_9, gen_q3_18, gen_r_block,
                      gen_rhombihexahedron, gen_s_base,
                      gen_small_dodecahemidodecahedron, gen_t_block,
                      gen_tetrahedron, gen_tetrahemihexahedron, gen_v6g,
                      gen_v7gm7, gen_v8g, generate_family, FamilyRequest,
                      is_embedded, self_intersections, solve_block_params)
from ccpforge.errors import BadParameters, DomainError, GenusOutOfRange

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
    family with a genus range takes the genus first."""
    import inspect
    from ccpforge import CATALOG
    for info in CATALOG:
        if info.genus is not None:
            assert info.genus_range == str(info.genus), info.family
        else:
            assert next(iter(inspect.signature(info.build).parameters)) \
                == "g", info.family
        assert info.fewest == ("prefer_fewest" in
                               inspect.signature(info.build).parameters)


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

    @pytest.mark.parametrize("family,genus,fewest,limit", [
        ("minimal", 46, False, "1..45"), ("minimal", 100, False, "1..45"),
        ("n5g", 21, False, "3..19"), ("n5g", 25, False, "3..19"),
        ("n5g", 41, False, "3..19"), ("nonorientable", 21, True, "up to 19"),
        ("nonorientable", 25, True, "up to 19")])
    def test_beyond_the_limit_raises_before_any_work(
            self, monkeypatch, tmp_path, family, genus, fewest, limit):
        import ccpforge.generators as generators
        import ccpforge.mesh as mesh
        import ccpforge.surgery as surgery
        from ccpforge.cli import main
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls.append(name)
                return fn(*args, **kw)
            return wrapper

        for module, name in ((generators, "solve_block_params"),
                             (surgery, "drill"), (surgery, "drill_repeat"),
                             (surgery, "connect_sum"), (surgery, "glue"),
                             (mesh, "build_polyhedron"),
                             (surgery, "build_polyhedron"),
                             (generators, "build_polyhedron")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        with pytest.raises(GenusOutOfRange, match=limit):
            generate_family(FamilyRequest(family, genus, prefer_fewest=fewest))
        assert calls == []
        out = tmp_path / "mesh.json"
        argv = ["generate", "--family", family, "--genus", str(genus),
                "-o", str(out)] + ["--prefer-fewest"] * fewest
        assert main(argv) == 2
        assert not out.exists()

    def test_catalog_advertises_the_limits(self):
        from ccpforge import CATALOG
        ranges = {f.family: f.genus_range for f in CATALOG}
        assert ranges["minimal"] == "1..45"
        assert ranges["n5g"] == "odd 3..19"
        counts = {f.family: f.vertex_count for f in CATALOG}
        assert "odd (<=19)" in counts["nonorientable"]
