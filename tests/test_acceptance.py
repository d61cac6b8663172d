"""Acceptance criteria for the toolkit, one test per criterion.

Each test pins the tolerances stated in the project contract and prints a
single pass line (run with ``pytest -s`` to see them).
"""

import math
import time

import numpy as np
import pytest

from ccpforge import (DrillSpec, FaceCorrespondence, build_polyhedron,
                      classify, connect_sum, defect_profile,
                      descartes_residual, drill, edge_length,
                      euler_characteristic, gen_cubohemioctahedron,
                      gen_flat_torus9, gen_minimal, gen_n5g_odd,
                      gen_nonorientable, gen_orientable, gen_p2_24,
                      gen_q2_9, gen_q3_18, gen_r_block,
                      gen_rhombihexahedron,
                      gen_small_dodecahemidodecahedron, gen_tetrahedron,
                      gen_tetrahemihexahedron, gen_v6g, gen_v7gm7, gen_v8g,
                      is_embedded, self_intersections, solve_block_params)

from conftest import random_rigid_motion

PI = math.pi


def _counts(p):
    return p.n_vertices, p.n_edges, p.n_faces


def test_criterion_1_flat_torus():
    p = gen_flat_torus9()
    assert p.n_vertices == 9
    assert euler_characteristic(p) == 0
    t = classify(p)
    assert t.orientable and t.genus == 1
    dp = defect_profile(p, tol=1e-9)
    assert dp.is_constant and np.abs(dp.per_vertex).max() < 1e-9
    assert is_embedded(p)

    def length(a, b):
        return edge_length(p, p.edge_index(p.label(a), p.label(b)))

    closed_forms = [
        ("v1", "v3", math.sqrt(3 - math.sqrt(2))),
        ("v1", "v3,1", math.sqrt(3 + 2 * math.cos(PI / 12))),
        ("v3", "v3,1", math.sqrt(3)),
        ("v2", "v1", math.sqrt(9 / 4 - 2 * math.cos(PI / 8))),
        ("v2", "v1,1", math.sqrt(9 / 4 + 2 * math.cos(11 * PI / 24))),
        ("v1", "v1,1", math.sqrt(3)),
    ]
    for a, b, want in closed_forms:
        assert abs(length(a, b) - want) < 1e-12
    print("\n[acceptance 1] PASS - flat torus: 9 vertices, flat, embedded, "
          "six printed edge lengths to 1e-12")


def test_criterion_2_p2_24_family():
    rng = np.random.default_rng(2024)
    s3 = math.sqrt(3)
    cases = [(0.25, 1 / 32)]
    for _ in range(100):
        c = rng.uniform(0.004, 1 / (4 * s3) - 0.004)
        b = rng.uniform(c + 0.004, 1 / s3 - 0.004)
        cases.append((b, c))
    for b, c in cases:
        p = gen_p2_24(b, c)
        assert _counts(p) == (24, 44, 18)
        dp = defect_profile(p, tol=1e-9)
        assert np.abs(dp.per_vertex + PI / 6).max() < 1e-9
        assert is_embedded(p)
    print("[acceptance 2] PASS - p2-24: default + 100 random admissible "
          "(b, c), defect -pi/6 to 1e-9, embedded")


def test_criterion_3_drilled_orientable():
    for g in range(3, 7):
        p = gen_orientable(g)
        assert p.n_vertices == 24 * (g - 1)
        t = classify(p)
        assert t.orientable and t.genus == g
        dp = defect_profile(p, tol=1e-6)
        assert dp.is_constant
        assert np.abs(dp.per_vertex + PI / 6).max() < 1e-6
        assert is_embedded(p)
    print("[acceptance 3] PASS - drilled orientable family g=3..6: "
          "24(g-1) vertices, defect -pi/6, embedded")


def test_criterion_4_base_nonorientable():
    cases = [
        (gen_tetrahemihexahedron(), PI / 3, (6, 12, 7), 1),
        (gen_q2_9(), 0.0, (9, 21, 12), 2),
        (gen_q3_18(), -PI / 9, (18, 42, 23), 3),
        (gen_cubohemioctahedron(), -PI / 3, (12, 24, 10), 4),
    ]
    for p, want, counts, genus in cases:
        assert _counts(p) == counts
        dp = defect_profile(p, tol=1e-9)
        assert np.abs(dp.per_vertex - want).max() < 1e-9
        t = classify(p)
        assert not t.orientable and t.genus == genus
        assert self_intersections(p)
    print("[acceptance 4] PASS - Q1_6 / Q2_9 / Q3_18 / Q4_12: defects "
          "pi/3, 0, -pi/9, -pi/3; counts and genus as printed; all "
          "self-intersecting")


def test_criterion_5_drilled_nonorientable():
    for n in (1, 2):
        odd = gen_nonorientable(2 * n + 3)
        assert odd.n_vertices == 18 + 36 * n
        t = classify(odd)
        assert not t.orientable and t.genus == 2 * n + 3
        dp = defect_profile(odd, tol=1e-6)
        assert dp.is_constant
        assert np.abs(dp.per_vertex + PI / 9).max() < 1e-6

        even = gen_nonorientable(2 * n + 4)
        assert even.n_vertices == 12 + 12 * n
        t = classify(even)
        assert not t.orientable and t.genus == 2 * n + 4
        dp = defect_profile(even, tol=1e-6)
        assert dp.is_constant
        assert np.abs(dp.per_vertex + PI / 3).max() < 1e-6
    print("[acceptance 5] PASS - drilled chains: 18+36n and 12+12n "
          "vertices for n=1,2, defects preserved to 1e-6")


def test_criterion_6_solver_examples():
    bp = solve_block_params(7, 2.0)
    got7 = [d for _, d in bp.pairs] + [bp.terminal[1]]
    for value, expect in zip(got7, (3.94799, 6.93234, 9.83752, 8.30361)):
        assert abs(value - expect) < 1e-4
    bp = solve_block_params(8, 2.0)
    got8 = [d for _, d in bp.pairs]
    for value, expect in zip(got8, (3.99386, 7.21534, 11.01272, 13.64880)):
        assert abs(value - expect) < 1e-4
    print("[acceptance 6] PASS - block solver matches the worked examples "
          "for g=7 and g=8 to 1e-4")


def test_criterion_7_minimal_family():
    for g in range(1, 9):
        p = gen_minimal(g)
        assert _counts(p) == (2 * g + 4, 11 * g + 4, 7 * g + 2)
        t = classify(p)
        assert t.orientable and t.genus == g
        dp = defect_profile(p, tol=1e-6)
        assert dp.is_constant
        want = -(2 * g - 2) * PI / (g + 2)
        assert abs(dp.mean - want) < 1e-6
        if g >= 2:
            assert self_intersections(p)
    print("[acceptance 7] PASS - minimal family g=1..8: 2g+4 vertices, "
          "11g+4 edges, 7g+2 faces, defect -(2g-2)pi/(g+2)")


def test_criterion_8_appendix_families():
    for g in range(2, 7):
        p = gen_v8g(g)
        assert _counts(p) == (8 * g, 16 * g, 6 * g + 2)
        dp = defect_profile(p, tol=1e-9)
        assert np.abs(dp.per_vertex - PI * (1 - g) / (2 * g)).max() < 1e-9
        assert is_embedded(p)
    for g in range(5, 11):
        p = gen_v6g(g)
        assert _counts(p) == (6 * g, 13 * g, 5 * g + 2)
        dp = defect_profile(p, tol=1e-9)
        assert np.abs(dp.per_vertex
                      - 2 * PI * (1 - g) / (3 * g)).max() < 1e-9
        assert is_embedded(p)
    for g in (4, 5, 6):
        p = gen_v7gm7(g)
        assert _counts(p) == (7 * g - 7, 18 * g - 18, 9 * g - 9)
        dp = defect_profile(p, tol=1e-9)
        assert np.abs(dp.per_vertex + 4 * PI / 7).max() < 1e-9
        assert is_embedded(p)
    for g in (3, 5, 7, 9, 11):
        p = gen_n5g_odd(g)
        assert _counts(p) == (5 * g, 13 * g, 7 * g + 2)
        dp = defect_profile(p, tol=1e-9)
        assert np.abs(dp.per_vertex
                      - (4 - 2 * g) * PI / (5 * g)).max() < 1e-9
    print("[acceptance 8] PASS - appendix families: exact counts, printed "
          "defect formulas to 1e-9, window families embedded")


def _producible_meshes():
    yield gen_tetrahedron()
    yield gen_flat_torus9()
    yield gen_p2_24()
    yield gen_tetrahemihexahedron()
    yield gen_r_block(0.4, 0.9)
    yield gen_q2_9()
    yield gen_q3_18()
    yield gen_cubohemioctahedron()
    yield gen_rhombihexahedron()
    yield gen_small_dodecahemidodecahedron()
    yield gen_orientable(4)
    yield gen_nonorientable(5)
    yield gen_nonorientable(6)
    yield gen_nonorientable(9, prefer_fewest=True)
    yield gen_nonorientable(10, prefer_fewest=True)
    yield gen_v8g(3)
    yield gen_v6g(6)
    yield gen_v7gm7(5)
    yield gen_n5g_odd(5)
    yield gen_minimal(4)
    yield gen_minimal(7)


def test_criterion_9_property_suite():
    # closed-surface defect identity on everything the tool produces
    for p in _producible_meshes():
        assert descartes_residual(p) < 1e-8

    # drilling: exactly 2n new vertices of defect -2pi/n, chi drops by 2
    p = gen_p2_24()
    for n in (3, 7, 12):
        out = drill(p, DrillSpec(0, 1, n))
        assert out.n_vertices == p.n_vertices + 2 * n
        assert euler_characteristic(out) == euler_characteristic(p) - 2
        dp = defect_profile(out, tol=10.0)
        assert np.abs(dp.per_vertex[p.n_vertices:] + 2 * PI / n).max() < 1e-9
        base = defect_profile(p, tol=10.0).per_vertex
        assert np.abs(dp.per_vertex[:p.n_vertices] - base).max() < 1e-9

    # connected sum: chi additivity is exact integer arithmetic
    r = 0.5
    h = 0.5 * math.sqrt(3 * (1 + math.sqrt(3)))
    pieces = (gen_r_block(r, h), gen_r_block(r, h))
    out = connect_sum(pieces[0], pieces[1],
                      FaceCorrespondence(0, 0, mapping=(0, 2, 1)))
    assert euler_characteristic(out) == sum(
        euler_characteristic(q) for q in pieces) - 2

    # rigid motions and uniform scaling leave defects invariant
    rng = np.random.default_rng(99)
    for p in (gen_q3_18(), gen_minimal(3)):
        base = defect_profile(p, tol=10.0).per_vertex
        rot, tr = random_rigid_motion(rng)
        moved = build_polyhedron((rot @ p.vertices.T).T + tr, p.faces,
                                 edge_slots=p.edge_slots)
        assert np.abs(defect_profile(moved, tol=10.0).per_vertex
                      - base).max() < 1e-9
        scaled = build_polyhedron(p.vertices * 12.34, p.faces,
                                  edge_slots=p.edge_slots)
        assert np.abs(defect_profile(scaled, tol=10.0).per_vertex
                      - base).max() < 1e-9
    print("[acceptance 9] PASS - defect identity < 1e-8 everywhere; "
          "drilling adds 2n vertices of defect -2pi/n and chi-2; "
          "chi additivity exact; rigid/scale invariance to 1e-9")


def test_criterion_10_hemi_star_polyhedra():
    rh = gen_rhombihexahedron()
    assert rh.n_vertices == 24
    t = classify(rh)
    assert not t.orientable and t.genus == 8
    dp = defect_profile(rh, tol=1e-9)
    assert np.abs(dp.per_vertex + PI / 2).max() < 1e-9
    assert dp.mean == pytest.approx(2 * PI * (-6) / 24, abs=1e-12)

    sd = gen_small_dodecahemidodecahedron()
    assert sd.n_vertices == 30
    t = classify(sd)
    assert not t.orientable and t.genus == 14
    dp = defect_profile(sd, tol=1e-9)
    assert np.abs(dp.per_vertex + 4 * PI / 5).max() < 1e-9
    print("[acceptance 10] PASS - rhombihexahedron (24, -pi/2, genus 8) "
          "and small dodecahemidodecahedron (30, -4pi/5, genus 14)")


def test_performance_self_intersections():
    worst = 0.0
    for p in (gen_v6g(10), gen_minimal(10),
              gen_nonorientable(10, prefer_fewest=True),
              gen_nonorientable(10)):
        t0 = time.perf_counter()
        self_intersections(p)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 10.0
    print(f"[acceptance perf] PASS - self-intersection scan of the g=10 "
          f"meshes completes in {worst:.2f}s (< 10s)")


def test_performance_batched_self_intersections():
    p = gen_orientable(12)
    t0 = time.perf_counter()
    self_intersections(p)
    took = time.perf_counter() - t0
    assert took < 1.0
    print(f"[acceptance perf] PASS - self-intersection scan of orientable "
          f"g=12 ({p.n_faces} faces) completes in {took:.2f}s (< 1s)")
