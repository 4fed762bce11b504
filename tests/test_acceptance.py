"""Acceptance criteria, one test per criterion, each printing a PASS line.

Shared corpora are built once and reused (the drawing criterion runs on every
instance produced by the construction criteria).
"""

import itertools
import json
import random
import time
from fractions import Fraction

from tricontact import planar
from tricontact.assemble import represent
from tricontact.geometry import Tri, intersect, signed_height
from tricontact.verify import (
    check_simple,
    count_crossings,
    extract_drawing,
    full_report,
    intersection_graph,
)
from conftest import (
    grid_points,
    in_triangle,
    octahedron_graph,
    open_in_canvas,
    represent_in,
    solve_in_canvas,
    stacked_by_peeling,
    tri,
    triples_by_cubic_scan,
    with_triangle,
)

F = Fraction

OUTER = {0: tri(0, 0, 4), 1: tri(1, 3, 2), 2: tri(3, 1, 2)}

_cache: dict = {}


def outer_for(T):
    return {T.outer[0]: OUTER[0], T.outer[1]: OUTER[1], T.outer[2]: OUTER[2]}


def stacked_corpus():
    """100 random stacked triangulations with n up to 200, each with the
    representation `represent` builds (the path `tricontact run` takes)."""
    if "stacked" not in _cache:
        rng = random.Random(20240817)
        sizes = [10 + round(190 * (i % 25) / 24) for i in range(100)]
        corpus = []
        for i, n in enumerate(sizes):
            T = planar.gen_stacked(n, rng.randrange(2 ** 32))
            corpus.append((T, represent(T)))
        _cache["stacked"] = corpus
    return _cache["stacked"]


def four_connected_corpus():
    """Octahedron plus generated 4-connected triangulations, n <= 30: double
    wheels, whose rim triangles shrink geometrically, and random ones."""
    if "fourconn" not in _cache:
        instances = [("octahedron", octahedron_graph())]
        for k in (*range(5, 13), 24, 28):
            instances.append((f"double_wheel_{k}", planar.double_wheel(k)))
        for n, seed in [(8, 1), (9, 2), (10, 3), (11, 4), (12, 5)]:
            instances.append((f"random_{n}_{seed}", planar.gen_four_connected(n, seed)))
        _cache["fourconn"] = instances
    return _cache["fourconn"]


def composed_corpus():
    """Mixed instances with >= 2 levels of separating triangles, n <= 60."""
    if "composed" not in _cache:
        oc = octahedron_graph()
        out = []
        # stacked into 4-connected, two levels
        T = planar.stack_vertex(oc, sorted(oc.inner_faces[0]))
        face_of_new = sorted(sorted(f) for f in T.inner_faces if T.n - 1 in f)[0]
        out.append(("octa+stack2", planar.stack_vertex(T, face_of_new)))
        # 4-connected into stacked
        T = planar.gen_stacked(8, 3)
        out.append(("stacked8+octa", planar.implant_octahedron(T, sorted(T.inner_faces[2]))))
        # 4-connected inside 4-connected via a stacked middle layer
        T = planar.double_wheel(6)
        T = planar.implant_octahedron(T, sorted(T.inner_faces[1]))
        inner_new = sorted(sorted(f) for f in T.inner_faces if T.n - 1 in f)[0]
        out.append(("dw6+octa+stack", planar.stack_vertex(T, inner_new)))
        # larger stacked host with two implants
        T = planar.gen_stacked(30, 12)
        T = planar.implant_octahedron(T, sorted(T.inner_faces[5]))
        T = planar.implant_octahedron(T, sorted(T.inner_faces[0]))
        out.append(("stacked30+2octa", T))
        # deep alternation: stacked host, implant, stack, implant, stack
        T = planar.gen_stacked(20, 5)
        T = planar.implant_octahedron(T, sorted(sorted(f) for f in T.inner_faces)[0])

        def newest_face(G):
            return sorted(sorted(x) for x in G.inner_faces if G.n - 1 in x)[0]

        T = planar.stack_vertex(T, newest_face(T))
        T = planar.implant_octahedron(T, newest_face(T))
        T = planar.stack_vertex(T, newest_face(T))
        out.append(("deep_alternation", T))
        for name, T in out:
            assert T.n <= 60
            tree = planar.decompose(T)
            depth = {0: 0}
            for p, c, _ in tree.links:
                depth[c] = depth[p] + 1
            assert max(depth.values()) >= 2 or len(planar.separating_triangles(T)) >= 2
        _cache["composed"] = out
    return _cache["composed"]


def _rand_tri(rng):
    den = rng.choice((4, 8, 16))
    return Tri(F(rng.randint(-80, 80), den), F(rng.randint(-80, 80), den),
               F(rng.randint(1, 64), den))


def test_criterion_1_closed_form_oracle():
    """>= 1000 random rational pairs: intersect/signed_height never contradicts
    a dense-sampling membership oracle; runtime < 10 s."""
    rng = random.Random(42)
    t0 = time.time()
    checked = 0
    for _ in range(1000):
        a, b = _rand_tri(rng), _rand_tri(rng)
        ov = intersect(a, b)
        s = signed_height(a, b)
        assert (s < 0) == (ov.kind == "empty")
        assert (s == 0) == (ov.kind == "point")
        for p in grid_points(a, b, 12):
            both = in_triangle(p, a) and in_triangle(p, b)
            if ov.kind == "empty":
                assert not both
            elif ov.kind == "point":
                assert not both or (p[0], p[1]) == (ov.point.x, ov.point.y)
            else:
                assert both == in_triangle(p, ov.region)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS: {checked} random pairs agree with the sampling "
          f"oracle in {elapsed:.1f}s")


def test_criterion_2_exact_stacked_pipeline():
    """100 random stacked triangulations (n up to 200): exact representations
    pass the full report in rational arithmetic within 60 s total; heights
    halve per nesting level; denominator growth is measured and reported."""
    t0 = time.time()
    corpus = stacked_corpus()
    tiny_eps = F(1, 10 ** 12)
    max_n = 0
    bit_stats = []
    for T, rep in corpus:
        r = full_report(rep, T, epsilon=tiny_eps, with_faces=False)
        assert r.passed, f"stacked n={T.n} failed: {r.to_json()}"
        max_n = max(max_n, T.n)

        tree = planar.decompose(T)
        depth = {0: 0}
        for p, c, _ in tree.links:
            depth[c] = depth[p] + 1
        d_max = max(depth.values())
        min_h = min(t.h for v, t in rep.triangles.items() if v not in (0, 1, 2))
        assert min_h == F(1, 2 ** d_max)       # heights halve per nesting level
        bits = max(max(t.x.denominator.bit_length(), t.y.denominator.bit_length(),
                       t.h.denominator.bit_length()) for t in rep.triangles.values())
        assert bits >= d_max                   # growth tracks depth; no fixed bound
        bit_stats.append((T.n, d_max, bits))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert max_n == 200
    deepest = max(bit_stats, key=lambda s: s[1])
    print(f"\n[criterion 2] PASS: 100 stacked instances (n up to {max_n}) verified "
          f"exactly in {elapsed:.1f}s; deepest nesting {deepest[1]} levels with "
          f"max denominator bit-length {deepest[2]} (n={deepest[0]})")


def test_stacked_pipeline_matches_peeling_oracle():
    """On stacked inputs the separation tree path (every piece a K4, its
    vertex the medial child of its gap) gives exactly the triangles of the
    whole-graph degree-3 peel."""
    for T, rep in stacked_corpus():
        assert rep.triangles == stacked_by_peeling(T, outer_for(T)), f"stacked n={T.n}"
    T = planar.gen_stacked(1000, 1)
    assert represent(T).triangles == stacked_by_peeling(T, outer_for(T))


def test_criterion_3_bad_point_removal(octahedron, k222_triple_rep):
    """Triple-point removal: the K_{2,2,2} contact layout's point in three
    triangles is removed with the graph intact, by the overlap solve of its
    wood."""
    # K_{2,2,2}: every contact representation has a point in three triangles;
    # its wood's contact layout is the hand-built one, with it at (7/3, 7/3)
    assert solve_in_canvas(octahedron, OUTER) == k222_triple_rep
    assert triples_by_cubic_scan(k222_triple_rep) == [(3, 4, 5)]
    k_clean = open_in_canvas(octahedron, OUTER)
    assert triples_by_cubic_scan(k_clean) == []
    assert intersection_graph(k_clean) == intersection_graph(k222_triple_rep)
    r = full_report(k_clean, octahedron)
    assert r.passed
    assert check_simple(k_clean, intersection_graph(k_clean))[1] == triples_by_cubic_scan(k_clean)
    _cache["k222_clean"] = (octahedron, k_clean)
    print("\n[criterion 3] PASS: K_{2,2,2} triple point removed with the graph intact "
          "by the overlap solve of its wood")


def test_criterion_4_four_connected_pipeline():
    """Octahedron plus >= 10 generated 4-connected triangulations (n <= 30):
    representations pass the full report with pre-overlap edge residuals
    exactly 0, < 120 s per instance."""
    done = []
    reps = []
    for name, T in four_connected_corpus():
        assert T.n <= 30
        t0 = time.time()
        pre = solve_in_canvas(T, outer_for(T))
        adj = T.adjacency()
        worst = F(0)
        for u, v in itertools.combinations(range(T.n), 2):
            if u in set(T.outer) and v in set(T.outer):
                continue
            if v in adj[u]:
                worst = max(worst, abs(signed_height(pre.tri(u), pre.tri(v))))
        assert worst == 0, f"{name}: pre-overlap residual {float(worst)}"
        rep = open_in_canvas(T, outer_for(T))
        r = full_report(rep, T)
        assert r.passed, f"{name} failed: {r.to_json()}"
        if T.n <= 10:
            assert check_simple(rep, intersection_graph(rep))[1] == triples_by_cubic_scan(rep)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        done.append((name, elapsed))
        reps.append((T, rep))
    assert len(done) >= 11
    assert max(T.n for _, T in four_connected_corpus()) == 30
    _cache["fourconn_reps"] = reps
    slowest = max(done, key=lambda d: d[1])
    print(f"\n[criterion 4] PASS: {len(done)} four-connected instances certified "
          f"(slowest {slowest[0]}: {slowest[1]:.1f}s, contact residuals exactly 0)")


def test_criterion_5_recursion():
    """Composed instances (>= 2 levels of separating triangles, n <= 60) pass
    the full report including the face condition; budgets stay positive."""
    reps = []
    for name, T in composed_corpus():
        trace = []
        rep = represent(T, trace=trace)
        assert all(e["epsilon"] > 0 for e in trace), f"{name}: nonpositive budget"
        r = full_report(rep, T, with_faces=True)
        assert r.passed and r.face_condition_ok, f"{name} failed: {r.to_json()}"
        reps.append((T, rep))
    _cache["composed_reps"] = reps
    print(f"\n[criterion 5] PASS: {len(reps)} composed instances certified "
          "including the per-face gap condition; budgets positive at every level")


def test_criterion_6_drawings():
    """Every instance from criteria 2-5 yields a drawing with zero polyline
    crossings under exact segment predicates."""
    total = 0
    for T, rep in stacked_corpus():
        d = extract_drawing(rep, T)
        assert count_crossings(d.polylines) == 0, f"stacked n={T.n} drawing crossed"
        total += 1
    instances = []
    instances.extend(_cache.get("fourconn_reps") or _ensure_fourconn())
    instances.extend(_cache.get("composed_reps") or _ensure_composed())
    if "k222_clean" in _cache:
        instances.append(_cache["k222_clean"])
    for T, rep in instances:
        d = extract_drawing(rep, T)
        assert count_crossings(d.polylines) == 0
        total += 1
    print(f"\n[criterion 6] PASS: {total} drawings extracted, all crossing-free "
          "under exact predicates")


def _ensure_fourconn():
    reps = []
    for name, T in four_connected_corpus():
        reps.append((T, open_in_canvas(T, outer_for(T))))
    _cache["fourconn_reps"] = reps
    return reps


def _ensure_composed():
    reps = [(T, represent(T)) for _, T in composed_corpus()]
    _cache["composed_reps"] = reps
    return reps


def test_criterion_7_negative_controls(k4, octahedron, k222_triple_rep):
    """The verifier must fail with correct diagnostics on (i) a triple point,
    (ii) a missing adjacency, (iii) an inner triangle over a boundary corner,
    (iv) all of these at once off the dyadic path."""
    # (i) triple point
    r = full_report(k222_triple_rep, octahedron, with_faces=False)
    assert not r.passed and not r.simple
    assert r.offending_triples == [[3, 4, 5]]
    assert r.graph_match and r.boundary_ok and r.corner_ok

    # (ii) missing adjacency
    rep = represent_in(k4, OUTER)
    bad = with_triangle(rep, 3, tri(F(19, 10), 2, 1))
    r = full_report(bad, k4, with_faces=False)
    assert not r.passed and not r.graph_match
    assert r.missing_edges == [[2, 3]] and r.extra_edges == []

    # (iii) boundary corner swallowed by an inner triangle
    T5 = planar.stack_vertex(k4, (0, 1, 3))
    rep5 = represent(T5)
    cover = with_triangle(rep5, 4, tri(F(3, 4), F(11, 4), F(1, 2)))
    r = full_report(cover, T5, with_faces=False)
    assert not r.passed and not r.corner_ok
    assert any(o == 1 and v == 4 for o, _, v in
               [(c[0], c[1], c[2]) for c in r.offending_corners])

    # (iv) thirds and fifths: triangle 5 swallows a corner of boundary
    # triangle 1, and triangle 4 overlaps boundary triangle 2 by exactly the
    # epsilon override; pinned as the Fraction-based verifier reported it
    thirds = with_triangle(k222_triple_rep, 4, tri(F(7, 3), F(5, 3), 1))
    thirds = with_triangle(thirds, 5, tri(F(4, 5), F(13, 5), F(6, 5)))
    r = full_report(thirds, octahedron, epsilon=F(1, 3), with_drawing=True)
    assert json.loads(json.dumps(r.to_json())) == {
        "passed": False, "graph_match": False, "missing_edges": [[3, 5], [4, 5]],
        "extra_edges": [], "simple": False, "offending_triples": [[0, 1, 5]],
        "boundary_ok": False,
        "offending_pairs": [[5, 0, "3/5"], [5, 1, "3/5"], [4, 2, "1/3"]],
        "corner_ok": False, "offending_corners": [[1, ["1/1", "3/1"], 5]],
        "face_condition_ok": False,
        "offending_faces": [["skipped: graph or simpleness failed"]],
        "drawing_planar": False, "crossings": None,
        "drawing_note": "skipped: graph or simpleness failed"}
    print("\n[criterion 7] PASS: triple point, missing adjacency, and corner "
          "violation each caught with the offending items reported, also off "
          "the dyadic path")
