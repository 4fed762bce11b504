import itertools
import json
import random

import pytest

from tricontact import planar
from tricontact.planar import (
    GraphError,
    decompose,
    double_wheel,
    from_json,
    gen_four_connected,
    gen_stacked,
    gen_triangulation,
    implant_octahedron,
    separating_triangles,
    stack_vertex,
    validate,
)
from conftest import chain, implanted, octahedron_graph


def decompose_by_splitting(T):
    """Reference decomposition: repeatedly split at a separating triangle
    minimizing |T_in| (ties broken by sorted vertex triple)."""
    final = []
    pending = [T]
    while pending:
        piece = pending.pop()
        seps = separating_triangles(piece)
        if not seps:
            final.append(piece)
            continue
        best = None
        for t in seps:
            t_out, t_in = split(piece, t)
            key = (len(t_in.vertices()), tuple(sorted(t)))
            if best is None or key < best[0]:
                best = (key, t_out, t_in)
        _, t_out, t_in = best
        pending.append(t_out)
        pending.append(t_in)
    return final


def split(T, tri):
    """Split at a separating triangle: (T_out, T_in).

    T_in has outer face tri; tri is an inner face of T_out; the vertex sets
    overlap exactly in tri.  Faces are partitioned by flooding from the outer
    face without crossing the three cycle edges.
    """
    tset = frozenset(int(v) for v in tri)
    if len(tset) != 3:
        raise GraphError(f"not a vertex triple: {tri!r}")
    if tset in set(T.faces) or not all(T.has_edge(u, v) for u, v in itertools.combinations(tset, 2)):
        raise GraphError(f"{tuple(sorted(tset))} is not a separating triangle")
    out_faces = _flood_outside(T, tset)
    in_faces = {f for f in T.faces if f not in out_faces}
    if not in_faces:
        raise GraphError(f"{tuple(sorted(tset))} is not a separating triangle")
    piece_out = planar._from_faces(out_faces | {tset}, T.outer)
    piece_in = planar._from_faces(in_faces | {tset}, tuple(sorted(tset)))
    return piece_out, piece_in


def _flood_outside(T, tri):
    """Faces reached from the outer face without crossing an edge of tri."""
    walls = {tuple(sorted(e)) for e in itertools.combinations(tri, 2)}
    edge_faces = {}
    for f in T.faces:
        for e in itertools.combinations(sorted(f), 2):
            edge_faces.setdefault(e, []).append(f)
    seen = {T.outer_set}
    stack = [T.outer_set]
    while stack:
        f = stack.pop()
        for e in itertools.combinations(sorted(f), 2):
            if e in walls:
                continue
            for g in edge_faces[e]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return seen


def glued_edges(tree):
    """Union of all piece edge sets (labels are preserved, so this must
    reproduce the input edge set exactly)."""
    out = set()
    for p in tree.pieces:
        out |= p.edges
    return frozenset(out)


def decompose_by_flooding(T):
    """Reference separation tree: flood the outside of every separating
    triangle, take as its nesting parent the smallest triangle whose inside
    contains its inside, and link the pieces by a recursive preorder walk
    with children ordered by sorted vertex triple."""
    seps = separating_triangles(T)
    if not seps:
        return planar.SeparationTree(pieces=(T,), links=())
    all_faces = frozenset(T.faces)
    inside = {t: all_faces - _flood_outside(T, t) for t in seps}
    by_size = sorted(seps, key=lambda t: (len(inside[t]), t))
    parent = {}
    for i, t in enumerate(by_size):
        parent[t] = next((t2 for t2 in by_size[i + 1:] if inside[t] <= inside[t2]), None)
    children = {}
    for t in seps:
        children.setdefault(parent[t], []).append(t)
    final = []
    for t in [None] + seps:
        faces = set(inside[t] if t is not None else all_faces)
        for c in children.get(t, []):
            faces -= inside[c]
            faces.add(frozenset(c))
        if t is not None:
            faces.add(frozenset(t))
        final.append(planar._from_faces(faces, T.outer if t is None else t))

    root = final[0]
    by_label = {p.outer_set: p for p in final[1:]}
    pieces, links = [], []

    def add(piece, parent_idx, label):
        idx = len(pieces)
        pieces.append(piece)
        if parent_idx is not None:
            links.append((parent_idx, idx, label))
        child_labels = sorted(
            (f for f in piece.faces if f != piece.outer_set and f in by_label), key=sorted)
        for lab in child_labels:
            add(by_label.pop(lab), idx, tuple(sorted(lab)))

    add(root, None, None)
    assert not by_label
    return planar.SeparationTree(pieces=tuple(pieces), links=tuple(links))


def triangles_by_pairs(adj):
    """Reference triangle lister: every pair of higher-labelled neighbours of
    each vertex, O(sum of squared out-degrees)."""
    out = []
    for u in sorted(adj):
        nu = sorted(w for w in adj[u] if w > u)
        for i, v in enumerate(nu):
            for w in nu[i + 1:]:
                if w in adj[v]:
                    out.append((u, v, w))
    return out


def stacking_chain_adjacency(n):
    """Neighbour sets of the stacking chain where each new vertex goes into
    the first inner face holding the previous one (vertices 0 and 1 reach
    degree n - 1)."""
    edges = set(itertools.combinations(range(4), 2))
    newest = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        a, b, c = min(newest)
        edges |= {(a, v), (b, v), (c, v)}
        newest = [(a, b, v), (a, c, v), (b, c, v)]
    return planar.adjacency_of(range(n), edges)


def gen_stacked_by_face_scan(n, seed):
    """Reference stacked generator: rebuilds the list of inner faces and
    removes the chosen face from the face list at every insertion."""
    rng = random.Random(seed)
    cnt = 4
    edges = set(itertools.combinations(range(4), 2))
    faces = [frozenset(f) for f in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
    outer = frozenset((0, 1, 2))
    while cnt < n:
        inner = [f for f in faces if f != outer]
        f = inner[rng.randrange(len(inner))]
        v = cnt
        cnt += 1
        for u in f:
            edges.add((u, v))
        faces.remove(f)
        faces.extend(frozenset((a, b, v)) for a, b in itertools.combinations(sorted(f), 2))
    return validate(cnt, sorted(edges), (0, 1, 2))


def _flip_by_scan(edges, faces, e):
    """Reference flip on an edge set and a face set: finds the two faces of
    e by scanning every face."""
    u, v = e
    f1, f2 = (f for f in faces if u in f and v in f)
    (p,), (q,) = f1 - {u, v}, f2 - {u, v}
    pq = (min(p, q), max(p, q))
    if pq in edges:
        return False
    edges.remove(e)
    edges.add(pq)
    faces -= {f1, f2}
    faces |= {frozenset((u, p, q)), frozenset((v, p, q))}
    return True


def gen_triangulation_by_sorting(n, seed):
    """Reference generator: sorts the whole edge set for every draw."""
    T = gen_stacked(n, seed)
    rng = random.Random(seed ^ 0x9E3779B97F4A7C15)
    edges, faces = set(T.edges), set(T.faces)
    for _ in range(planar.FLIPS_PER_VERTEX * n):
        e = rng.choice(sorted(edges))
        if e not in planar._OUTER_EDGES:
            _flip_by_scan(edges, faces, e)
    return planar._from_faces(faces, T.outer)


def gen_four_connected_by_sorting(n, seed):
    """Reference flip-repair on top of `gen_triangulation_by_sorting`."""
    rng = random.Random(seed ^ 0xA5A5A5A5)
    for attempt in range(planar.FOUR_CONNECTED_TRIES):
        T = gen_triangulation_by_sorting(n, seed + 1000 * attempt)
        edges, faces = set(T.edges), set(T.faces)
        for _ in range(40 * n):
            T = planar._from_faces(faces, T.outer)
            seps = separating_triangles(T)
            if not seps:
                return T
            cand = [e for e in itertools.combinations(seps[rng.randrange(len(seps))], 2)
                    if e not in planar._OUTER_EDGES]
            rng.shuffle(cand)
            if not any(_flip_by_scan(edges, faces, e) for e in cand):
                break
    raise GraphError(f"no 4-connected triangulation found for n={n}, seed={seed}")


def brute_force_separating(T):
    """Independent oracle: all 3-cliques classified by face membership."""
    adj = T.adjacency()
    faces = set(T.faces)
    verts = sorted(adj)
    out = []
    for a, b, c in itertools.combinations(verts, 3):
        if b in adj[a] and c in adj[a] and c in adj[b] and frozenset((a, b, c)) not in faces:
            out.append((a, b, c))
    return out


class TestValidate:
    def test_k4(self, k4):
        assert k4.n == 4 and len(k4.faces) == 4
        assert k4.outer_set == frozenset((0, 1, 2))

    def test_octahedron(self, octahedron):
        assert octahedron.n == 6
        assert len(octahedron.edges) == 3 * 6 - 6
        assert len(octahedron.faces) == 8

    def test_k5_not_planar(self):
        with pytest.raises(GraphError):
            validate(5, list(itertools.combinations(range(5), 2)), (0, 1, 2))

    def test_outer_not_a_face(self, octahedron):
        # 0 and 3 are antipodal: not even adjacent
        with pytest.raises(GraphError):
            validate(6, [list(e) for e in octahedron.edges], (0, 1, 3))

    def test_loops_and_duplicates(self):
        with pytest.raises(GraphError):
            validate(4, [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], (0, 1, 2))
        with pytest.raises(GraphError):
            validate(4, [(0, 1), (1, 0), (0, 2), (1, 2), (0, 3), (1, 3)], (0, 1, 2))

    def test_non_maximal(self):
        with pytest.raises(GraphError):
            validate(4, [(0, 1), (1, 2), (0, 2), (0, 3)], (0, 1, 2))

    def test_too_small(self):
        with pytest.raises(GraphError):
            validate(3, [(0, 1), (1, 2), (0, 2)], (0, 1, 2))


class TestEuler:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_counts(self, seed):
        for gen in (gen_stacked, gen_triangulation):
            T = gen(25, seed)
            assert len(T.edges) == 3 * T.n - 6
            assert len(T.faces) == 2 * T.n - 4


class TestTrianglesOf:
    def test_matches_pairwise_lister(self, k4):
        adjs = [T.adjacency() for T in (k4, gen_four_connected(16, 1), gen_stacked(300, 1))]
        adjs.append(stacking_chain_adjacency(2000))
        for adj in adjs:
            assert planar.triangles_of(adj) == triangles_by_pairs(adj)


class TestSeparatingTriangles:
    def test_octahedron_clean(self, octahedron):
        assert separating_triangles(octahedron) == []

    def test_stacked_face_becomes_separating(self, k4):
        T = stack_vertex(k4, (0, 1, 3))
        assert separating_triangles(T) == [(0, 1, 3)]

    def test_each_stacking_event_separates(self):
        # every face that received a vertex is exactly the separating set
        T = gen_stacked(20, 4)
        seps = separating_triangles(T)
        assert len(seps) == 20 - 4
        assert seps == brute_force_separating(T)

    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_agreement(self, seed):
        T = gen_triangulation(30, seed)
        assert separating_triangles(T) == brute_force_separating(T)
        T = gen_stacked(50, seed)
        assert separating_triangles(T) == brute_force_separating(T)


class TestSplit:
    def test_k4_plus_one(self, k4):
        T = stack_vertex(k4, (0, 1, 3))
        t_out, t_in = split(T, (0, 1, 3))
        assert sorted(t_out.vertices()) == [0, 1, 2, 3]
        assert sorted(t_in.vertices()) == [0, 1, 3, 4]
        assert t_in.outer_set == frozenset((0, 1, 3))
        assert frozenset((0, 1, 3)) in set(t_out.faces)
        assert set(t_out.vertices()) & set(t_in.vertices()) == {0, 1, 3}

    def test_split_at_face_rejected(self, octahedron):
        with pytest.raises(GraphError):
            split(octahedron, tuple(sorted(octahedron.inner_faces[0])))

    def test_doubly_stacked(self, k4):
        T = stack_vertex(stack_vertex(k4, (0, 1, 3)), (0, 1, 4))
        t_out, t_in = split(T, (0, 1, 3))
        assert separating_triangles(t_in) == [(0, 1, 4)]
        assert separating_triangles(t_out) == []


class TestDecompose:
    def test_octahedron_single_node(self, octahedron):
        tree = decompose(octahedron)
        assert len(tree.pieces) == 1 and not tree.links

    def test_k4_plus_one(self, k4):
        tree = decompose(stack_vertex(k4, (0, 1, 3)))
        assert len(tree.pieces) == 2
        assert all(len(p.vertices()) == 4 for p in tree.pieces)
        assert tree.links[0][2] == (0, 1, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_node_count(self, seed):
        T = gen_stacked(50, seed)
        tree = decompose(T)
        assert len(tree.pieces) == 50 - 3      # one piece per stacking event plus the root
        assert all(len(p.vertices()) == 4 for p in tree.pieces)

    @pytest.mark.parametrize("seed", range(5))
    def test_glue_roundtrip(self, seed):
        for T in (gen_stacked(40, seed), gen_triangulation(24, seed)):
            tree = decompose(T)
            assert glued_edges(tree) == T.edges

    def test_links_are_parent_inner_faces(self):
        T = gen_stacked(30, 2)
        tree = decompose(T)
        for parent, child, label in tree.links:
            lab = frozenset(label)
            assert lab in set(tree.pieces[parent].faces)
            assert lab != tree.pieces[parent].outer_set
            assert tree.pieces[child].outer_set == lab

    @pytest.mark.parametrize("gen,n,seed", [
        (gen_stacked, 20, 1), (gen_stacked, 40, 3),
        (gen_triangulation, 18, 4), (gen_triangulation, 24, 5),
    ])
    def test_laminar_matches_reference_splitter(self, gen, n, seed):
        # the one-pass nesting-forest decomposition must produce exactly the
        # pieces of the repeated min-|T_in| splitter
        T = gen(n, seed)
        fast = planar._decompose_laminar(T)
        slow = decompose_by_splitting(T)
        key = lambda ps: sorted((tuple(sorted(p.vertices())), p.outer_set) for p in ps)
        assert key(fast) == key(slow)


class TestDecomposeOracle:
    """decompose must equal the flood-based reference: the same pieces and
    links in the same order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_generated(self, seed):
        for T in (gen_stacked(40 + seed, seed), gen_triangulation(18, seed),
                  gen_triangulation(40, seed), implanted(30, seed, 4)):
            assert decompose(T) == decompose_by_flooding(T)

    @pytest.mark.parametrize("seed", (5, 6, 7))
    def test_nested_chains(self, seed):
        for depth in (2, 4, 6):
            T = chain(20, seed, depth)
            assert decompose(T) == decompose_by_flooding(T)

    def test_benchmark_hosts(self):
        for T in (gen_stacked(300, 1), implanted(100, 3, 20)):
            assert decompose(T) == decompose_by_flooding(T)

    def test_nested_triangles_sharing_edges(self):
        # (0,1,5) > (0,3,5) > (0,3,4): each shares an edge with its parent,
        # so one dual tree edge enters two of them at once
        T = gen_triangulation(7, 5)
        tree = decompose(T)
        assert tree == decompose_by_flooding(T)
        assert tree.links == ((0, 1, (0, 1, 5)), (1, 2, (0, 3, 5)), (2, 3, (0, 3, 4)))

    def test_four_connected(self, octahedron):
        assert decompose(octahedron) == decompose_by_flooding(octahedron)


class TestPeel:
    @pytest.mark.parametrize("n, seed", [(4, 0), (5, 1), (40, 2), (300, 1)])
    def test_stacked_leaves_the_outer_triangle(self, n, seed):
        T = gen_stacked(n, seed)
        remainder, peeled = planar.peel(T)
        assert remainder.vertices() == (0, 1, 2)
        assert remainder.faces == (T.outer_set,) and remainder.outer == T.outer
        assert sorted(v for v, _ in peeled) == list(range(3, n))

    @pytest.mark.parametrize("make", [
        *(lambda k=k: double_wheel(k) for k in range(4, 10)),
        *(lambda s=s: gen_four_connected(14, s) for s in range(3)),
    ])
    def test_nothing_peels_from_four_connected(self, make):
        T = make()
        remainder, peeled = planar.peel(T)
        assert remainder is T and peeled == []

    def test_bipyramid_peels_both_apexes(self):
        # K5 - e, e = (v, w): with outer face (a, b, v), w has degree 3, and
        # once w is gone so has c
        a, b, c, v, w = range(5)
        edges = [e for e in itertools.combinations(range(5), 2) if e != (v, w)]
        T = validate(5, edges, (a, b, v))
        remainder, peeled = planar.peel(T)
        assert peeled == [(w, frozenset((a, b, c))), (c, frozenset((a, b, v)))]
        assert remainder.vertices() == (a, b, v)

    def test_each_peeled_vertex_has_degree_three(self):
        # in peel order, each vertex's neighbours among the vertices still
        # there are exactly its face
        T = chain(20, 5, 4)
        remainder, peeled = planar.peel(T)
        adj = T.adjacency()
        gone = set()
        for v, face in peeled:
            assert adj[v] - gone == face
            gone.add(v)
        assert set(remainder.vertices()) == set(T.vertices()) - gone

    @pytest.mark.parametrize("make", [
        lambda: implanted(30, 1, 4), lambda: chain(20, 5, 4), lambda: gen_triangulation(24, 3),
    ], ids=["implanted30_1x4", "chain20_5d4", "g24_3"])
    def test_remainder_keeps_the_other_pieces(self, make):
        # the remainder's pieces are T's, less the K4 piece of each peeled
        # vertex, and the remainder is a triangulation
        T = make()
        remainder, peeled = planar.peel(T)
        gone = {v for v, _ in peeled}
        key = lambda p: (p.vertices(), p.outer)
        kept = [key(p) for p in decompose(T).pieces if gone.isdisjoint(p.vertices())]
        assert sorted(key(p) for p in decompose(remainder).pieces) == sorted(kept)
        label = {v: i for i, v in enumerate(remainder.vertices())}
        relabelled = validate(len(label), [(label[u], label[v]) for u, v in remainder.edges],
                              [label[v] for v in remainder.outer])
        assert {frozenset(label[v] for v in f) for f in remainder.faces} == set(relabelled.faces)


class TestGenerators:
    def test_gen_stacked_k4(self, k4):
        T = gen_stacked(4, 123)
        assert T.edges == k4.edges and T.outer == (0, 1, 2)

    def test_gen_stacked_invariant(self):
        for seed in range(5):
            T = gen_stacked(37, seed)
            assert len(T.edges) == 3 * 37 - 6

    def test_gen_stacked_matches_face_scan(self):
        # includes every stacked host and warm-up instance of the benchmark corpora
        for n, seed in ((4, 0), (5, 1), (8, 0), (12, 0), (20, 5), (20, 6), (20, 7),
                        (100, 3), (300, 1), (1000, 7)):
            assert gen_stacked(n, seed) == gen_stacked_by_face_scan(n, seed), (n, seed)

    def test_gen_triangulation_matches_sorting(self):
        # a sorted edge list and an edge-to-faces map draw the same flips
        for n in range(4, 81):
            for seed in range(4):
                assert gen_triangulation(n, seed) == gen_triangulation_by_sorting(n, seed), (n, seed)

    def test_gen_four_connected_matches_sorting(self):
        for n in range(12, 23):
            for seed in range(4):
                assert gen_four_connected(n, seed) == gen_four_connected_by_sorting(n, seed), \
                    (n, seed)

    def test_gen_stacked_rejects_small(self):
        with pytest.raises(GraphError):
            gen_stacked(3, 0)

    def test_four_connected_n5_raises_at_once(self, monkeypatch):
        # K5 - e, the only triangulation on 5 vertices, has a separating
        # triangle, so there is nothing to generate or flip
        def forbidden(*a):
            raise AssertionError("no triangulation should be generated")

        monkeypatch.setattr(planar, "gen_triangulation", forbidden)
        with pytest.raises(GraphError, match="5 vertices"):
            gen_four_connected(5, 0)

    def test_four_connected_filter(self):
        T = gen_four_connected(12, 3)
        assert separating_triangles(T) == []
        assert len(T.edges) == 3 * 12 - 6

    def test_double_wheel(self):
        for k in (4, 5, 9):
            T = double_wheel(k)
            assert T.n == k + 2
            assert separating_triangles(T) == []
        assert double_wheel(4).edges == octahedron_relabel_check()

    def test_implant_octahedron(self, k4):
        T = implant_octahedron(k4, (0, 1, 3))
        assert T.n == 7
        assert separating_triangles(T) == [(0, 1, 3)]
        tree = decompose(T)
        assert sorted(len(p.vertices()) for p in tree.pieces) == [4, 6]


def built_instances():
    """Every way the program builds a triangulation from its faces: each
    generator, the benchmark's nested host and a stack/implant chain."""
    yield from (gen_stacked(n, 1) for n in (4, 5, 40, 300))
    yield from (gen_triangulation(n, s) for n, s in ((7, 5), (18, 0), (40, 3)))
    yield from (gen_four_connected(n, s) for n in range(12, 17) for s in range(4))
    yield from (double_wheel(k) for k in range(4, 10))
    yield implanted(100, 3, 20)
    yield chain(20, 5, 6)


class TestFromFaces:
    def test_equals_validated_graph(self):
        # the planarity test, run on the built graph's edges, finds the
        # same triangulation
        for T in built_instances():
            assert validate(T.n, sorted(T.edges), T.outer) == T
            assert T.vertices() == tuple(range(T.n))

    def test_generators_skip_the_planarity_test(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("planarity test run on a generated graph")
        monkeypatch.setattr(planar.nx, "check_planarity", refuse)
        implanted(100, 3, 20)
        chain(20, 5, 6)
        gen_four_connected(12, 0)
        with pytest.raises(AssertionError):
            validate(4, list(itertools.combinations(range(4), 2)), (0, 1, 2))

    def test_piece_vertices_are_its_faces(self):
        for T in built_instances():
            for p in decompose(T).pieces:
                assert p.vertices() == tuple(sorted(set().union(*p.faces)))
                assert p.n == p.vertices()[-1] + 1


def octahedron_relabel_check():
    # the k=4 double wheel is the octahedron up to relabeling; compare degree
    # sequences and edge count as a light isomorphism proxy
    T = double_wheel(4)
    oc = octahedron_graph()
    assert sorted(len(v) for v in T.adjacency().values()) == \
        sorted(len(v) for v in oc.adjacency().values())
    return T.edges


class TestAugment:
    def test_path(self):
        T = planar.augment_to_triangulation(3, [(0, 1), (1, 2)])
        assert len(T.edges) == 3 * T.n - 6
        assert not T.has_edge(0, 2)               # no new edge between inputs

    def test_cycle(self):
        T = planar.augment_to_triangulation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert len(T.edges) == 3 * T.n - 6
        assert not T.has_edge(0, 2) and not T.has_edge(1, 3)

    def test_cube_graph(self):
        cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        T = planar.augment_to_triangulation(8, cube)
        assert len(T.edges) == 3 * T.n - 6
        # the input is the induced subgraph on its own vertices
        for u, v in itertools.combinations(range(8), 2):
            assert T.has_edge(u, v) == ((u, v) in {tuple(sorted(e)) for e in cube})

    def test_triangulation_passes_through(self, octahedron):
        T = planar.augment_to_triangulation(6, [list(e) for e in octahedron.edges])
        assert T.n == 6 and T.edges == octahedron.edges

    def test_nonplanar_rejected(self):
        with pytest.raises(GraphError):
            planar.augment_to_triangulation(5, list(itertools.combinations(range(5), 2)))

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            planar.augment_to_triangulation(4, [(0, 1), (2, 3)])


class TestJson:
    def test_roundtrip(self, octahedron):
        data = octahedron.to_json()
        T = from_json(json.loads(json.dumps(data)))
        assert T.edges == octahedron.edges and T.outer == octahedron.outer

    def test_missing_key(self):
        with pytest.raises(GraphError):
            from_json({"n": 4, "edges": []})
