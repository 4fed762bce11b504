import itertools
import json

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
    glued_edges,
    implant_octahedron,
    octahedron,
    piece_size,
    separating_triangles,
    split,
    stack_vertex,
    validate,
)


def decompose_by_splitting(T):
    """Reference decomposition: repeatedly split at a separating triangle
    minimizing |T_in| (ties broken by sorted vertex triple)."""
    final = []
    pending = [planar.as_piece(T)]
    while pending:
        piece = pending.pop()
        seps = separating_triangles(piece)
        if not seps:
            final.append(piece)
            continue
        best = None
        for t in seps:
            t_out, t_in = split(piece, t)
            key = (piece_size(t_in), tuple(sorted(t)))
            if best is None or key < best[0]:
                best = (key, t_out, t_in)
        _, t_out, t_in = best
        pending.append(t_out)
        pending.append(t_in)
    return final


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
        assert all(piece_size(p) == 4 for p in tree.pieces)
        assert tree.links[0][2] == (0, 1, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_node_count(self, seed):
        T = gen_stacked(50, seed)
        tree = decompose(T)
        assert len(tree.pieces) == 50 - 3      # one piece per stacking event plus the root
        assert all(piece_size(p) == 4 for p in tree.pieces)

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


class TestGenerators:
    def test_gen_stacked_k4(self, k4):
        T = gen_stacked(4, 123)
        assert T.edges == k4.edges and T.outer == (0, 1, 2)

    def test_gen_stacked_invariant(self):
        for seed in range(5):
            T = gen_stacked(37, seed)
            assert len(T.edges) == 3 * 37 - 6

    def test_gen_stacked_rejects_small(self):
        with pytest.raises(GraphError):
            gen_stacked(3, 0)

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
        assert sorted(piece_size(p) for p in tree.pieces) == [4, 6]


def octahedron_relabel_check():
    # the k=4 double wheel is the octahedron up to relabeling; compare degree
    # sequences and edge count as a light isomorphism proxy
    T = double_wheel(4)
    oc = octahedron()
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
