import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tilefold import divcalc, stages
from tilefold.conelab import (
    _permutes,
    effective_generators,
    gamma1,
    gamma2,
    mori_cone,
    moving_dual_cone,
    nef_cone,
    orbit_decomposition,
)
from tilefold.divcalc import (
    BASIS,
    LABELS,
    LABEL_INDEX,
    MULTICAN_LABEL_SETS,
    PLANE_ROWS,
    QUADRIC_ROW,
    RANK,
    SURFACE_NODES_A0,
    NotPermutedError,
    RuleConsistencyError,
    anticanonical,
    basis_tensor,
    class_of,
    class_of_labels,
    curve_class,
    expr,
    intersect_classes,
    label_relations_in_label_space,
    label_tensor,
    orbit,
    picard_action,
    picard_lattice,
    act_on_class,
    act_on_curve,
    curve_action,
    quartic_system,
    ray_permutations,
    solve_petersen,
    substituted_tensor,
    surface_graphs,
    triple,
    triple_labels,
)
from tilefold.exactlat import dot, identity_matrix, mat_vec, primitive_vector
from tilefold.polyhedra import Cone, dual_cone
from tilefold.tilegroup import GENERATORS, IDENTITY, TAU, act_on_label, compose, full_group


@cache
def _reference_matrices():
    """Class and curve matrices of all 48 elements: the reference.

    The class matrix of g sends each basis label to the class of its image
    under act_on_label, and qH to the class of the moved A2 plane row.  The
    curve matrix of g is the transpose of the class matrix of the inverse of
    g, found by search.
    """
    lc = picard_lattice()["label_class"]
    classes = {}
    for g in full_group():
        cols = [
            tuple(map(sum, zip(*(lc[act_on_label(g, lab)] for lab in PLANE_ROWS["A2"]))))
            if sym == "qH" else lc[act_on_label(g, sym)]
            for sym in BASIS
        ]
        classes[g] = tuple(zip(*cols))
    inverse = {g: next(h for h in full_group() if compose(g, h) == IDENTITY) for g in full_group()}
    curves = {g: tuple(zip(*classes[inverse[g]])) for g in full_group()}
    return classes, curves


def reference_act_on_class(g, v):
    return mat_vec(_reference_matrices()[0][g], v)


def reference_act_on_curve(g, v):
    return mat_vec(_reference_matrices()[1][g], v)


REFERENCE_ACTION = {act_on_class: reference_act_on_class, act_on_curve: reference_act_on_curve}


class TestPicardLattice:
    def test_rank_and_freeness(self):
        pl = picard_lattice()
        assert pl["rank"] == 12
        assert pl["invariant_factors"] == [1] * 9
        assert pl["relation_rank"] == 9

    def test_a2_expression(self):
        pl = picard_lattice()
        expected = class_of(expr(qH=1, B2=-1, C01=-1, D02=-1, D12=-1, D23=-1))
        assert pl["label_class"]["A2"] == expected

    def test_rows_reduce_to_qh(self):
        qh = class_of(expr(qH=1))
        for row in PLANE_ROWS.values():
            assert class_of_labels(row) == qh
        assert class_of_labels(QUADRIC_ROW) == class_of(expr(qH=2))

    def test_label_differences_span_rank_8(self):
        from tilefold.exactlat import rational_rank

        rels = label_relations_in_label_space()
        assert rational_rank([list(r) for r in rels]) == 8

    def test_label_relations_are_zero_classes(self):
        for rel in label_relations_in_label_space():
            assert class_of((0,) + rel) == (0,) * divcalc.RANK

    def test_basis_symbols_are_the_unit_classes(self):
        lc = picard_lattice()["label_class"]
        for k, sym in enumerate(divcalc.BASIS):
            assert lc[sym] == tuple(int(j == k) for j in range(divcalc.RANK))

    def test_a_basis_with_a_repeated_symbol_raises(self, monkeypatch):
        monkeypatch.setattr(divcalc, "BASIS", divcalc.BASIS[:-1] + ("A0",))
        stages.clear(picard_lattice)
        try:
            with pytest.raises(RuntimeError, match="not a basis"):
                picard_lattice()
        finally:
            monkeypatch.undo()
            stages.clear(picard_lattice)

    def test_every_label_has_unique_basis_expression(self):
        pl = picard_lattice()
        assert set(pl["label_class"]) == set(LABELS) | {"qH"}

    def test_s_class_two_expressions(self):
        via_quartic = class_of(
            expr(qH=3, A0=-1, A1=-1, C01=-1, B2=-1, B3=-1, D01=-1, D23=-1,
                 D02=-2, D03=-2, D13=-2, D12=-2)
        )
        via_boundary = class_of(expr(A1=1, B2=1, C02=1, C23=1, D03=-1))
        assert via_quartic == via_boundary

    def test_expr_takes_int_coefficients_only(self):
        # a rational or float coefficient is rejected, not truncated; a bool is an int
        for coeffs in ({"A0": Fraction(1, 2)}, {"A1": 2.7}, {"A1": 2.0}, {"qH": Fraction(2)}):
            with pytest.raises(TypeError, match="must be an int"):
                expr(**coeffs)
        assert class_of(expr(qH=True)) == class_of(expr(qH=1))

    def test_h_class_expression(self):
        # the strict plane transform: qH - C01 - D02 - D13 in the lattice
        h = class_of(expr(A1=1, B1=1, D01=1, D02=-1, D12=1))
        assert h == class_of(expr(qH=1, C01=-1, D02=-1, D13=-1))


def petersen_vertices_and_edges():
    verts = [frozenset(p) for p in combinations(range(5), 2)]
    edges = {
        frozenset((u, v)) for u, v in combinations(verts, 2) if not (u & v)
    }
    return verts, edges


class TestPetersen:
    def test_solution_summary(self):
        pet = solve_petersen()
        assert len(pet["edges"]) == 15
        forced, unknown = divcalc._forced_adjacency()
        assert len(forced) + len(unknown) == 45

    def test_forced_edges(self):
        pet = solve_petersen()
        for pair in (("B2", "C23"), ("B3", "C23"), ("C23", "D01"),
                     ("B0", "D01"), ("B1", "D01")):
            assert frozenset(pair) in pet["forced_edges"]

    def test_a_forced_value_other_than_0_or_1_raises_before_the_search(self, monkeypatch):
        # the four A*B entries at C23 doubled: the transported tables force 2 on node pairs
        doubled = {k: 2 if k[0][0] + k[1][0] == "AB" else v for k, v in divcalc.RULE_C_BASE.items()}
        monkeypatch.setattr(divcalc, "RULE_C_BASE", doubled)
        monkeypatch.setattr(divcalc, "surface_graphs", lambda edges: pytest.fail("searched"))
        stages.clear(divcalc._transported_tables, solve_petersen)
        try:
            with pytest.raises(RuleConsistencyError, match=r"forced value 2 on \w+,\w+ is not 0 or 1"):
                solve_petersen()
        finally:
            monkeypatch.undo()
            stages.clear(divcalc._transported_tables, solve_petersen)
        assert len(solve_petersen()["edges"]) == 15

    def test_three_regular_girth_five(self):
        pet = solve_petersen()
        deg = {n: 0 for n in SURFACE_NODES_A0}
        adj = {n: set() for n in SURFACE_NODES_A0}
        for e in pet["edges"]:
            u, v = tuple(e)
            deg[u] += 1
            deg[v] += 1
            adj[u].add(v)
            adj[v].add(u)
        assert all(d == 3 for d in deg.values())
        for u, v in combinations(SURFACE_NODES_A0, 2):
            if v in adj[u]:
                assert not (adj[u] & adj[v])  # triangle-free
            else:
                assert len(adj[u] & adj[v]) == 1  # square-free, diameter 2

    def test_petersen_predicate_accepts_relabellings(self):
        edges = solve_petersen()["edges"]
        nodes = SURFACE_NODES_A0
        shift = dict(zip(nodes, nodes[1:] + nodes[:1]))
        shifted = frozenset(frozenset(shift[n] for n in e) for e in edges)
        assert shifted != edges  # the shift is not an automorphism
        assert divcalc._graph_is_petersen(edges)
        assert divcalc._graph_is_petersen(shifted)

    @pytest.mark.parametrize(
        "pairs",
        [
            # the first three are 3-regular; only the common-neighbour clause rejects them
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)],
            [(i, (i + 1) % 10) for i in range(10)] + [(i, i + 5) for i in range(5)],
            list(combinations(range(4), 2)) + [(i, j) for i in range(4, 7) for j in range(7, 10)],
            # no non-adjacent pair at all; only the degree clause rejects it
            list(combinations(range(10), 2)),
        ],
        ids=["pentagonal_prism", "moebius_ladder", "k4_plus_k33", "k10"],
    )
    def test_petersen_predicate_rejects(self, pairs):
        nodes = SURFACE_NODES_A0
        edges = frozenset(frozenset((nodes[i], nodes[j])) for i, j in pairs)
        assert not divcalc._graph_is_petersen(edges)

    def test_stabilizer_equivariance(self):
        pet = solve_petersen()
        stab = [g for g in full_group() if not g.flip and g.perm[0] == 0]
        assert len(stab) == 6
        for g in stab:
            for e in pet["edges"]:
                assert frozenset(act_on_label(g, x) for x in e) in pet["edges"]

    def test_against_brute_force_labelings(self):
        """Independent oracle: label the abstract Petersen graph directly.

        Backtracking over bijections from the ten node labels to the
        Kneser-graph vertices, pruning with the forced pair values; every
        complete labeling yields an edge set, and after filtering by the
        remaining constraints exactly the solved edge set must survive.
        """
        from tilefold.divcalc import _forced_adjacency

        forced, unknown = _forced_adjacency()
        verts, pedges = petersen_vertices_and_edges()
        nodes = list(SURFACE_NODES_A0)
        solutions = set()

        def backtrack(i, assignment):
            if i == len(nodes):
                edges = frozenset(
                    frozenset((a, b))
                    for a, b in combinations(nodes, 2)
                    if frozenset((assignment[a], assignment[b])) in pedges
                )
                solutions.add(edges)
                return
            node = nodes[i]
            used = set(assignment.values())
            for v in verts:
                if v in used:
                    continue
                ok = True
                for prev in nodes[:i]:
                    pair = frozenset((node, prev))
                    if pair in forced:
                        is_edge = frozenset((v, assignment[prev])) in pedges
                        if forced[pair] != (1 if is_edge else 0):
                            ok = False
                            break
                if ok:
                    assignment[node] = v
                    backtrack(i + 1, assignment)
                    del assignment[node]

        backtrack(0, {})
        # the forced pairs alone already pin the graph up to relabeling;
        # all surviving labelings must induce the same edge set
        assert solutions == {solve_petersen()["edges"]}


class TestTrilinearForm:
    def test_rule_four(self):
        for lab in LABELS:
            want = {"A": 0, "B": 0, "C": 1, "D": 2}[lab[0]]
            assert triple_labels(lab, lab, lab) == want

    def test_rule_one_entries(self):
        assert triple_labels("A0", "B2", "C23") == 1
        assert triple_labels("A1", "D01", "C23") == 1
        assert triple_labels("C01", "C01", "C23") == -1
        assert triple_labels("D23", "C01", "C23") == 1
        assert triple_labels("A2", "B2", "C23") == 0

    def test_rule_two_entries(self):
        assert triple_labels("A0", "B0", "D01") == 1
        assert triple_labels("C01", "C23", "D01") == 1
        assert triple_labels("B0", "C01", "D01") == 1
        assert triple_labels("A2", "B0", "D01") == 0

    def test_rule_three_entries(self):
        pet = solve_petersen()
        for u, v in combinations(SURFACE_NODES_A0, 2):
            want = 1 if frozenset((u, v)) in pet["edges"] else 0
            assert triple_labels(u, v, "A0") == want
        for u in SURFACE_NODES_A0:
            assert triple_labels(u, u, "A0") == -1

    def test_repeated_c_label(self):
        assert triple_labels("A0", "C23", "C23") == -1
        assert triple_labels("A1", "A1", "A1") == 0

    def test_cube_via_relation_expansion(self):
        # A1^3 through a cube-free rewriting: qH-row substitution differs
        # from the direct tensor entry by linearity only
        a1 = picard_lattice()["label_class"]["A1"]
        assert triple(a1, a1, a1) == 0

    def test_cube_free_rewriting_identity(self):
        # A1 is equivalent to A3 + C12 - C23 - D01 + D03, whose product with
        # A1^2 has no repeated-cube term left
        lc = picard_lattice()["label_class"]
        rhs = tuple(
            a + c - e - d + f
            for a, c, e, d, f in zip(
                lc["A3"], lc["C12"], lc["C23"], lc["D01"], lc["D03"]
            )
        )
        assert rhs == lc["A1"]
        assert triple(rhs, lc["A1"], lc["A1"]) == 0

    def test_symmetry_exhaustive(self):
        t = label_tensor()
        n = len(LABELS)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    v = t[i][j][k]
                    assert (
                        t[i][k][j] == t[j][i][k] == t[j][k][i]
                        == t[k][i][j] == t[k][j][i] == v
                    )

    def test_descent_exhaustive(self):
        t = label_tensor()
        n = len(LABELS)
        for r in label_relations_in_label_space():
            support = [(i, c) for i, c in enumerate(r) if c]
            for e in range(n):
                for f in range(n):
                    assert sum(c * t[i][e][f] for i, c in support) == 0

    def test_equivariance_exhaustive(self):
        t = label_tensor()
        n = len(LABELS)
        for g in full_group():
            p = [LABEL_INDEX[act_on_label(g, lab)] for lab in LABELS]
            for i in range(n):
                for j in range(n):
                    row, prow = t[i][j], t[p[i]][p[j]]
                    for k in range(n):
                        assert row[k] == prow[p[k]]

    def test_substitution_row_independence(self):
        base = basis_tensor()
        for row in PLANE_ROWS:
            assert substituted_tensor(row) == base

    def test_tensor_is_integer_symmetric(self):
        t = basis_tensor()
        for i in range(RANK):
            for j in range(RANK):
                for k in range(RANK):
                    assert t[i][j][k] == t[j][i][k] == t[i][k][j]


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * RANK), min_size=3, max_size=3))
    def test_triple_is_the_plain_contraction(self, classes):
        # the two-class contraction paired with the third equals the 12^3 sum
        e, f, g = classes
        t = basis_tensor()
        expected = sum(
            e[i] * f[j] * g[k] * t[i][j][k]
            for i in range(RANK)
            for j in range(RANK)
            for k in range(RANK)
        )
        assert triple(e, f, g) == expected
        assert intersect_classes(e, f) == tuple(triple(e, f, b) for b in identity_matrix(RANK))

    def test_classes_of_another_length_raise(self):
        # a class of another length is no class: contracted as it stands, a
        # short one reads as zero-padded and a long one loses its tail, a
        # wrong curve or intersection number with no error
        lc = picard_lattice()["label_class"]
        for bad in (lc["A0"][:11], lc["A0"] + (0,), lc["A0"] + (1,)):
            for e, f in ((bad, lc["D01"]), (lc["D01"], bad)):
                with pytest.raises(ValueError, match=f"need {RANK} entries"):
                    intersect_classes(e, f)
                with pytest.raises(ValueError, match=f"need {RANK} entries"):
                    triple(e, f, lc["A0"])


class TestGroupActionOnClasses:
    def test_matrices_are_homomorphic(self):
        group = full_group()
        rng = random.Random(0)
        lc = picard_lattice()["label_class"]
        for _ in range(80):
            g = group[rng.randrange(48)]
            h = group[rng.randrange(48)]
            v = lc[LABELS[rng.randrange(20)]]
            assert reference_act_on_class(compose(g, h), v) == reference_act_on_class(
                g, reference_act_on_class(h, v)
            )

    def test_generator_matrices_equal_the_reference(self):
        # four matrices each, one per generator; the other 44 are never read
        classes, curves = _reference_matrices()
        for got, want in ((picard_action(), classes), (curve_action(), curves)):
            assert list(got) == list(GENERATORS.values())
            assert all(got[s] == want[s] for s in got)

    def test_action_permutes_boundary_classes(self):
        lc = picard_lattice()["label_class"]
        for g in full_group():
            for lab in LABELS:
                assert reference_act_on_class(g, lc[lab]) == lc[act_on_label(g, lab)]
        for s in GENERATORS.values():
            for lab in LABELS:
                assert act_on_class(s, lc[lab]) == lc[act_on_label(s, lab)]

    def test_curve_action_is_equivariant(self):
        rng = random.Random(1)
        group = full_group()
        for _ in range(40):
            g = group[rng.randrange(48)]
            e, f = rng.sample(LABELS, 2)
            assert reference_act_on_curve(g, curve_class(e, f)) == curve_class(
                act_on_label(g, e), act_on_label(g, f)
            )
        for s in GENERATORS.values():
            e, f = rng.sample(LABELS, 2)
            assert act_on_curve(s, curve_class(e, f)) == curve_class(
                act_on_label(s, e), act_on_label(s, f)
            )

    def test_triple_invariance(self):
        rng = random.Random(2)
        group = full_group()
        lc = picard_lattice()["label_class"]
        for _ in range(60):
            g = group[rng.randrange(48)]
            a, b, c = (lc[LABELS[rng.randrange(20)]] for _ in range(3))
            assert triple(a, b, c) == triple(
                reference_act_on_class(g, a), reference_act_on_class(g, b), reference_act_on_class(g, c)
            )


class TestAnticanonical:
    def test_cube_is_twelve(self):
        assert anticanonical()["top_self_intersection"] == 12

    def test_twelve_expressions_agree(self):
        ak = anticanonical()
        assert ak["expressions_agree"]
        assert len(MULTICAN_LABEL_SETS) == 12
        for labels in MULTICAN_LABEL_SETS:
            assert class_of_labels(labels) == ak["class"]

    def test_group_invariance(self):
        ak = anticanonical()
        for g in full_group():
            assert reference_act_on_class(g, ak["class"]) == ak["class"]


class TestCurveClasses:
    def test_a0_d01_pairings(self):
        lc = picard_lattice()["label_class"]
        gamma = curve_class("A0", "D01")
        assert dot(lc["D01"], gamma) == -1
        assert curve_class("A0", "D01") == curve_class("A1", "D01")
        assert dot(anticanonical()["class"], gamma) == 1

    def test_a_class_and_a_curve_of_different_lengths_raise(self, monkeypatch):
        # the pairing used to zip the two vectors, so a short curve cut the
        # class to its length and gave a number
        lc = picard_lattice()["label_class"]
        real = divcalc.intersect_classes
        monkeypatch.setattr(divcalc, "intersect_classes", lambda e, f: real(e, f)[:-1])
        assert len(lc["A1"]) == 12 and len(divcalc.intersect_classes(lc["A0"], lc["D01"])) == 11
        with pytest.raises(ValueError, match="length mismatch"):
            triple(lc["A0"], lc["D01"], lc["A1"])

    def test_curve_annihilates_relations(self):
        # built from classes in the rank-12 lattice, so relation vectors
        # pair to zero automatically; spot check through expressions
        qh = class_of(expr(qH=1))
        for row in PLANE_ROWS.values():
            diff = tuple(a - b for a, b in zip(qh, class_of_labels(row)))
            assert diff == (0,) * RANK


def reference_binary_restriction_rows(lab: str, monomials) -> list[list[int]]:
    """Five condition rows, the coefficients of each monomial's restriction to the line: the reference."""
    p, q = divcalc._line_basis(lab)
    rows = [[0] * len(monomials) for _ in range(5)]
    for col, exps in enumerate(monomials):
        # expand prod_i (s p_i + t q_i)^{e_i} as a binary quartic in (s, t)
        poly = {0: 1}  # degree in s -> coefficient, total degree 4 implied
        for pi, qi, e in zip(p, q, exps):
            for _ in range(e):
                nxt: dict[int, int] = {}
                for ds, c in poly.items():
                    nxt[ds + 1] = nxt.get(ds + 1, 0) + c * pi
                    nxt[ds] = nxt.get(ds, 0) + c * qi
                poly = nxt
        for ds, c in poly.items():
            rows[ds][col] = c
    return rows


class TestQuarticSystem:
    def test_dimensions(self):
        q = quartic_system()
        assert q["monomial_count"] == 35
        assert q["condition_rank"] == 21
        assert q["linear_dimension"] == 14
        assert q["projective_dimension"] == 13

    def test_discrepancy_flagged_not_hidden(self):
        q = quartic_system()
        assert q["reference_dimension"] == 14
        assert q["discrepancy_flag"] is True
        assert q["matches_reference"] is False
        assert q["discrepancy_note"]

    def test_quadric_square_contained(self):
        assert quartic_system()["quadric_square_contained"]

    def test_single_line_dimension(self):
        assert quartic_system()["single_line_projective_dimension"] == 29

    def test_point_values_span_the_coefficient_rows(self):
        # on each line the five point-value rows and the five coefficient
        # rows of the restriction have rank 5 and span the same space
        from tilefold.divcalc import QUARTIC_LINES, _binary_restriction_rows, _quartic_monomials
        from tilefold.exactlat import rational_rank

        monomials = _quartic_monomials()
        values, coefficients = [], []
        for lab in QUARTIC_LINES:
            v = _binary_restriction_rows(lab, monomials)
            c = reference_binary_restriction_rows(lab, monomials)
            assert rational_rank(v) == rational_rank(c) == rational_rank(v + c) == 5, lab
            values += v
            coefficients += c
        assert rational_rank(values) == rational_rank(coefficients) == rational_rank(values + coefficients) == 21

    def test_conditions_via_random_points(self):
        # independent route: a quartic in the system vanishes at random
        # points of each of the six lines
        from tilefold.divcalc import QUARTIC_LINES, _line_basis, _quartic_monomials
        from tilefold.exactlat import rational_rank

        monomials = _quartic_monomials()
        rows = []
        rng = random.Random(0)
        for lab in QUARTIC_LINES:
            p, q = _line_basis(lab)
            for _ in range(8):
                s, t = rng.randint(-9, 9), rng.randint(-9, 9)
                pt = tuple(s * a + t * b for a, b in zip(p, q))
                if not any(pt):
                    continue
                row = []
                for e in monomials:
                    v = 1
                    for x, k in zip(pt, e):
                        v *= x**k
                    row.append(v)
                rows.append(row)
        assert rational_rank(rows) == 21

class TestTransport:
    def test_rule_table_not_stabiliser_invariant_raises(self, monkeypatch):
        broken = dict(divcalc.RULE_C_BASE)
        del broken[("A0", "B2")]
        monkeypatch.setattr(divcalc, "RULE_C_BASE", broken)
        stages.clear(divcalc._transported_tables)
        try:
            with pytest.raises(RuleConsistencyError, match="C23"):
                divcalc._transported_tables()
        finally:
            monkeypatch.undo()
            stages.clear(divcalc._transported_tables)

    def test_surface_graphs(self):
        edges = solve_petersen()["edges"]
        graphs = surface_graphs(edges)
        assert sorted(graphs) == [f"{k}{i}" for k in "AB" for i in range(4)]
        assert graphs["A0"] == (frozenset(divcalc.SURFACE_NODES_A0), edges)
        non_edge = next(
            frozenset(p) for p in combinations(divcalc.SURFACE_NODES_A0, 2)
            if frozenset(p) not in edges
        )
        broken = (edges - {min(edges, key=sorted)}) | {non_edge}
        with pytest.raises(RuleConsistencyError, match="A0"):
            surface_graphs(broken)

    def test_orbit_agrees_with_label_action(self):
        lc = picard_lattice()["label_class"]
        for base, kinds in (("A0", "AB"), ("C23", "C"), ("D01", "D")):
            expected = {primitive_vector(lc[lab]) for lab in LABELS if lab[0] in kinds}
            assert orbit(lc[base], act_on_class) == expected

    def test_ray_permutations_of_the_mori_rays(self):
        rays = mori_cone()["cone"].rays
        perms = ray_permutations(rays, act_on_curve)
        assert len(set(perms)) == len(full_group()) == 48
        for g, p in zip(full_group(), perms):
            assert sorted(p) == list(range(len(rays)))
            assert [primitive_vector(reference_act_on_curve(g, r)) for r in rays] == [rays[i] for i in p]

    def test_ray_permutations_reject_a_set_the_group_moves(self):
        rays = mori_cone()["cone"].rays
        assert len(orbit(rays[0], act_on_curve)) > 1
        with pytest.raises(NotPermutedError, match="does not permute"):
            ray_permutations(rays[1:], act_on_curve)


def _reference_permutations(vectors, action):
    """ray_permutations by applying each of the 48 reference matrices to each vector."""
    index = {v: i for i, v in enumerate(vectors)}
    act = REFERENCE_ACTION[action]
    return tuple(
        tuple(index[primitive_vector(act(g, v))] for v in vectors) for g in full_group()
    )


def _reference_orbit(vector, action):
    """orbit by applying each of the 48 reference matrices."""
    v = primitive_vector(vector)
    act = REFERENCE_ACTION[action]
    return frozenset(primitive_vector(act(g, v)) for g in full_group())


def _ray_set(name):
    if name == "mori":
        return mori_cone()["cone"].rays, act_on_curve
    if name == "nef":
        return nef_cone()["cone"].rays, act_on_class
    prim = {primitive_vector(v) for v in effective_generators().values()}
    return dual_cone(Cone.from_rays(RANK, sorted(prim))).rays, act_on_curve


def _moving_dual_seeds():
    def plus(*pairs):
        return tuple(map(sum, zip(*(curve_class(e, f) for e, f in pairs))))

    return [
        curve_class("A0", "C23"),
        curve_class("A0", "D01"),
        plus(("A0", "B1"), ("A0", "D01")),
        plus(("A0", "B1"), ("A0", "C12")),
        plus(("A0", "B0"), ("A0", "D01")),
        gamma1(),
        gamma2(),
    ]


class TestGeneratorAction:
    """The group acts through its four generators; 48-element references."""

    @pytest.mark.parametrize("name", ["mori", "nef", "effective_dual"])
    def test_ray_permutations_equal_the_reference(self, name):
        rays, action = _ray_set(name)
        assert ray_permutations(rays, action) == _reference_permutations(rays, action)

    def test_a_swapped_generator_image_changes_the_permutations(self):
        # tau sends rays[0] where it should send rays[1] and the other way round
        rays, action = _ray_set("mori")
        swap = {rays[0]: rays[1], rays[1]: rays[0]}

        def swapped(g, v):
            return action(g, swap.get(v, v) if g == TAU else v)

        assert ray_permutations(rays, swapped) != _reference_permutations(rays, action)

    @pytest.mark.parametrize("name", ["mori", "nef"])
    def test_orbit_of_each_ray_equals_the_reference(self, name):
        rays, action = _ray_set(name)
        for r in rays:
            assert orbit(r, action) == _reference_orbit(r, action)

    def test_orbit_of_each_moving_dual_seed_equals_the_reference(self):
        seeds = _moving_dual_seeds()
        orbits = [orbit(s, act_on_curve) for s in seeds]
        assert orbits == [_reference_orbit(s, act_on_curve) for s in seeds]
        assert frozenset().union(*orbits) == set(moving_dual_cone())

    @staticmethod
    def _break_the_label_action(monkeypatch):
        # tau swaps the images of A0 and A1: tau*tau no longer fixes A0
        real = divcalc.act_on_label

        def not_an_action(g, lab):
            if g == TAU and lab in ("A0", "A1"):
                lab = "A1" if lab == "A0" else "A0"
            return real(g, lab)

        monkeypatch.setattr(divcalc, "act_on_label", not_an_action)
        stages.clear(picard_action, curve_action)

    def test_picard_action_needs_a_group_action_on_labels(self, monkeypatch):
        self._break_the_label_action(monkeypatch)
        try:
            with pytest.raises(RuntimeError, match="not a group action"):
                picard_action()
        finally:
            monkeypatch.undo()
            stages.clear(picard_action, curve_action)
        assert len(picard_action()) == 4

    def test_a_broken_label_action_is_not_reported_as_a_moved_ray_set(self, monkeypatch):
        # the certificate's own error comes through the orbit routines, which
        # answer "does not permute" only for an image outside the set
        rays = mori_cone()["cone"].rays
        k_negative = mori_cone()["k_negative"]
        self._break_the_label_action(monkeypatch)
        try:
            with pytest.raises(RuntimeError, match="not a group action"):
                _permutes(rays, act_on_curve)
            with pytest.raises(RuntimeError, match="not a group action") as raised:
                orbit_decomposition(k_negative, act_on_curve)
        finally:
            monkeypatch.undo()
            stages.clear(picard_action, curve_action)
        assert raised.value.stage_path == ("divcalc.curve_action", "divcalc.picard_action")
        assert _permutes(rays, act_on_curve)
