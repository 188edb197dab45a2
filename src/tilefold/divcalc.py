"""Rank-12 divisor class lattice and the trilinear intersection form.

Divisor expressions live in the free abelian group on 21 symbols: the
hyperplane pullback qH and the 20 boundary labels.  Eight plane rows and one
quadric row identify qH (resp. 2 qH) with boundary sums; the quotient is the
free rank-12 class lattice with basis (qH, A0, A1, B2, B3, C01, D01, D02,
D03, D12, D13, D23), mirroring the blowup construction so exceptional
classes are basis vectors.

The label-level intersection rules are local to one divisor per type: a
table each for the slots C23 and D01, plus the ten-node incidence graph on
the slot A0; everything else is transported along the group action.  The
adjacency of the graph is solved from consistency constraints rather than
transcribed, and the solver proves the solution unique; whether it is the
Petersen graph is left to the report's `adjacency_is_petersen` check.  The
tensor is symmetric because the rules of a triple's three slots must agree
(RuleConsistencyError otherwise); the report checks that it is equivariant
and zero on the relation lattice.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod

from .exactlat import (
    dot,
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    primitive_vector,
    rational_rank,
    smith_invariants,
)
from .tilegroup import (
    GENERATORS,
    IDENTITY,
    GroupElement,
    LABELS,
    TABLE1,
    act_on_label,
    compose,
    full_group,
    schreier_tree,
)
from .stages import stage

N_LABELS = len(LABELS)
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}

SYMBOLS = ("qH",) + LABELS  # coordinates of divisor expressions
SYMBOL_INDEX = {s: i for i, s in enumerate(SYMBOLS)}

BASIS = ("qH", "A0", "A1", "B2", "B3", "C01", "D01", "D02", "D03", "D12", "D13", "D23")
RANK = len(BASIS)

# qH as the total transform of each of the eight planes of the image table
PLANE_ROWS = {
    "A2": ("A2", "B2", "C01", "D02", "D12", "D23"),
    "A3": ("A3", "B3", "C01", "D03", "D13", "D23"),
    "B0": ("A0", "B0", "C01", "D01", "D02", "D03"),
    "B1": ("A1", "B1", "C01", "D01", "D12", "D13"),
    "C02": ("A1", "B2", "C02", "D02", "D12", "D13"),
    "C12": ("A0", "B2", "C12", "D02", "D03", "D12"),
    "C13": ("A0", "B3", "C13", "D02", "D03", "D13"),
    "C03": ("A1", "B3", "C03", "D03", "D12", "D13"),
}

# 2 qH as the total transform of the quadric
QUADRIC_ROW = (
    "A0", "A1", "B2", "B3", "C01", "C23",
    "D01", "D02", "D03", "D12", "D13", "D23",
)

# fixed substitution used to push qH into label coordinates
QH_SUBSTITUTION_ROW = "C02"


def expr(**coeffs) -> tuple[int, ...]:
    """Divisor expression from symbol=coefficient keywords (qH for qH), each an int."""
    v = [0] * len(SYMBOLS)
    for sym, c in coeffs.items():
        if not isinstance(c, int):
            raise TypeError(f"coefficient {sym}={c!r} must be an int")
        v[SYMBOL_INDEX[sym]] = c
    return tuple(v)


def relation_vectors() -> list[tuple[int, ...]]:
    """The nine relations in Z^21: qH minus each plane row, 2 qH minus the quadric."""
    rels = []
    for row in PLANE_ROWS.values():
        v = [0] * len(SYMBOLS)
        v[0] = 1
        for lab in row:
            v[SYMBOL_INDEX[lab]] -= 1
        rels.append(tuple(v))
    v = [0] * len(SYMBOLS)
    v[0] = 2
    for lab in QUADRIC_ROW:
        v[SYMBOL_INDEX[lab]] -= 1
    rels.append(tuple(v))
    return rels


@stage
def picard_lattice() -> dict:
    """Construct the class lattice and the basis expression of every label.

    The nine relations and the unit rows of the basis symbols must be a
    basis of Z^21.  Then the Hermite form's u, with u @ rows the identity,
    writes each symbol in them, and the basis part of its row is the
    symbol's class.
    """
    rels = relation_vectors()
    rows = rels + [[int(t == s) for t in SYMBOLS] for s in BASIS]
    h, u = hermite_normal_form(rows)
    if h != identity_matrix(len(SYMBOLS)):
        raise RuntimeError("the relations and the basis symbols are not a basis of Z^21")
    invariants = smith_invariants(rels)
    return {
        "rank": len(SYMBOLS) - len(invariants),
        "invariant_factors": invariants,
        "relation_rank": rational_rank(rels),
        "label_class": {s: tuple(u[i][len(rels):]) for i, s in enumerate(SYMBOLS)},
    }


def class_of(expression) -> tuple[int, ...]:
    """Reduce a 21-coordinate divisor expression to the canonical basis."""
    if len(expression) != len(SYMBOLS):
        raise ValueError("expression must have one coordinate per symbol")
    lc = picard_lattice()["label_class"]
    out = [0] * RANK
    for sym, c in zip(SYMBOLS, expression):
        if not c:
            continue
        for k, x in enumerate(lc[sym]):
            out[k] += c * x
    return tuple(out)


def class_of_labels(labels) -> tuple[int, ...]:
    v = [0] * len(SYMBOLS)
    for lab in labels:
        v[SYMBOL_INDEX[lab]] += 1
    return class_of(v)


def label_relations_in_label_space() -> list[tuple[int, ...]]:
    """A spanning set of the rank-8 relation lattice inside Z^20.

    Each later relation r less r[0] times the first has no qH; it is kept
    without the qH coordinate.
    """
    first, *later = relation_vectors()
    return [tuple(x - r[0] * y for x, y in zip(r[1:], first[1:])) for r in later]


# ---------------------------------------------------------------------------
# intersection rules

RULE_TOP_SELF = {"A": 0, "B": 0, "C": 1, "D": 2}

# nonzero values of E.F.C23 for (E,F) != (C23,C23)
RULE_C_BASE = {
    ("A0", "B2"): 1,
    ("A0", "B3"): 1,
    ("A1", "B2"): 1,
    ("A1", "B3"): 1,
    ("A0", "D01"): 1,
    ("A1", "D01"): 1,
    ("B2", "D23"): 1,
    ("B3", "D23"): 1,
    ("C01", "D01"): 1,
    ("C01", "D23"): 1,
    ("C01", "C01"): -1,
    ("D01", "D01"): -1,
    ("D23", "D23"): -1,
}

# nonzero values of E.F.D01 for (E,F) != (D01,D01)
RULE_D_BASE = {
    ("A0", "B0"): 1,
    ("A0", "B1"): 1,
    ("A1", "B0"): 1,
    ("A1", "B1"): 1,
    ("A0", "C23"): 1,
    ("A1", "C23"): 1,
    ("B0", "C01"): 1,
    ("B1", "C01"): 1,
    ("C01", "C23"): 1,
}

# the ten curves of self-intersection -1 on the surface A0
SURFACE_NODES_A0 = (
    "B0", "B1", "B2", "B3", "C12", "C13", "C23", "D01", "D02", "D03",
)


def _pair_key(e: str, f: str):
    return (e, f) if e <= f else (f, e)


class RuleConsistencyError(RuntimeError):
    pass


def _transport(base: str, move) -> dict:
    """move(g) for all 48 elements g, keyed by the label g sends base to.

    Two elements sending base to the same label differ by an element of the
    stabiliser of base, so the images agree exactly when the moved data is
    stabiliser-invariant; otherwise RuleConsistencyError is raised.
    """
    out: dict = {}
    for g in full_group():
        image = move(g)
        if out.setdefault(act_on_label(g, base), image) != image:
            raise RuleConsistencyError(
                f"data on {base} is not invariant under the stabiliser of {base}"
            )
    return out


@stage
def _transported_tables() -> dict[str, dict]:
    """Rule tables for every C and D label, transported from C23 and D01."""
    tables: dict[str, dict] = {}
    for base, table in (("C23", RULE_C_BASE), ("D01", RULE_D_BASE)):
        tables.update(_transport(base, lambda g: {
            _pair_key(act_on_label(g, e), act_on_label(g, f)): v
            for (e, f), v in table.items()
        }))
    return tables


def surface_graphs(edges_a0: frozenset) -> dict[str, tuple[frozenset, frozenset]]:
    """Nodes and edges of the incidence graph on every A and B surface label.

    Raises RuleConsistencyError unless edges_a0 is invariant under the
    stabiliser of A0.
    """
    return _transport(
        "A0",
        lambda g: (
            frozenset(act_on_label(g, n) for n in SURFACE_NODES_A0),
            frozenset(frozenset(act_on_label(g, x) for x in e) for e in edges_a0),
        ),
    )


def _make_rule_engine(graphs: dict):
    """Label-level triple evaluator parametrized by the surface graphs."""
    tables = _transported_tables()

    def rule_value(slot: str, e: str, f: str) -> int:
        # value of e.f.slot by the rule attached to slot; requires slot not in (e, f)
        if slot[0] in "AB":
            nodes, edges = graphs[slot]
            if e == f:
                return -1 if e in nodes else 0
            if e in nodes and f in nodes and frozenset((e, f)) in edges:
                return 1
            return 0
        return tables[slot].get(_pair_key(e, f), 0)

    def triple_value(a: str, b: str, c: str) -> int:
        if a == b == c:
            return RULE_TOP_SELF[a[0]]
        if a == b:
            return rule_value(c, a, b)
        if a == c:
            return rule_value(b, a, c)
        if b == c:
            return rule_value(a, b, c)
        vals = {rule_value(a, b, c), rule_value(b, a, c), rule_value(c, a, b)}
        if len(vals) != 1:
            raise RuleConsistencyError(f"rules disagree on {a}.{b}.{c}: {vals}")
        return vals.pop()

    return triple_value


# ---------------------------------------------------------------------------
# solving the surface adjacency

def _forced_adjacency() -> tuple[dict, list]:
    """Edge values forced by the C- and D-rule tables via triple consistency.

    For nodes u, v of the A0 graph the value u.v.A0 must also equal every
    transported table value read off at a C- or D-type slot among {u, v}.
    """
    tables = _transported_tables()
    forced: dict[frozenset, int] = {}
    unknown: list[frozenset] = []
    for u, v in combinations(SURFACE_NODES_A0, 2):
        votes = {}
        for slot, other in ((u, v), (v, u)):
            if slot[0] in "CD":
                votes[slot] = tables[slot].get(_pair_key(other, "A0"), 0)
        pair = frozenset((u, v))
        if votes:
            if len(set(votes.values())) != 1:
                raise RuleConsistencyError(f"forced votes disagree on {u},{v}: {votes}")
            forced[pair] = next(iter(votes.values()))
        else:
            unknown.append(pair)
    return forced, unknown


def _graph_is_petersen(edges: frozenset) -> bool:
    """Whether the edges on SURFACE_NODES_A0 form the Petersen graph.

    Two clauses: every node has degree 3, and every non-adjacent pair has
    exactly one common neighbour.  They imply the rest: on ten nodes of
    degree 3 a node u has six walks u-w-x with x != u and six
    non-neighbours, and each non-neighbour ends exactly one walk, so no
    walk ends at a neighbour of u (no triangle) and every pair is at
    distance at most 2.  The graph is then strongly regular with
    parameters (10, 3, 0, 1), and the Petersen graph is the only one
    (Brouwer & Haemers, Spectra of Graphs, 2012).
    """
    adj = {n: set() for n in SURFACE_NODES_A0}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    return all(len(adj[n]) == 3 for n in SURFACE_NODES_A0) and all(
        len(adj[u] & adj[v]) == 1
        for u, v in combinations(SURFACE_NODES_A0, 2)
        if v not in adj[u]
    )


def _descent_slice_holds(triple_value) -> bool:
    """The form vanishes against relation vectors in the slots (., A0, .)."""
    rels = label_relations_in_label_space()
    for r in rels:
        support = [(LABELS[i], c) for i, c in enumerate(r) if c]
        for e in LABELS:
            total = 0
            for lab, c in support:
                total += c * triple_value(lab, "A0", e)
            if total != 0:
                return False
    return True


@stage
def solve_petersen() -> dict:
    """Determine the A0 incidence graph by exact constraint solving.

    Unknown booleans on the 45 node pairs are pinned by (i) the forced
    values above, (ii) vanishing of the form against the relation lattice
    with one slot at A0, (iii) equivariance under the order-6 stabilizer of
    A0 and (iv) 3-regularity.  The solution must be unique; whether it is
    the Petersen graph is judged by the report's `adjacency_is_petersen`
    check, not here.  Its transports to the A and B surfaces are returned
    under "graphs".
    """
    forced, unknown = _forced_adjacency()
    for pair, v in forced.items():
        if v not in (0, 1):
            raise RuleConsistencyError(f"forced value {v} on {','.join(sorted(pair))} is not 0 or 1")
    forced_edges = frozenset(pair for pair, v in forced.items() if v == 1)
    solutions = []
    failures = {"regularity": 0, "stabilizer": 0, "descent": 0, "consistency": 0}
    for bits in product((0, 1), repeat=len(unknown)):
        edges = forced_edges.union(pair for pair, b in zip(unknown, bits) if b)
        degree = {n: 0 for n in SURFACE_NODES_A0}
        for e in edges:
            for n in e:
                degree[n] += 1
        if any(d != 3 for d in degree.values()):
            failures["regularity"] += 1
            continue
        try:
            graphs = surface_graphs(edges)
        except RuleConsistencyError:
            failures["stabilizer"] += 1
            continue
        try:
            if not _descent_slice_holds(_make_rule_engine(graphs)):
                failures["descent"] += 1
                continue
        except RuleConsistencyError:
            failures["consistency"] += 1
            continue
        solutions.append((edges, graphs))
    if len(solutions) != 1:
        raise RuleConsistencyError(
            f"adjacency solution not unique: {len(solutions)} found, "
            f"constraint failures {failures}"
        )
    edges, graphs = solutions[0]
    return {"edges": edges, "graphs": graphs, "forced_edges": forced_edges}


# ---------------------------------------------------------------------------
# the trilinear form


@stage
def label_tensor() -> list[list[list[int]]]:
    """The full 20x20x20 label-level intersection table, indexed by LABELS, with hard checks."""
    pet = solve_petersen()
    triple_value = _make_rule_engine(pet["graphs"])
    t = [
        [[0] * N_LABELS for _ in range(N_LABELS)] for _ in range(N_LABELS)
    ]
    for i, a in enumerate(LABELS):
        for j in range(i, N_LABELS):
            for k in range(j, N_LABELS):
                v = triple_value(a, LABELS[j], LABELS[k])
                for p, q, r in (
                    (i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i),
                ):
                    t[p][q][r] = v
    return t


def substituted_tensor(qh_row: str) -> tuple:
    """12x12x12 intersection tensor on the canonical basis, qH read as PLANE_ROWS[qh_row]."""
    t20 = label_tensor()
    qh = [(LABEL_INDEX[lab], 1) for lab in PLANE_ROWS[qh_row]]
    expansions = [qh if sym == "qH" else [(LABEL_INDEX[sym], 1)] for sym in BASIS]
    t = [[[0] * RANK for _ in range(RANK)] for _ in range(RANK)]
    for i in range(RANK):
        for j in range(RANK):
            for k in range(RANK):
                total = 0
                for a, ca in expansions[i]:
                    for b, cb in expansions[j]:
                        row = t20[a][b]
                        for c, cc in expansions[k]:
                            total += ca * cb * cc * row[c]
                t[i][j][k] = total
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


@stage
def basis_tensor() -> tuple:
    """The intersection tensor on the canonical basis, qH read as QH_SUBSTITUTION_ROW."""
    return substituted_tensor(QH_SUBSTITUTION_ROW)


def intersect_classes(e, f) -> tuple[int, ...]:
    """The curve class e.f of two classes: the functional g -> e.f.g in dual coordinates."""
    if len(e) != RANK or len(f) != RANK:
        raise ValueError(f"classes need {RANK} entries, not {len(e)} and {len(f)}")
    t = basis_tensor()
    out = [0] * RANK
    for i, ci in enumerate(e):
        for j, cj in enumerate(f):
            if ci and cj:
                c = ci * cj
                out = [o + c * x for o, x in zip(out, t[i][j])]
    return tuple(out)


def triple(e, f, g) -> int:
    """Trilinear intersection number of three classes in basis coordinates."""
    return dot(g, intersect_classes(e, f))


def triple_labels(a: str, b: str, c: str) -> int:
    t = label_tensor()
    return t[LABEL_INDEX[a]][LABEL_INDEX[b]][LABEL_INDEX[c]]


# ---------------------------------------------------------------------------
# induced group action on the class lattice


@stage
def picard_action() -> dict[GroupElement, tuple]:
    """Integer 12x12 matrix of each of the four generators on the class lattice.

    A generator permutes the 20 boundary classes; qH is sent to the class of
    the permuted substitution row.  Each matrix is verified to map label
    classes to the classes of the permuted labels.  The label action is
    verified to be an action, g*s acting as g after s for every g and each
    generator s, and the label classes to span the lattice; so the products
    of generator matrices along any word for g agree, and they form a
    homomorphism, M(g*s) = M(g) M(s), and so do the curve matrices.
    """
    lc = picard_lattice()["label_class"]
    row = PLANE_ROWS[QH_SUBSTITUTION_ROW]
    moved = {g: {lab: act_on_label(g, lab) for lab in LABELS} for g in full_group()}
    for g, to in moved.items():
        for s in GENERATORS.values():
            if any(moved[compose(g, s)][lab] != to[moved[s][lab]] for lab in LABELS):
                raise RuntimeError("the label action is not a group action")
    if rational_rank([list(lc[lab]) for lab in LABELS]) != RANK:
        raise RuntimeError("the boundary classes do not span the class lattice")
    out = {}
    for s in GENERATORS.values():
        to = moved[s]
        cols = []
        for sym in BASIS:
            if sym == "qH":
                image = [0] * RANK
                for lab in row:
                    image = [x + y for x, y in zip(image, lc[to[lab]])]
            else:
                image = list(lc[to[sym]])
            cols.append(image)
        mat = tuple(zip(*cols))
        if any(mat_vec(mat, lc[lab]) != lc[to[lab]] for lab in LABELS):
            raise RuntimeError("class action does not permute boundary classes")
        out[s] = mat
    return out


def act_on_class(s: GroupElement, v) -> tuple[int, ...]:
    """The class v moved by the generator s."""
    return mat_vec(picard_action()[s], v)


@stage
def curve_action() -> dict[GroupElement, tuple]:
    """Dual action on curve classes: the transpose of each generator's class matrix.

    The dual of g is the transpose of M(g^-1).  Each generator is an
    involution (r1^2, r2^2, r3^2 and tau^2 are relation words), which
    M(s) M(s) = I verifies, so M(s^-1) = M(s).
    """
    out = {}
    for s, mat in picard_action().items():
        if mat_mul(mat, mat) != identity_matrix(RANK):
            raise RuntimeError(f"the class matrix of {s} is not an involution")
        out[s] = tuple(zip(*mat))
    return out


def act_on_curve(s: GroupElement, v) -> tuple[int, ...]:
    """The curve class v moved by the generator s."""
    return mat_vec(curve_action()[s], v)


class NotPermutedError(RuntimeError):
    """Raised when a group element maps a vector out of the given set."""


def orbit(vector, action) -> frozenset:
    """The primitive images of primitive_vector(vector) under the 48 elements.

    A breadth-first search under the four generators: |orbit| x 4 images.
    """
    queue = [primitive_vector(vector)]
    seen = set(queue)
    for v in queue:
        for s in GENERATORS.values():
            w = primitive_vector(action(s, v))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(queue)


def ray_permutations(vectors, action) -> tuple[tuple[int, ...], ...]:
    """One index permutation of the primitive `vectors` per element of full_group().

    Entry i of the permutation of g is the index of primitive_vector(action(g,
    vectors[i])); raises NotPermutedError when an image leaves `vectors`.
    Only the four generators are applied: the permutation of g*s along each
    edge of schreier_tree() is that of g after that of s, as picard_action
    certifies for act_on_class and act_on_curve.
    """
    index = {v: i for i, v in enumerate(vectors)}
    step = {}
    for s in GENERATORS.values():
        images = tuple(index.get(primitive_vector(action(s, v))) for v in vectors)
        if None in images:
            raise NotPermutedError("group action does not permute the vector set")
        step[s] = images
    perms = {IDENTITY: tuple(range(len(vectors)))}
    for g, s, h in schreier_tree():
        perms[h] = tuple(map(perms[g].__getitem__, step[s]))
    return tuple(perms[g] for g in full_group())


# ---------------------------------------------------------------------------
# anticanonical class and curve classes

ANTICANONICAL_EXPR = expr(
    qH=4, A0=-1, A1=-1, B2=-1, B3=-1, D01=-1, D23=-1,
    D02=-2, D03=-2, D12=-2, D13=-2, C01=-2,
)

MULTICAN_LABEL_SETS = (
    # six expressions with a doubled C label
    ("A2", "A3", "B0", "B1", "C01", "C01", "D01", "D23"),
    ("A1", "A3", "B0", "B2", "C02", "C02", "D02", "D13"),
    ("A0", "A1", "B2", "B3", "C23", "C23", "D01", "D23"),
    ("A1", "A2", "B0", "B3", "C03", "C03", "D03", "D12"),
    ("A0", "A3", "B1", "B2", "C12", "C12", "D03", "D12"),
    ("A0", "A2", "B1", "B3", "C13", "C13", "D02", "D13"),
    # six expressions with a doubled D label
    ("A2", "A3", "B2", "B3", "C01", "C23", "D23", "D23"),
    ("A1", "A3", "B1", "B3", "C02", "C13", "D13", "D13"),
    ("A0", "A2", "B0", "B2", "C02", "C13", "D02", "D02"),
    ("A0", "A3", "B0", "B3", "C03", "C12", "D03", "D03"),
    ("A0", "A1", "B0", "B1", "C01", "C23", "D01", "D01"),
    ("A1", "A2", "B1", "B2", "C03", "C12", "D12", "D12"),
)


@stage
def anticanonical() -> dict:
    """The anticanonical class with its twelve boundary expressions checked."""
    k = class_of(ANTICANONICAL_EXPR)
    expressions_agree = all(
        class_of_labels(labels) == k for labels in MULTICAN_LABEL_SETS
    )
    invariant = orbit(k, act_on_class) == {primitive_vector(k)}
    return {
        "class": k,
        "expressions_agree": expressions_agree,
        "group_invariant": invariant,
        "top_self_intersection": triple(k, k, k),
    }


def curve_class(e: str, f: str) -> tuple[int, ...]:
    """The curve class e.f of two labels."""
    lc = picard_lattice()["label_class"]
    return intersect_classes(lc[e], lc[f])


# ---------------------------------------------------------------------------
# the quartic linear system

QUARTIC_LINES = ("A0", "A1", "B2", "B3", "D01", "D23")


def _quartic_monomials() -> list[tuple[int, int, int, int]]:
    out = []
    for e0 in range(5):
        for e1 in range(5 - e0):
            for e2 in range(5 - e0 - e1):
                out.append((e0, e1, e2, 4 - e0 - e1 - e2))
    return sorted(out)


def _line_basis(lab: str) -> list[tuple[int, ...]]:
    sub = TABLE1[lab]
    if sub.kind != "line":
        raise RuntimeError(f"{lab} is not a line of P^3")
    basis = integer_kernel([list(r) for r in sub.data])
    if len(basis) != 2:
        raise RuntimeError(f"the equations of {lab} do not cut out a line")
    return basis


def _binary_restriction_rows(lab: str, monomials) -> list[list[int]]:
    """Five condition rows: the monomials at the points s p + t q of the line.

    A binary quartic in (s, t) is zero when it vanishes at five pairwise
    non-proportional (s, t): these rows are an invertible Vandermonde matrix
    times the coefficient rows of the restriction, and span the same space.
    """
    p, q = _line_basis(lab)
    pairs = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))
    points = [[s * a + t * b for a, b in zip(p, q)] for s, t in pairs]
    return [[prod(x**e for x, e in zip(pt, exps)) for exps in monomials] for pt in points]


@stage
def quartic_system() -> dict:
    """Exact dimension of the quartics through the six boundary lines.

    Reports the projective dimension of the solution space together with
    the reference value 14; a mismatch is flagged, never hidden.  The
    reference count matches the linear (vector-space) dimension.
    """
    monomials = _quartic_monomials()
    rows = []
    per_line_rank = {}
    for lab in QUARTIC_LINES:
        line_rows = _binary_restriction_rows(lab, monomials)
        per_line_rank[lab] = rational_rank(line_rows)
        rows.extend(line_rows)
    rank = rational_rank(rows)
    linear_dim = len(monomials) - rank
    projective_dim = linear_dim - 1

    # membership of the square of the quadric
    quad_sq = {}
    # (x0 x3 - x1 x2)^2 = x0^2 x3^2 - 2 x0 x1 x2 x3 + x1^2 x2^2
    quad_sq[(2, 0, 0, 2)] = 1
    quad_sq[(1, 1, 1, 1)] = -2
    quad_sq[(0, 2, 2, 0)] = 1
    vec = [quad_sq.get(m, 0) for m in monomials]
    contained = all(
        sum(r * x for r, x in zip(row, vec)) == 0 for row in rows
    )

    reference = 14
    report = {
        "monomial_count": len(monomials),
        "condition_rows": len(rows),
        "condition_rank": rank,
        "linear_dimension": linear_dim,
        "projective_dimension": projective_dim,
        "reference_dimension": reference,
        "matches_reference": projective_dim == reference,
        "discrepancy_flag": projective_dim != reference,
        "discrepancy_note": (
            "projective dimension differs from the reference count; the "
            "reference count equals the linear dimension of the system"
            if projective_dim != reference
            else ""
        ),
        "quadric_square_contained": contained,
        "single_line_projective_dimension": len(monomials)
        - per_line_rank[QUARTIC_LINES[0]]
        - 1,
    }
    return report

