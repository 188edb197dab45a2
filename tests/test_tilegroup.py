import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from tilefold import tilegroup
from tilefold.exactlat import echelon, integer_kernel, mat_mul
from tilefold.tilegroup import (
    GENERATOR_MAPS,
    GENERATORS,
    IDENTITY,
    LABELS,
    R1,
    R2,
    R3,
    TAU,
    TABLE1,
    BasePointError,
    _lu_unipotent_lower,
    _nilpotent_series,
    _perm_inv,
    act_on_label,
    action_is_faithful,
    boundary_image_table,
    chart_point_to_x,
    compose,
    derivation_agreement,
    derive_generator_pointwise,
    evaluate,
    evaluate_word,
    full_group,
    normalize_point,
    relations_hold_pointwise,
    Subvariety,
    sample_points,
    verify_subvariety_image,
    word,
    subvariety_equations_satisfied,
)

from test_exactlat import det  # the tests' determinant: the signed last echelon pivot


class TestAbstractGroup:
    def test_generators_are_involutions(self):
        for g in (R1, R2, R3, TAU):
            assert compose(g, g) == IDENTITY

    def test_braid_relations(self):
        assert word("r1", "r2", "r1") == word("r2", "r1", "r2")
        assert word("r2", "r3", "r2") == word("r3", "r2", "r3")

    def test_tau_relations(self):
        assert word("tau", "r1", "tau") == R3
        assert word("tau", "r2", "tau") == R2
        assert word("tau", "r3", "tau") == R1

    def test_group_order_48(self):
        assert len(full_group()) == 48

    def test_group_built_once(self):
        group = full_group()
        assert isinstance(group, tuple)
        assert full_group() is group

    def test_inverse(self):
        # each element has one two-sided inverse in the group
        group = full_group()
        for g in group:
            inverses = [h for h in group if compose(g, h) == IDENTITY]
            assert len(inverses) == 1 and compose(inverses[0], g) == IDENTITY

    def test_associativity_spot(self):
        rng = random.Random(0)
        group = full_group()
        for _ in range(60):
            a, b, c = (group[rng.randrange(len(group))] for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestLabelAction:
    def test_twenty_labels(self):
        assert len(LABELS) == 20
        assert len(set(LABELS)) == 20

    def test_examples(self):
        assert act_on_label(R1, "A0") == "A1"
        assert act_on_label(TAU, "A0") == "B3"
        assert act_on_label(TAU, "C02") == "C02"
        assert act_on_label(TAU, "C12") == "C03"
        assert act_on_label(TAU, "C03") == "C12"
        assert act_on_label(TAU, "D01") == "D23"

    def test_tau_fixes_other_c_labels(self):
        for lab in ("C01", "C02", "C13", "C23"):
            assert act_on_label(TAU, lab) == lab

    def test_is_group_action(self):
        group = full_group()
        rng = random.Random(1)
        for _ in range(200):
            g = group[rng.randrange(48)]
            h = group[rng.randrange(48)]
            lab = LABELS[rng.randrange(20)]
            assert act_on_label(compose(g, h), lab) == act_on_label(
                g, act_on_label(h, lab)
            )

    def test_faithful(self):
        assert action_is_faithful()

    def test_types_preserved_by_permutations(self):
        for g in full_group():
            for lab in LABELS:
                img = act_on_label(g, lab)
                if not g.flip:
                    assert img[0] == lab[0]


class TestRationalMaps:
    def test_r1_swaps_pairs(self):
        m = GENERATOR_MAPS["r1"]
        assert evaluate(m, (1, 2, 3, 4)) == (2, 1, 4, 3)

    def test_tau_swaps_middle(self):
        m = GENERATOR_MAPS["tau"]
        assert evaluate(m, (1, 2, 3, 4)) == (1, 3, 2, 4)

    def test_r2_worked_example(self):
        m = GENERATOR_MAPS["r2"]
        assert evaluate(m, (1, 2, 3, 5)) == (2, 4, 3, 1)
        assert evaluate(m, (2, 4, 3, 1)) == (1, 2, 3, 5)

    def test_r2_base_point(self):
        with pytest.raises(BasePointError):
            evaluate(GENERATOR_MAPS["r2"], (1, 1, 1, 1))
        # the error names the normalized point
        for p, point in (((-2, -2, -2, -2), (1, 1, 1, 1)), ((0, 0, -3, 6), (0, 0, 1, -2))):
            with pytest.raises(BasePointError) as exc:
                evaluate(GENERATOR_MAPS["r2"], p)
            assert exc.value.point == point

    def test_r2_base_conic(self):
        rng = random.Random(0)
        m = GENERATOR_MAPS["r2"]
        for _ in range(40):
            s, t = rng.randint(-20, 20), rng.randint(-20, 20)
            for p in ((0, 0, s, t), (0, s, 0, t)):
                if not any(p):
                    continue
                with pytest.raises(BasePointError):
                    evaluate(m, p)

    def test_normalize_point(self):
        assert normalize_point((-2, 4, 0, 0)) == (1, -2, 0, 0)
        assert normalize_point((4, -6, 0, 0)) == (2, -3, 0, 0)
        assert normalize_point((0, True, 0, 0)) == (0, 1, 0, 0)  # a bool is an int
        # points are integer vectors; a Fraction or float entry is not scaled
        # to an integer but rejected, integral or not
        for p in ((Fraction(1, 2), Fraction(1, 3), 0, 0), (Fraction(4), -6, 0, 0), (1.0, 0, 0, 0)):
            with pytest.raises(TypeError):
                normalize_point(p)
            with pytest.raises(TypeError):
                evaluate(GENERATOR_MAPS["r1"], p)

    def test_generator_maps_match_generators(self):
        assert set(GENERATOR_MAPS) == set(GENERATORS)
        with pytest.raises(KeyError):
            GENERATOR_MAPS["r4"]

    @pytest.mark.parametrize("name, degree", [("r1", 1), ("r2", 2), ("r3", 1), ("tau", 1)])
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.integers(-20, 20)] * 4), st.integers(-30, 30))
    def test_map_is_homogeneous(self, name, degree, p, scale):
        # evaluate rescales points, which needs four components of one degree
        m = GENERATOR_MAPS[name]
        scaled = m(*(scale * x for x in p))
        assert len(scaled) == 4
        assert scaled == tuple(scale**degree * x for x in m(*p))

    def test_points_need_four_entries(self):
        # a short point is not padded and a long one not truncated
        for p in ((1, 2, 3), (1, 2, 3, 5, 7)):
            for name in GENERATORS:
                with pytest.raises(ValueError, match="four entries"):
                    evaluate(GENERATOR_MAPS[name], p)
            with pytest.raises(ValueError, match="four entries"):
                evaluate_word(("r1", "r2"), p)
            with pytest.raises(ValueError, match="four entries"):
                evaluate_word((), p)

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.integers(-20, 20)] * 4).filter(any),
        st.integers(-30, 30).filter(bool),
    )
    def test_evaluate_is_projective(self, name, p, scale):
        # evaluate works on the primitive representative of p, so every
        # nonzero integer multiple of p, negative too, gives the same result
        m = GENERATOR_MAPS[name]
        scaled = tuple(scale * x for x in p)
        try:
            expected = evaluate(m, p)
        except BasePointError as exc:
            assert exc.point == normalize_point(p)
            with pytest.raises(BasePointError) as again:
                evaluate(m, scaled)
            assert again.value.point == normalize_point(p)
            return
        assert evaluate(m, scaled) == expected

    def test_evaluate_rejects_zero_vector(self):
        for name in GENERATORS:
            with pytest.raises(ValueError, match="zero vector"):
                evaluate(GENERATOR_MAPS[name], (0, 0, 0, 0))
            with pytest.raises(TypeError):
                evaluate(GENERATOR_MAPS[name], (0, Fraction(0), 0, 0))

    def test_relations_as_maps(self):
        rep = relations_hold_pointwise(samples=30, seed=0)
        assert all(v["holds"] for v in rep.values())


class TestDerivation:
    def test_agreement_all_generators(self):
        for name in ("r1", "r2", "r3", "tau"):
            rep = derivation_agreement(name, samples=40, seed=0)
            assert rep["all_agree"] and rep["samples"] == 40

    def test_degenerate_sample_detected(self, monkeypatch):
        # the gauge normalization fails where a subdiagonal of the logarithm
        # vanishes: at y1 = 1/2 for r1, y1 = -1/2 or y2 = 1/2 for r2 and
        # y2 = -1/2 for r3, never for tau, and the leading minors are
        # constants.  No integer chart point is degenerate, so the Fraction
        # reference finds these points and the derivation rejects them by type
        half = Fraction(1, 2)
        for name, y in (("r1", (half, 0, 0)), ("r2", (-half, 0, 0)), ("r2", (0, half, 0)), ("r3", (0, -half, 0))):
            with pytest.raises(ValueError, match="vanishing subdiagonal"):
                reference_derive(name, y)
            with pytest.raises(TypeError):
                derive_generator_pointwise(name, y)
        # the derivation's invariant check, reached through a lower factor of zero
        monkeypatch.setattr(tilegroup, "_lu_unipotent_lower", lambda a: ([[0] * 4 for _ in range(4)], 1))
        with pytest.raises(RuntimeError, match="vanishing subdiagonal"):
            derive_generator_pointwise("r1", (0, 0, 0))

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(-10**6, 10**6)] * 3))
    @example(y=(0, 0, 0))
    def test_integer_chart_points_are_generic(self, name, y):
        # the LU pivots are constants with no row swap, the logarithm's
        # subdiagonal entries do not vanish, and the closed form meets no
        # base point, so the derivation has nothing to skip
        moved = _moved(name, [[0, 0, 0, 0], [1, 0, 0, 0], [y[0], 1, 0, 0], [y[2], y[1], 1, 0]], (6, 6, 3, 1))
        e, pivots, swaps = echelon(moved)
        assert (swaps, pivots) == (0, [0, 1, 2, 3])
        assert tuple(e[k][k] for k in range(4)) == CHART_PIVOTS[name]
        nil, d = _lu_unipotent_lower(moved)
        logm = _nilpotent_series(nil, (0, 6 * d**2, -3 * d, 2))
        assert logm[1][0] and logm[2][1] and logm[3][2]
        evaluate(GENERATOR_MAPS[name], chart_point_to_x((1,) + y))

    def test_no_integer_sample_is_skipped(self):
        for seed in range(10):
            for name in GENERATORS:
                assert derivation_agreement(name, 40, seed)["degenerate_skipped"] == 0

    def test_vanishing_principal_minor_detected(self):
        for a in (
            # d1 = 0
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            # d1 = 1, d2 = 0
            [[1, 2, 0, 0], [2, 4, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            # d1, d2 != 0, d3 = 0
            [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0]],
            # d1, d2, d3 != 0, d4 = det = 0
            [[2, 1, 0, 1], [1, 1, 0, 0], [0, 0, 3, 0], [1, 0, 0, 1]],
        ):
            for lu in (_lu_unipotent_lower, _doolittle_lower):
                with pytest.raises(ValueError, match="vanishing leading principal minor"):
                    lu(a)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4))
    def test_lu_matches_doolittle(self, a):
        # the same factor as the Fraction LU and the same error; D is the
        # product of the leading principal minors, which the exact division
        # by the previous pivot keeps
        try:
            expected = _doolittle_lower(a)
        except ValueError as exc:
            with pytest.raises(ValueError) as again:
                _lu_unipotent_lower(a)
            assert str(again.value) == str(exc)
            return
        nil, d = _lu_unipotent_lower(a)
        assert d == prod(det([row[:k] for row in a[:k]]) for k in (1, 2, 3))
        assert all(isinstance(x, int) for row in nil for x in row)
        assert [[(i == j) + Fraction(x, d) for j, x in enumerate(row)] for i, row in enumerate(nil)] == expected

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(-20, 20)] * 3))
    @example(y=(0, 0, 0))
    @example(y=(1, -6, -6))
    @example(y=(-6, 1, -6))
    @example(y=(-6, -1, -6))
    def test_matches_fraction_reference(self, name, y):
        # no integer point is degenerate (test_degenerate_sample_detected)
        assert derive_generator_pointwise(name, y) == reference_derive(name, y)

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    def test_integer_points_build_no_fraction(self, name, monkeypatch):
        real = Fraction.__new__
        made = []

        def counting(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        assert Fraction(1, 3) + 1 == Fraction(4, 3) and made  # the count works
        made.clear()
        rep = derivation_agreement(name, samples=40, seed=0)
        assert rep["all_agree"]
        assert made == []

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "tau"])
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.fractions(-20, 20, max_denominator=12)] * 3))
    def test_agreement_at_rational_points(self, name, y):
        # chart points are integer vectors, so the derivation rejects a
        # Fraction one by type, integral or not; the closed form meets the
        # rational chart point (1, y) as its integer multiple (q, q y), and
        # there agrees with the Fraction reference derivation
        with pytest.raises(TypeError):
            derive_generator_pointwise(name, y)
        q = lcm(*(v.denominator for v in y))
        try:
            expected = reference_derive(name, y)
            closed = evaluate(GENERATOR_MAPS[name], chart_point_to_x((q,) + tuple(int(q * v) for v in y)))
        except ValueError:  # a degenerate reference point, or a BasePointError
            return
        assert closed == expected

    def test_specific_point(self):
        y = (2, 3, 5)
        from tilefold.tilegroup import chart_point_to_x

        derived = derive_generator_pointwise("r1", y)
        expected = evaluate(GENERATOR_MAPS["r1"], chart_point_to_x((1,) + y))
        assert derived == expected


# The Fraction derivation the integer one replaced, kept as its reference.
_EXP = (1, 1, Fraction(1, 2), Fraction(1, 6))
_LOG = (0, 1, Fraction(-1, 2), Fraction(1, 3))


def chart_matrix(y1, y2, y3):
    """Chart point as a normalized nilpotent lower triangular matrix."""
    q = Fraction
    return [
        [q(0), q(0), q(0), q(0)],
        [q(1), q(0), q(0), q(0)],
        [q(y1), q(1), q(0), q(0)],
        [q(y3), q(y2), q(1), q(0)],
    ]


# the pivots of echelon(6 exp(n)), moved by each generator, at every chart point
CHART_PIVOTS = {
    "r1": (6, -36, -216, -1296),
    "r2": (6, 36, -216, -1296),
    "r3": (6, 36, 216, -1296),
    "tau": (6, 36, 216, 1296),
}


def _moved(name, n, coeffs):
    """The exponential series of n in coeffs, moved by the generator: its rows
    permuted, or for tau the series of the anti-transposed -n."""
    if name == "tau":
        return _nilpotent_series([[-n[3 - j][3 - i] for j in range(4)] for i in range(4)], coeffs)
    expm = _nilpotent_series(n, coeffs)
    return [expm[j] for j in _perm_inv(GENERATORS[name].perm)]


def _doolittle_lower(a):
    """Doolittle LU; returns the unipotent lower factor or raises."""
    n = 4
    lower = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    upper = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k, n):
            upper[k][j] = a[k][j] - sum(lower[k][s] * upper[s][j] for s in range(k))
        if upper[k][k] == 0:
            raise ValueError("vanishing leading principal minor")
        for i in range(k + 1, n):
            lower[i][k] = Fraction(
                a[i][k] - sum(lower[i][s] * upper[s][k] for s in range(k))
            ) / upper[k][k]
    return lower


def reference_derive(name, y_coords):
    """derive_generator_pointwise through Fraction exp, Doolittle LU and log."""
    y1, y2, y3 = (Fraction(v) for v in y_coords)
    lower = _doolittle_lower(_moved(name, chart_matrix(y1, y2, y3), _EXP))
    logm = _nilpotent_series(
        [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(lower)],
        _LOG,
    )
    m10, m21, m32 = logm[1][0], logm[2][1], logm[3][2]
    if m10 == 0 or m21 == 0 or m32 == 0:
        raise ValueError("vanishing subdiagonal in the logarithm")
    f1 = logm[2][0] / (m10 * m21)
    f2 = logm[3][1] / (m21 * m32)
    f3 = logm[3][0] / (m10 * m21 * m32)
    den = lcm(f1.denominator, f2.denominator, f3.denominator)
    return chart_point_to_x(tuple(int(f * den) for f in (Fraction(1), f1, f2, f3)))


def _series_reference(n, coeffs):
    """sum_k coeffs[k] n^k through general 4x4 products."""
    power = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    total = [[Fraction(0)] * 4 for _ in range(4)]
    for c in coeffs:
        total = [[t + c * x for t, x in zip(trow, prow)] for trow, prow in zip(total, power)]
        power = mat_mul(power, n)
    return total


strictly_lower = st.lists(
    st.fractions(-10, 10, max_denominator=9), min_size=6, max_size=6
).map(
    lambda v: [
        [v[i * (i - 1) // 2 + j] if j < i else Fraction(0) for j in range(4)]
        for i in range(4)
    ]
)


class TestNilpotentSeries:
    @settings(max_examples=60, deadline=None)
    @given(strictly_lower)
    # integer chart matrices, as derive_generator_pointwise passes them
    @example([[0, 0, 0, 0], [1, 0, 0, 0], [3, 1, 0, 0], [-7, 5, 1, 0]])
    @example([[0, 0, 0, 0], [2, 0, 0, 0], [-3, 5, 0, 0], [11, -13, 17, 0]])
    @example([[0, 0, 0, 0], [0, 0, 0, 0], [4, 0, 0, 0], [0, -6, 0, 0]])
    def test_matches_general_products(self, n):
        for coeffs in (_EXP, _LOG):
            assert _nilpotent_series(n, coeffs) == _series_reference(n, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(strictly_lower)
    def test_log_inverts_exp(self, n):
        expm = _nilpotent_series(n, _EXP)
        shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(expm)]
        assert _nilpotent_series(shifted, _LOG) == n

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(i, 4)])
    def test_rejects_entry_on_or_above_diagonal(self, i, j):
        n = [[Fraction(0)] * 4 for _ in range(4)]
        n[3][0] = Fraction(2)
        n[i][j] = Fraction(1, 3)
        with pytest.raises(ValueError, match="strictly lower"):
            _nilpotent_series(n, _EXP)


def _sample_point_reference(sub, rng):
    """One point per call, the kernel basis recomputed for every draw."""
    for _ in range(100):
        if sub.kind == "point":
            return normalize_point(sub.data)
        if sub.kind == "quadric":
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            c, d = rng.randint(-20, 20), rng.randint(-20, 20)
            p = (a * c, a * d, b * c, b * d)
            if any(p):
                return normalize_point(p)
            continue
        basis = integer_kernel([list(row) for row in sub.data])
        coeffs = [rng.randint(-20, 20) for _ in basis]
        p = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(4))
        if any(p):
            return normalize_point(p)
    raise RuntimeError("failed to sample a nonzero point")


class TestSubvarieties:
    def test_sampling_stays_on_variety(self):
        rng = random.Random(0)
        for lab, sub in TABLE1.items():
            points = sample_points(sub, rng)
            for _ in range(10):
                p = next(points)
                assert subvariety_equations_satisfied(sub, p), lab

    @pytest.mark.parametrize("seed", range(5))
    def test_sampler_matches_per_draw_reference(self, seed):
        # same points from the same Random state, and the same state after
        for lab, sub in TABLE1.items():
            rng, ref_rng = random.Random(seed), random.Random(seed)
            points = sample_points(sub, rng)
            for _ in range(30):
                assert next(points) == _sample_point_reference(sub, ref_rng), lab
            assert rng.getstate() == ref_rng.getstate(), lab

    def test_zero_combination_is_redrawn(self):
        # from the same stream as the reference, and at most 100 times
        class Scripted:
            def __init__(self, values):
                self.values = iter(values)

            def randint(self, lo, hi):
                return next(self.values)

        for lab, values in (("C23", [0, 0, 3, -4, 1, 2, 3, 4]), ("A0", [0, 0, 2, -3]), ("A2", [0, 0, 0, 1, 2, 3])):
            sub = TABLE1[lab]
            got = next(sample_points(sub, Scripted(values)))
            assert got == _sample_point_reference(sub, Scripted(values)), lab
            with pytest.raises(RuntimeError, match="nonzero"):
                next(sample_points(sub, Scripted([0] * 400)))

    def test_kernel_basis_computed_once_per_source(self, monkeypatch):
        calls = []

        def counting_kernel(rows):
            calls.append(rows)
            return integer_kernel(rows)

        monkeypatch.setattr(tilegroup, "integer_kernel", counting_kernel)
        _, rep = boundary_image_table(50, 0)
        assert rep["all_rows_verified"]
        # 12 linear chain sources and 3 linear seed rows; per sample it was 612
        assert len(calls) <= 15

    def test_sampler_rejects_dependent_equations(self):
        # rows of the right count and shape whose kernel has the wrong rank
        for sub in (
            Subvariety("line", ((1, 0, 0, 0), (2, 0, 0, 0))),
            Subvariety("line", ((1, 1, 0, 0), (0, 0, 0, 0))),
            Subvariety("plane", ((0, 0, 0, 0),)),
        ):
            rng = random.Random(0)
            with pytest.raises(ValueError, match="do not cut out"):
                next(sample_points(sub, rng))
            assert rng.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize(
        "kind, data",
        [
            ("cubic", ((1, 0, 0, 0),)),
            ("Line", ((1, 0, 0, 0), (0, 1, 0, 0))),
            ("point", (0, 0, 0, 0)),
            ("point", (1, 2, 3)),
            ("point", (1, 2, 3, 4, 5)),
            ("point", (Fraction(1, 2), 1, 0, 0)),
            ("point", ((1, 0, 0, 0),)),
            ("line", ((1, 0, 0, 0),)),
            ("line", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))),
            ("line", ((1, 0, 0, 0), (0, 1, 0))),
            ("line", (1, 0, 0, 0)),
            ("plane", ((1, 0, 0),)),
            ("plane", ((1, 0, 0, 0), (0, 1, 0, 0))),
            ("plane", ((1.0, 0, 0, 0),)),
            ("plane", [(1, 0, 0, 0)]),
            ("quadric", ((1, 0, 0, 0),)),
            ("quadric", None),
        ],
    )
    def test_rejects_malformed_data(self, kind, data):
        with pytest.raises(ValueError):
            Subvariety(kind, data)

    def test_equations_need_four_entries(self):
        # zip would truncate or pad nothing: a short or long point is refused
        cases = [
            (TABLE1["A2"], (1, 1, 5)),
            (TABLE1["A0"], (1, 0, 7, 0, 9)),
            (TABLE1["C23"], (1, 0, 0, 0, 5)),
            (TABLE1["C01"], (1, 1, 1)),
            (TABLE1["D01"], (1, 1)),
        ]
        for sub, p in cases:
            with pytest.raises(ValueError, match="four entries"):
                subvariety_equations_satisfied(sub, p)

    def test_identity_maps_variety_to_itself(self):
        rng = random.Random(0)
        sub = TABLE1["B0"]
        rep = verify_subvariety_image(GENERATOR_MAPS["r1"], sub, TABLE1["B1"], 10, rng)
        assert rep["verified"]

    def test_r2_plane_to_line(self):
        rng = random.Random(0)
        rep = verify_subvariety_image(
            GENERATOR_MAPS["r2"], TABLE1["A2"], TABLE1["A1"], 20, rng
        )
        assert rep["verified"]

    def test_r2_quadric_to_plane(self):
        rng = random.Random(0)
        rep = verify_subvariety_image(
            GENERATOR_MAPS["r2"], TABLE1["C23"], TABLE1["C13"], 20, rng
        )
        assert rep["verified"]

    def test_wrong_target_fails(self):
        rng = random.Random(0)
        rep = verify_subvariety_image(
            GENERATOR_MAPS["r1"], TABLE1["A2"], TABLE1["A1"], 10, rng
        )
        assert not rep["verified"]

    def test_source_in_base_locus_exhausts_budget(self):
        # A1 lies in the base locus of r2, so every sample is redrawn
        rng = random.Random(0)
        with pytest.raises(RuntimeError, match="budget"):
            verify_subvariety_image(
                GENERATOR_MAPS["r2"], TABLE1["A1"], TABLE1["A0"], 3, rng
            )

    def test_identity_map_fixes_every_variety(self):
        rng = random.Random(0)
        for lab, sub in TABLE1.items():
            rep = verify_subvariety_image(lambda *x: x, sub, sub, 5, rng)
            assert rep["verified"], lab


class TestBoundaryImageTable:
    def test_full_verification(self):
        table, rep = boundary_image_table(samples=15, seed=0)
        assert rep["seed_rows_exact"]
        assert rep["chain_covers_all_rows"]
        assert rep["all_rows_verified"]
        assert rep["images_pairwise_distinct"]

    def test_row_contents(self):
        assert TABLE1["A0"].kind == "line"
        assert TABLE1["C23"].kind == "quadric"
        assert TABLE1["C01"].data == (1, 1, 1, 1)
        assert TABLE1["D12"].data == (0, 0, 0, 1)

    def test_chain_targets_match_label_action(self):
        from tilefold.tilegroup import TABLE1_CHAIN

        for gname, src, dst in TABLE1_CHAIN:
            assert act_on_label(GENERATORS[gname], src) == dst

    def test_linear_generators_permute_all_rows_exactly(self):
        # for the three linear generators the image of every table row is
        # computed exactly (transformed equations and points), and must be
        # the row of the acted label; this ties the whole table to the
        # abstract label action with no sampling involved
        from tilefold.tilegroup import Subvariety, table_key

        # each map's matrix, column j the image of the unit vector e_j
        units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
        matrices = {
            name: tuple(zip(*(GENERATOR_MAPS[name](*e) for e in units)))
            for name in ("r1", "r3", "tau")
        }

        def transform(sub, mat):
            # permutation-style matrices: inverse equals transpose here
            inv = tuple(zip(*mat))
            if sub.kind == "point":
                img = tuple(
                    sum(row[j] * sub.data[j] for j in range(4)) for row in mat
                )
                return Subvariety("point", img)
            if sub.kind == "quadric":
                # each generator maps the quadric onto itself up to sign;
                # verified separately below
                return sub
            rows = tuple(
                tuple(sum(eq[i] * inv[i][j] for i in range(4)) for j in range(4))
                for eq in sub.data
            )
            return Subvariety(sub.kind, rows)

        for name, mat in matrices.items():
            g = GENERATORS[name]
            for lab, sub in TABLE1.items():
                target = TABLE1[act_on_label(g, lab)]
                assert table_key(transform(sub, mat)) == table_key(target), (name, lab)

        # the quadric form composed with each linear generator is +- itself,
        # and each map is its matrix
        for name, mat in matrices.items():
            def q(p):
                return p[0] * p[3] - p[1] * p[2]

            for p in ((1, 2, 3, 4), (1, 0, 0, 1), (5, -1, 2, 7)):
                img = tuple(sum(row[j] * p[j] for j in range(4)) for row in mat)
                assert img == GENERATOR_MAPS[name](*p)
                assert abs(q(img)) == abs(q(p))
