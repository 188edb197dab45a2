
import math
import os
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from itertools import combinations, permutations

import pytest

from tilefold import cli, polyhedra, quotientfan, stages
from tilefold.exactlat import dot, mat_mul, mat_vec, primitive_vector, smith_invariants, transpose
from tilefold.polyhedra import (
    Cone,
    face_lattice_fvector,
    fan_face_index_sets,
    fan_is_smooth,
    is_complete_fan,
    lp_in_cone,
    make_fan,
    uncovered_cone,
)
from tilefold.quotientfan import (
    COKERNEL_MATRIX,
    FLIP_SOURCE_FACE,
    PARTITION_FACE,
    QUOTIENT_RAYS,
    WEIGHT_MATRIX,
    _arrangement_normals,
    _chamber_fan,
    _chambers,
    _fan_of,
    _orthant_subfan,
    _projected_faces,
    _project_cone,
    chart_ample_polytope,
    chart_class_group_report,
    chart_projected_faces,
    chart_quotient_fan,
    fixed_point_weights,
    git_subfans,
    non_projected_rays,
    principal_divisor_witness,
    relevant_pairs,
    source_data,
)

from test_polyhedra import (  # the tests' DD meet reference
    reference_fan_axioms,
    reference_intersect_cones,
    reference_is_face,
    unchecked_fan,
)


def quotient_fan(fan, proj):
    """Quotient fan of any fan: cones are the minimal intersections of projected cones."""
    return _chamber_fan(len(proj), _projected_faces(fan, proj))


class TestSourceData:
    def test_weight_column_y13(self):
        cols = transpose(WEIGHT_MATRIX)
        assert tuple(cols[5]) == (1, 1, 1)

    def test_cokernel_first_column(self):
        cols = transpose(COKERNEL_MATRIX)
        assert tuple(cols[0]) == (-1, 0, -1)

    def test_cokernel_annihilates_weights(self):
        prod = mat_mul(COKERNEL_MATRIX, transpose(WEIGHT_MATRIX))
        assert all(all(x == 0 for x in row) for row in prod)

    def test_root_data(self):
        # the fixed points are indexed by the 24 elements s of the Weyl group
        # S4, and the weight at s has i-th coordinate 3 - 2*s(i)
        weights, _ = fixed_point_weights()
        assert list(weights) == sorted(permutations(range(4)))
        assert all(w == tuple(3 - 2 * k for k in s) for s, w in weights.items())

    def test_source_data_builds(self):
        orthant = source_data()
        assert len(orthant.rays) == 6
        assert orthant.maximal_cones == (frozenset(range(6)),)

    def test_corrupted_weights_raise_under_optimize(self):
        # invariant checks must be real exceptions, which `python -O` keeps
        code = (
            "import sys\n"
            "from tilefold import quotientfan\n"
            "assert sys.flags.optimize\n"
            "quotientfan.WEIGHT_MATRIX[0][0] = 2\n"
            "try:\n"
            "    quotientfan.source_data()\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
            # a ray swap that maps an edge of the square onto a diagonal
            "from tilefold.polyhedra import Cone, face_lattice_raysets\n"
            "square = Cone.from_rays(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])\n"
            "try:\n"
            "    face_lattice_raysets(square, [(0, 1, 2, 3), (1, 0, 2, 3)])\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["raised", "raised"]


def reference_chamber_fan(dim: int, projected):
    """The chamber complex by interior witnesses: the reference.

    Work in the span of the projected cones, read off the cone their rays
    and lineality generate.  Cut the span by every facet and span
    hyperplane of the projected cones that does not contain it, take the
    sum of each chamber's rays as its witness, and intersect the projected
    cones that hold it.  No witness in a projected cone means that no cone
    is full-dimensional in the span.
    """
    distinct = list(dict.fromkeys(c for _, c in projected))
    vectors = [v for c in distinct for v in c.rays + c.lineality]
    span = Cone.from_rays(dim, vectors + [tuple(-x for x in v) for v in vectors])
    normals = set()
    for c in distinct:
        for n in list(c.facets) + list(c.equations):
            if any(dot(n, v) for v in vectors):
                n = primitive_vector(n)
                normals.add(max(n, tuple(-x for x in n)))
    normals = sorted(normals)
    chambers = [([], span)]
    for n in normals:
        nxt = []
        for ineqs, cone in chambers:
            vals_r = [dot(n, r) for r in cone.rays]
            lin_hit = any(dot(n, l) != 0 for l in cone.lineality)
            has_pos = lin_hit or any(v > 0 for v in vals_r)
            has_neg = lin_hit or any(v < 0 for v in vals_r)
            if has_pos and has_neg:
                for side in (n, tuple(-x for x in n)):
                    nxt.append((ineqs + [side], Cone.from_inequalities(dim, ineqs + [side], span.equations)))
            else:
                nxt.append((ineqs, cone))
        chambers = nxt

    containing_sets = set()
    for _, chamber in chambers:
        if not chamber.is_pointed():
            raise RuntimeError("arrangement normals do not span")
        witness = chamber.interior_point()
        if any(dot(n, witness) == 0 for n in normals):
            raise RuntimeError(f"chamber witness {witness} lies on a wall")
        containing = tuple(k for k, c in enumerate(distinct) if c.contains(witness))
        if containing:
            containing_sets.add(containing)
    if not containing_sets:
        raise ValueError("no projected cone is full-dimensional in the span of the image")
    candidates = {}
    for containing in containing_sets:
        ineqs = [n for k in containing for n in distinct[k].facets]
        eqs = [e for k in containing for e in distinct[k].equations]
        minimal = Cone.from_inequalities(dim, ineqs, eqs)
        candidates[minimal] = minimal
    return _fan_of(dim, candidates.values())


def uncovered_vectors(fan, projected):
    """The rays and signed lineality vectors of projected cones in no cone of the fan, by LP."""
    vectors = {v for _, c in projected for v in c.rays + c.lineality}
    vectors |= {tuple(-x for x in v) for _, c in projected for v in c.lineality}
    return sorted(v for v in vectors if not any(lp_in_cone(c.rays, v) for c in fan.cones))


def random_orthant_case(rng):
    """The orthant of R^3..R^5, or a fan of 1-3 of its faces, and a surjection to R^2 or R^3."""
    n = rng.randint(3, 5)
    if rng.random() < 0.25:
        faces = [frozenset(range(n))]
    else:
        picked = {frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 3))}
        faces = [f for f in picked if not any(f < g for g in picked)]
    return _with_a_surjection(rng, n, faces, rng.randint(2, 3))


def random_lower_dimensional_case(rng):
    """1-2 faces of the orthant of R^3..R^5 on fewer coordinates than R^2 or R^3, and a surjection to it."""
    n, m = rng.randint(3, 5), rng.randint(2, 3)
    coords = rng.sample(range(n), rng.randint(1, m - 1))
    picked = {frozenset(rng.sample(coords, rng.randint(1, len(coords)))) for _ in range(rng.randint(1, 2))}
    return _with_a_surjection(rng, n, [f for f in picked if not any(f < g for g in picked)], m)


def _with_a_surjection(rng, n, faces, m):
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    while True:
        proj = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
        if smith_invariants(proj) == [1] * m:
            return make_fan(n, units, faces), proj


class TestQuotientFan:
    def test_equals_the_witness_reference(self):
        # the same fan, or both reject, on projections of orthant faces; an
        # image spanning less than the target is a fan in its span
        rng = random.Random(8)
        cases = [random_orthant_case(rng) for _ in range(60)]
        cases += [random_lower_dimensional_case(rng) for _ in range(20)]
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        # the ray (1, 0), and two planes spanning R^3, which no chamber covers
        cases += [
            (make_fan(3, units, [{0, 1}]), [[1, 0, 0], [0, 0, 1]]),
            (make_fan(3, units, [{0, 1}, {1, 2}]), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ]
        outcomes = []
        for fan, proj in cases:
            projected = _projected_faces(fan, proj)
            try:
                want = reference_chamber_fan(len(proj), projected)
            except (ValueError, RuntimeError) as exc:
                want = exc
            if not isinstance(want, Exception) and (uncovered := uncovered_vectors(want, projected)):
                # the chambers cover only the cones of the span's dimension
                distinct = dict.fromkeys(c for _, c in projected)
                c = next(c for c in distinct if any(c.contains(v) for v in uncovered))
                want = ValueError(
                    f"the projected cone with rays {c.rays} and lineality {c.lineality}"
                    " is not a union of cones of the chamber complex"
                )
            try:
                got = quotient_fan(fan, proj)
            except (ValueError, RuntimeError) as exc:
                assert isinstance(want, Exception), (fan, proj, exc)
                if isinstance(want, ValueError):
                    assert type(exc) is ValueError and str(exc) == str(want)
                outcomes.append(str(exc))
                continue
            assert got == want, (fan, proj)
            assert got.cones == want.cones
            outcomes.append("fan" if max(c.dim for c in got.cones) == len(proj) else "lower")
        # of the other five of the first 60, three leave part of the image
        # outside every chamber and two break the fan axioms
        no_cone = "no projected cone is full-dimensional in the span of the image"
        assert [outcomes[:60].count(o) for o in ("fan", "lower", no_cone)] == [39, 14, 2]
        assert sum(o.startswith("the projected cone") for o in outcomes) == 3
        assert [outcomes[60:80].count(o) for o in ("lower", no_cone)] == [18, 2]
        assert outcomes[80:] == ["lower", no_cone]
        assert quotient_fan(*cases[80]).rays == ((1, 0),)

    def test_an_image_outside_every_chamber_raises(self):
        # the face {3} projects to the ray (-1, 0, 0), outside the image of
        # the full-dimensional face {0, 1, 2}, the orthant
        units = [tuple(int(j == i) for j in range(4)) for i in range(4)]
        fan = make_fan(4, units, [{0, 1, 2}, {3}])
        proj = [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]
        with pytest.raises(ValueError, match=r"rays \(\(-1, 0, 0\),\) and lineality \(\) is not a union"):
            quotient_fan(fan, proj)

    def test_chart_is_cut_by_seven_hyperplanes_into_32_chambers(self):
        distinct = list(dict.fromkeys(c for _, c in chart_projected_faces()))
        normals = _arrangement_normals(distinct, 3)
        assert len(normals) == 7
        assert len(_chambers(3, normals, ())) == 32

    def test_cold_fan_section_double_description_budget(self, monkeypatch):
        # each chamber is split from its parent's facets, by walls that can
        # separate generic points, the relevance analysis and the GIT
        # subfans read every verdict off ray masks, and the fan axioms run
        # one separation DD per pair of maximal cones: 185 double
        # descriptions in all
        runs = []
        real = polyhedra._dd_inequalities
        monkeypatch.setattr(polyhedra, "_dd_inequalities", lambda *a: runs.append(a) or real(*a))
        stages.clear()
        cli.section_fan_quotient()
        assert len(runs) <= 185

    def test_masked_analyses_run_no_double_description(self, monkeypatch):
        # once the quotient fan is kept, relevance and the GIT subfans' fan
        # axioms and flip verdicts are mask operations
        chart_quotient_fan()
        runs = []
        real = polyhedra._dd_inequalities
        monkeypatch.setattr(polyhedra, "_dd_inequalities", lambda *a: runs.append(a) or real(*a))
        relevant_pairs()
        git_subfans()
        assert runs == []

    def test_identity_projection_returns_input(self):
        fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
        out = quotient_fan(fan, [[1, 0], [0, 1]])
        assert set(out.rays) == set(fan.rays)
        got = {frozenset(out.rays[i] for i in s) for s in out.maximal_cones}
        want = {frozenset(fan.rays[i] for i in s) for s in fan.maximal_cones}
        assert got == want

    def test_non_surjective_projection_rejected(self):
        fan = make_fan(2, [(1, 0), (0, 1)], [{0, 1}])
        with pytest.raises(ValueError):
            quotient_fan(fan, [[2, 0]])

    def test_p3_fan_projected_to_line(self):
        # quotient of a complete fan is complete: the 3-space fan projected
        # to a line collapses to the two half-lines
        p3 = make_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}],
        )
        out = quotient_fan(p3, [[1, 0, 0]])
        assert set(out.rays) == {(1,), (-1,)}
        assert len(out.maximal_cones) == 2

    def test_p1xp1_fan_projected_to_factor(self):
        fan = make_fan(
            2,
            [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [{0, 1}, {1, 2}, {2, 3}, {0, 3}],
        )
        out = quotient_fan(fan, [[0, 1]])
        assert set(out.rays) == {(1,), (-1,)}

    def test_chart_quotient_rays(self):
        fan = chart_quotient_fan()
        assert set(fan.rays) == set(QUOTIENT_RAYS)

    def test_chart_quotient_maximal_cone_count(self):
        # smooth complete simplicial 3-fold fan: 2 * rays - 4 maximal cones
        fan = chart_quotient_fan()
        assert len(fan.maximal_cones) == 2 * len(fan.rays) - 4 == 10

    def test_verification_report(self):
        fan = chart_quotient_fan()
        assert fan_is_smooth(fan) and is_complete_fan(fan)
        assert len(fan.rays) - fan.ambient_dim == 4  # the Picard number

    def test_p2_fan_report(self):
        fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
        assert fan_is_smooth(fan) and is_complete_fan(fan) and len(fan.rays) - fan.ambient_dim == 1

    def test_made_fan_is_read_without_double_description(self, monkeypatch):
        # make_fan checked the fan and kept its cones; reading them builds none
        fan = make_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}],
        )
        runs = []
        real = polyhedra._dd_inequalities
        monkeypatch.setattr(polyhedra, "_dd_inequalities", lambda *a: runs.append(a) or real(*a))
        assert fan_is_smooth(fan) and is_complete_fan(fan)
        assert len(fan_face_index_sets(fan)) == 1 + 4 + 6 + 4
        assert runs == []

    def test_fan_of_builds_no_cone(self, monkeypatch):
        # the Fan keeps the cones it is handed, once each, and checks them
        cones = [Cone.from_rays(2, g) for g in ([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(1, 0), (-1, -1)])]
        built = []
        real = Cone.from_rays
        monkeypatch.setattr(Cone, "from_rays", staticmethod(lambda *a: built.append(a) or real(*a)))
        fan = _fan_of(2, cones + cones[:1])
        assert built == []
        assert fan.rays == ((-1, -1), (0, 1), (1, 0))
        assert fan.maximal_cones == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
        assert [c.rays for c in fan.cones] == [tuple(sorted(fan.rays[i] for i in s)) for s in fan.maximal_cones]
        assert all(any(c is h for h in cones) for c in fan.cones)

    def test_orthant_fan_incomplete(self):
        fan = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [{0, 1, 2}])
        assert not is_complete_fan(fan)

    def test_every_fan_cone_is_intersection_of_projections(self):
        # and every projected face is a union of quotient-fan pieces: we
        # check the first exactly, the second through interior witnesses
        orthant = source_data()
        fan = chart_quotient_fan()
        faces = []
        for mask in range(64):
            idx = [i for i in range(6) if mask & (1 << i)]
            rays = [mat_vec(COKERNEL_MATRIX, orthant.rays[i]) for i in idx]
            faces.append(Cone.from_rays(3, rays))
        for cone in fan.cones:
            w = cone.interior_point()
            meet_ineqs, meet_eqs = [], []
            for f in faces:
                if f.contains(w):
                    meet_ineqs.extend(f.facets)
                    meet_eqs.extend(f.equations)
            meet = Cone.from_inequalities(3, meet_ineqs, meet_eqs)
            assert meet == cone


def reference_relevant_pairs(fan, proj) -> list[dict]:
    """Relevance by one DD per distinct pair of projected cones: the reference."""
    face_sets = sorted(fan_face_index_sets(fan), key=lambda s: (len(s), sorted(s)))
    projected = {s: _project_cone(proj, [fan.rays[i] for i in sorted(s)]) for s in face_sets}
    meet_cache: dict[tuple, Cone] = {}
    out = []
    for s1 in face_sets:
        c1 = projected[s1]
        for s2 in face_sets:
            c2 = projected[s2]
            ckey = (c1, c2)
            meet = meet_cache.get(ckey)
            if meet is None:
                meet = reference_intersect_cones(c1, c2)
                meet_cache[ckey] = meet
            if not reference_is_face(meet, c1):
                out.append(
                    {
                        "cone": tuple(sorted(s1)),
                        "companion": tuple(sorted(s2)),
                        "meet": meet,
                    }
                )
    return out


def meet_rays(meet: int) -> tuple:
    """The quotient-fan rays in a meet mask of `relevant_pairs`."""
    return tuple(r for i, r in enumerate(chart_quotient_fan().rays) if meet >> i & 1)


def reference_subfans() -> dict:
    """The projections of the plus, minus and zero subfans as Fans, checked by DD meets: the reference."""
    projected = dict(chart_projected_faces())
    return {name: _fan_of(3, [projected[s] for s in _orthant_subfan(name)]) for name in ("plus", "minus", "zero")}


def reference_certify_refinement(cones, fan) -> None:
    """Raise RuntimeError unless each cone is a union of cones of the fan, by DD: the reference.

    The fan must be complete and each cone must meet each maximal cone of
    the fan in a face of that maximal cone.
    """
    if not is_complete_fan(fan):
        raise RuntimeError("the fan is not complete")
    for s, sigma in zip(fan.maximal_cones, fan.cones):
        for c in cones:
            # a nested pair meets in the smaller cone: no intersection DD
            if c.contains_cone(sigma):
                continue
            meet = c if sigma.contains_cone(c) else reference_intersect_cones(c, sigma)
            if not reference_is_face(meet, sigma):
                raise RuntimeError(f"cone {c.rays} meets fan cone {sorted(s)} in a non-face")


def random_face_fan(rng, n):
    """The face fan of a random lattice polytope in R^n with the origin inside: a complete fan."""
    while True:
        points = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 4))]
        hull = Cone.from_rays(n + 1, [(1,) + p for p in points])
        # the origin is inside when every facet is positive on (1, 0, ..., 0)
        if hull.dim == n + 1 and all(a[0] > 0 for a in hull.facets):
            break
    rays = [primitive_vector(r[1:]) for r in hull.rays]
    facets = [{j for j, m in enumerate(hull.incidence) if m >> h & 1} for h in range(len(hull.facets))]
    return make_fan(n, rays, facets)


def random_cone(rng, fan):
    """A cone on 1..n+1 generators, some with lineality or of lower dimension.

    Half the time the generators are fan rays, so that many cones are unions of fan cones.
    """
    n = fan.ambient_dim
    if rng.random() < 0.5:
        gens = rng.sample(fan.rays, rng.randint(1, min(n + 1, len(fan.rays))))
    else:
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
    if rng.random() < 0.2:
        gens.append(tuple(-x for x in gens[0]))
    return Cone.from_rays(n, gens)


class TestRelevance:
    def test_mask_rule_matches_pairwise_intersections(self):
        pairs = relevant_pairs()
        want = reference_relevant_pairs(source_data(), COKERNEL_MATRIX)
        assert len(pairs) == 1373
        assert [(p["cone"], p["companion"]) for p in pairs] == [(w["cone"], w["companion"]) for w in want]
        # each meet is the cone spanned by the fan rays its mask holds
        meets = {m: Cone.from_rays(3, meet_rays(m)) for m in {p["meet"] for p in pairs}}
        assert [meets[p["meet"]] for p in pairs] == [w["meet"] for w in want]
        assert sum(bool(w["meet"].lineality) for w in want) == 100

    @staticmethod
    def _projected_cones():
        faces = _projected_faces(source_data(), tuple(map(tuple, COKERNEL_MATRIX)))
        return list(dict.fromkeys(c for _, c in faces))

    def test_certificate_holds_on_the_quotient_fan(self):
        cones = self._projected_cones()
        assert len(cones) == 46
        assert uncovered_cone(chart_quotient_fan(), cones) is None
        reference_certify_refinement(cones, chart_quotient_fan())

    def test_certificate_rejects_a_coarser_fan(self):
        # the plus subfan is complete, but projected cones cut its cones;
        # the certificate and the DD reference reject the same ones
        plus = reference_subfans()["plus"]
        rejected = []
        for c in self._projected_cones():
            try:
                reference_certify_refinement([c], plus)
            except RuntimeError as exc:
                assert "non-face" in str(exc)
                rejected.append(c)
        assert rejected
        assert [c for c in self._projected_cones() if uncovered_cone(plus, [c])] == rejected
        assert uncovered_cone(plus, self._projected_cones()) == rejected[0]

    def test_certificate_matches_the_reference_on_random_fans(self):
        # complete face fans in R^2 and R^3, and subfans that drop maximal
        # cones: a cone is covered by a subfan when the full fan covers it
        # and keeps every face of the cone's dimension inside it
        rng = random.Random(25)
        verdicts = Counter()
        for case in range(50):
            n = 2 + case % 2
            full = random_face_fan(rng, n)
            kept = rng.sample(full.maximal_cones, rng.randint(1, len(full.maximal_cones) - 1))
            sub = make_fan(n, full.rays, kept)
            assert is_complete_fan(full) and not is_complete_fan(sub)
            full_faces, sub_faces = fan_face_index_sets(full), fan_face_index_sets(sub)
            for _ in range(6):
                c = random_cone(rng, full)
                try:
                    reference_certify_refinement([c], full)
                    want = True
                except RuntimeError:
                    want = False
                assert (uncovered_cone(full, [c]) is None) == want, (full, c)
                want_sub = want and all(
                    s in sub_faces
                    for s, dim in full_faces.items()
                    if dim == c.dim and all(c.contains(full.rays[i]) for i in s)
                )
                assert (uncovered_cone(sub, [c]) is None) == want_sub, (sub, c)
                kind = "lineality" if c.lineality else "lower" if c.dim < n else "pointed"
                verdicts[kind, want, want_sub] += 1
        # (kind, covered by the full fan, covered by the subfan): 138 and 69 covered of 300
        assert verdicts == {
            ("pointed", True, True): 13, ("pointed", True, False): 16, ("pointed", False, False): 66,
            ("lower", True, True): 50, ("lower", True, False): 11, ("lower", False, False): 48,
            ("lineality", True, True): 6, ("lineality", True, False): 42, ("lineality", False, False): 48,
        }

    def test_required_pairs_present(self):
        pairs = relevant_pairs()
        got = {(p["cone"], p["companion"]) for p in pairs}
        assert ((1, 4), (0,)) in got  # A1 with companion B1
        assert ((1, 3), (2,)) in got  # B2 with companion A2
        assert ((0, 2, 5), (1,)) in got  # C02 with companion C13
        assert ((1, 3, 4), (2, 4)) in got  # D12 with companion C12
        assert ((1, 3, 4), (0, 3)) in got  # D12 with companion C03

    def test_c12_c03_meet_in_rho6(self):
        pairs = relevant_pairs()
        rec = next(
            p for p in pairs if p["cone"] == (2, 4) and p["companion"] == (0, 3)
        )
        assert meet_rays(rec["meet"]) == ((0, 0, -1),)

    def test_a1_b1_meet_in_rho0(self):
        pairs = relevant_pairs()
        rec = next(
            p for p in pairs if p["cone"] == (1, 4) and p["companion"] == (0,)
        )
        assert meet_rays(rec["meet"]) == ((-1, 0, -1),)

    def test_rho6_unique_non_projected(self):
        fan = chart_quotient_fan()
        assert non_projected_rays(fan, COKERNEL_MATRIX, source_data()) == [(0, 0, -1)]

    def test_reversed_containment_is_not_relevant(self):
        # the projection of B1's face lies inside A1's, so the reversed
        # pair is an (improper) face and must not be reported
        pairs = relevant_pairs()
        got = {(p["cone"], p["companion"]) for p in pairs}
        assert ((0,), (1, 4)) not in got


def reference_common_refinement(fan_a, fan_b) -> set[Cone]:
    """The full-dimensional cones of the common refinement of two fans with equal support, by DD: the reference."""
    meets = (reference_intersect_cones(ca, cb) for ca in fan_a.cones for cb in fan_b.cones)
    return {meet for meet in meets if meet.dim == fan_a.ambient_dim}


def reference_git_verdicts(fans) -> dict:
    """The refinement, flip and wall verdicts of the plus and minus subfans, by DD: the reference."""
    plus, minus = fans["plus"].cones, fans["minus"].cones
    only_plus = [c for c in plus if c not in minus]
    only_minus = [c for c in minus if c not in plus]
    flip_base = dict(chart_projected_faces())[FLIP_SOURCE_FACE]
    return {
        "refinement_equals_quotient": reference_common_refinement(fans["plus"], fans["minus"])
        == set(chart_quotient_fan().cones),
        "local_flip_over_projected_face": all(
            Cone.from_rays(3, [r for c in side for r in c.rays]) == flip_base for side in (only_plus, only_minus)
        ),
        "exchanged_walls_meet_in_extra_ray": len(only_plus) == len(only_minus) == 2
        and reduce(reference_intersect_cones, only_plus + only_minus).rays == (QUOTIENT_RAYS[6],),
    }


class TestGitSubfans:
    def test_mask_verdicts_match_double_description(self):
        rep = git_subfans()
        want = reference_git_verdicts(reference_subfans())
        assert want == {k: rep[k] for k in want}
        assert all(want.values())

    @pytest.mark.parametrize("name", ["plus", "zero"])
    def test_a_wrong_minus_subfan_fails_every_flip_verdict(self, monkeypatch, name):
        # with the plus or zero exclusions on the minus side, no cone or only
        # two are exchanged: the verdicts read False without raising, as the
        # DD reference does
        monkeypatch.setitem(quotientfan.SUBFAN_EXCLUSIONS, "minus", quotientfan.SUBFAN_EXCLUSIONS[name])
        rep = git_subfans()
        want = reference_git_verdicts(reference_subfans())
        assert want == {k: rep[k] for k in want}
        assert not any(want.values())

    def test_report(self):
        rep = git_subfans()
        assert rep["bijective"] == {"plus": True, "minus": True, "zero": True}
        assert rep["refinement_equals_quotient"]
        assert rep["local_flip_over_projected_face"]
        assert rep["exchanged_walls_meet_in_extra_ray"]
        assert rep["modified_locus_is_extra_ray_divisor"]

    def test_zero_fan_has_six_maximal_cones(self):
        fans = reference_subfans()
        assert len(fans["zero"].maximal_cones) == 6
        assert len(fans["plus"].maximal_cones) == 8
        assert len(fans["minus"].maximal_cones) == 8

    def test_zero_subfan_is_what_plus_and_minus_share(self, monkeypatch):
        # the zero subfan's maximal faces are the six that the plus and minus
        # subfans share; the verdicts read masks, so an exclusion table that
        # still projects bijectively, {2, 5} in place of {2, 4}, is told apart
        # only here
        shared = [{0, 1, 2}, {0, 1, 5}, {0, 4, 5}, {1, 2, 5}, {2, 3, 5}, {3, 4, 5}]

        def shares():
            return set(_orthant_subfan("zero")) == set(_orthant_subfan("plus")) & set(_orthant_subfan("minus"))

        assert _orthant_subfan("zero") == shared and shares()
        mutated = list(quotientfan.SUBFAN_EXCLUSIONS["zero"])
        mutated[3] = {2, 5}
        monkeypatch.setitem(quotientfan.SUBFAN_EXCLUSIONS, "zero", tuple(mutated))
        assert git_subfans()["bijective"]["zero"] and not shares()

    def test_mask_fan_axioms_match_double_description(self, monkeypatch):
        # zero subfans excluding random edges and GIT triangles: a subfan
        # projects bijectively to a fan when each maximal face keeps one
        # dimension per ray and the Fan of the projected cones passes the
        # fan axioms, whose verdict the DD meet reference shares; the
        # non-fans with simplicial projections are the ones the mask closure
        # rule alone decides
        projected = dict(chart_projected_faces())
        pool = [set(e) for e in combinations(range(6), 2)] + [{0, 2, 5}, {0, 3, 5}, {2, 4, 5}]
        rng = random.Random(30)
        kinds = {}
        for _ in range(200):
            monkeypatch.setitem(quotientfan.SUBFAN_EXCLUSIONS, "zero", tuple(e for e in pool if rng.random() < 0.5))
            faces = tuple(_orthant_subfan("zero"))
            if faces in kinds:
                continue
            simplicial = all(projected[s].dim == len(s) for s in faces)
            cones = [projected[s] for s in faces]
            try:
                _fan_of(3, cones)
                accepted = True
            except ValueError:
                accepted = False
            assert reference_fan_axioms(unchecked_fan(_fan_of, 3, cones)) == accepted, faces
            kinds[faces] = ("fan" if accepted else "simplicial, no fan") if simplicial else "not simplicial"
            assert git_subfans()["bijective"]["zero"] == (kinds[faces] == "fan"), faces
        assert Counter(kinds.values()) == {"fan": 31, "not simplicial": 83, "simplicial, no fan": 86}

    def test_a_zero_subfan_that_is_not_a_fan_reads_false(self, monkeypatch):
        # six simplicial faces whose projections meet off a common face: the
        # verdict reads False where the Fan of the projected cones raises
        monkeypatch.setitem(quotientfan.SUBFAN_EXCLUSIONS, "zero", ({1, 2}, {1, 4}, {2, 4}, {2, 4, 5}, {3, 5}))
        faces = _orthant_subfan("zero")
        projected = dict(chart_projected_faces())
        assert len(faces) == 6 and all(projected[s].dim == len(s) for s in faces)
        with pytest.raises(ValueError, match="do not meet in a common face"):
            reference_subfans()
        assert git_subfans()["bijective"] == {"plus": True, "minus": True, "zero": False}


class TestClassGroup:
    def test_p3_class_group(self):
        # Cl(P^3) = Z: D_i - D_3 is the divisor of the character e_i, and a
        # single prime divisor is not principal
        p3 = make_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}],
        )
        for i in range(3):
            d = tuple(1 if j == i else -1 if j == 3 else 0 for j in range(4))
            assert tuple(principal_divisor_witness(p3, d)) == d[:3]
        assert principal_divisor_witness(p3, (1, 0, 0, 0)) is None

    def test_chart_report(self):
        rep = chart_class_group_report()
        assert all(rep["relations_principal"].values())
        assert rep["witness_characters"]["E-B2-C02"] == (0, 1, 0)

    def test_non_principal_detected(self):
        fan = chart_quotient_fan()
        v = [0] * len(fan.rays)
        v[0] = 1  # a single prime divisor is not principal here
        assert principal_divisor_witness(fan, tuple(v)) is None


class TestPolytopes:
    # each polytope is its homogenising cone: a vertex v is the primitive
    # ray (d, d*v), d > 0, and a facet (b, *a) reads b + a.m >= 0
    def test_ample_polytope(self):
        cone = chart_ample_polytope()
        assert face_lattice_fvector(cone) == (10, 15, 7)
        assert len(cone.facets) == 7
        assert all(r[0] == 1 for r in cone.rays)

    def test_ample_facet_normals_match_rays(self):
        fan = chart_quotient_fan()
        cone = chart_ample_polytope()
        normals = {primitive_vector(n[1:]) for n in cone.facets}
        assert normals == set(fan.rays)

    def test_ample_vertices_saturate_enough_facets(self):
        cone = chart_ample_polytope()
        for r in cone.rays:
            assert r[0] == 1
            tight = sum(
                1
                for n in cone.facets
                if n[0] + sum(a * b for a, b in zip(n[1:], r[1:])) == 0
            )
            assert tight >= len(face_lattice_fvector(cone))

    def test_unbounded_ample_polytope_raises(self, monkeypatch):
        # rho0, rho1, rho2 and rho6 all have last coordinate -1, so they do
        # not span R^3 positively and the polytope is unbounded in m_3
        fan = make_fan(3, [QUOTIENT_RAYS[i] for i in (0, 1, 2, 6)], [{0}, {1}, {2}, {3}])
        stages.clear(chart_ample_polytope)
        monkeypatch.setattr(quotientfan, "chart_quotient_fan", lambda: fan)
        with pytest.raises(RuntimeError, match="empty or unbounded"):
            chart_ample_polytope()


class TestFixedPointWeights:
    def test_identity_weight(self):
        weights, _ = fixed_point_weights()
        assert weights[(0, 1, 2, 3)] == (3, 1, -1, -3)

    def test_all_weights_distinct_and_vertices(self):
        # the hull's homogenising cone has the ray (1, w) for each weight w
        weights, hull = fixed_point_weights()
        assert len(set(weights.values())) == 24
        assert set(hull.rays) == {(1,) + w for w in weights.values()}

    def test_hull_f_vector(self):
        _, hull = fixed_point_weights()
        assert face_lattice_fvector(hull) == (24, 36, 14)

    def test_hull_f_vector_against_brute_force(self):
        # independent oracle: supporting planes from point triples inside
        # the sum-zero slice, vertices via the LP membership oracle
        weights, hull = fixed_point_weights()
        pts4 = sorted(weights.values())
        basis = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)]
        # coordinates in the slice: solve p = x*b0 + y*b1 + z*b2, then clear
        # denominators by one common factor so the brute force runs over Z
        from tilefold.exactlat import solve_rational

        cols = list(zip(*basis))
        raw = []
        for p in pts4:
            solved = solve_rational([list(r) for r in cols], p)
            assert solved is not None
            raw.append(solved)
        denom = math.lcm(*(d for d, _ in raw))
        pts = [tuple(c * (denom // d) for c in x) for d, x in raw]
        planes = set()
        from itertools import combinations

        for a, b, c in combinations(pts, 3):
            u = tuple(b[i] - a[i] for i in range(3))
            v = tuple(c[i] - a[i] for i in range(3))
            n = (
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            )
            if not any(n):
                continue
            vals = [sum(ni * (pi - ai) for ni, pi, ai in zip(n, p, a)) for p in pts]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                n = primitive_vector(n)
                if any(v > 0 for v in vals):
                    off = sum(ni * ai for ni, ai in zip(n, a))
                else:
                    n = tuple(-x for x in n)
                    off = sum(ni * ai for ni, ai in zip(n, a))
                planes.add((n, off))
        assert len(planes) == 14
        # edge count: vertex pairs lying on at least two supporting planes
        on_plane = {
            (n, off): {i for i, p in enumerate(pts) if sum(a * b for a, b in zip(n, p)) == off}
            for (n, off) in planes
        }
        edges = set()
        for i, j in combinations(range(len(pts)), 2):
            shared = sum(1 for s in on_plane.values() if i in s and j in s)
            if shared >= 2:
                edges.add((i, j))
        assert len(edges) == 36
        # all 24 points extremal via the LP route on the homogenization
        homog = [(1,) + p for p in pts]
        for i, p in enumerate(homog):
            others = [q for j, q in enumerate(homog) if j != i]
            assert not lp_in_cone(others, p)
        assert face_lattice_fvector(hull) == (len(pts), len(edges), len(planes))


class TestPartitions:
    def test_partition_cones_project_as_published(self):
        expected = {
            "A1": {1, 4},
            "B1": {0},
            "B2": {1, 3},
            "A2": {2},
            "C02": {0, 2, 5},
            "C13": {1},
            "D12": {1, 3, 4},
            "C12": {2, 4},
            "C03": {0, 3},
        }
        assert set(PARTITION_FACE) == set(expected)
        for tag, rhos in expected.items():
            units = [tuple(int(j == i) for j in range(6)) for i in PARTITION_FACE[tag]]
            cone = Cone.from_rays(6, units)
            img = {
                primitive_vector(mat_vec(COKERNEL_MATRIX, r)) for r in cone.rays
            }
            assert img == {QUOTIENT_RAYS[i] for i in rhos}, tag
