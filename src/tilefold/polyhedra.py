"""Exact rational polyhedral engine.

Cones carry both descriptions (extremal rays and facet normals) and the
ray-facet incidence between them.  Both constructors run one routine: the
double description (DD) method, once, over arbitrary-precision integers,
with each equation entered as a pair of opposite inequalities.  The DD
tracks the zero set of every ray it keeps, so the incidence of its distinct
rows with its output comes with the output; the constructor reads the other
description off it (Fukuda & Prodon, 1996) and keeps the incidence of the
result, with no inner product taken again.  A cone from generators is the
dual of the one their inequalities cut out, so it takes that result with
the two descriptions swapped.
Insertion order is lexicographic and every stored vector is canonical:
rays and facets are primitive and orthogonal to the lineality space or the
span equations, which are stored as HNF bases of their saturated lattices.
So equal cones produced along different routes compare equal and golden-file
tests are byte-stable.  Face lattices come from the kept incidence alone,
in one walk over the fewer of rays and facets, one dimension at a time,
with dimensions read off the cover relation rather than ranked face by
face.  The walk goes up to a group of ray permutations that the incidence
certifies, the trivial group when none is given; it returns one face per
orbit with the orbit's size.  A level holds the faces met on it, and the
first one met of each orbit claims the others by its images, an OR of one
packed integer per ray.
Face counts must satisfy the Euler relation.  Membership has a second,
independent route: an all-integer simplex, pivoting with one common
denominator (Edmonds' integer pivoting) by Dantzig's rule, and by Bland's
after a degenerate pivot, whose verdicts carry certificates.  A fan keeps
the cone of each maximal cone and checks itself: the fan axioms are checked
exactly, once, when a Fan is made, each pair of cones by a separating
functional that dot products re-check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .exactlat import (
    dot,
    integer_kernel,
    orthogonal_complement_projection,
    primitive_vector,
    rational_rank,
    scale_to_primitive_integer,
    smith_invariants,
)

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# double description core


def _dd_inequalities(dim: int, ineqs: list[Vec]) -> tuple[list[list], list[Vec]]:
    """Rays and lineality basis of {x in R^dim : a.x >= 0 for a in ineqs}.

    Incremental double description with the combinatorial adjacency test,
    all arithmetic over Z.  `ineqs` must already be in the fixed processing
    order.  Each ray comes as a pair [vector, zero set], the vector
    un-normalized (use _canonical_rays) and the zero set the bitmask of the inequalities tight at it, bit i for ineqs[i].
    The set is exact, as every step keeps it so: a projection along the
    lineality leaves the products with earlier inequalities unchanged up to a
    positive factor, and a positive combination of two rays is tight exactly
    where both are.
    """
    lineality: list[Vec] = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[list] = []  # entries [vector, zeroset bitmask over processed ineqs]

    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        vals_lin = [dot(a, l) for l in lineality]
        if any(vals_lin):
            j0 = next(j for j, v in enumerate(vals_lin) if v)
            l0 = lineality[j0]
            v0 = vals_lin[j0]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lin = []
            for j, l in enumerate(lineality):
                if j == j0:
                    continue
                w = vals_lin[j]
                if w:
                    l = primitive_vector(tuple(v0 * x - w * y for x, y in zip(l, l0)))
                new_lin.append(l)
            for entry in rays:
                w = dot(a, entry[0])
                if w:
                    entry[0] = primitive_vector(
                        tuple(v0 * x - w * y for x, y in zip(entry[0], l0))
                    )
                entry[1] |= bit  # every projected ray is tight for a
            # l0 becomes a ray; it is tight for every previously processed
            # inequality because it lived in the lineality space so far.
            rays.append([l0, bit - 1])
            lineality = new_lin
            continue

        pos = []
        zero = []
        neg = []
        for entry in rays:
            v = dot(a, entry[0])
            if v > 0:
                pos.append((entry, v))
            elif v < 0:
                neg.append((entry, v))
            else:
                zero.append(entry)
        if not neg:
            for entry in zero:
                entry[1] |= bit
            continue
        if not pos:
            # The inequality is an implicit equation on the current cone.
            for entry in zero:
                entry[1] |= bit
            rays = zero
            continue

        d_quot = dim - len(lineality)
        survivors = [entry for entry, _ in pos] + zero
        for entry in zero:
            entry[1] |= bit
        new_rays = []
        for entry_p, vp in pos:
            zp = entry_p[1]
            for entry_n, vn in neg:
                zmeet = zp & entry_n[1]
                if zmeet.bit_count() < d_quot - 2:
                    continue  # adjacency needs at least d-2 common tight ineqs
                adjacent = True
                for other in rays:
                    if other is entry_p or other is entry_n:
                        continue
                    if other[1] & zmeet == zmeet:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                comb = tuple(
                    vp * x - vn * y for x, y in zip(entry_n[0], entry_p[0])
                )
                new_rays.append([primitive_vector(comb), (zmeet | bit)])
        rays = survivors + new_rays

    return rays, lineality


def _canonical_rays(rays, lineality) -> tuple[tuple[Vec, ...], list[int]]:
    """Canonical ray representatives, sorted, each with the mask it came with.

    `rays` holds (vector, mask) pairs.  A representative is the primitive
    orthogonal-to-lineality part of its vector.  The masks are tight sets,
    which neither a positive scale nor a move along the lineality changes,
    so vectors with one representative carry one mask.
    """
    lin = [tuple(l) for l in lineality]
    out: dict[Vec, int] = {}
    for r, mask in rays:
        if lin:
            r = scale_to_primitive_integer(orthogonal_complement_projection(r, lin))
        else:
            r = primitive_vector(r)
        if any(r):
            out[tuple(r)] = mask
    order = sorted(out)
    return tuple(order), [out[r] for r in order]


def _saturated_kernel(dim: int, rows) -> tuple[Vec, ...]:
    """HNF basis of the saturated lattice Z^dim ∩ {x : r.x == 0 for r in rows}."""
    if not rows:
        return tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
    return tuple(integer_kernel(rows))


def _transpose(masks, width: int) -> list[int]:
    """Bit j of entry h of the result is bit h of masks[j], for h < width."""
    out = [0] * width
    for j, mask in enumerate(masks):
        bit = 1 << j
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


def _extremal(dim: int, vectors, tight, normals, normal_eqs):
    """Canonical (extremal rays, lineality, incidence) of the cone the vectors generate.

    The vectors are the rows of a DD run, and `normals` and `normal_eqs` the
    canonical rays and lineality it found: read the other way round, the
    facets and saturated equations of the cone the rows generate.
    `tight[i]` is the bitmask of the normals tight at vectors[i], bit k for
    normals[k], read off the DD's zero sets.  The lineality is the
    saturated kernel of normals and equations.  A vector spans an extremal
    ray exactly when its set of tight normals is maximal among the vectors'
    sets other than the full one, which only vectors in the lineality have
    (Fukuda & Prodon, 1996); that maximal set is the ray's entry of the
    incidence.  Which of the vectors with one mask stands for it never
    shows, as the ray is returned canonical.  The lineality is the cone's
    smallest face, spanned by the vectors lying in it, so when no vector has
    the full set it is zero and the kernel is not computed.
    """
    full = (1 << len(normals)) - 1
    first: dict[int, Vec] = {}  # tight-normal mask -> one vector with it
    in_lineality = False
    for v, mask in zip(vectors, tight):
        if mask != full:
            first.setdefault(mask, v)
        else:
            in_lineality = True
    lineality = _saturated_kernel(dim, list(normals) + list(normal_eqs)) if in_lineality else ()
    maximal: list[int] = []  # supersets sort first
    for m in sorted(first, key=int.bit_count, reverse=True):
        if all(m | kept != kept for kept in maximal):
            maximal.append(m)
    # Vectors with one maximal mask span one ray modulo the lineality.
    rays, incidence = _canonical_rays([(first[m], m) for m in maximal], lineality)
    return rays, lineality, tuple(incidence)


def _double_description(dim: int, inequalities, equations, noun: str):
    """(rays, lineality, facets, span equations, facet rays) of {x : a.x >= 0, e.x == 0}.

    The inputs must have length `dim` (ValueError naming `noun`, or
    "equation" for an equation, otherwise) and int entries: any other entry
    raises TypeError, from the gcd that makes each input primitive.  The DD
    runs once, over the distinct primitive nonzero rows in sorted order: the
    inequalities and each equation as the pair e, -e.  It gives the rays, the
    lineality (the saturated kernel of the rows) and, in its zero sets, each
    row's tight-ray set.  The span equations are the saturated annihilator of
    rays and lineality, and the facets are the rows whose tight-ray set is
    maximal among those short of all rays; entry h of the facet rays is the
    mask of the rays tight at facets[h], bit k for rays[k].
    """
    rows = set()
    for vectors, name, signs in ((inequalities, noun, (1,)), (equations, "equation", (1, -1))):
        for a in vectors:
            if len(a) != dim:
                raise ValueError(f"{name} has wrong length")
            a = primitive_vector(a)
            rows.update(tuple(s * x for x in a) for s in signs)
    rows = sorted(a for a in rows if any(a))
    found, lin = _dd_inequalities(dim, rows)
    lineality = _saturated_kernel(dim, rows) if lin else ()
    rays, zero_sets = _canonical_rays(found, lineality)
    tight = _transpose(zero_sets, len(rows))
    facets, span_eqs, facet_rays = _extremal(dim, rows, tight, rays, lineality)
    return rays, lineality, facets, span_eqs, facet_rays


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with dual (ray + facet) description.

    rays:      extremal ray generators, primitive, orthogonal to the
               lineality space, lex-sorted
    lineality: HNF basis of the integer points of the lineality space
    facets:    irredundant inward facet normals, canonical like rays
    equations: HNF basis of the integer points of the annihilator of the span
    incidence: entry j is the bitmask of the facets tight at rays[j], bit h
               for facets[h], as the constructors read it off their DD run

    Every field is canonical, so two cones are equal, with equal hashes,
    exactly when they are the same set, whatever route built them.
    """

    ambient_dim: int
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    facets: tuple[Vec, ...]
    equations: tuple[Vec, ...]
    incidence: tuple[int, ...] = field(repr=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rays(ambient_dim: int, generators) -> "Cone":
        """The cone the integer generators span: the dual of {x : g.x >= 0 for each g}."""
        generators = list(generators)
        if ambient_dim == 0 and generators:
            raise ValueError("ambient dimension 0 admits no generators")
        facets, equations, rays, lineality, incidence = _double_description(
            ambient_dim, generators, (), "generator"
        )
        return Cone(ambient_dim, rays, lineality, facets, equations, tuple(incidence))

    @staticmethod
    def from_inequalities(ambient_dim: int, inequalities, equations=()) -> "Cone":
        """{x : a.x >= 0, e.x == 0} for integer a and e, by one DD run."""
        rays, lineality, facets, span_eqs, facet_rays = _double_description(
            ambient_dim, inequalities, equations, "inequality"
        )
        incidence = tuple(_transpose(facet_rays, len(rays)))
        return Cone(ambient_dim, rays, lineality, facets, span_eqs, incidence)

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.equations)

    def is_pointed(self) -> bool:
        return not self.lineality

    def is_trivial(self) -> bool:
        return not self.rays and not self.lineality

    def contains(self, point) -> bool:
        """Exact membership of an integer point."""
        if len(point) != self.ambient_dim:
            raise ValueError("point has wrong length")
        return all(dot(e, point) == 0 for e in self.equations) and all(
            dot(n, point) >= 0 for n in self.facets
        )

    def contains_cone(self, other: "Cone") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for r in other.rays:
            if not self.contains(r):
                return False
        for l in other.lineality:
            if not (self.contains(l) and self.contains(tuple(-x for x in l))):
                return False
        return True

    def interior_point(self) -> Vec:
        """A point in the relative interior: the sum of the extremal rays.

        Valid for pointed cones and pure lineality spaces (where zero is
        interior); mixed cones would need a lineality offset and are
        rejected.
        """
        if self.rays and self.lineality:
            raise ValueError("interior point of a mixed non-pointed cone")
        acc = [0] * self.ambient_dim
        for r in self.rays:
            acc = [a + b for a, b in zip(acc, r)]
        return tuple(acc)


# ---------------------------------------------------------------------------
# cone operations


def dual_cone(c: Cone) -> Cone:
    """Swap the ray and facet descriptions and transpose the incidence; an exact involution."""
    incidence = tuple(_transpose(c.incidence, len(c.facets)))
    return Cone(c.ambient_dim, c.facets, c.equations, c.rays, c.lineality, incidence)


# ---------------------------------------------------------------------------
# face lattice enumeration


def _packed_images(images, mask: int) -> int:
    """The images of a ray mask under every permutation, packed one to a lane."""
    packed = 0
    while mask:
        low = mask & -mask
        packed |= images[low.bit_length() - 1]
        mask ^= low
    return packed


def _lanes(packed: int, count: int, words: int) -> list[int]:
    """The `count` lanes of `words` 64-bit words in `packed`, as ints."""
    view = memoryview(packed.to_bytes(8 * words * count, sys.byteorder)).cast("Q")
    lanes = view[::words].tolist()
    for k in range(1, words):
        lanes = [lane | word << 64 * k for lane, word in zip(lanes, view[k::words])]
    return lanes


def _ray_images(perms, facet_rays, nrays: int) -> tuple[list[int], int]:
    """Each ray's packed images under certified face-lattice automorphisms, and words per lane.

    Entry j packs the image of ray j under perms[i] into lane i, of as many
    64-bit words as the rays need, so a mask's images are the OR of the
    entries of its rays, and `_lanes` reads them back as ray masks.  Each
    permutation must be a bijection of range(nrays) sending the ray set of
    every facet (the masks in `facet_rays`) onto the ray set of a facet, and
    the set must be closed under composition; otherwise RuntimeError.  No
    permutations, no images.
    """
    words = max(1, -(-nrays // 64))
    if not perms:
        return [], words
    identity = list(range(nrays))
    for p in perms:
        if sorted(p) != identity:
            raise RuntimeError(f"ray permutation {p} is not a bijection of {nrays} rays")
    perm_set = set(perms)
    if any(tuple(p[i] for i in q) not in perm_set for p in perms for q in perms):
        raise RuntimeError("ray permutations are not closed under composition")
    width = 64 * words
    images = [sum(1 << (width * i + p[j]) for i, p in enumerate(perms)) for j in range(nrays)]
    facet_set = set(facet_rays)
    for f in facet_rays:
        if not facet_set.issuperset(_lanes(_packed_images(images, f), len(perms), words)):
            raise RuntimeError("a ray permutation does not map facets onto facets")
    return images, words


def face_lattice_raysets(c: Cone, ray_permutations=()) -> dict[int, tuple[int, int]]:
    """One face of a pointed cone per orbit, as {ray bitmask: (dimension, orbit size)}.

    Faces come from the cone's ray-facet incidence alone (Kaibel & Pfetsch,
    2002), walked one level at a time over the atoms, whichever of rays and
    facets is fewer.  Over rays the walk starts at the zero face and goes
    up; over facets it runs on the transposed incidence from the cone down,
    and after k levels the dimension is c.dim - k.  A face is held by its
    tight mask (its facets over rays, its rays over facets) and the mask of
    the atoms inside it.  Each atom j outside the face gives the join
    `tight & atoms[j]`; the maximal joins are the covers of the face, and a
    cover's atoms are the face's own and those that give its join.  The
    covers of one level's faces are the whole next level, and the walk's
    height is checked against the cone's dimension and the rank of the rays.

    `ray_permutations` is a group of permutations of the ray indices, each
    a tuple whose entry i is the index of the image of ray i.  Before the
    walk each one is certified as a bijection that maps the ray set of every
    facet onto the ray set of a facet, and the group as closed under
    composition; a group that passes acts on the face lattice by
    automorphisms, whatever code produced it, and any other input raises
    RuntimeError.  The walk works up to symmetry (Bremner, Dutour Sikirić &
    Schürmann, 2009) in two passes a level.  The first collects the covers
    met on the level, in the order met.  The second goes over them in that
    order: a face no other has claimed represents a new orbit and is walked
    on, its images claim the other faces of its orbit met on the level, and
    the orbit size is its number of distinct images.  The covers of g(F) are
    the images of the covers of F, so every face is still reached and each
    orbit is expanded once.  A level holds only the faces met on it, and
    only the representatives' images are packed, from one integer per ray.
    """
    if not c.is_pointed():
        raise ValueError("face enumeration requires a pointed cone")
    perms = [tuple(p) for p in ray_permutations]
    nrays, nfacets = len(c.rays), len(c.facets)
    all_facets_mask = (1 << nfacets) - 1
    if all_facets_mask in c.incidence:
        raise ValueError("cone is not pointed in incidence data")
    by_facets = nfacets < nrays
    facet_rays = _transpose(c.incidence, nfacets) if by_facets or perms else []
    images, words = _ray_images(perms, facet_rays, nrays)

    if by_facets:
        atoms = facet_rays
        start = (1 << nrays) - 1  # the cone: every ray, no facet
        faces = {start: (c.dim, 1)}
    else:
        atoms = c.incidence
        start = all_facets_mask  # the zero face: every facet, no ray
        faces = {0: (0, 1)}

    height = -1
    level = [(start, 0)]  # each orbit representative's tight mask and walked atoms
    while level:
        height += 1
        dim = c.dim - height - 1 if by_facets else height + 1
        single = (dim, 1)  # one tuple for all one-face orbits
        met: dict[int, tuple[int, int] | None] = {}  # next level's faces -> (tight, walked)
        for tight, inside in level:
            joins: dict[int, int] = {}  # join -> the atoms outside the face that give it
            for j, atom in enumerate(atoms):
                if not inside >> j & 1:
                    m = tight & atom
                    joins[m] = joins.get(m, 0) | 1 << j
            covers: list[int] = []  # maximal joins; supersets sort first
            for m in sorted(joins, key=int.bit_count, reverse=True):
                for kept in covers:
                    if m | kept == kept:
                        break  # m lies below a cover
                else:
                    covers.append(m)
            for m in covers:
                walked = inside | joins[m]
                met.setdefault(m if by_facets else walked, (m, walked))
        if images:  # the first face met of each orbit claims the others
            level = []
            for face, entry in met.items():
                if entry is not None:
                    orbit = set(_lanes(_packed_images(images, face), len(perms), words))
                    for image in orbit:
                        if image in met:
                            met[image] = None
                    faces[face] = single if len(orbit) == 1 else (dim, len(orbit))
                    level.append(entry)
        else:
            faces.update(dict.fromkeys(met, single))
            level = list(met.values())
    rank = rational_rank(c.rays) if c.rays else 0
    if not height == c.dim == rank:
        raise RuntimeError(
            f"face lattice height {height}, cone dimension {c.dim}, ray rank {rank}"
        )
    return faces


def face_lattice_fvector(c: Cone, ray_permutations=()) -> tuple[int, ...]:
    """Face counts by dimension 1..dim-1 (rays through facets): orbit sizes summed.

    RuntimeError unless the cone is the one face of its dimension and, for a
    cone of dimension 1 or more, the face counts from the zero face up to the
    cone satisfy the Euler relation (their alternating sum is 0).  Both are
    necessary conditions on the incidence, not a proof that the facet list
    is complete: a dropped facet can still pass them.
    """
    top_dim = c.dim
    counts = [0] * (top_dim + 1)
    for d, size in face_lattice_raysets(c, ray_permutations).values():
        counts[d] += size
    if counts[top_dim] != 1:
        raise RuntimeError(f"{counts[top_dim]} faces of full dimension, expected the cone alone")
    if top_dim >= 1 and sum((-1) ** k * f for k, f in enumerate(counts)):
        raise RuntimeError(f"face counts {counts} by dimension break the Euler relation")
    return tuple(counts[1:top_dim])


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class Polytope:
    """Bounded polytope, stored as its homogenising cone.

    A vertex v is the primitive ray (d, d*v) of the cone, d > 0, and a facet
    (b, a1..an) reads b + a.x >= 0.  ValueError when the cone has a ray with
    d <= 0 or a lineality, which an unbounded polyhedron has.
    """

    ambient_dim: int
    cone: Cone

    def __post_init__(self):
        if self.cone.lineality or any(r[0] <= 0 for r in self.cone.rays):
            raise ValueError("unbounded polyhedron is not supported")

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{dim-1}); empty for a point."""
        return face_lattice_fvector(self.cone)

    def is_lattice_polytope(self) -> bool:
        # a primitive (d, d*v) with v integral has d = 1
        return all(r[0] == 1 for r in self.cone.rays)

    def lattice_vertices(self) -> tuple[Vec, ...]:
        """The vertices, sorted; ValueError unless each is a lattice point."""
        if not self.is_lattice_polytope():
            raise ValueError("a vertex of the polytope is not a lattice point")
        return tuple(r[1:] for r in self.cone.rays)


def convex_hull(points) -> Polytope:
    """Convex hull of integer points; works inside the affine span."""
    gens = [(1,) + tuple(p) for p in points]
    if not gens:
        raise ValueError("hull of no points")
    return Polytope(len(gens[0]) - 1, Cone.from_rays(len(gens[0]), gens))


def polytope_from_inequalities(ambient_dim: int, rows) -> Polytope | None:
    """{x : b + a.x >= 0 for (b, *a) in rows}, rows of ints; None when empty."""
    homog = list(rows) + [(1,) + (0,) * ambient_dim]
    cone = Cone.from_inequalities(ambient_dim + 1, homog)
    if cone.is_trivial():
        return None
    return Polytope(ambient_dim, cone)


# ---------------------------------------------------------------------------
# exact linear programming (membership oracle, kept independent of the DD)


def lp_in_cone(generators, point) -> bool:
    """Phase-1 simplex over Z: is point a nonnegative combination?

    Each integer generator and the point are divided once by the gcd of
    their entries, which changes neither the verdict nor the evidence; any
    other entry raises TypeError there.
    The pivots are Edmonds' integer pivoting, the Bareiss step of
    `exactlat.echelon`: every row, the objective row included, holds d
    times its true values, d the last pivot (1 at the start, and positive
    because the ratio test pivots only on positive entries).  Pivot p sets
    each other row to (p*row - f*pivot_row) // d, f its entry in the pivot
    column, and the division is exact.  As every row is scaled by the same
    d, reduced costs compare as they stand.  The column with the most
    negative reduced cost enters (Dantzig's rule; the least index among
    ties), except right after a degenerate pivot, one whose leaving row had
    right-hand side 0: then the first column with a negative reduced cost
    enters (Bland's rule).  Of the rows with the least ratio, compared by
    cross-multiplication, the one whose basic column has the least index
    leaves, as Bland's rule asks.  The pivots terminate: the objective
    never rises, so a cycle would be made of degenerate pivots only, and
    every pivot in it would follow Bland's rule, which never cycles.  A
    basis that comes back under the same rule raises RuntimeError all the
    same.  This is deliberately a second route, independent of
    facet computations, for Farkas-style cross checks.  The verdict carries
    exact evidence, re-checked before it is returned: True comes with the
    basic solution lambda >= 0, and sum (lambda_j d) g_j must equal d b over
    Z; False comes with the Farkas functional z read off the objective row
    (z_i = -s_i (d - obj[n+i]), s_i the sign that made row i's right-hand
    side nonnegative), and z.g >= 0 for every generator g and z.b < 0 must
    hold.  A failed check raises RuntimeError.
    """
    gens = [primitive_vector(g) for g in generators]
    b = primitive_vector(point)
    m = len(b)
    if any(len(g) != m for g in gens):
        raise ValueError("generator has wrong length")
    if not gens:
        return not any(b)
    n = len(gens)
    width = n + m  # structural then artificial columns; index width is the rhs
    signs = [-1 if x < 0 else 1 for x in b]
    # Constraint row i: sum_j lambda_j s_i g_j[i] + artificial_i = s_i b_i.
    tableau = []
    for i, s in enumerate(signs):
        row = [s * g[i] for g in gens] + [0] * m + [s * b[i]]
        row[n + i] = 1
        tableau.append(row)
    basis = list(range(n, width))
    # Objective row of min sum(artificials), updated by every pivot: minus
    # the column sums of the constraint rows, 0 on the artificial columns,
    # then the rhs (minus the objective value).
    obj = [-sum(row[j] for row in tableau) for j in range(n)] + [0] * m
    obj.append(-sum(row[width] for row in tableau))
    d = 1

    seen = set()  # (basis, rule) pairs; the pivots never return to one
    degenerate = False  # the last pivot left the objective value as it was
    while True:
        costs = obj[:width]
        least = min(costs)
        if least >= 0:
            break
        if degenerate:
            enter = next(j for j, v in enumerate(costs) if v < 0)
        else:
            enter = costs.index(least)
        state = (tuple(basis), degenerate)
        if state in seen:
            raise RuntimeError("simplex: a basis came back, so the pivots cycle")
        seen.add(state)
        if enter in basis:
            raise RuntimeError("simplex: a basic column has a nonzero reduced cost")
        leave = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                if leave is not None:
                    # sign of rhs_i / row_i - rhs_leave / row_leave in column enter
                    best = tableau[leave]
                    cross = row[width] * best[enter] - best[width] * row[enter]
                    if cross > 0 or cross == 0 and basis[i] > basis[leave]:
                        continue
                leave = i
        if leave is None:
            raise RuntimeError("simplex: the phase-1 objective is unbounded below")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        degenerate = pivot_row[width] == 0
        for row in tableau + [obj]:
            if row is not pivot_row:
                f = row[enter]
                row[:] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        d = p
        basis[leave] = enter

    if obj[width] == 0:
        # basic column j holds d in its row, so lambda_j d is that row's rhs
        lam = [0] * n
        for row, j in zip(tableau, basis):
            if j < n:
                lam[j] = row[width]
        combo = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(m)]
        if min(lam) < 0 or combo != [d * x for x in b]:
            raise RuntimeError("simplex: the membership certificate does not give the point")
        return True
    # z scaled by d, as the objective row is
    z = [-s * (d - obj[n + i]) for i, s in enumerate(signs)]
    if any(dot(z, g) < 0 for g in gens) or dot(z, b) >= 0:
        raise RuntimeError("simplex: the Farkas certificate does not separate the point")
    return False


# ---------------------------------------------------------------------------
# fans


@dataclass(frozen=True)
class Fan:
    """Fan given by a global primitive ray list and maximal cones.

    maximal_cones are frozensets of ray indices, and cones[i] is the cone
    of maximal_cones[i].  A Fan checks the fan axioms exactly when it is
    made, so a Fan that exists has passed them.
    """

    ambient_dim: int
    rays: tuple[Vec, ...]
    maximal_cones: tuple[frozenset[int], ...]
    cones: tuple[Cone, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        check_fan(self)


def make_fan(ambient_dim: int, rays, maximal_cones) -> Fan:
    """The fan of the given rays and maximal cones; ValueError unless it is one.

    Each maximal cone is built once, from its rays.  A ray entry or cone
    index that is not an int raises TypeError.
    """
    rays = tuple(tuple(r) for r in rays)
    for r in rays:
        if len(r) != ambient_dim:
            raise ValueError(f"fan ray {r} does not have length {ambient_dim}")
        if primitive_vector(r) != r or not any(r):
            raise ValueError("fan rays must be primitive and nonzero")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate fan ray")
    maximal = []
    for s in maximal_cones:
        s = frozenset(s)
        if not all(isinstance(i, int) for i in s):
            raise TypeError(f"cone indices {sorted(s)} must be ints")
        if any(i < 0 or i >= len(rays) for i in s):
            raise ValueError("cone index out of range")
        maximal.append(s)
    maximal = tuple(sorted(set(maximal), key=sorted))
    cones = tuple(Cone.from_rays(ambient_dim, [rays[i] for i in s]) for s in maximal)
    return Fan(ambient_dim, rays, maximal, cones)


def check_fan(fan: Fan) -> None:
    """Exact fan axioms, on the cones the fan keeps.

    Each cone is pointed and spanned by its listed rays, and none lies in
    another.  Two such cones s and t then meet in the common face spanned
    by their shared rays exactly when some functional h is positive on the
    rays only s has, zero on the shared rays and negative on the rays only
    t has (the Separation Lemma; Cox, Little & Schenck, Toric Varieties,
    Lemma 1.2.13).  Those h form the relative interior of the cone
    {h : h.r >= 0 on the rays of s, h.r <= 0 on the rays of t}, so the sum
    of its rays is such an h whenever there is one: one DD per pair finds
    it, and dot products check it.
    """
    for s, c in zip(fan.maximal_cones, fan.cones, strict=True):
        if c.lineality or c.rays != tuple(sorted(fan.rays[k] for k in s)):
            raise ValueError(f"cone {sorted(s)} is not pointed or has non-extremal generators")
    for i, s in enumerate(fan.maximal_cones):
        for t in fan.maximal_cones[i + 1 :]:
            if s <= t or t <= s:
                raise ValueError("maximal cone contained in another")
            rows = [fan.rays[k] for k in s] + [tuple(-x for x in fan.rays[k]) for k in t]
            separation = Cone.from_inequalities(fan.ambient_dim, rows)
            h = [sum(r[x] for r in separation.rays) for x in range(fan.ambient_dim)]
            if not (
                all(dot(h, fan.rays[k]) > 0 for k in s - t)
                and all(dot(h, fan.rays[k]) == 0 for k in s & t)
                and all(dot(h, fan.rays[k]) < 0 for k in t - s)
            ):
                raise ValueError(f"cones {sorted(s)} and {sorted(t)} do not meet in a common face")


def fan_face_index_sets(fan: Fan) -> dict[frozenset[int], int]:
    """All faces of all maximal cones, as global ray index sets with their dimensions."""
    index = {r: i for i, r in enumerate(fan.rays)}
    out: dict[frozenset[int], int] = {}
    for cone in fan.cones:
        # bit i of a face mask is cone.rays[i]; the cones are pointed, as
        # check_fan found every generator extremal
        for mask, (dim, _) in face_lattice_raysets(cone).items():
            out[frozenset(index[r] for i, r in enumerate(cone.rays) if mask >> i & 1)] = dim
    return out


def ray_masks(fan: Fan, cone: Cone) -> tuple[int, list[int]]:
    """Bit i set when fan ray i lies in the cone, and the same mask for each facet's hyperplane."""

    def mask(test) -> int:
        return sum(1 << i for i, r in enumerate(fan.rays) if test(r))

    return mask(cone.contains), [mask(lambda r: dot(n, r) == 0) for n in cone.facets]


def uncovered_cone(fan: Fan, cones) -> Cone | None:
    """The first of the cones that is not a union of faces of the fan, or None.

    Let k be the dimension of a cone c and U the k-faces of the fan whose
    rays lie in c.  Then c is the union of U exactly when U is not empty
    and each (k-1)-face of a member of U lies in two members or in a facet
    of c.  A generic segment in c from inside a member leaves the union of
    U only across a wall held by one member, which lies on the boundary
    of c; conversely, when c is covered, a wall off its boundary has a
    member on each side.  With c the whole space this is the wall rule
    for a complete fan.  The fan's faces are walked once for all cones.
    """
    faces = [(sum(1 << i for i in s), dim) for s, dim in fan_face_index_sets(fan).items()]
    for c in cones:
        inside, boundary = ray_masks(fan, c)
        members = [m for m, dim in faces if dim == c.dim and m & inside == m]
        walls = [w for w, dim in faces if dim == c.dim - 1 and all(w & z != w for z in boundary)]
        if not members or any(sum(w & m == w for m in members) == 1 for w in walls):
            return c
    return None


def is_complete_fan(fan: Fan) -> bool:
    """The fan covers its space: `uncovered_cone` on the whole space, built with no DD."""
    n = fan.ambient_dim
    units = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return uncovered_cone(fan, [Cone(n, (), units, (), (), ())]) is None


def fan_is_smooth(fan: Fan) -> bool:
    """Every maximal cone smooth: its rays are part of a lattice basis.

    That is, their Smith invariants are all 1 (Cox, Little & Schenck,
    Toric Varieties, Def. 1.2.16); the cone need not be full-dimensional.
    """
    return all(
        not s or smith_invariants([list(fan.rays[i]) for i in s]) == [1] * len(s)
        for s in fan.maximal_cones
    )


# ---------------------------------------------------------------------------
# fan text format (External Interface)


def fan_to_text(fan: Fan) -> str:
    lines = ["RAYS"]
    for r in fan.rays:
        lines.append(" ".join(str(x) for x in r))
    lines.append("CONES")
    for s in fan.maximal_cones:
        lines.append(" ".join(str(i) for i in sorted(s)))
    return "\n".join(lines) + "\n"
