"""Bimodule resolutions over the enveloping algebra, quasi-periodicity
detection and twist extraction: the data the functor sequence and the
suspension are read from.

Bimodules are modules over A^e stored by the nonzeros of their generator
actions (e_i (x) e_j, a (x) e_j and e_i (x) a) in a ``fields.SparseStack``,
and each projective cover is a direct sum of A e_i (x) e_j A built from the
nonzeros of A's own multiplication blocks, so neither a dense A^e nor a
dense generator action is ever formed.  Before a cover is built,
``BimoduleResolution.extend`` estimates what the step stores and forms and
stops with ``fields.ResourceBoundExceeded`` above ``fields.MEMORY_BOUND``."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import (
    Automorphism,
    AutomorphismError,
    BasicAlgebra,
    identity_automorphism,
    verify_automorphism,
)
from .fields import (
    ExactMatrix,
    LinearAlgebraError,
    check_memory,
    left_kernel,
    stack_cols,
    stack_rows,
)
from .modules import (
    Module,
    ModuleMorphism,
    bim_right_action,
    iso_test,
    opposite_regular,
    restrict_to_left_factor,
    top_multiplicities,
    twisted_bimodule,
    walk_words,
)
from .homology import syzygy


class UndecidedIsomorphismError(RuntimeError):
    """``is_inner`` over F_p with 2 <= p < #vertices would have to enumerate
    more than ENUMERATION_BOUND vectors to decide whether a twist is inner."""


ORDER_BOUND = 64           # twist orders (and period multiples) scanned
MAX_INNER_TESTS = 40       # monomial candidates tested by normalize_twist
ENUMERATION_BOUND = 1 << 16  # vectors is_inner may enumerate for small p


@dataclass
class BimoduleResolution:
    """Initial segment of the minimal projective bimodule resolution of A:
    terms P_1..P_n with differentials d_k: P_k -> P_{k-1} (d_1 = augmentation
    onto the regular bimodule) and the minimal syzygies."""

    algebra: BasicAlgebra
    regular: Module                     # A as a bimodule
    terms: list[Module]                 # P_1, P_2, ...
    differentials: list[ModuleMorphism]  # d_1: P_1 -> A, d_k: P_k -> P_{k-1}
    syzygies: list[Module]              # Omega^1, Omega^2, ...
    inclusions: list[ModuleMorphism]    # Omega^k -> P_k

    def extend(self, up_to: int) -> None:
        while len(self.syzygies) < up_to:
            prev = self.syzygies[-1] if self.syzygies else self.regular
            _check_cover_memory(prev, self.terms[-1].dim if self.terms else 0)
            k, inc, P, pi = syzygy(prev)
            if self.syzygies:
                d = ModuleMorphism(P, self.terms[-1],
                                   pi.matrix @ self.inclusions[-1].matrix)
            else:
                d = pi
            self.terms.append(P)
            self.differentials.append(d)
            self.syzygies.append(k)
            self.inclusions.append(inc)


def _check_cover_memory(m: Module, below: int) -> None:
    """Refuse the step that covers m by P -> m when what it stores and forms
    exceeds ``fields.MEMORY_BOUND``: the nonzeros of P's generator actions,
    two entries each (key and value), counted from A's factor blocks before
    P is built (``EnvelopingAlgebra.projective_nonzeros``), and the dense
    matrices of the step, all dim P wide or high: the cover map and one
    RREF of its size (dim P x dim m each), the kernel basis
    ((dim P - dim m) x dim P) and the differential into the previous term,
    of dimension ``below`` (0 for the first step)."""
    env = m.algebra
    copies = [pos for pos, _ in top_multiplicities(m)]
    size = sum(len(env.projective_rows(pos)) for pos in copies)
    stored = sum(env.projective_nonzeros(pos) for pos in copies)
    check_memory(env.field, 2 * stored + size * (m.dim + size + below),
                 f"the next bimodule cover (dimension {size}, {stored} "
                 f"stored nonzeros) and the dense matrices of its step")


def bimodule_resolution(algebra: BasicAlgebra) -> BimoduleResolution:
    regular = twisted_bimodule(algebra, identity_automorphism(algebra))
    return BimoduleResolution(algebra, regular, [], [], [], [])


@dataclass
class TwistWitness:
    automorphism: Automorphism
    iso: ModuleMorphism  # twisted bimodule -> the examined bimodule


def detect_twist(algebra: BasicAlgebra, m: Module) -> TwistWitness | None:
    """Decide whether a bimodule is a twisted copy of the regular bimodule.

    Finds a left-module isomorphism A -> M, reads off the unique linear map
    with g . a = sigma(a) . g on the generator, and accepts iff that map is
    an automorphism; the resulting bimodule isomorphism is verified.
    """
    if m.dim != algebra.dim:
        return None
    left = restrict_to_left_factor(m, algebra)
    reg = opposite_regular(algebra)
    phi = iso_test(reg, left)
    if phi is None:
        return None
    g = algebra.unit() @ phi.matrix  # image of 1: a free left generator of M
    # row j: the coordinates of g . b_j in the left basis g . b_k
    images = walk_words(g, [algebra.word(j) for j in range(algebra.dim)],
                        lambda y, x: y @ bim_right_action(m, algebra, x))
    sigma_matrix = stack_rows(algebra.field, images) @ phi.matrix.inv()
    if not sigma_matrix.is_invertible():
        # no free generator induces an invertible twist, so none does
        return None
    sigma = verify_automorphism(algebra, sigma_matrix)
    tw = twisted_bimodule(algebra, sigma)
    witness = ModuleMorphism(tw, m, phi.matrix)
    witness.verify()  # a bimodule map: it intertwines the A^e generators
    # pin the representative of smallest matrix order within the inner class
    sigma, witness = normalize_twist(algebra, sigma, witness)
    return TwistWitness(sigma, witness)


def is_inner(algebra: BasicAlgebra, rho: Automorphism):
    """A unit u with rho = conj_u (that is, rho(a) u = u a for all a), or
    None when rho is not inner.

    The conjugation equations cut out a linear space S.  Since
    A = span(e_i) + rad A, u is a unit iff none of its idempotent
    coordinates vanishes, so ``nowhere_zero`` on the image of S in those
    coordinates decides the question.
    """
    fld = algebra.field
    space = left_kernel(stack_cols(fld, [
        algebra.element_left_matrix(rho.matrix.row(g)) - algebra.right_mult[g]
        for g in algebra.generators]))
    coeffs = nowhere_zero(space.take_cols(algebra.idempotents))
    if coeffs is None:
        return None
    return ExactMatrix(fld, [coeffs]) @ space


def nowhere_zero(rows: ExactMatrix):
    """Coefficients c such that c . rows has no zero entry, or None when the
    row space V has no such vector.

    1. A coordinate that vanishes on all of V leaves none; otherwise the
       first row without a zero entry is taken as it is.
    2. When p = 0 or p >= n (n columns) the vector is built greedily: each
       vanishing coordinate in turn is fixed by adding t times a row that
       is nonzero there, with t in 1..n-1 avoiding the values that would
       zero a coordinate already fixed.  That row has a zero entry (step 1
       found no row without one), so at most n - 2 values are forbidden.
    3. For 2 <= p < n the problem is NP-hard in general (3-colouring reduces
       to nowhere-zero Z_3-tensions), so V is enumerated, as long as
       p^rank(V) <= ENUMERATION_BOUND; beyond that UndecidedIsomorphismError
       is raised.
    """
    fld = rows.field
    p = fld.characteristic
    a = rows.a
    n = rows.cols
    if rows.rows == 0 or (a == 0).all(axis=0).any():
        return None
    coeffs = [0] * rows.rows
    for k in range(rows.rows):
        if (a[k] != 0).all():
            coeffs[k] = 1
            return coeffs
    if p == 0 or p >= n:
        w = [fld.canon(0)] * n
        for j in range(n):
            if w[j] != 0:
                continue
            k = next(k for k in range(rows.rows) if a[k, j] != 0)
            row = [fld.canon(x) for x in a[k]]
            forbidden = {fld.canon(-w[i] * fld.inv(row[i]))
                         for i in range(n) if w[i] != 0 and row[i] != 0}
            t = next(t for t in range(1, n) if fld.canon(t) not in forbidden)
            coeffs[k] += t
            w = [fld.canon(w[i] + t * row[i]) for i in range(n)]
        return coeffs
    basis = list(rows.T.rref()[1])
    if p ** len(basis) > ENUMERATION_BOUND:
        raise UndecidedIsomorphismError(
            f"inner twist undecided: a nowhere-zero vector in a "
            f"{len(basis)}-dimensional space over F_{p} needs more than "
            f"{ENUMERATION_BOUND} vectors enumerated")
    for c in product(range(p), repeat=len(basis)):
        if ((np.array(c) @ a[basis]) % p).all():
            for k, ck in zip(basis, c):
                coeffs[k] = ck
            return coeffs
    return None


class _Scalars:
    """The arrow scalars of monomial candidates: F_p^* over F_p, and the
    units {-1, 1} of finite order over Q."""

    def __init__(self, p: int):
        self.p = p
        self.size = p - 1 if p else 2
        self.values = range(1, p) if p else (-1, 1)
        self.primes = []
        n, q = self.size, 2
        while q * q <= n:
            if n % q == 0:
                self.primes.append(q)
                while n % q == 0:
                    n //= q
            q += 1
        if n > 1:
            self.primes.append(n)
        self.generator = next(g for g in self.values
                              if self.order(g) == self.size)

    def power(self, x, k: int):
        return pow(x, k, self.p) if self.p else x ** k

    def product(self, x, y):
        return x * y % self.p if self.p else x * y

    def quotient(self, x, y):
        return x * pow(y, -1, self.p) % self.p if self.p else x * y

    def order(self, x) -> int:
        o = self.size
        for q in self.primes:
            while o % q == 0 and self.power(x, o // q) == 1:
                o //= q
        return o

    def roots(self, m: int) -> list:
        """The m elements x with x^m = 1, for m dividing the group order."""
        step = self.size // m
        return [self.power(self.generator, step * j) for j in range(m)]


def _orbits(mapping: list[int]) -> list[list[int]]:
    """The cycles of a permutation of range(len(mapping))."""
    seen, out = set(), []
    for start in range(len(mapping)):
        orbit, b = [], start
        while b not in seen:
            seen.add(b)
            orbit.append(b)
            b = mapping[b]
        if orbit:
            out.append(orbit)
    return out


def _scalings(perm: list[int], arrow_map: list[int], scalars: _Scalars,
              orders):
    """(order, arrow scalars) of the monomial automorphisms over perm and the
    arrow bijection arrow_map, by ascending order (taken from ``orders``),
    then ascending scalar tuple.

    The order is the lcm of the vertex-orbit lengths and, for each orbit of
    arrow_map of length l with scalar product mu, of l * ord(mu): a power of
    the automorphism is the identity exactly when it fixes the idempotents
    and the arrows.  A depth-first walk keeps a prefix only while some
    completion reaches the wanted order; an orbit whose last arrow is still
    free can reach any l * d with d dividing gcd(order / l, #scalars).
    """
    from math import gcd, lcm

    n = len(arrow_map)
    orbits = _orbits(arrow_map)
    orbit_of = {a: k for k, orbit in enumerate(orbits) for a in orbit}
    lengths = [len(orbit) for orbit in orbits]
    last = [max(orbit) for orbit in orbits]
    vertex_lcm = lcm(*map(len, _orbits(perm)))

    def walk(o):
        def reach(fixed, after):
            # the largest lcm the orbits still open after arrow ``after`` add
            for k, ell in enumerate(lengths):
                if last[k] > after:
                    if o % ell:
                        return 0
                    fixed = lcm(fixed, ell * gcd(o // ell, scalars.size))
            return fixed

        chosen, partial = [], [1] * len(lengths)

        def extend(a, fixed):
            if a == n:
                yield tuple(chosen)
                return
            k = orbit_of[a]
            before = partial[k]
            if a != last[k]:
                options = ((c, fixed) for c in scalars.values)
            else:
                options = []
                for mu in scalars.roots(gcd(o // lengths[k], scalars.size)):
                    f = lcm(fixed, lengths[k] * scalars.order(mu))
                    if reach(f, a) == o:
                        options.append((scalars.quotient(mu, before), f))
                options.sort()
            for c, f in options:
                chosen.append(c)
                partial[k] = scalars.product(before, c)
                yield from extend(a + 1, f)
                chosen.pop()
            partial[k] = before

        if o % vertex_lcm == 0 and reach(vertex_lcm, -1) == o:
            yield from extend(0, vertex_lcm)

    for o in orders:
        for s in walk(o):
            yield o, s


def monomial_twist_candidates(algebra: BasicAlgebra, perm: list[int],
                              below: int, limit: int, accept=None):
    """The first ``limit`` automorphisms of order below ``below`` that send
    e_i to e_{perm(i)} and each arrow to a scalar multiple of the unique
    parallel arrow over the permuted vertices, as (order, automorphism)
    pairs by ascending (order, arrow scalars).  The walk also stops at the
    first candidate for which ``accept`` is true, which ends the list.

    Only quivers with one-dimensional arrow spaces are handled, and orders
    above 64 are never listed.  Scalings are generated by order, without
    enumerating the others; each one is built and certified by
    verify_automorphism, and those that do not respect the relations are
    skipped.
    """
    q = algebra.quiver
    if q is None or algebra.basis_paths is None:
        return []
    arrow_map = []
    for a in q.arrows:
        hits = [k for k, b in enumerate(q.arrows)
                if b.source == perm[a.source] and b.target == perm[a.target]]
        if len(hits) != 1:
            return []
        arrow_map.append(hits[0])
    if len(set(arrow_map)) != len(arrow_map):
        # two arrows with one image arrow: every candidate matrix is singular
        return []
    fld = algebra.field
    arrow_basis_index = {}
    for idx, path in enumerate(algebra.basis_paths):
        if len(path) == 1 and not isinstance(path[0], tuple):
            arrow_basis_index[path[0]] = idx

    eye = ExactMatrix.identity(fld, algebra.dim)

    def build(scalars) -> ExactMatrix:
        rows = []
        for path in algebra.basis_paths:
            if isinstance(path[0], tuple):
                rows.append(eye.row(algebra.idempotents[perm[path[0][1]]]))
                continue
            acc = None
            for ai in path:
                img_idx = arrow_basis_index[arrow_map[ai]]
                vec = eye.row(img_idx).scale(scalars[ai])
                acc = vec if acc is None else algebra.multiply(acc, vec)
            rows.append(acc)
        return stack_rows(fld, rows)

    out = []
    stream = _scalings(perm, arrow_map, _Scalars(fld.characteristic),
                       range(1, min(below, 65)))
    for order, scalars in stream:
        if len(out) == limit:
            break
        try:
            cand = verify_automorphism(algebra, build(scalars))
        except AutomorphismError:
            continue
        out.append((order, cand))
        if accept is not None and accept(cand):
            break
    return out


def normalize_twist(algebra: BasicAlgebra, sigma: Automorphism,
                    witness: ModuleMorphism):
    """Replace the extracted twist by the representative of smallest matrix
    order within its inner class, when a monomial representative exists:
    among the first MAX_INNER_TESTS monomial candidates of order below
    sigma's, by ascending (order, arrow scalars), the first one that is
    inner-equivalent to sigma.

    Returns (sigma', witness') or the original pair.
    """
    perm = sigma.vertex_action()  # a permutation for any automorphism
    base_order = sigma.matrix_order(64) or 10 ** 9
    sigma_inv = sigma.inverse()
    found = []

    def inner_equivalent(cand: Automorphism) -> bool:
        u = is_inner(algebra, sigma_inv.compose(cand))
        if u is None:
            return False
        # new witness: x -> x u identifies the candidate twist with sigma's
        r_u = algebra.element_right_matrix(u)
        new_witness = ModuleMorphism(
            twisted_bimodule(algebra, cand), witness.target,
            r_u @ witness.matrix,
        )
        try:
            new_witness.verify()
        except LinearAlgebraError:
            return False
        if not new_witness.matrix.is_invertible():
            return False
        found.append((cand, new_witness))
        return True

    monomial_twist_candidates(algebra, perm, base_order, MAX_INNER_TESTS,
                              inner_equivalent)
    return found[0] if found else (sigma, witness)


@dataclass
class PeriodicityReport:
    quasi_period: int
    twist: Automorphism
    twist_order: int | None        # order of the automorphism matrix
    period: int | None             # minimal p with Omega^p(A) = A as bimodules
    witness: ModuleMorphism        # twisted bimodule -> Omega^{quasi_period}
    resolution: BimoduleResolution


def quasi_period_scan(algebra: BasicAlgebra,
                      max_n: int = 12) -> PeriodicityReport | None:
    """Smallest n with Omega^n(A) isomorphic to a twisted regular bimodule.

    twist_order is the order of the extracted automorphism matrix; the period
    is n times the least k for which the k-th twist power gives back the
    regular bimodule (scanned up to the same bound), which can be smaller
    than n * twist_order when some power is inner.
    """
    res = bimodule_resolution(algebra)
    for n in range(1, max_n + 1):
        res.extend(n)
        hit = detect_twist(algebra, res.syzygies[n - 1])
        if hit is None:
            continue
        sigma, witness = hit.automorphism, hit.iso
        order = sigma.matrix_order(ORDER_BOUND)
        period = None
        power = sigma
        for k in range(1, (order or ORDER_BOUND) + 1):
            if is_inner(algebra, power) is not None:
                period = n * k
                break
            power = power.compose(sigma)
        return PeriodicityReport(n, sigma, order, period, witness, res)
    return None
