import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

_cache = {}


def load_fixture(name):
    """Algebra + self-injectivity data for a fixture, computed once."""
    from nangulator.algebra import check_self_injective, compute_basis
    from nangulator.quiver import load_algebra_file

    if name not in _cache:
        desc = load_algebra_file(FIXTURES / f"{name}.json")
        algebra = compute_basis(desc)
        try:
            nakayama = check_self_injective(algebra)
        except Exception:
            nakayama = None
        _cache[name] = (algebra, nakayama)
    return _cache[name]


_pipeline_cache = {}


def load_pipeline(name):
    """(algebra, nakayama, engine, periodicity report), computed once."""
    from nangulator.homology import Homology
    from nangulator.periodicity import quasi_period_scan

    if name not in _pipeline_cache:
        algebra, nakayama = load_fixture(name)
        engine = Homology(algebra, nakayama)
        report = quasi_period_scan(algebra)
        _pipeline_cache[name] = (algebra, nakayama, engine, report)
    return _pipeline_cache[name]


_sequence_cache = {}


def load_sequence(name, m):
    """Functor sequence of total length m * quasi_period, computed once."""
    from nangulator.angulation import functor_sequence

    key = (name, m)
    if key not in _sequence_cache:
        algebra, nakayama, engine, report = load_pipeline(name)
        _sequence_cache[key] = functor_sequence(engine, report, m)
    return _sequence_cache[key]


_over = {}


def fixture_over(name, p):
    """The algebra of a fixture with its field replaced by F_p (Q for
    p = 0), computed once."""
    import json

    from nangulator.algebra import compute_basis
    from nangulator.quiver import parse_algebra

    key = (name, p)
    if key not in _over:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        doc["field"] = p
        _over[key] = compute_basis(parse_algebra(json.dumps(doc)))
    return _over[key]


def bimodule_projective_oracle(env, pos):
    """The dense generator actions of e A^e = A e_u (x) e_v A, e at
    position pos, by generator: a (x) b acts by the Kronecker product of
    A's left multiplication by a on A e_u and its right multiplication by b
    on e_v A, one product per generator.  The construction of
    ``modules.projective_module`` over A^e before bimodules were stored
    sparse, kept as an oracle."""
    A = env.base
    left, right = env.projective_factors(pos)
    action = {}
    for g in env.generators:
        i, j = divmod(g, A.dim)
        action[g] = A.left_mult(i).take_rows(left).take_cols(left).kron(
            A.right_mult[j].take_rows(right).take_cols(right))
    return action


def syzygies_up_to(algebra, n):
    """The minimal bimodule syzygies Omega^1 .. Omega^n of the algebra."""
    from nangulator.periodicity import bimodule_resolution

    res = bimodule_resolution(algebra)
    res.extend(n)
    return list(res.syzygies)


def padded(maps):
    """The chain 0 -> ... -> 0 around ``maps``: with these zero maps,
    rank_exactness also checks that the first map is mono and the last epi."""
    from nangulator.modules import zero_module, zero_morphism

    z = zero_module(maps[0].source.algebra)
    return ([zero_morphism(z, maps[0].source)] + list(maps)
            + [zero_morphism(maps[-1].target, z)])


def member_of_row_space(space, vec):
    """Whether the rows of vec lie in the row space of the RREF ``space``."""
    from nangulator.fields import reduce_rows_mod

    return reduce_rows_mod(space, vec).is_zero()


def stable_zero(engine, f):
    """Whether f factors through an injective."""
    return engine.factors_through_injective(f) is not None


def regular_module(algebra):
    """The algebra as a right module over itself."""
    from nangulator.modules import Module

    return Module(algebra, algebra.dim, algebra.right_mult)


def resolution_chain(res, length):
    """M -> I_0 -> ... -> I_{length-1} -> Omega^{-length} M as a list of maps."""
    return ([res.steps[0].include]
            + [res.map_between(k) for k in range(length - 1)]
            + [res.final_projection(length)])


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def disjoint_loops_text(p):
    """Three disjoint loops x_k with x_k^2 = 0 over F_p (Q for p = 0): a
    commutative algebra whose centre has the RREF basis e_1, e_2, e_3, x_1,
    x_2, x_3, none of them a unit."""
    import json

    return json.dumps({
        "field": p, "vertices": ["1", "2", "3"],
        "arrows": [{"name": f"x{k}", "from": str(k), "to": str(k)}
                   for k in (1, 2, 3)],
        "relations": [[{"coeff": 1, "path": [f"x{k}", f"x{k}"]}]
                      for k in (1, 2, 3)]})


def radical_indices(A):
    """The basis elements spanning rad A; over A^e, the b_k (x) b_l with b_k
    or b_l in the radical of the base algebra."""
    if not hasattr(A, "base"):
        return A.radical
    d, triv = A.base.dim, set(A.base.idempotents)
    return [k for k in range(A.dim) if k // d not in triv or k % d not in triv]


def dense_action(m, k, algebra=None, left=False):
    """The action matrix of basis element k on m: the product of the dense
    generator actions along the word of k.  With ``algebra`` the base of
    the enveloping algebra of a bimodule m, the one-sided action b_k (x) 1
    (``left``, the word read backwards) or 1 (x) b_k instead.  The product
    chain the modules formed and kept before their rows were walked along
    words, kept as an oracle for the walks."""
    from nangulator.modules import bim_left_action, bim_right_action

    if algebra is None or m.algebra is algebra:
        A = m.algebra
        acts = [m.stack.block(A.position[g]) for g in A.word(k)]
    elif left:
        acts = [bim_left_action(m, algebra, g) for g in algebra.word(k)[::-1]]
    else:
        acts = [bim_right_action(m, algebra, g) for g in algebra.word(k)]
    out = acts[0]
    for a in acts[1:]:
        out = out @ a
    return out


def fingerprint(m):
    """Iso-invariant fingerprint: per-idempotent dims, radical series, socle
    data and top multiplicities."""
    import numpy as np

    from nangulator.fields import (
        ExactMatrix,
        left_kernel,
        reduce_rows_mod,
        row_space,
        stack_rows,
    )

    A = m.algebra
    fld = A.field
    radical = radical_indices(A)
    vertices = range(len(A.idempotents))
    per_vertex = tuple(m.idempotent_image(pos).rows for pos in vertices)
    series = []
    rad_acts = [m.action[j] for j in radical]
    cur = row_space(stack_rows(fld, rad_acts)) \
        if radical else ExactMatrix.zeros(fld, 0, m.dim)
    while cur.rows:
        series.append(cur.rows)
        nxt = row_space(stack_rows(fld, [cur @ a for a in rad_acts]))
        if nxt.rows == cur.rows:
            break
        cur = nxt
    soc_stack = [m.action[g].a for g in A.radical_right_generators]
    if soc_stack:
        soc = left_kernel(ExactMatrix(fld, np.concatenate(soc_stack, axis=1)))
    else:
        soc = ExactMatrix.identity(fld, m.dim)
    soc_per_vertex = tuple(row_space(soc @ m.action[A.idempotents[pos]]).rows
                           for pos in vertices)
    top = ExactMatrix.identity(fld, m.dim)
    if radical:
        rad = row_space(stack_rows(fld, rad_acts))
        top = row_space(reduce_rows_mod(rad, top))
    top_per_vertex = tuple(
        row_space(top @ m.action[A.idempotents[pos]]).rows if top.rows else 0
        for pos in vertices)
    return (m.dim, per_vertex, tuple(series), soc.rows, soc_per_vertex,
            top_per_vertex)


def search_iso(m, n, seed=0xC0FFEE, draws=1000, exhaustive_bound=1 << 16):
    """An invertible intertwiner M -> N or None, by search: the hom basis,
    seeded random combinations, a fingerprint comparison, then every
    combination over a grid with more values per coefficient than the degree
    dim M of the determinant (the whole field over F_p).  Kept as an oracle
    for pairs with neither side projective nor semisimple, which
    ``iso_test`` does not decide."""
    import random
    from fractions import Fraction
    from itertools import product

    from nangulator.modules import hom_space, identity_morphism, random_hom

    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return identity_morphism(m)
    basis = hom_space(m, n)
    homs = list(basis)
    if not homs or len(homs) != len(hom_space(n, m)):
        return None
    for h in homs:
        if h.matrix.is_invertible():
            return h
    rng = random.Random(seed)
    for _ in range(draws):
        cand = random_hom(rng, basis)
        if cand.matrix.is_invertible():
            return cand
    if fingerprint(m) != fingerprint(n):
        return None
    p = m.algebra.field.characteristic
    grid = range(p) if p else [Fraction(c) for c in range(m.dim + 1)]
    assert len(grid) ** len(homs) <= exhaustive_bound, "search undecided"
    for coeffs in product(grid, repeat=len(homs)):
        cand = homs[0].scale(coeffs[0])
        for c, h in zip(coeffs[1:], homs[1:]):
            cand = cand + h.scale(c)
        if cand.matrix.is_invertible():
            return cand
    return None


def quotient_oracle(m, rows):
    """``modules.quotient`` by elimination: every unit vector reduced modulo
    the RREF space with ``reduce_rows_mod``, then lift . action . project.
    Kept as an oracle for the closed form."""
    from nangulator.fields import ExactMatrix, reduce_rows_mod, row_space
    from nangulator.modules import Module, ModuleMorphism

    space = row_space(rows)
    fld = m.algebra.field
    eye = ExactMatrix.identity(fld, m.dim)
    if space.rows == 0:
        q = Module(m.algebra, m.dim, m.action)
        return q, ModuleMorphism(m, q, eye), eye
    piv = set(space.rref()[1])
    keep = [j for j in range(m.dim) if j not in piv]
    reduced = reduce_rows_mod(space, eye)
    proj = reduced.take_cols(keep)
    lift = eye.take_rows(keep)
    action = {g: lift @ m.action[g] @ proj for g in m.algebra.generators}
    q = Module(m.algebra, len(keep), action)
    return q, ModuleMorphism(m, q, proj), lift


def tensor_module_oracle(m, b, algebra):
    """``modules.tensor_module`` rebuilt from scratch on every call: both
    factors' bases and coordinates per call, one relation row per pair
    (basis row of M e_u, basis row of e_w B) of each arrow u -> w, and
    ``quotient_oracle``.  Kept as an oracle for the cached, blockwise
    construction."""
    import numpy as np
    from fractions import Fraction

    from nangulator.fields import ExactMatrix, row_space, stack_rows
    from nangulator.modules import (Module, TensorData, _coords_in,
                                    bim_left_action, bim_right_action,
                                    right_action_over)

    def unit_vec(n, i):
        v = np.zeros(n, dtype=np.int64)
        if not fld.characteristic:
            v = v.astype(object)
            v[...] = Fraction(0)
            v[i] = Fraction(1)
        else:
            v[i] = 1
        return v

    fld = algebra.field
    n_vert = len(algebra.idempotents)
    m_is_bim = m.algebra is not algebra
    m_rows = [row_space(right_action_over(m, algebra, e))
              for e in algebra.idempotents]
    b_rows = [row_space(bim_left_action(b, algebra, e))
              for e in algebra.idempotents]
    offsets = [0]
    for v in range(n_vert):
        offsets.append(offsets[-1] + m_rows[v].rows * b_rows[v].rows)
    big_dim = offsets[-1]

    arrows = [g for g in algebra.generators if g not in algebra.idempotents]
    rel_rows = []
    for g in arrows:
        u = algebra.left_unit_of[g]
        w = algebra.right_unit_of[g]
        if m_rows[u].rows == 0 or b_rows[w].rows == 0:
            continue
        mg_c = _coords_in(m_rows[w], m_rows[u] @ right_action_over(m, algebra, g))
        gy_c = _coords_in(b_rows[u], b_rows[w] @ bim_left_action(b, algebra, g))
        for im in range(m_rows[u].rows):
            for ib in range(b_rows[w].rows):
                vec = _empty(fld, 1, big_dim)
                if m_rows[w].rows:
                    seg = np.outer(mg_c.a[im], unit_vec(b_rows[w].rows, ib))
                    seg = seg.reshape(-1)
                    vec[0, offsets[w]: offsets[w] + seg.shape[0]] = seg
                if b_rows[u].rows:
                    seg = np.outer(unit_vec(m_rows[u].rows, im), gy_c.a[ib])
                    seg = seg.reshape(-1)
                    vec[0, offsets[u]: offsets[u] + seg.shape[0]] = (
                        vec[0, offsets[u]: offsets[u] + seg.shape[0]] - seg)
                rel_rows.append(ExactMatrix(fld, vec))

    def big_matrix(per_vertex_blocks):
        big = _empty(fld, big_dim, big_dim)
        for v, blk in per_vertex_blocks:
            base = offsets[v]
            big[base: base + blk.shape[0], base: base + blk.shape[1]] = blk
        return ExactMatrix(fld, big)

    live = [v for v in range(n_vert) if m_rows[v].rows and b_rows[v].rows]
    big_action = {}
    if m_is_bim:
        for k in m.algebra.generators:
            i, j = divmod(k, algebra.dim)
            big_action[k] = big_matrix([(v, np.kron(
                _coords_in(m_rows[v], m_rows[v] @ bim_left_action(m, algebra, i)).a,
                _coords_in(b_rows[v], b_rows[v] @ bim_right_action(b, algebra, j)).a))
                for v in live])
    else:
        for g in algebra.generators:
            big_action[g] = big_matrix([(v, np.kron(
                ExactMatrix.identity(fld, m_rows[v].rows).a,
                _coords_in(b_rows[v], b_rows[v] @ bim_right_action(b, algebra, g)).a))
                for v in live])
    big_module = Module(m.algebra if m_is_bim else algebra, big_dim, big_action)
    rel = (stack_rows(fld, rel_rows) if rel_rows
           else ExactMatrix.zeros(fld, 0, big_dim))
    q, proj, lift = quotient_oracle(big_module, rel)
    return TensorData(q, algebra, m_rows, b_rows, offsets, proj.matrix, lift, m, b)


def tensor_morphism_left(td_src, td_dst, f):
    """Transport f: M -> M' to f (x) id_B between tensor quotients (the
    program's map before X^k(M) was evaluated directly), kept as an
    oracle."""
    from nangulator.fields import ExactMatrix
    from nangulator.modules import ModuleMorphism, _coords_in

    algebra = td_src.base
    fld = algebra.field
    big = _empty(fld, td_src.offsets[-1], td_dst.offsets[-1])
    for v in range(len(algebra.idempotents)):
        rm, rb = td_src.m_rows[v].rows, td_src.b_rows[v].rows
        if rm == 0 or rb == 0:
            continue
        fv_c = _coords_in(td_dst.m_rows[v], td_src.m_rows[v] @ f.matrix)
        bv_c = _coords_in(td_dst.b_rows[v], td_src.b_rows[v])
        block = np.kron(fv_c.a, bv_c.a)
        big[td_src.offsets[v]: td_src.offsets[v] + rm * rb,
            td_dst.offsets[v]: td_dst.offsets[v] + block.shape[1]] = block
    mat = td_src.lift @ ExactMatrix(fld, big) @ td_dst.project
    return ModuleMorphism(td_src.module, td_dst.module, mat)


def tensor_morphism_right(td_src, td_dst, d):
    """Transport a bimodule map d: B -> B' to id_M (x) d between tensor
    quotients, kept as an oracle."""
    from nangulator.fields import ExactMatrix
    from nangulator.modules import ModuleMorphism, _coords_in

    algebra = td_src.base
    fld = algebra.field
    big = _empty(fld, td_src.offsets[-1], td_dst.offsets[-1])
    for v in range(len(algebra.idempotents)):
        rm, rb = td_src.m_rows[v].rows, td_src.b_rows[v].rows
        if rm == 0 or rb == 0:
            continue
        dv_c = _coords_in(td_dst.b_rows[v], td_src.b_rows[v] @ d.matrix)
        mv_c = _coords_in(td_dst.m_rows[v], td_src.m_rows[v])
        block = np.kron(mv_c.a, dv_c.a)
        big[td_src.offsets[v]: td_src.offsets[v] + rm * rb,
            td_dst.offsets[v]: td_dst.offsets[v] + block.shape[1]] = block
    mat = td_src.lift @ ExactMatrix(fld, big) @ td_dst.project
    return ModuleMorphism(td_src.module, td_dst.module, mat)


def unit_into_tensor(td):
    """The canonical map M -> M (x)_A B for B a twist model of the regular
    bimodule: m e_v maps to (m e_v) (x) e_v.  Kept as an oracle."""
    from nangulator.fields import ExactMatrix
    from nangulator.modules import ModuleMorphism, _coords_in, right_action_over

    algebra = td.base
    fld = algebra.field
    m = td.source
    big = _empty(fld, m.dim, td.offsets[-1])
    for v in range(len(algebra.idempotents)):
        rm, rb = td.m_rows[v].rows, td.b_rows[v].rows
        if rm == 0 or rb == 0:
            continue
        ev = _empty(fld, 1, td.b_rows[v].cols)
        ev[0, algebra.idempotents[v]] = fld.canon(1)
        ev_c = _coords_in(td.b_rows[v], ExactMatrix(fld, ev))
        me = right_action_over(m, algebra, algebra.idempotents[v])
        coords = _coords_in(td.m_rows[v], me)  # row i = coords of e_i . e_v
        for i in range(m.dim):
            row = np.outer(coords.a[i], ev_c.a[0]).reshape(-1)
            big[i, td.offsets[v]: td.offsets[v] + rm * rb] += row
    mat = ExactMatrix(fld, big) @ td.project
    return ModuleMorphism(m, td.module, mat)


def multiply_out_of_tensor(td, target):
    """The multiplication map M (x)_A B -> target for B a right-twist model
    of the regular bimodule and target the matching right twist of M: the
    class of m (x) y maps to m . y (plain action of y on m).  Kept as an
    oracle."""
    from nangulator.fields import ExactMatrix
    from nangulator.modules import ModuleMorphism

    algebra = td.base
    fld = algebra.field
    m = td.source
    big = _empty(fld, td.offsets[-1], m.dim)
    for v in range(len(algebra.idempotents)):
        rm, rb = td.m_rows[v].rows, td.b_rows[v].rows
        if rm == 0 or rb == 0:
            continue
        for ib in range(rb):
            y = td.b_rows[v].a[ib]
            img = _empty(fld, rm, m.dim)
            for j in np.nonzero(y)[0]:
                img = img + y[j] * (td.m_rows[v] @ dense_action(m, j, algebra)).a
            big[td.offsets[v] + ib: td.offsets[v] + rm * rb: rb] = img
    mat = td.lift @ ExactMatrix(fld, big)
    return ModuleMorphism(td.module, target, mat)


def left_twist(m, tau):
    """Substitution model of the tau-twisted regular bimodule tensored on the
    left of a bimodule m: the generator u (x) v acts as the original
    tau^{-1}(u) (x) v.  Morphism matrices are unchanged.  The program keeps
    (Q, tau) and never builds this bimodule; kept as an oracle."""
    from nangulator.modules import _substituted, _terms

    A = tau.algebra
    assert m.algebra is A.enveloping()
    inv = tau.inverse().matrix.a
    d = A.dim

    def terms(g):
        i, j = divmod(g, d)
        return [(s * d + j, c) for s, c in _terms(inv[i])]
    return _substituted(m, terms)


def bimodule_chain(seq):
    """The bimodule maps a functor sequence is read from, as module maps:
    regular bimodule -> B_1 -> ... -> B_N -> A right-twisted by
    ``seq.end_twist``, with B_k = left_twist(Q_k, tau_k) for (Q_k, tau_k) in
    ``seq.covers`` and the sequence's unit, connecting and counit matrices.
    Built once per sequence object and kept on it."""
    from nangulator.algebra import identity_automorphism
    from nangulator.modules import ModuleMorphism, twisted_bimodule

    chain = vars(seq).get("_oracle_chain")
    if chain is None:
        A = seq.algebra
        mods = ([twisted_bimodule(A, identity_automorphism(A))]
                + [left_twist(q, tau) for q, tau in seq.covers]
                + [twisted_bimodule(A, seq.end_twist)])
        mats = [seq.unit_matrix] + seq.connecting + [seq.counit_matrix]
        chain = seq._oracle_chain = [
            ModuleMorphism(src, dst, mat)
            for src, dst, mat in zip(mods, mods[1:], mats)]
    return chain


def evaluate_oracle(seq, m):
    """The functor sequence at m as tensor quotients: each X^k(M) is
    ``tensor_module_oracle(M, B_k)``, the unit goes through M (x)_A A and
    the counit through M (x)_A (twisted end), with the bimodule maps of
    ``bimodule_chain``.  The program's evaluation before X^k(M) was built
    directly, kept as an oracle; the value carries the quotients under
    "tensors"."""
    A = seq.algebra
    unit_map, *connecting, counit_map = bimodule_chain(seq)
    tds = [tensor_module_oracle(m, f.source, A)
           for f in connecting + [counit_map]]
    maps = [tensor_morphism_right(tds[k], tds[k + 1], d)
            for k, d in enumerate(connecting)]
    td_reg = tensor_module_oracle(m, unit_map.source, A)
    unit = unit_into_tensor(td_reg).then(
        tensor_morphism_right(td_reg, tds[0], unit_map))
    td_end = tensor_module_oracle(m, counit_map.target, A)
    sus = seq.suspension.apply(m)
    counit = tensor_morphism_right(tds[-1], td_end, counit_map).then(
        multiply_out_of_tensor(td_end, sus))
    return {"terms": [td.module for td in tds], "maps": maps, "unit": unit,
            "counit": counit, "suspended": sus, "module": m, "tensors": tds}


def oracle_sequence(seq):
    """A copy of seq whose ``evaluate`` is ``evaluate_oracle`` (kept per
    module content): the angles and certificates it gives are those of the
    tensor-quotient model."""
    from dataclasses import replace

    old = replace(seq)
    values = {}

    def evaluate(m):
        key = m.digest()
        if key not in values:
            values[key] = evaluate_oracle(old, m)
        return values[key]

    old.evaluate = evaluate
    return old


def quotient_to_direct(td, cover, tau, term):
    """The canonical map from the quotient td = M (x)_A B, with
    B = left_twist(Q, tau) for a ``proj`` bimodule Q, to the direct
    X(M) = (+)_t M'e_{u_t} (x) e_{v_t}A, M' = right_twist(M, tau): the class
    of m (x) (x (x) y) goes to (m . x) (x) y, the action of M', with m . x
    written in the basis M'.idempotent_image(u_t) by solve_left.

    Returns (phi, big): big is the same map on the space before the
    quotient, so it is well defined iff td.project @ phi == big."""
    from nangulator.fields import ExactMatrix, solve_left
    from nangulator.modules import ModuleMorphism, right_twist

    A = td.base
    fld = A.field
    env = cover.algebra
    twisted = right_twist(td.source, tau)
    pieces = []              # (offset in Q, left basis, right basis, bases)
    off = 0
    for pos in cover.proj:
        left, right = env.projective_factors(pos)
        pieces.append((off, left, right,
                       twisted.idempotent_image(pos // len(A.idempotents))))
        off += len(left) * len(right)
    big = _empty(fld, td.offsets[-1], term.dim)
    row = 0
    for v in range(len(A.idempotents)):
        ms, bs = td.m_rows[v], td.b_rows[v]
        if ms.rows == 0 or bs.rows == 0:
            continue
        col = 0
        blocks = []
        for q_off, left, right, basis in pieces:
            block = np.zeros((ms.rows, bs.rows, basis.rows, len(right)),
                             dtype=object)
            for a, x in enumerate(left):
                coeffs = bs.a[:, q_off + a * len(right): q_off + (a + 1) * len(right)]
                if not (coeffs != 0).any():
                    continue
                moved = solve_left(basis, ms @ dense_action(twisted, x))
                assert moved is not None
                block = block + np.einsum("ik,jb->ijkb", moved.a.astype(object),
                                          coeffs.astype(object))
            blocks.append(block.reshape(ms.rows * bs.rows, -1))
            col += basis.rows * len(right)
        assert col == term.dim
        big[row: row + ms.rows * bs.rows] = np.concatenate(blocks, axis=1)
        row += ms.rows * bs.rows
    big = ExactMatrix(fld, big)
    return ModuleMorphism(td.module, term, td.lift @ big), big


def nakayama_text(n, s, p):
    """kQ_n/I_s over F_p (Q for p = 0): the n-cycle a_k: k -> k+1 with every
    path of length s zero."""
    import json

    arrows = [{"name": f"a{k + 1}", "from": str(k + 1),
               "to": str((k + 1) % n + 1)} for k in range(n)]
    relations = [[{"coeff": 1,
                   "path": [f"a{(k + t) % n + 1}" for t in range(s)]}]
                 for k in range(n)]
    return json.dumps({"field": p, "vertices": [str(k + 1) for k in range(n)],
                       "arrows": arrows, "relations": relations})


def dense_blocks(big, count):
    """The ``count`` blocks of equal height of the dense row stack ``big``,
    top to bottom."""
    size = big.rows // count if count else 0
    return [big.take_rows(range(i * size, (i + 1) * size)) for i in range(count)]


def first_unequal_block_oracle(x, y, count):
    """The index of the first of the ``count`` blocks in which two dense row
    stacks of one shape differ, block by block, or None."""
    return next((i for i, (a, b) in enumerate(zip(dense_blocks(x, count),
                                                   dense_blocks(y, count)))
                 if a != b), None)


def preprojective_text(kind, n, p):
    """The preprojective algebra of the Dynkin quiver A_n or D_n (``kind``
    "A" or "D") over F_p: the double of a tree with edges i -> j, with arrow
    a_k along edge k and a_ks back, and at each vertex v the relation
    sum a a* over the edges leaving v minus sum a* a over those entering.
    Pi(A3) is ``fixtures/preproj_a3.json``; dim Pi(A4) = 20, Pi(D4) = 28."""
    import json

    edges = [(k, k + 1) for k in range(1, n - 1 if kind == "D" else n)]
    if kind == "D":
        edges.append((n - 2, n))
    arrows, relations = [], []
    for k, (i, j) in enumerate(edges, 1):
        arrows += [{"name": f"a{k}", "from": str(i), "to": str(j)},
                   {"name": f"a{k}s", "from": str(j), "to": str(i)}]
    for v in range(1, n + 1):
        relations.append(
            [{"coeff": 1, "path": [f"a{k}", f"a{k}s"]}
             for k, (i, _) in enumerate(edges, 1) if i == v]
            + [{"coeff": -1, "path": [f"a{k}s", f"a{k}"]}
               for k, (_, j) in enumerate(edges, 1) if j == v])
    return json.dumps({"field": p, "vertices": [str(v) for v in range(1, n + 1)],
                       "arrows": arrows, "relations": relations})


def dense_enveloping(A):
    """A^e = A^op (x) A as a dense BasicAlgebra: one d^2 x d^2 right
    multiplication matrix kron(L_k, R_l) per basis pair (k, l), with
    (a (x) b)(a' (x) b') = (a'a) (x) (bb'), and the words of
    ``EnvelopingAlgebra.word``.  The construction the program
    used before it kept A^e as index bookkeeping, kept as an oracle."""
    import numpy as np

    from nangulator.algebra import BasicAlgebra
    from nangulator.fields import ExactMatrix

    d = A.dim
    pairs = [(i, j) for i in range(d) for j in range(d)]
    right = [ExactMatrix(A.field, np.kron(A.left_mult(k).a, A.right_mult[l].a))
             for (k, l) in pairs]
    idem_pairs = [(i, j) for i in A.idempotents for j in A.idempotents]
    idem = [i * d + j for (i, j) in idem_pairs]
    idem_pos = {pr: t for t, pr in enumerate(idem_pairs)}
    lu, ru = [], []
    for (i, j) in pairs:
        # (e_u (x) e_v) . (b_i (x) b_j) = (b_i e_u) (x) (e_v b_j)
        u = A.idempotents[A.right_unit_of[i]]
        v = A.idempotents[A.left_unit_of[j]]
        lu.append(idem_pos[(u, v)])
        u2 = A.idempotents[A.left_unit_of[i]]
        v2 = A.idempotents[A.right_unit_of[j]]
        ru.append(idem_pos[(u2, v2)])
    triv = set(A.idempotents)
    rad = [i * d + j for (i, j) in pairs if i not in triv or j not in triv]
    arrows = [g for g in A.generators if g not in triv]
    rad_gens = [a * d + e for a in arrows for e in A.idempotents]
    rad_gens += [e * d + a for e in A.idempotents for a in arrows]
    env = A.enveloping()
    return BasicAlgebra(
        field=A.field,
        labels=[f"{A.labels[i]}(x){A.labels[j]}" for i, j in pairs],
        right_mult=right,
        idempotents=idem,
        left_unit_of=lu,
        right_unit_of=ru,
        radical=rad,
        radical_right_generators=rad_gens,
        generators=idem + rad_gens,
        name=f"{A.name}^e",
        words=[env.word(k) for k in range(d * d)],
    )


def associativity_oracle(A):
    """Raise SemanticError unless (b_i b_j) b_k = b_i (b_j b_k) on every
    basis triple, read off the right multiplication matrices alone: for
    each j and every k at once, (x b_j) b_k has matrix R_j R_k and
    x (b_j b_k) has matrix sum_t (b_j b_k)_t R_t.  The exhaustive check the
    program made before it checked at generators."""
    from nangulator.fields import stack_cols, stack_rows
    from nangulator.quiver import SemanticError

    d, fld = A.dim, A.field
    cols = stack_cols(fld, A.right_mult)      # [R_0 | ... | R_{d-1}]
    flat = stack_rows(fld, [m.reshape(1, d * d) for m in A.right_mult])
    for j in range(d):
        lhs = (A.right_mult[j] @ cols).a.reshape(d, d, d)    # [x, k, c]
        left = stack_rows(fld, [m.row(j) for m in A.right_mult])
        rhs = (left @ flat).a.reshape(d, d, d)                # [k, x, c]
        bad = (lhs.transpose(1, 0, 2) != rhs).any(axis=(1, 2))
        if bad.any():
            raise SemanticError(
                f"associativity fails at pair ({j}, {int(bad.argmax())})")


def automorphism_oracle(A, matrix) -> bool:
    """Whether a matrix (row i the image of b_i) is an invertible, unital
    map with sigma(b_i b_j) = sigma(b_i) sigma(b_j) on every basis pair:
    for each i and every j at once, sigma(b_i b_j) is row j of L_i sigma
    and sigma(b_i) sigma(b_j) row j of sigma L(sigma(b_i)), L(y) the left
    multiplication by y.  The all-pairs check the program made before it
    checked at generators."""
    from nangulator.fields import stack_cols

    d = A.dim
    if not matrix.is_invertible() or A.unit() @ matrix != A.unit():
        return False
    cols = stack_cols(A.field, A.right_mult)   # row y: L(y) flattened
    images = matrix @ cols
    return all(cols.row(i).reshape(d, d) @ matrix
               == matrix @ images.row(i).reshape(d, d) for i in range(d))


def nilpotency_oracle(A, bound=32):
    """The least k with rad^k = 0, each power the product of the last with
    every radical basis element; NotFiniteDimensionalError as the program
    raises it.  The loop the program ran before it multiplied by the
    arrows only."""
    from nangulator.algebra import NotFiniteDimensionalError
    from nangulator.fields import ExactMatrix, row_space, stack_rows

    if not A.radical:
        return 1
    cur = row_space(ExactMatrix.identity(A.field, A.dim).take_rows(A.radical))
    for k in range(1, bound + 2):
        if cur.rows == 0:
            return k
        nxt = row_space(stack_rows(A.field,
                                   [cur @ A.right_mult[j] for j in A.radical]))
        if nxt.rows == cur.rows:
            raise NotFiniteDimensionalError("arrow ideal is not nilpotent")
        cur = nxt
    raise NotFiniteDimensionalError(f"no nilpotency certificate up to {bound}")


def verify_module_axioms(m, exhaustive=True):
    """Raise LinearAlgebraError unless the idempotents of m's algebra act
    with sum the identity and every pair of basis elements (or of
    generators) acts as its product does, read off the dense structure
    constants (``dense_enveloping`` for a bimodule)."""
    from functools import cache

    from nangulator.fields import ExactMatrix, LinearAlgebraError

    A = m.algebra
    dense = dense_enveloping(A.base) if hasattr(A, "base") else A

    act = cache(lambda k: m.action[k])

    def acting(coords):
        acc = ExactMatrix.zeros(A.field, m.dim, m.dim)
        for k, c in enumerate(coords):
            if c != 0:
                acc = acc + act(k).scale(c)
        return acc

    unit = [1 if k in A.idempotents else 0 for k in range(A.dim)]
    if acting(unit) != ExactMatrix.identity(A.field, m.dim):
        raise LinearAlgebraError("unit does not act as identity")
    idx = range(A.dim) if exhaustive else A.generators
    for i in idx:
        for j in idx:
            if act(i) @ act(j) != acting(dense.right_mult[j].a[i]):
                raise LinearAlgebraError(f"action violates product at ({i}, {j})")


def hom_space_oracle(p, n):
    """The basis of Hom(P, N) for a ``proj`` module P, one basis element at
    a time: the generator of summand t goes to row r of N e_{c_t}, the other
    generators to zero, each map by its own ``map_from_generators`` walk.
    The loop ``hom_space`` ran before it kept vertex blocks, kept as an
    oracle."""
    from nangulator.modules import map_from_generators

    if p.dim == 0 or n.dim == 0:
        return []
    out = []
    for t, pos in enumerate(p.proj):
        target_rows = n.idempotent_image(pos)
        for r in range(target_rows.rows):
            images = [None] * len(p.proj)
            images[t] = target_rows.take_rows([r])
            out.append(map_from_generators(p, n, images))
    return out


def hom_generic_oracle(m, n):
    """The canonical RREF basis of Hom(M, N) for any M: the maps X with
    a_M X = X a_N for every generator a, read off the images of the unit
    matrices E_ij one at a time rather than a Kronecker system."""
    from nangulator.fields import ExactMatrix, left_kernel
    from nangulator.modules import ModuleMorphism

    A = m.algebra
    if m.dim == 0 or n.dim == 0:
        return []
    acts = [(m.action[g].a, n.action[g].a) for g in A.generators]
    unit_m, unit_n = np.eye(m.dim, dtype=np.int64), np.eye(n.dim, dtype=np.int64)
    rows = [np.concatenate([(np.outer(am[:, i], unit_n[j])
                             - np.outer(unit_m[i], an[j])).reshape(-1)
                            for am, an in acts])
            for i in range(m.dim) for j in range(n.dim)]
    null = left_kernel(ExactMatrix(A.field, np.stack(rows)))
    return [ModuleMorphism(m, n, ExactMatrix(A.field, row.reshape(m.dim, n.dim)))
            for row in null.a]


def hom_oracle(engine, p, n):
    """A basis of Hom(P, N) for a projective P without ``modules``' hom
    code: the generator images of a ``proj`` module, transported to
    pi^-1 . h along the cover for any other projective."""
    from nangulator.modules import ModuleMorphism

    if p.dim == 0 or n.dim == 0:
        return []
    P, pi, pi_inv = engine.proj_structure(p)
    homs = hom_space_oracle(P, n)
    if pi is None:
        return homs
    return [ModuleMorphism(p, n, pi_inv @ h.matrix) for h in homs]


def span_system_oracle(fld, bases, equations):
    """The system of maps X_j in the spans of ``bases`` (lists of
    morphisms) under ``equations`` (terms, D), sum L . X_j . R = D over the
    terms (j, L, R), L or R None for an identity: one expanded row per basis
    morphism, with the entries of its own terms summed, every equation
    flattened on all rows; returned with the row of the D.  The body of
    ``Homology.stable_inverse`` before it used one builder, kept as an
    oracle."""
    from nangulator.fields import ExactMatrix

    def side(mat, lft, rgt):
        mat = mat if lft is None else lft @ mat
        return mat if rgt is None else mat @ rgt

    rows = []
    for j, basis in enumerate(bases):
        for h in basis:
            parts = []
            for terms, rhs in equations:
                acc = ExactMatrix.zeros(fld, rhs.rows, rhs.cols)
                for jj, lft, rgt in terms:
                    if jj == j:
                        acc = acc + side(h.matrix, lft, rgt)
                parts.append(acc.a.reshape(-1))
            rows.append(np.concatenate(parts))
    width = sum(rhs.rows * rhs.cols for _, rhs in equations)
    big = ExactMatrix(fld, np.stack(rows)) if rows \
        else ExactMatrix.zeros(fld, 0, width)
    rhs = ExactMatrix(fld, np.concatenate(
        [rhs.a.reshape(-1) for _, rhs in equations])[None, :])
    return big, rhs


def combine_oracle(fld, bases, shapes, coeffs):
    """sum c_i h_i per basis, summed term by term (zero for no terms)."""
    from nangulator.fields import ExactMatrix

    out, i = [], 0
    for basis, (rows, cols) in zip(bases, shapes):
        acc = ExactMatrix.zeros(fld, rows, cols)
        for h in basis:
            if coeffs[i] != 0:
                acc = acc + h.matrix.scale(coeffs[i])
            i += 1
        out.append(acc)
    return out


def solve_in_spans_oracle(fld, bases, shapes, equations):
    """Matrices of maps in the spans of ``bases`` that solve ``equations``
    (``span_system_oracle``), or None: the ``solve_left`` solution of the
    expanded system, summed back term by term."""
    from nangulator.fields import solve_left

    big, rhs = span_system_oracle(fld, bases, equations)
    if not big.rows:
        return None if not rhs.is_zero() else combine_oracle(
            fld, bases, shapes, [])
    sol = solve_left(big, rhs)
    return None if sol is None else combine_oracle(fld, bases, shapes, sol.a[0])


def solve_in_span_oracle(fld, homs, src, dst, constraints):
    """An element of span(homs) subject to constraints (L, R, D, X),
    L . h . R = D, or None, solved on all rows (X unused)."""
    from nangulator.modules import ModuleMorphism

    sol = solve_in_spans_oracle(
        fld, [homs], [(src.dim, dst.dim)],
        [([(0, lft, rgt)], rhs) for lft, rgt, rhs, _ in constraints])
    return None if sol is None else ModuleMorphism(src, dst, sol[0])


def solve_from_projective_oracle(engine, p, n, constraints):
    """``Homology.solve_from_projective`` through ``hom_oracle`` and
    ``solve_in_span_oracle``."""
    return solve_in_span_oracle(engine.algebra.field, hom_oracle(engine, p, n),
                                p, n, constraints)


def stable_inverse_oracle(engine, f):
    """``Homology.stable_inverse`` on all rows, on the oracle hom bases: g
    with f g - iota_U s_U = 1_U and g f - iota_V s_V = 1_V."""
    from nangulator.fields import ExactMatrix
    from nangulator.modules import ModuleMorphism

    fld = engine.algebra.field
    U, V = f.source, f.target
    IU, iota_u = engine.injective_hull(U)
    IV, iota_v = engine.injective_hull(V)
    sol = solve_in_spans_oracle(
        fld, [hom_space_oracle(V, U) if V.proj is not None
              else hom_generic_oracle(V, U), hom_oracle(engine, IU, U),
              hom_oracle(engine, IV, V)],
        [(V.dim, U.dim), (IU.dim, U.dim), (IV.dim, V.dim)],
        [([(0, f.matrix, None), (1, -iota_u.matrix, None)],
          ExactMatrix.identity(fld, U.dim)),
         ([(0, None, f.matrix), (2, -iota_v.matrix, None)],
          ExactMatrix.identity(fld, V.dim))])
    return None if sol is None else ModuleMorphism(V, U, sol[0])


def commuting_square_oracle(engine, x, y, rng):
    """``axioms.sample_commuting_square`` on all rows, through
    ``hom_oracle``: the same draws from rng on the canonical basis of the
    left kernel of the expanded system f_1 phi2 - phi1 g_1 = 0."""
    from nangulator.fields import ExactMatrix, left_kernel

    fld = x.objects[0].algebra.field
    x0, x1, y0, y1 = x.objects[0], x.objects[1], y.objects[0], y.objects[1]
    bases = [hom_oracle(engine, x0, y0), hom_oracle(engine, x1, y1)]
    shapes = [(x0.dim, y0.dim), (x1.dim, y1.dim)]
    if not bases[0] and not bases[1]:
        return combine_oracle(fld, bases, shapes, [])
    big, _ = span_system_oracle(fld, bases, [(
        [(0, None, y.maps[0].matrix), (1, -x.maps[0].matrix, None)],
        ExactMatrix.zeros(fld, x0.dim, y1.dim))])
    space = left_kernel(big)
    scalars = [fld.random(rng) for _ in range(space.rows)]
    coeff = (ExactMatrix(fld, [scalars]) @ space).a[0]
    return combine_oracle(fld, bases, shapes, coeff)


def periodic_homotopy(x, y, targets, engine):
    """Solve the periodic homotopy equations h_i g_{i-1} + f_i h_{i+1} =
    target_i, where h_1: X_1 -> de-suspended Y_n, h_i: X_i -> Y_{i-1} for
    i >= 2, and h_{n+1} is the suspension of h_1 (same matrix).

    ``targets`` are matrices of maps X_i -> Y_i.  Returns the list of
    homotopy component matrices, or None if no periodic homotopy exists.
    Built on ``hom_oracle`` and the per-element expansion of
    ``span_system_oracle``, so it shares no code with the hom builder of
    the program."""
    fld = x.objects[0].algebra.field
    n = x.length
    bases, shapes, equations = [], [], []
    for i in range(n):
        src = x.objects[i]
        dst = x.suspension.unapply(y.objects[-1]) if i == 0 else y.objects[i - 1]
        bases.append(hom_oracle(engine, src, dst))
        shapes.append((src.dim, dst.dim))
    for i in range(n):
        # h_i then g_{i-1} (for i = 1 the matrix of g_n), and f_i then
        # h_{i+1}, wrapping around to the matrix of h_1
        g_prev = (y.maps[-1] if i == 0 else y.maps[i - 1]).matrix
        equations.append(([(i, None, g_prev), ((i + 1) % n, x.maps[i].matrix,
                                               None)], targets[i]))
    return solve_in_spans_oracle(fld, bases, shapes, equations)


def contractible_test(x, engine):
    """A periodic homotopy between the identity and zero, or None."""
    from nangulator.fields import ExactMatrix

    targets = [ExactMatrix.identity(x.objects[0].algebra.field, o.dim)
               for o in x.objects]
    return periodic_homotopy(x, x, targets, engine)


def tops_oracle(m):
    """``modules.top_multiplicities`` with M.rad spanned by every
    non-idempotent generator action: a (x) e_j and e_i (x) a over A^e.
    The radical ``_tops`` stacked before it used the one-sided actions,
    kept as an oracle."""
    from nangulator.fields import (
        ExactMatrix, reduce_rows_mod, row_space, stack_rows)

    A = m.algebra
    fld = A.field
    if m.dim == 0:
        return []
    arrows = [g for g in A.generators if g not in A.idempotents]
    rad = (row_space(stack_rows(fld, [m.action[g] for g in arrows]))
           if arrows else ExactMatrix.zeros(fld, 0, m.dim))
    out = []
    for pos in range(len(A.idempotents)):
        comp = row_space(m.action[A.idempotents[pos]])
        if comp.rows == 0:
            continue
        rad_comp = (row_space(rad @ m.action[A.idempotents[pos]]) if rad.rows
                    else ExactMatrix.zeros(fld, 0, m.dim))
        reduced = reduce_rows_mod(rad_comp, comp) if rad_comp.rows else comp
        lifts = row_space(reduced)
        out.extend((pos, lifts.take_rows([r])) for r in range(lifts.rows))
    return out


def _empty(field, rows, cols):
    """A zero array of field values, for oracles that fill in entries:
    int64 residues over F_p, ``Fraction(0)`` objects over Q."""
    from fractions import Fraction

    if field.characteristic:
        return np.zeros((rows, cols), dtype=np.int64)
    a = np.empty((rows, cols), dtype=object)
    a[...] = Fraction(0)
    return a


def numerators(a):
    """(N, d) with a = N / d: N an object array of Python ints and d the
    lcm of the denominators of the rational (or integer) entries of a,
    read off the ``Fraction`` values; the Q oracle for the integers over one
    denominator that ``ExactMatrix`` stores."""
    import math

    flat = a.ravel().tolist()
    d = math.lcm(*{x.denominator for x in flat})
    n = np.empty(len(flat), dtype=object)
    n[:] = [x.numerator * (d // x.denominator) for x in flat]
    return n.reshape(a.shape), d


def fraction_eliminate(a):
    """Gauss-Jordan elimination on ``Fraction`` entries with pinned pivoting
    (leftmost column, topmost row), (reduced array, pivot columns): the
    rational branch of ``fields._eliminate`` before elimination moved to
    integer numerators, kept as an oracle."""
    from fractions import Fraction

    a = np.array(a, dtype=object)
    a.flags.writeable = True
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * (Fraction(1) / a[r, c])
        col = a[:, c].copy()
        col[r] = Fraction(0)
        a[:, c:] = a[:, c:] - np.outer(col, a[r, c:])
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def fraction_matmul(a, b):
    """The product of two ``Fraction`` arrays as an object-array ``@``, with
    ``Fraction(0)`` entries when the inner dimension is 0: the rational
    product of ``ExactMatrix.__matmul__`` before products moved to integer
    numerators, kept as an oracle."""
    from fractions import Fraction

    if a.shape[1] == 0:
        out = np.empty((a.shape[0], b.shape[1]), dtype=object)
        out[...] = Fraction(0)
        return out
    return a @ b


def reduce_rows_mod_loop(space, vecs):
    """``fields.reduce_rows_mod`` as one subtraction per pivot row, the form
    it had before it became one product, kept as an oracle."""
    from nangulator.fields import ExactMatrix

    if space.rows == 0:
        return vecs
    r, piv = space.rref()
    out = vecs.a.copy()
    p = space.field.characteristic
    for row_idx, pc in enumerate(piv):
        coeff = out[:, pc].copy()
        out = out - np.outer(coeff, r.a[row_idx])
        if p:
            out = out % p
    return ExactMatrix(space.field, out)


# -- per-generator constructions ---------------------------------------------
# The module constructions as one product per generator, the form they had
# before modules stored their generator actions as one stack; kept as
# oracles for the stacked products.


def submodule_loop(m, rows):
    """``modules.submodule``, one product per generator."""
    from nangulator.fields import ExactMatrix, row_space
    from nangulator.modules import Module, ModuleMorphism, zero_module

    basis = row_space(rows)
    if basis.rows == 0:
        s = zero_module(m.algebra)
        return s, ModuleMorphism(s, m, ExactMatrix.zeros(m.algebra.field, 0,
                                                         m.dim))
    piv = basis.rref()[1]
    action = {g: (basis @ m.action[g]).take_cols(piv)
              for g in m.algebra.generators}
    s = Module(m.algebra, basis.rows, action)
    return s, ModuleMorphism(s, m, basis)


def quotient_loop(m, rows):
    """``modules.quotient`` (the closed form), one product per generator."""
    from fractions import Fraction

    from nangulator.fields import ExactMatrix, row_space
    from nangulator.modules import Module, ModuleMorphism

    space = row_space(rows)
    fld = m.algebra.field
    eye = ExactMatrix.identity(fld, m.dim)
    if space.rows == 0:
        q = Module(m.algebra, m.dim, m.action)
        return q, ModuleMorphism(m, q, eye), eye
    piv = space.rref()[1]
    keep = [j for j in range(m.dim) if j not in set(piv)]
    proj = _empty(fld, m.dim, len(keep))
    proj[keep, list(range(len(keep)))] = 1 if fld.characteristic else Fraction(1)
    proj[list(piv)] = -space.a[:, keep]
    proj = ExactMatrix(fld, proj)
    action = {g: m.action[g].take_rows(keep) @ proj
              for g in m.algebra.generators}
    q = Module(m.algebra, len(keep), action)
    return q, ModuleMorphism(m, q, proj), eye.take_rows(keep)


def direct_sum_loop(algebra, parts):
    """``modules.direct_sum``: one block-diagonal matrix per generator and
    the inclusions and projections filled entry by entry."""
    from fractions import Fraction

    from nangulator.fields import ExactMatrix, block_diag
    from nangulator.modules import Module, ModuleMorphism

    fld = algebra.field
    total = sum(p.dim for p in parts)
    action = {g: block_diag(fld, [p.action[g] for p in parts])
              for g in algebra.generators}
    proj = None
    if all(p.proj is not None for p in parts):
        proj = tuple(c for p in parts for c in p.proj)
    m = Module(algebra, total, action, proj)
    incs, projs = [], []
    off = 0
    one = 1 if fld.characteristic else Fraction(1)
    for p in parts:
        inc = _empty(fld, p.dim, total)
        prj = _empty(fld, total, p.dim)
        for i in range(p.dim):
            inc[i, off + i] = one
            prj[off + i, i] = one
        incs.append(ModuleMorphism(p, m, ExactMatrix(fld, inc)))
        projs.append(ModuleMorphism(m, p, ExactMatrix(fld, prj)))
        off += p.dim
    return m, incs, projs


def substituted_loop(m, terms_of):
    """``modules._substituted``: one linear combination per generator of the
    path actions, each a dense product along its word."""
    from nangulator.fields import ExactMatrix
    from nangulator.modules import Module

    def combination(terms):
        return sum((dense_action(m, k).scale(c) for k, c in terms),
                   ExactMatrix.zeros(m.algebra.field, m.dim, m.dim))

    return Module(m.algebra, m.dim,
                  {g: combination(terms_of(g)) for g in m.algebra.generators})


def verify_loop(f, exhaustive=False):
    """``ModuleMorphism.verify``: two products and a comparison per element,
    in index order."""
    from nangulator.fields import LinearAlgebraError

    A = f.source.algebra
    for g in (range(A.dim) if exhaustive else A.generators):
        lhs = f.source.action[g] @ f.matrix
        rhs = f.matrix @ f.target.action[g]
        if lhs != rhs:
            raise LinearAlgebraError(f"morphism does not intertwine element {g}")
