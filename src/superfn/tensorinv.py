"""Symmetric-group action on tensor powers and U(gl(m|n))-invariants.

The symmetric group acts on V^{(x)d} by graded place permutations: the
adjacent transposition s_i swaps slots i, i+1 with the Koszul sign
(-1)^{[a_i][a_{i+1}]}.  The space of U(gl(m|n))-invariants in
V^{(x)d} (x) V*^{(x)d} is spanned by the signed diagonal sums

    P_sigma = sum_{a in I^d} sgn(sigma, a)
              v_{a_{sigma(1)}} (x) ... (x) v_{a_{sigma(d)}}
              (x) vbar_{a_d} (x) ... (x) vbar_{a_1}

where sgn(sigma, a) is the sign of sigma restricted to the positions
carrying odd indices.  Mixed tensor powers V^{(x)k} (x) V*^{(x)l} with
k != l carry no invariants at all (the grading element acts by k - l).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations, product as _iproduct

from .cg import DimCapError, _case, _report
from .grading import Dims
from .linalg import SparseEchelon, add_term, kernel_dense
from .scalar import Scalar, ONE
from .ugl import TVec, letter_matrix

SUBSPACE_CAP = 10000


def _check_subspace_cap(dims: Dims, slots: int):
    total = dims.size ** slots
    if total > SUBSPACE_CAP:
        raise DimCapError(
            f"tensor space dimension {total} exceeds cap {SUBSPACE_CAP}"
        )


def swap_slots(tv: TVec, i: int) -> TVec:
    """Graded swap of slots i, i+1 (0-based); both slots must be V."""
    dims = tv.dims
    out = {}
    for idx, c in tv.terms.items():
        new = idx[:i] + (idx[i + 1], idx[i]) + idx[i + 2:]
        coeff = c
        if dims.par(idx[i]) and dims.par(idx[i + 1]):
            coeff = -coeff
        add_term(out, new, coeff)
    return TVec(dims, tv.factors, out)


def _adjacent_factorization(sigma: tuple) -> list:
    """Positions i_1..i_r with sigma = s_{i_r} ... s_{i_1} in S_d."""
    perm = list(sigma)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                swaps.append(i)
                changed = True
    return swaps


def rho(sigma: tuple, tv: TVec) -> TVec:
    """The graded place-permutation action of sigma (0-based image tuple)."""
    for i in _adjacent_factorization(sigma):
        tv = swap_slots(tv, i)
    return tv


def sergeev_sign(sigma: tuple, parities: tuple) -> int:
    """Sign parity of sigma restricted to the odd-carrying positions.

    ``parities[j]`` is the parity of the index in source position j; the
    restriction permutes the slots those odd indices land in.
    """
    inv = [0] * len(sigma)
    for p, j in enumerate(sigma):
        inv[j] = p
    targets = [inv[j] for j in range(len(sigma)) if parities[j]]
    sign = 0
    for x in range(len(targets)):
        for y in range(x + 1, len(targets)):
            if targets[x] > targets[y]:
                sign ^= 1
    return sign


def sergeev_invariant(dims: Dims, sigma, d: int) -> TVec:
    """The signed diagonal invariant P_sigma in V^{(x)d} (x) V*^{(x)d}.

    ``sigma`` is a permutation of {1..d} given 1-based (tuple of images).
    """
    sigma0 = tuple(s - 1 for s in sigma)
    if sorted(sigma0) != list(range(d)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{d}")
    _check_subspace_cap(dims, 2 * d)
    factors = ("v",) * d + ("vb",) * d
    out = {}
    for a in _iproduct(dims.indices(), repeat=d):
        pars = tuple(dims.par(x) for x in a)
        sgn = sergeev_sign(sigma0, pars)
        idx = tuple(a[sigma0[p]] for p in range(d)) + tuple(reversed(a))
        add_term(out, idx, Scalar(-1) if sgn else ONE)
    return TVec(dims, factors, out)


def invariant_subspace(dims: Dims, k: int, l: int) -> list:
    """Exact basis of the joint kernel of all letters on V^{(x)k} (x) V*^{(x)l}."""
    _check_subspace_cap(dims, k + l)
    factors = ("v",) * k + ("vb",) * l
    basis = list(_iproduct(dims.indices(), repeat=k + l))
    pos = {idx: i for i, idx in enumerate(basis)}
    rows = []
    for a in dims.indices():
        for b in dims.indices():
            outputs: dict = {}
            for idx, col in letter_matrix(dims, factors, (a, b)).items():
                for out_idx, c in col:
                    outputs.setdefault(out_idx, {})[pos[idx]] = c
            rows.extend(outputs.values())
    vectors = []
    for sol in kernel_dense(rows, len(basis)):
        terms = {basis[i]: c for i, c in enumerate(sol) if c}
        vectors.append(TVec(dims, factors, terms))
    return vectors


def span_rank(vectors) -> int:
    """Rank of a list of TVec over Q(i)."""
    ech = SparseEchelon()
    for v in vectors:
        ech.insert(dict(v.terms))
    return ech.rank


def contains_vector(vectors, target: TVec) -> bool:
    ech = SparseEchelon()
    for v in vectors:
        ech.insert(dict(v.terms))
    return ech.contains(dict(target.terms))


def supercommutant_basis(dims: Dims, d: int) -> list:
    """Basis of the graded centralizer of U(gl(m|n)) in End(V^{(x)d}).

    An operator phi of parity p lies in the centralizer iff
    pi(E) phi = (-1)^{[E] p} phi pi(E) for every letter; the two parity
    blocks are solved separately.  Returns flattened operators as
    {(out_idx, in_idx): Scalar} dicts.
    """
    _check_subspace_cap(dims, 2 * d)
    factors = ("v",) * d
    basis = list(_iproduct(dims.indices(), repeat=d))
    par = {
        idx: sum(dims.par(x) for x in idx) & 1 for idx in basis
    }
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    mats = {letter: letter_matrix(dims, factors, letter) for letter in letters}
    out = []
    for p in (0, 1):
        unknowns = [
            (o, i) for o in basis for i in basis if (par[o] ^ par[i]) == p
        ]
        upos = {u: j for j, u in enumerate(unknowns)}
        rows = []
        for letter in letters:
            q = dims.letter_par(*letter)
            mat = mats[letter]
            constraints = defaultdict(dict)
            # (pi(E) phi)[o2, i]: picks up phi[o, i] with weight pi(E)[o2, o]
            for (o, i) in unknowns:
                for o2, c in mat.get(o, ()):
                    add_term(constraints[(o2, i)], upos[(o, i)], c)
            # -(-1)^{qp} (phi pi(E))[o, i2]: pi(E)[i_mid, i2] weights phi[o, i_mid]
            for i2 in basis:
                for i_mid, c in mat.get(i2, ()):
                    w = c if (q and p) else -c
                    for o in basis:
                        if (par[o] ^ par[i_mid]) == p:
                            add_term(constraints[(o, i2)], upos[(o, i_mid)], w)
            rows.extend(constraints.values())
        for sol in kernel_dense(rows, len(unknowns)):
            op = {unknowns[j]: c for j, c in enumerate(sol) if c}
            out.append(op)
    return out


def rho_operator(dims: Dims, sigma: tuple, d: int) -> dict:
    """rho(sigma) on V^{(x)d} as {(out_idx, in_idx): Scalar} (0-based sigma)."""
    op = {}
    factors = ("v",) * d
    for idx in _iproduct(dims.indices(), repeat=d):
        moved = rho(sigma, TVec.basis(dims, factors, idx))
        for out_idx, c in moved.terms.items():
            op[(out_idx, idx)] = c
    return op


def verify_fft(dims: Dims, dmax: int, mixed_total: int = 4,
               commutant_d: int = 2) -> dict:
    """The invariant-theory suite: Sergeev spanning, mixed vanishing, and
    the double-centralizer equality."""
    cases = []
    for d in range(1, dmax + 1):
        invs = invariant_subspace(dims, d, d)
        serg = [
            sergeev_invariant(dims, sigma, d)
            for sigma in permutations(range(1, d + 1))
        ]
        member = all(contains_vector(invs, s) for s in serg)
        cases.append(_case(f"d={d}: Sergeev elements are invariant", member))
        rank = span_rank(serg)
        cases.append(_case(
            f"d={d}: Sergeev rank {rank} = invariant dim {len(invs)}",
            rank == len(invs),
        ))
    for k in range(mixed_total + 1):
        for l in range(mixed_total + 1 - k):
            if k == l or dims.size ** (k + l) > SUBSPACE_CAP:
                continue
            dim = len(invariant_subspace(dims, k, l))
            cases.append(_case(f"mixed ({k},{l}) invariants vanish", dim == 0))
    if commutant_d:
        d = commutant_d
        comm = supercommutant_basis(dims, d)
        ech = SparseEchelon()
        rho_rank = 0
        for sigma in permutations(range(d)):
            if ech.insert(rho_operator(dims, sigma, d)) is not None:
                rho_rank += 1
        union = ech.rank
        for op in comm:
            ech.insert(dict(op))
        equal = len(comm) == rho_rank == ech.rank
        cases.append(_case(
            f"d={d}: centralizer dim {len(comm)} = "
            f"group-algebra image dim {rho_rank}",
            equal,
        ))
    return _report("fft", cases)
