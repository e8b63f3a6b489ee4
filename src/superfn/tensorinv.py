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

The invariants are solved once, by :func:`invariant_subspace`, with the
weight argument behind the super first fundamental theorem (Sergeev 1985;
Berele-Regev 1987), and the centralizer End_{gl(m|n)}(V^{(x)d}) is read off
the invariants of V^{(x)d} (x) V*^{(x)d} through the identification
End(V^{(x)d}) = V^{(x)d} (x) V*^{(x)d}, which carries no sign.  The solve
reads its letters from one rule, :func:`ugl.invariant_letters` with the
single block (1, m+n):

- every Cartan letter E_aa kills an invariant, so an invariant lies in the
  span of the weight-zero tensors, whose v-indices are a permutation of
  their vb-indices; those are enumerated directly, by bucketing the
  v-tuples by their sorted multiset;
- the joint kernel of a generating set is the joint kernel of all
  letters: if E x = F x = 0, then [E, F] x = 0.

So it solves over only the unknowns that can be nonzero, with the
2(m+n)-2 Chevalley letters of the rule in place of (m+n)^2: the Cartan
letters act by 0 on those unknowns.  A subspace has one reduced echelon
basis for a fixed column order, so the bases returned are those of the
full solve.
"""

from __future__ import annotations

from itertools import permutations, product as _iproduct
from math import comb, factorial

from .cg import DimCapError, _case, _report
from .grading import Dims
from .linalg import SparseEchelon, add_term, kernel_dense
from .scalar import ONE, MINUS_ONE
from .ugl import TVec, invariant_letters, letter_table

SUBSPACE_CAP = 10000
WEIGHT_ZERO_CAP = 2500
MIXED_TOTAL = 4
COMMUTANT_D = 2


def _solve_cap(dims: Dims, k: int, l: int) -> tuple:
    """(columns, cap) for the solve of :func:`invariant_subspace` at (k, l).

    For k != l the columns are the whole basis, (m+n)^(k+l), under
    ``SUBSPACE_CAP``.  For k == l they are the weight-zero tensors, the sum
    over the index counts of a k-tuple of its squared multinomial
    coefficient, counted one index at a time, under ``WEIGHT_ZERO_CAP``: a
    weight-zero column costs about three times a mixed one.
    """
    size = dims.size
    if k != l:
        return size ** (k + l), SUBSPACE_CAP
    counts = [1] + [0] * k
    for _ in range(size):
        counts = [sum(counts[t - c] * comb(t, c) ** 2 for c in range(t + 1))
                  for t in range(k + 1)]
    return counts[k], WEIGHT_ZERO_CAP


def _check_cap(count: int, cap: int, what: str):
    if count > cap:
        raise DimCapError(f"{count} {what} exceed cap {cap}")


def rho(sigma: tuple, tv: TVec) -> TVec:
    """The graded place-permutation action of sigma (0-based image tuple):
    the factor in slot p moves to slot sigma[p], with the Koszul sign of the
    odd factors that cross, ``sergeev_sign`` of sigma^{-1}.  Raises
    ValueError unless sigma permutes the slots of tv."""
    if sorted(sigma) != list(range(len(tv.factors))):
        raise ValueError(f"{sigma!r} is not a permutation of the slots")
    dims = tv.dims
    inv = [0] * len(sigma)
    for p, j in enumerate(sigma):
        inv[j] = p
    out = {}
    for idx, c in tv.terms.items():
        sign = sergeev_sign(inv, [dims.par(a) for a in idx])
        add_term(out, tuple(idx[p] for p in inv), -c if sign else c)
    return TVec(dims, tv.factors, out)


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
    Raises DimCapError when its (m+n)^d terms exceed ``SUBSPACE_CAP``.
    """
    sigma0 = tuple(s - 1 for s in sigma)
    if sorted(sigma0) != list(range(d)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{d}")
    _check_cap(dims.size ** d, SUBSPACE_CAP, "Sergeev element terms")
    factors = ("v",) * d + ("vb",) * d
    out = {}
    for a in _iproduct(dims.indices(), repeat=d):
        pars = tuple(dims.par(x) for x in a)
        sgn = sergeev_sign(sigma0, pars)
        idx = tuple(a[sigma0[p]] for p in range(d)) + tuple(reversed(a))
        add_term(out, idx, MINUS_ONE if sgn else ONE)
    return TVec(dims, factors, out)


def invariant_subspace(dims: Dims, k: int, l: int) -> list:
    """Exact basis of the U(gl(m|n))-invariants in V^{(x)k} (x) V*^{(x)l}.

    This is the joint kernel of :func:`ugl.invariant_letters` with the one
    block (1, m+n), which generate gl(m|n).  For k == l it is solved over
    the weight-zero tensors v + vb only, sorted(v) == sorted(vb), by the
    letters other than the Cartan ones: E_aa acts on a basis tensor by the
    scalar (#v slots holding a) - (#vb slots holding a), so an invariant
    lies in the span of the tensors where that scalar is 0 for every a.
    For k != l no tensor has weight zero (the weights sum to k - l), and
    the solve runs over the full basis, so the answer [] is derived, not
    assumed.

    The basis is in reduced echelon form as :class:`SparseEchelon` keeps
    it: each vector is ``ONE`` at its least index key, and no other vector
    has a term at that key.  The columns handed to :func:`kernel_dense` run
    through the index tuples in decreasing order, so each solution's own
    free column is its least key; inserting the basis into an echelon then
    takes no elimination step.  Raises ValueError when k or l is negative,
    and DimCapError, before any row is built, when its columns exceed their
    cap (see :func:`_solve_cap`).
    """
    if k < 0 or l < 0:
        raise ValueError(f"tensor degrees ({k},{l}) must be non-negative")
    _check_cap(*_solve_cap(dims, k, l), "invariant-solve columns")
    factors = ("v",) * k + ("vb",) * l
    letters = invariant_letters(dims, ((1, dims.size),))
    if k == l:
        buckets: dict = {}
        for v in _iproduct(dims.indices(), repeat=k):
            buckets.setdefault(tuple(sorted(v)), []).append(v)
        basis = sorted((v + vb for bucket in buckets.values()
                        for v in bucket for vb in bucket), reverse=True)
        letters = [(a, b) for a, b in letters if a != b]
    else:
        basis = list(_iproduct(dims.indices(), repeat=k + l))[::-1]
    rows = []
    for letter in letters:
        table = letter_table(dims, factors, letter)
        outputs: dict = {}
        for j, idx in enumerate(basis):
            for out_idx, c in table[idx]:
                outputs.setdefault(out_idx, {})[j] = c
        rows.extend((row, {}) for row in outputs.values())
    return [
        TVec(dims, factors, {basis[j]: c for j, c in sol.items()})
        for sol in kernel_dense(rows, len(basis))
    ]


def _echelon(vectors, target=None) -> SparseEchelon:
    """An echelon basis of the span of a list of TVec.  The vectors, and
    target when given, must share one (dims, factors); ValueError
    otherwise."""
    ech = SparseEchelon()
    for v in vectors:
        (vectors[0] if target is None else target)._check(v)
        ech.insert(v.terms)
    return ech


def span_rank(vectors) -> int:
    """Rank of a list of TVec over Q(i), all of one (dims, factors).  Each
    call eliminates the vectors again."""
    return _echelon(vectors).rank


def contains_vector(vectors, target: TVec) -> bool:
    """Whether target lies in the span of vectors, all of target's (dims,
    factors).  Each call eliminates the vectors again."""
    return _echelon(vectors, target).contains(target.terms)


def supercommutant_basis(dims: Dims, d: int) -> list:
    """Basis of the graded centralizer of U(gl(m|n)) in End(V^{(x)d}).

    An operator phi lies in the centralizer iff
    pi(E) phi = (-1)^{[E][phi]} phi pi(E) for every letter, that is, iff
    the letters kill it under the adjoint action.  Sending the matrix unit
    (o, i) to v_o (x) vb_{i reversed} identifies End(V^{(x)d}) with
    V^{(x)d} (x) V*^{(x)d} as a module with no sign (each vb slot pairs
    with its mirror v slot, so the contractions are nested and cross
    nothing).  So the centralizer is :func:`invariant_subspace` (d, d) read
    back through that identification; its entries (o, i) all have
    sorted(o) == sorted(i) and are even, so the centralizer is even.

    Returns flattened operators as {(out_idx, in_idx): Scalar} dicts, the
    images of :func:`invariant_subspace`'s basis, in its order.
    """
    return [
        {(idx[:d], idx[d:][::-1]): c for idx, c in inv.terms.items()}
        for inv in invariant_subspace(dims, d, d)
    ]


def rho_operator(dims: Dims, sigma: tuple, d: int) -> dict:
    """rho(sigma) on V^{(x)d} as {(out_idx, in_idx): Scalar} (0-based sigma)."""
    op = {}
    factors = ("v",) * d
    for idx in _iproduct(dims.indices(), repeat=d):
        moved = rho(sigma, TVec.basis(dims, factors, idx))
        for out_idx, c in moved.terms.items():
            op[(out_idx, idx)] = c
    return op


def verify_fft(dims: Dims, dmax: int) -> dict:
    """The invariant-theory suite: Sergeev spanning, mixed vanishing up to
    total degree MIXED_TOTAL, and the double-centralizer equality at
    d = COMMUTANT_D.  Raises ValueError when dmax < 1, which would drop
    every Sergeev case.

    The whole run is priced before any work: DimCapError is raised when
    the weight-zero columns of any d <= max(dmax, COMMUTANT_D) exceed
    their cap (see :func:`_solve_cap`), or when the suite's Sergeev terms,
    the sum over d <= dmax of d! (m+n)^d, exceed ``SUBSPACE_CAP``, the cap
    on one element's terms.  The mixed cases run only within their cap."""
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    for d in range(1, max(dmax, COMMUTANT_D) + 1):
        _check_cap(*_solve_cap(dims, d, d), "invariant-solve columns")
    _check_cap(sum(factorial(d) * dims.size ** d for d in range(1, dmax + 1)),
               SUBSPACE_CAP, "suite Sergeev terms")
    cases = []
    for d in range(1, dmax + 1):
        invs = invariant_subspace(dims, d, d)
        serg = [
            sergeev_invariant(dims, sigma, d)
            for sigma in permutations(range(1, d + 1))
        ]
        ech = _echelon(invs)
        member = all(ech.contains(s.terms) for s in serg)
        cases.append(_case(f"d={d}: Sergeev elements are invariant", member))
        rank = span_rank(serg)
        cases.append(_case(
            f"d={d}: Sergeev rank {rank} = invariant dim {len(invs)}",
            rank == len(invs),
        ))
    for k in range(MIXED_TOTAL + 1):
        for l in range(MIXED_TOTAL + 1 - k):
            if k == l or dims.size ** (k + l) > SUBSPACE_CAP:
                continue
            dim = len(invariant_subspace(dims, k, l))
            cases.append(_case(f"mixed ({k},{l}) invariants vanish", dim == 0))
    d = COMMUTANT_D
    comm = supercommutant_basis(dims, d)
    ech = SparseEchelon()
    rho_rank = 0
    for sigma in permutations(range(d)):
        if ech.insert(rho_operator(dims, sigma, d)) is not None:
            rho_rank += 1
    for op in comm:
        ech.insert(op)
    equal = len(comm) == rho_rank == ech.rank
    cases.append(_case(
        f"d={d}: centralizer dim {len(comm)} = "
        f"group-algebra image dim {rho_rank}",
        equal,
    ))
    return _report("fft", cases)
