"""Homogeneous-superspace invariants and spherical functions.

A Levi profile is a partition of the index line 1..m+n into consecutive
blocks; at most one block straddles the parity wall between m and m+1.
Splitting the straddling block at the wall gives the refined blocks, with
sizes k_1..k_s and right endpoints l_1..l_s.

Key invariant elements, for refined blocks B_i:

    C^{(i)}_ab  = sum_{c in B_i} t_ca tbar_cb
    C^{(i,j)}   = sum_{a in B_j} sum_{c in B_i} t_ca tbar_ca

and on the (2|2(m+n))-sphere side, with z_a = t_{m+n,a}:

    r = z_{m+n} zbar_{m+n},
    Q_ab = sum_{c < m+n} (-1)^{[b][c]+[c]} tbar_ca t_cb.

The radial part of the invariant Laplacian acts on powers of r by

    dR_{nabla^2}(r^k) = k (m - n - k + 1) r^k + k^2 r^{k-1}

and the monic eigenfunction of degree k, when it exists, is

    theta_k = sum_{i=0}^{k} (-1)^i binom(k,i)^2 / gbinom(nu, i) * r^{k-i},
    nu = n - m + 2k - 2,

with eigenvalue k (m - n - k + 1); gbinom is the generalized binomial
(falling factorial over i!), and theta_k exists iff no gbinom(nu, i)
vanishes for i <= k, i.e. iff k <= floor((m-n+1)/2) or k > m-n+1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .actions import act, is_invariant
from .cg import CG, _case, _oracle_case, _report, is_zero_mod_j
from .grading import Dims
from .scalar import Scalar, sign_pow
from .ugl import laplacian


class LeviProfile:
    """A block partition of the index line defining a Levi subalgebra."""

    __slots__ = ("dims", "blocks")

    def __init__(self, dims: Dims, blocks):
        blocks = [tuple(b) for b in blocks]
        if not blocks or blocks[0][0] != 1 or blocks[-1][1] != dims.size:
            raise ValueError("blocks must partition 1..m+n")
        prev_hi = 0
        for lo, hi in blocks:
            if lo != prev_hi + 1 or hi < lo:
                raise ValueError("blocks must be consecutive intervals")
            prev_hi = hi
        self.dims = dims
        self.blocks = blocks

    @staticmethod
    def projective(dims: Dims) -> "LeviProfile":
        """[gl(m|n-1), gl(1)]; requires n >= 1."""
        if dims.n < 1:
            raise ValueError("projective profile needs n >= 1")
        if dims.size == 1:
            return LeviProfile(dims, [(1, 1)])
        return LeviProfile(dims, [(1, dims.size - 1), (dims.size, dims.size)])

    @staticmethod
    def from_sizes(dims: Dims, sizes) -> "LeviProfile":
        """sizes: ints for pure blocks, (p, q) pairs for the super block."""
        blocks = []
        pos = 1
        for s in sizes:
            width = s if isinstance(s, int) else s[0] + s[1]
            blocks.append((pos, pos + width - 1))
            pos += width
        prof = LeviProfile(dims, blocks)
        # a pure block must not straddle the wall unless declared super
        for s, (lo, hi) in zip(sizes, prof.blocks):
            straddles = lo <= dims.m < hi
            if isinstance(s, int):
                if straddles:
                    raise ValueError(
                        f"block {lo}..{hi} straddles the parity wall; "
                        "declare it p|q"
                    )
            else:
                if not straddles or (dims.m - lo + 1, hi - dims.m) != tuple(s):
                    raise ValueError(
                        f"super block {s[0]}|{s[1]} does not sit at the wall"
                    )
        return prof

    @staticmethod
    def parse(dims: Dims, text: str) -> "LeviProfile":
        """Parse "2,1|1,1"-style size lists (the super block as p|q)."""
        sizes = []
        for part in text.split(","):
            part = part.strip()
            if "|" in part:
                p, q = part.split("|", 1)
                sizes.append((int(p), int(q)))
            else:
                sizes.append(int(part))
        return LeviProfile.from_sizes(dims, sizes)

    def refined(self) -> list:
        """Blocks with the straddler split at the parity wall."""
        out = []
        for lo, hi in self.blocks:
            if lo <= self.dims.m < hi:
                out.append((lo, self.dims.m))
                out.append((self.dims.m + 1, hi))
            else:
                out.append((lo, hi))
        return out

    def super_pair(self):
        """(r, r+1) refined 1-based indices of the straddler, or None."""
        pos = 1
        for lo, hi in self.blocks:
            if lo <= self.dims.m < hi:
                return (pos, pos + 1)
            pos += 1
        return None

    def pure_refined_indices(self) -> list:
        """Refined indices not belonging to the straddling block."""
        pair = self.super_pair()
        excluded = set(pair) if pair else set()
        return [
            i for i in range(1, len(self.refined()) + 1) if i not in excluded
        ]

    def refined_sizes(self) -> list:
        return [hi - lo + 1 for lo, hi in self.refined()]

    def block_parity(self, i: int) -> int:
        """Parity of refined block i (refined blocks are pure)."""
        lo, _ = self.refined()[i - 1]
        return self.dims.par(lo)

    def __repr__(self):
        return f"LeviProfile({self.blocks})"


def _row_sum(dims: Dims, rows, a: int, b: int) -> CG:
    """sum over c in rows of t_ca tbar_cb: the one rule behind the block
    and corner invariants, whose traces are sums of it."""
    out = CG.zero(dims)
    for c in rows:
        out = out + CG.t(dims, c, a) * CG.tbar(dims, c, b)
    return out


def c_block(profile: LeviProfile, i: int, a: int, b: int) -> CG:
    """C^{(i)}_ab = sum over rows c in refined block i of t_ca tbar_cb."""
    lo, hi = profile.refined()[i - 1]
    return _row_sum(profile.dims, range(lo, hi + 1), a, b)


def c_pair(profile: LeviProfile, i: int, j: int) -> CG:
    """C^{(i,j)} = sum_{a in refined block j} C^{(i)}_aa."""
    dims = profile.dims
    lo, hi = profile.refined()[j - 1]
    out = CG.zero(dims)
    for a in range(lo, hi + 1):
        out = out + c_block(profile, i, a, a)
    return out


def z(dims: Dims, a: int) -> CG:
    return CG.t(dims, dims.size, a)


def zbar(dims: Dims, a: int) -> CG:
    return CG.tbar(dims, dims.size, a)


def r_func(dims: Dims) -> CG:
    return z(dims, dims.size) * zbar(dims, dims.size)


def q_func(dims: Dims, a: int, b: int) -> CG:
    """Q_ab = sum_{c < m+n} (-1)^{[b][c]+[c]} tbar_ca t_cb."""
    out = CG.zero(dims)
    for c in range(1, dims.size):
        sgn = sign_pow(dims.par(b) * dims.par(c) + dims.par(c))
        out = out + (CG.tbar(dims, c, a) * CG.t(dims, c, b)).scale(sgn)
    return out


def sphere_defect(dims: Dims) -> CG:
    """sum_a zbar_a z_a - 1, which lies in the defining ideal."""
    out = CG.from_scalar(dims, -1)
    for a in dims.indices():
        out = out + zbar(dims, a) * z(dims, a)
    return out


# ------------------------------------------------------------ eigenfunctions


def _gbinom(nu: int, i: int) -> Fraction:
    num = Fraction(1)
    for j in range(i):
        num *= Fraction(nu - j)
    return num / factorial(i)


def theta_exists(dims: Dims, k: int) -> bool:
    nu = dims.n - dims.m + 2 * k - 2
    return all(_gbinom(nu, i) != 0 for i in range(k + 1))


def theta(dims: Dims, k: int) -> CG:
    """The monic radial eigenfunction of degree k of the Laplacian.

    Raises ValueError when no eigenfunction of that degree exists (a
    generalized binomial denominator vanishes).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    nu = dims.n - dims.m + 2 * k - 2
    rr = r_func(dims)
    out = CG.zero(dims)
    for i in range(k + 1):
        den = _gbinom(nu, i)
        if den == 0:
            raise ValueError(
                f"no degree-{k} eigenfunction at (m,n)=({dims.m},{dims.n}): "
                f"generalized binomial ({nu} choose {i}) vanishes"
            )
        coeff = Fraction(comb(k, i) ** 2) / den
        if i & 1:
            coeff = -coeff
        out = out + (rr ** (k - i)).scale(Scalar(coeff))
    return out


def theta_eigenvalue(dims: Dims, k: int) -> Scalar:
    return Scalar(k * (dims.m - dims.n - k + 1))


def laplacian_apply(f: CG) -> CG:
    """dR of the radial Laplacian."""
    return act("right", laplacian(f.dims), f)


# ------------------------------------------------------------------- suites


def verify_t51(dims: Dims, seed: int = 0, trials: int = 3,
               mode: str = "generic") -> dict:
    """Nilpotency of 1 - r at n = 1 and nonvanishing of r-powers."""
    cases = []

    def case(name, f, want_zero):
        cases.append(_oracle_case(
            name, [is_zero_mod_j(f, mode, trials, seed)], want_zero))

    one_minus_r = CG.one(dims) - r_func(dims)
    if dims.n == 1:
        m = dims.m
        case(f"(1-r)^{m + 1} vanishes", one_minus_r ** (m + 1), True)
        case(f"(1-r)^{m} survives", one_minus_r ** m, False)
    case("sphere identity sum zbar_a z_a = 1", sphere_defect(dims), True)
    for k in range(1, 6):
        case(f"r^{k} survives", r_func(dims) ** k, False)
    return _report("t51", cases)


def _rank_block(dims: Dims, side: str, k: int):
    """Row range of the rank-k corner block on the given side."""
    if not 1 <= k <= (dims.n if side == "n" else dims.m):
        raise ValueError(f"rank {k} out of range for side {side!r}")
    if side == "n":
        return range(dims.size - k + 1, dims.size + 1)
    return range(1, k + 1)


def corner_invariant(dims: Dims, side: str, k: int, a: int, b: int) -> CG:
    """C_ab = sum over the k corner rows of t_ca tbar_cb."""
    return _row_sum(dims, _rank_block(dims, side, k), a, b)


def corner_trace(dims: Dims, side: str, k: int) -> CG:
    """sum_{a in corner rows} C_aa, the spherical corner invariant."""
    out = CG.zero(dims)
    for a in _rank_block(dims, side, k):
        out = out + corner_invariant(dims, side, k, a, a)
    return out


def verify_maxrank(dims: Dims, k: int, seed: int = 0, trials: int = 3,
                   mode: str = "generic") -> dict:
    """Nilpotency orders of the corner-block invariants at rank k.

    On the n-side (odd corner rows), C_ab with [a] = [b] = 0 is nilpotent of
    order exactly k+1 (the vanishing is structural: odd generators square to
    zero); with [a] = [b] = 1 its powers survive.  The m-side mirrors this,
    and mixed-parity entries square to zero structurally.  Raises
    ValueError when m or n is 0: one side then has no corner rows.
    """
    if not dims.m or not dims.n:
        raise ValueError("the maxrank suite needs m >= 1 and n >= 1")
    cases = []

    def survives(name, f):
        cases.append(_oracle_case(
            name, [is_zero_mod_j(f, mode, trials, seed)], False))

    for side in ("n", "m"):
        nil_par = 0 if side == "n" else 1
        evens = [a for a in dims.indices() if dims.par(a) == 0]
        odds = [a for a in dims.indices() if dims.par(a) == 1]
        nil_idx = evens[0] if side == "n" else odds[0]
        poly_idx = odds[0] if side == "n" else evens[0]
        c_nil = corner_invariant(dims, side, k, nil_idx, nil_idx)
        c_poly = corner_invariant(dims, side, k, poly_idx, poly_idx)
        c_mixed = corner_invariant(dims, side, k, evens[0], odds[0])
        name = f"{side}-side rank {k}"
        structural = (c_nil ** (k + 1)).is_zero()
        cases.append(
            _case(
                f"{name}: nilpotent-class C^{k + 1} = 0 structurally",
                structural,
                parity_class=nil_par,
            )
        )
        survives(f"{name}: nilpotent-class C^{k} survives", c_nil ** k)
        for j in range(1, k + 2):
            survives(f"{name}: polynomial-class C^{j} survives", c_poly ** j)
        cases.append(
            _case(
                f"{name}: mixed-parity C^2 = 0 structurally",
                (c_mixed ** 2).is_zero(),
            )
        )
        trace = corner_trace(dims, side, k)
        for j in range(1, k + 2):
            survives(f"{name}: spherical trace^{j} survives", trace ** j)
    return _report("maxrank", cases)


def verify_invariance(dims: Dims, profiles=None, seed: int = 0,
                      trials: int = 3, mode: str = "generic") -> dict:
    """Left/two-sided invariance of the block generating sets.

    For each profile: every C^{(i)}_ab with i outside the straddling pair is
    left-invariant, every C^{(i,j)} with i, j outside the pair is invariant
    on both sides, and the negative controls t_11 and z_1 are not invariant.
    """
    if profiles is None:
        profiles = [LeviProfile.projective(dims)]
    cases = []
    for prof in profiles:
        blocks = prof.blocks
        label = ",".join(
            f"{lo}..{hi}" for lo, hi in blocks
        )
        pure = prof.pure_refined_indices()

        def case(name, checks, want_zero):
            verdicts = []
            for f, side in checks:
                _, details = is_invariant(f, blocks, side, mode, trials, seed)
                verdicts += details.values()
            cases.append(_oracle_case(name, verdicts, want_zero))

        for i in pure:
            case(f"[{label}] C^({i})_ab all left-invariant",
                 [(c_block(prof, i, a, b), "left") for a in dims.indices()
                  for b in dims.indices()], True)
        for i in pure:
            for j in pure:
                f = c_pair(prof, i, j)
                case(f"[{label}] C^({i},{j}) two-sided invariant",
                     [(f, "left"), (f, "right")], True)
        case(f"[{label}] control t[1,1] not invariant",
             [(CG.t(dims, 1, 1), "left")], False)
        case(f"[{label}] control z_1 not invariant",
             [(z(dims, 1), "left")], False)
    return _report("invariance", cases)
