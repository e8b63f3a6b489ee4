"""Seeded job lists for the three benchmark workloads.

A job is one verdict request. ``run`` calls the program and returns the text
that goes into the run's digest; ``check`` compares that text with an answer
derived from the mathematics (never from a recorded run) and returns an
error string, or None when the answer is right.

Inputs depend only on ``(workload, seed)``. The program sees nothing but the
generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import superfn as sf
from superfn import actions, cg, cli, linalg, spherical, tensorinv


@dataclass
class Job:
    name: str
    run: Callable[[], str]
    check: Callable[[str], Optional[str]]
    argv: Optional[list] = None  # the CLI arguments of a query job


# ------------------------------------------------------------------ algebra


def par(m: int, a: int) -> int:
    return 0 if a <= m else 1


def relation_terms(m: int, n: int, kind: str, a: int, b: int) -> list:
    """A generator of the defining ideal J as [(coeff, [factor, ...])].

    rows:    sum_c (-1)^{[c][a]+[b]} t_ac tb_bc - delta_ab
    columns: sum_c (-1)^{[b][c]+[c]} tb_ca t_cb - delta_ab
    """
    out = []
    for c in range(1, m + n + 1):
        if kind == "row":
            e = par(m, c) * par(m, a) + par(m, b)
            out.append(((-1) ** e, [("t", a, c), ("tb", b, c)]))
        else:
            e = par(m, b) * par(m, c) + par(m, c)
            out.append(((-1) ** e, [("tb", c, a), ("t", c, b)]))
    if a == b:
        out.append((-1, []))
    return out


def factor_str(f) -> str:
    return f"{f[0]}[{f[1]},{f[2]}]"


def terms_str(terms) -> str:
    """Render [(int coeff, [factor, ...])] in the CLI expression grammar."""
    out = ""
    for c, factors in terms:
        body = "*".join(factor_str(f) for f in factors)
        text = body if factors and abs(c) == 1 else \
            "*".join(filter(None, [str(abs(c)), body]))
        if not out:
            # a leading minus must start a scalar literal
            out = text if c > 0 else f"-{abs(c)}*{body}" if factors \
                else f"-{abs(c)}"
        else:
            out += (" - " if c < 0 else " + ") + text
    return out or "0"


def terms_cg(dims, terms):
    out = sf.CG.zero(dims)
    for c, factors in terms:
        mono = sf.CG.from_scalar(dims, c)
        for tag, a, b in factors:
            g = sf.CG.t(dims, a, b) if tag == "t" else sf.CG.tbar(dims, a, b)
            mono = mono * g
        out = out + mono
    return out


def random_generator(rng, m, n, even=False):
    size = m + n
    while True:
        g = (rng.choice(("t", "tb")), rng.randint(1, size),
             rng.randint(1, size))
        if not even or par(m, g[1]) == par(m, g[2]):
            return g


def ideal_element(rng, m, n, summands: int, lead: int, even=False):
    """sum_i c_i * g_i * rel_i with g_i a product of ``lead`` generators
    (``even`` ones only: those never square to zero).

    Returns (expression string, term list) of an element of J by
    construction: J is an ideal, so every summand lies in it.
    """
    pieces = []
    all_terms = []
    size = m + n
    for _ in range(summands):
        c = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
        lead_factors = [random_generator(rng, m, n, even) for _ in range(lead)]
        rel = relation_terms(m, n, rng.choice(("row", "col")),
                             rng.randint(1, size), rng.randint(1, size))
        g = terms_str([(c, lead_factors)])
        pieces.append(f"{g}*({terms_str(rel)})")
        for rc, rf in rel:
            all_terms.append((c * rc, lead_factors + rf))
    return " + ".join(f"({p})" for p in pieces), all_terms


def koszul_sign(factors, m) -> int:
    """(-1)^(inversions among odd factors) for sorting ``factors``."""
    odd = [f for f in factors
           if (par(m, f[1]) + par(m, f[2])) % 2]
    inv = sum(1 for i, j in itertools.combinations(range(len(odd)), 2)
              if odd[i] > odd[j])
    return -1 if inv % 2 else 1


def monomial_pretty(coeff: int, canon) -> str:
    """The CLI rendering of coeff * (canonical monomial [(factor, exp)])."""
    if coeff == 0:
        return "0"
    body = "*".join(factor_str(f) + (f"^{e}" if e > 1 else "")
                    for f, e in canon)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-1*" + body
    return f"{coeff}*{body}"


def random_monomial(rng, m, n, distinct: int):
    """(factors in shuffled order, canonical [(factor, exp)]).

    Odd generators appear once (they square to zero), even ones once or
    twice; canonical order is the symbol order t < tb, then (row, col).
    """
    size = m + n
    gens = sorted(rng.sample(
        [(tag, a, b) for tag in ("t", "tb")
         for a in range(1, size + 1) for b in range(1, size + 1)], distinct))
    canon = []
    for f in gens:
        odd = (par(m, f[1]) + par(m, f[2])) % 2
        canon.append((f, 1 if odd else rng.randint(1, 2)))
    factors = [f for f, e in canon for _ in range(e)]
    rng.shuffle(factors)
    return factors, canon


def bracket(m, x, y) -> dict:
    """[E_ab, E_cd] = delta_bc E_ad - (-1)^{p(x)p(y)} delta_ad E_cb."""
    (a, b), (c, d) = x, y
    px = (par(m, a) + par(m, b)) % 2
    py = (par(m, c) + par(m, d)) % 2
    out = {}
    if b == c:
        out[(a, d)] = out.get((a, d), 0) + 1
    if a == d:
        out[(c, b)] = out.get((c, b), 0) - (-1) ** (px * py)
    return {k: v for k, v in out.items() if v}


def letters_pretty(comb: dict) -> str:
    if not comb:
        return "0"
    out = ""
    for i, (letter, c) in enumerate(sorted(comb.items())):
        body = f"E[{letter[0]},{letter[1]}]"
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if i == 0:
            out = ("-1*" + body if abs(c) == 1 else "-" + body) if c < 0 \
                else body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def theta_exists(m: int, n: int, k: int) -> bool:
    """theta_k exists iff k <= floor((m-n+1)/2) or k > m-n+1."""
    return k <= (m - n + 1) // 2 or k > m - n + 1


def pure_blocks(m: int, n: int) -> list:
    """Refined block indices of the projective profile that do not
    straddle the parity wall."""
    size = m + n
    if size == 1:
        return [1]
    blocks = [(1, size - 1), (size, size)]
    refined = []
    straddle = set()
    for lo, hi in blocks:
        if lo <= m < hi:
            straddle.update((len(refined) + 1, len(refined) + 2))
            refined += [(lo, m), (m + 1, hi)]
        else:
            refined.append((lo, hi))
    return [i for i in range(1, len(refined) + 1) if i not in straddle]


# ------------------------------------------------------------------- checks


def expect_equal(want: str):
    def check(got: str):
        return None if got == want else f"expected {want!r}, got {got!r}"
    return check


def suite_check(out: str) -> Optional[str]:
    """A suite passes, and each oracle verdict matches the claim its case
    names: '... survives' is nonzero mod J, every other oracle case (an
    identity or a vanishing) is zero."""
    rep = json.loads(out)
    for case in rep["cases"]:
        verdict = case.get("verdict")
        if verdict is not None:
            want = "nonzero" if "survives" in case["name"] else "zero"
            if verdict != want:
                return f"{case['name']}: {verdict}, expected {want}"
        if not case["passed"]:
            return f"{case['name']}: failed"
    if not rep["passed"]:
        return f"suite {rep['suite']} failed"
    return None


def verdict_check(want: str):
    def check(out: str):
        got = json.loads(out)["verdict"]
        return None if got == want else f"verdict {got}, expected {want}"
    return check


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def oracle_job(name: str, build, want: str, mode: str, seed: int) -> Job:
    """The oracle's verdict on the element ``build()`` must be ``want``."""
    return Job(name, lambda: dump(cg.is_zero_mod_j(
        build(), mode=mode, seed=seed).to_dict()), verdict_check(want))


def suite_job(name: str, suite) -> Job:
    return Job(name, lambda: dump(suite()), suite_check)


# ------------------------------------------------------------------- radial
#
# Jobs are single verdicts where the suites loop: the speed probes run
# between jobs, so a job of a second or less is rescaled by the speed it
# actually ran at, where a ten-second suite would span several speed phases.


def antipode_jobs(m: int, n: int, mode: str, seed: int, count: int) -> list:
    """The antipode axiom m(S (x) id)Delta(g) = m(id (x) S)Delta(g) =
    epsilon(g) 1 mod J (verify_hopf's oracle cases): one job for each of
    ``count`` generators g the seed picks, on a side the seed picks."""
    dims = sf.Dims(m, n)
    rng = random.Random(seed)
    gens = [(tag, a, b) for a, b in itertools.product(dims.indices(), repeat=2)
            for tag in ("t", "tb")]
    jobs = []
    for tag, a, b in sorted(rng.sample(gens, count)):
        side = rng.choice(("left", "right"))

        def defect(a=a, b=b, tag=tag, side=side):
            g = sf.CG.t(dims, a, b) if tag == "t" else sf.CG.tbar(dims, a, b)
            return cg.antipode_convolution(g, side) - \
                sf.CG.from_scalar(dims, g.counit())
        jobs.append(oracle_job(
            f"antipode {side} {tag}[{a},{b}] ({m},{n})", defect, "zero",
            mode, seed))
    return jobs


def laplacian_defect(m: int, n: int, k: int):
    """dR(r^k) - k(m-n-k+1) r^k - k^2 r^(k-1)."""
    dims = sf.Dims(m, n)
    rr = spherical.r_func(dims)
    return spherical.laplacian_apply(rr ** k) - (
        (rr ** k).scale(sf.Scalar(k * (m - n - k + 1)))
        + (rr ** (k - 1)).scale(sf.Scalar(k * k)))


def theta_defect(m: int, n: int, k: int):
    """dR(theta_k) - k(m-n-k+1) theta_k."""
    dims = sf.Dims(m, n)
    th = spherical.theta(dims, k)
    return spherical.laplacian_apply(th) - th.scale(
        spherical.theta_eigenvalue(dims, k))


def maxrank_jobs(m: int, n: int, k: int, seed: int) -> list:
    """verify_maxrank's oracle cases at corner rank k: on each side, the
    nilpotent-class C^k and the polynomial-class C^j and trace^j for
    j = 1..k+1 all survive (are nonzero mod J)."""
    dims = sf.Dims(m, n)
    evens = [a for a in dims.indices() if dims.par(a) == 0]
    odds = [a for a in dims.indices() if dims.par(a) == 1]
    jobs = []
    for side in ("n", "m"):
        nil = evens[0] if side == "n" else odds[0]
        poly = odds[0] if side == "n" else evens[0]
        powers = [("nilpotent-class C", nil, k)]
        powers += [("polynomial-class C", poly, j) for j in range(1, k + 2)]
        powers += [("trace", None, j) for j in range(1, k + 2)]
        for label, idx, j in powers:
            def build(side=side, idx=idx, j=j):
                base = spherical.corner_trace(dims, side, k) if idx is None \
                    else spherical.corner_invariant(dims, side, k, idx, idx)
                return base ** j
            jobs.append(oracle_job(
                f"maxrank({m},{n}) {side}-side rank {k}: {label}^{j}",
                build, "nonzero", "generic", seed))
    return jobs


def radial_jobs(seed: int) -> list:
    """Generic-oracle jobs at (2,2) and smaller sharing one oracle seed,
    as the suites do. verify_hopf(2,2) is sampled: 16 of its 32 antipode
    verdicts."""
    oseed = random.Random(seed).randrange(1, 2 ** 31)
    jobs = [oracle_job(f"laplacian(2,2) k={k}",
                       lambda k=k: laplacian_defect(2, 2, k),
                       "zero", "generic", oseed)
            for k in range(1, 5)]
    jobs += [oracle_job(f"theta({m},{n}) k={k}",
                        lambda m=m, n=n, k=k: theta_defect(m, n, k),
                        "zero", "generic", oseed)
             for m, n in ((1, 2), (1, 3)) for k in range(1, 4)]
    jobs += [suite_job(f"t51({m},{n})",
                       lambda m=m, n=n: spherical.verify_t51(
                           sf.Dims(m, n), seed=oseed))
             for m, n in ((1, 1), (2, 1), (3, 1), (1, 2))]
    jobs += maxrank_jobs(2, 2, 1, oseed)
    return jobs + antipode_jobs(2, 2, "generic", oseed, 16)


# -------------------------------------------------------------------- exact


def partitions(d: int, largest=None):
    largest = d if largest is None else largest
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest), 0, -1):
        for rest in partitions(d - first, first):
            yield (first,) + rest


def hook_invariant_dim(m: int, n: int, d: int) -> int:
    """dim End_{gl(m|n)}(V^(x)d): the sum of (f^lambda)^2 over partitions
    of d in the (m,n)-hook, lambda_{m+1} <= n (Berele-Regev, Sergeev),
    with f^lambda from the hook length formula. It is also the dimension
    of the invariants in V^(x)d (x) V*^(x)d."""
    total = 0
    for lam in partitions(d):
        if len(lam) > m and lam[m] > n:
            continue
        hooks = 1
        for i, row in enumerate(lam):
            for j in range(row):
                below = sum(1 for r in lam[i + 1:] if r > j)
                hooks *= row - j + below
        total += (math.factorial(d) // hooks) ** 2
    return total


def fft_jobs(m: int, n: int, dmax: int, mixed: bool) -> list:
    """verify_fft's checks as jobs: the invariants of V^(x)d (x) V*^(x)d
    have the hook dimension and are spanned by the Sergeev elements, mixed
    powers carry no invariants, and at d=2 the commutant equals the image
    of the group algebra."""
    dims = sf.Dims(m, n)
    invariants = {}
    sergeev = {}  # each Sergeev element is built once, as verify_fft does
    jobs = []

    def inv(d):
        invariants[d] = tensorinv.invariant_subspace(dims, d, d)
        sergeev[d] = []
        return str(len(invariants[d]))

    def member(d, sigma):
        p_sigma = tensorinv.sergeev_invariant(dims, sigma, d)
        sergeev[d].append(p_sigma)
        return str(tensorinv.contains_vector(invariants[d], p_sigma))

    def rank(d):
        return str(tensorinv.span_rank(sergeev[d]))

    for d in range(1, dmax + 1):
        want = str(hook_invariant_dim(m, n, d))
        jobs.append(Job(f"fft({m},{n}) invariants d={d}",
                        lambda d=d: inv(d), expect_equal(want)))
        jobs += [Job(f"fft({m},{n}) sergeev {sigma} invariant",
                     lambda d=d, sigma=sigma: member(d, sigma),
                     expect_equal("True"))
                 for sigma in itertools.permutations(range(1, d + 1))]
        jobs.append(Job(f"fft({m},{n}) sergeev rank d={d}",
                        lambda d=d: rank(d), expect_equal(want)))

    if mixed:
        kl = [(k, l) for k in range(5) for l in range(5 - k) if k != l]
        jobs.append(Job(
            f"fft({m},{n}) mixed",
            lambda: " ".join(
                str(len(tensorinv.invariant_subspace(dims, k, l)))
                for k, l in kl),
            expect_equal(" ".join("0" for _ in kl))))

    def commutant():
        comm = tensorinv.supercommutant_basis(dims, 2)
        ech = linalg.SparseEchelon()
        rho_rank = sum(
            ech.insert(tensorinv.rho_operator(dims, sigma, 2)) is not None
            for sigma in itertools.permutations(range(2)))
        for op in comm:
            ech.insert(dict(op))
        return f"{len(comm)} {rho_rank} {ech.rank}"
    want = hook_invariant_dim(m, n, 2)
    jobs.append(Job(f"fft({m},{n}) commutant d=2", commutant,
                    expect_equal(f"{want} {want} {want}")))
    return jobs


def duality_mismatches(m: int, n: int, xl: tuple) -> int:
    """Criterion-4 duality loops for one letter x over all generators f and
    PBW words y of length <= 2:

        <dR_x f, y> = (-1)^{[x]([f]+[y])} <f, y x>
        <dL_x f, y> = (-1)^{[x][f]} <f, S(x) y>
    """
    dims = sf.Dims(m, n)
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    words = [()] + [(lt,) for lt in letters] + \
        list(itertools.product(letters, repeat=2))
    x = sf.UEl.letter(dims, *xl)
    xpar = dims.letter_par(*xl)
    sx = x.antipode()
    bad = 0
    for a, b in itertools.product(dims.indices(), repeat=2):
        for f in (sf.CG.t(dims, a, b), sf.CG.tbar(dims, a, b)):
            fpar = f.parity()
            dr = actions.act("right", x, f)
            dl = actions.act("left", x, f)
            for w in words:
                y = sf.UEl.word(dims, w)
                ypar = y.parity() or 0
                want_r = cg.pair(f, y * x) * sf.Scalar(
                    (-1) ** (xpar * (fpar + ypar)))
                if cg.pair(dr, y) != want_r:
                    bad += 1
                want_l = cg.pair(f, sx * y) * sf.Scalar((-1) ** (xpar * fpar))
                if cg.pair(dl, y) != want_l:
                    bad += 1
    return bad


def exact_jobs(seed: int) -> list:
    """Exact linear algebra and pairing; no generic-oracle time.
    verify_hopf(2,1) in pairing mode is sampled: 5 of its 18 antipode
    verdicts."""
    rng = random.Random(seed)
    jobs = fft_jobs(1, 1, 4, mixed=True) + fft_jobs(1, 2, 2, mixed=False)
    jobs += antipode_jobs(2, 1, "pairing", rng.randrange(2 ** 31), 5)
    # seed-chosen letters: two at (1,1), one at (2,1)
    for (m, n), count in (((1, 1), 2), ((2, 1), 1)):
        letters = list(itertools.product(range(1, m + n + 1), repeat=2))
        for xl in sorted(rng.sample(letters, count)):
            jobs.append(Job(
                f"duality({m},{n}) x=E{list(xl)}",
                lambda m=m, n=n, xl=xl: str(duality_mismatches(m, n, xl)),
                expect_equal("0")))
    # (dims, lead generators per summand, count): degree 3 at (1,1) and
    # degree 2 at (2,1) keep every certificate under PAIRING_FLAT_CAP
    for (m, n), lead, count in (((1, 1), 1, 2), ((2, 1), 0, 1)):
        for i in range(count):
            _, terms = ideal_element(rng, m, n, summands=2, lead=lead)
            const = rng.choice((1, 2, 3)) * rng.choice((1, -1))
            for label, extra, want in (("in J", [], "zero"),
                                       ("+const", [(const, [])], "nonzero")):
                jobs.append(Job(
                    f"certificate({m},{n}) #{i} {label}",
                    lambda m=m, n=n, t=terms + extra: cg.is_zero_mod_j(
                        terms_cg(sf.Dims(m, n), t), mode="pairing").verdict,
                    expect_equal(want)))
    return jobs


# ------------------------------------------------------------------ queries


def call_cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return f"{code}\n{out.getvalue()}"


def cli_job(name: str, argv: list, check) -> Job:
    return Job(name, lambda: call_cli(argv), check, argv)


def cli_check(want_code: int, check_payload=None):
    def check(text: str):
        code, _, body = text.partition("\n")
        if int(code) != want_code:
            return f"exit code {code}, expected {want_code}"
        if check_payload is None:
            return None if not body else f"unexpected output {body!r}"
        return check_payload(json.loads(body))
    return check


def payload_equal(key, want):
    def check(payload):
        got = payload[key]
        return None if got == want else f"{key}={got!r}, expected {want!r}"
    return check


def report_check(exists: Optional[bool]):
    """A laplacian/theta report: passes, and the oracle says zero whenever
    an eigenfunction (or identity) exists."""
    def check(payload):
        if not payload["passed"]:
            return "report failed"
        (case,) = payload["cases"]
        witness = case.get("witness", {})
        if exists is not None and witness.get("exists", True) != exists:
            return f"exists={witness.get('exists')}, expected {exists}"
        if exists is not False and witness.get("oracle") != "zero":
            return f"oracle {witness.get('oracle')}, expected zero"
        return None
    return check


DIMS = ((1, 1), (2, 1), (2, 2))

# Mean latency in ms of one query of each verb at each of DIMS, measured
# over two passes of 1072 queries when this mix was set and rescaled to
# run.py's reference speed (2-vCPU Intel Xeon VM, Python 3.11.7,
# fractions.Fraction). eval and iszero are each half one kind, half the
# other (eval_cg/eval_u, iszero/nonzero).
QUERY_COST_MS = {
    "eval": (2.0, 2.0, 2.0),
    "act": (2.2, 2.2, 2.1),
    "iszero": (3.9, 9.5, 137.0),
    "invariant": (2.4, 3.8, 22.5),
    "laplacian": (4.7, 12.8, 122.0),
    "theta": (4.4, 9.2, 1.8),
}
# Every (verb, dims) cell gets the same share of a pass's time: its count is
# CELL_MS / cost, and at least 2. Cheap calls get many samples, so the
# median falls well inside the parse-and-act class, and no one cell's cost
# dominates run_s.
CELL_MS = 200
SPLIT = {"eval": ("eval_cg", "eval_u"), "iszero": ("iszero", "nonzero")}
# a few pairing-mode queries over PAIRING_FLAT_CAP, which must exit 3
CAP_QUERIES = (("cap", (2, 1), 5), ("cap", (2, 2), 5))


def query_mix() -> list:
    """(verb, dims, count) for every cell. The mix is fixed; the seed picks
    indices, coefficients, oracle seeds and order."""
    return [(verb, dims, max(2, round(CELL_MS / cost)))
            for verb, costs in QUERY_COST_MS.items()
            for dims, cost in zip(DIMS, costs)] + list(CAP_QUERIES)


def query_job(rng, cat: str, m: int, n: int) -> Job:
    size = m + n
    base = ["--m", str(m), "--n", str(n), "--json"]
    seeded = base + ["--seed", str(rng.randrange(1, 2 ** 31))]
    tag = f"{cat}({m},{n})"

    if cat == "eval_cg":
        factors, canon = random_monomial(rng, m, n, distinct=3)
        c = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
        # parenthesized: argparse takes a leading '-' for an option
        expr = f"({terms_str([(c, factors)])})"
        want = monomial_pretty(c * koszul_sign(factors, m), canon)
        return cli_job(tag, base + ["eval", expr],
                       cli_check(0, payload_equal("pretty", want)))

    if cat == "eval_u":
        x = (rng.randint(1, size), rng.randint(1, size))
        y = (rng.randint(1, size), rng.randint(1, size))
        px = (par(m, x[0]) + par(m, x[1])) % 2
        py = (par(m, y[0]) + par(m, y[1])) % 2
        op = "+" if px * py else "-"
        expr = (f"E[{x[0]},{x[1]}]*E[{y[0]},{y[1]}] {op} "
                f"E[{y[0]},{y[1]}]*E[{x[0]},{x[1]}]")
        want = letters_pretty(bracket(m, x, y))
        return cli_job(tag, base + ["eval", expr],
                       cli_check(0, payload_equal("pretty", want)))

    if cat == "act":
        # Cartan letters act diagonally: dR_{E_aa} multiplies a monomial by
        # #(t with column a) - #(tb with column a); dL_{E_aa} by
        # #(tb with row a) - #(t with row a).
        factors, canon = random_monomial(rng, m, n, distinct=4)
        cartan = sorted(rng.randint(1, size) for _ in range(2))
        side = rng.choice(("dL", "dR"))
        weight = 1
        for a in cartan:
            pos = 2 if side == "dR" else 1
            t = sum(1 for f in factors if f[0] == "t" and f[pos] == a)
            tb = sum(1 for f in factors if f[0] == "tb" and f[pos] == a)
            weight *= (t - tb) if side == "dR" else (tb - t)
        elem = "*".join(f"E[{a},{a}]" for a in cartan)
        on = terms_str([(1, factors)])
        want = monomial_pretty(weight * koszul_sign(factors, m), canon)
        argv = base + ["act", "--side", side, "--elem", elem, "--on", on]
        return cli_job(tag, argv,
                       cli_check(0, payload_equal("pretty", want)))

    if cat in ("iszero", "nonzero"):
        expr, _ = ideal_element(rng, m, n, summands=2, lead=1, even=True)
        want = "zero"
        if cat == "nonzero":
            # f in J, so f + c lies in J only for c = 0
            expr += f" + {rng.randint(1, 9)}"
            want = "nonzero"
        return cli_job(tag, seeded + ["iszero", expr],
                       cli_check(0, payload_equal("verdict", want)))

    if cat == "cap":
        # degree 4 at (2,1) or (2,2): (size^4)^2 > PAIRING_FLAT_CAP; even
        # lead factors keep every degree-4 term from vanishing
        expr, _ = ideal_element(rng, m, n, summands=1, lead=2, even=True)
        argv = base + ["--mode", "pairing", "iszero", expr]
        return cli_job(tag, argv, cli_check(3))

    if cat == "invariant":
        pure = pure_blocks(m, n)
        kind = rng.choice(("C", "CP", "control"))
        if kind == "C":
            a, b = rng.randint(1, size), rng.randint(1, size)
            expr, side, want = f"C[{rng.choice(pure)};{a},{b}]", "dL", True
        elif kind == "CP":
            expr = f"CP[{rng.choice(pure)},{rng.choice(pure)}]"
            side, want = "both", True
        else:
            # every Cartan letter E_cc is in the Levi set, and
            # dL_{E_cc} t_cd = -t_cd, so no t_cd is left-invariant
            expr = f"t[{rng.randint(1, size)},{rng.randint(1, size)}]"
            side, want = "dL", False
        argv = seeded + ["invariant", expr, "--side", side]
        return cli_job(tag, argv,
                       cli_check(0, payload_equal("invariant", want)))

    if cat == "laplacian":
        k = rng.randint(1, 3) if size <= 3 else 1
        argv = seeded + ["laplacian", "--k", str(k)]
        return cli_job(f"{tag} k={k}", argv,
                       cli_check(0, report_check(None)))

    if cat == "theta":
        k = rng.randint(1, 3) if size <= 3 else 1
        argv = seeded + ["theta", "--k", str(k)]
        return cli_job(f"{tag} k={k}", argv,
                       cli_check(0, report_check(theta_exists(m, n, k))))

    raise ValueError(f"unknown query category {cat!r}")


def queries_jobs(seed: int) -> list:
    """A stream of seeded CLI calls, each with its own oracle seed."""
    rng = random.Random(seed)
    jobs = []
    for verb, dims, count in query_mix():
        kinds = SPLIT.get(verb, (verb,))
        jobs += [query_job(rng, kinds[i % len(kinds)], *dims)
                 for i in range(count)]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "radial": radial_jobs,
    "exact": exact_jobs,
    "queries": queries_jobs,
}
