"""Floating eigensolver, exact overlap formulas, and the majorization certificate.

overlap_trace checks its closed form against the integer entries of the two
projections on every call, so no Fraction matrix is built here.
certify_majorization decides majorization and M > 0 exactly, in integers, by
Ky Fan's maximum principle and Sylvester's criterion; it is the verdict of a
verification record and of majorization_report alike.  Eigenvalues are the
one place floating point is allowed: majorization_report sets the Jacobi
spectrum beside the exact overlap defects, as numbers, not as a verdict.
Every floating comparison is an absolute FLOAT_TOL, read at call time: the
Jacobi residual and kyfan_check's projection and bound checks.
OFF_DIAGONAL_TOL is the Jacobi rotation threshold and _SYM_TOL the input
symmetry check; neither is a verdict tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import sqrt
from typing import Sequence

from .errors import IdentityViolation, NonConvergence
from .graphs import BipartiteGraph, DegreeData, bit_indices, write_graph
from .graphs import degrees, is_connected  # noqa: F401  (uncalled here; perfbench/spans.py rebinds them)
from .linalg import ScaledRows, leading_minors, rat_str, scaled_schur

FLOAT_TOL = 1e-9
OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100
_SYM_TOL = 1e-12

FloatMatrix = Sequence[Sequence[float]]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted weakly decreasing, matching eigenvectors, worst residual."""

    values: tuple[float, ...]
    vectors: tuple[tuple[float, ...], ...]
    residual: float


def eigen_sym(mat: FloatMatrix) -> Spectrum:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Sweeps rotate away every off-diagonal entry larger than 1e-12 in absolute
    value and stop when a full sweep does nothing, capped at 100 sweeps.  The
    residual max over eigenpairs of |A v - lambda v| is measured against the
    original matrix and must come in under FLOAT_TOL.  The entries are
    converted to float once, into the working copy the sweeps rotate; the
    residual reads the input rows as given.
    """
    d = len(mat)
    if any(len(row) != d for row in mat):
        raise ValueError("matrix must be square")
    a = [[float(x) for x in row] for row in mat]
    for i in range(d):
        for k in range(i + 1, d):
            if abs(a[i][k] - a[k][i]) > _SYM_TOL:
                raise ValueError(f"matrix is not symmetric at ({i},{k})")
    for i in range(d):
        for k in range(i + 1, d):
            v = 0.5 * (a[i][k] + a[k][i])
            a[i][k] = a[k][i] = v
    vec = [[1.0 if i == k else 0.0 for k in range(d)] for i in range(d)]
    for _sweep in range(MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            ap = a[p]
            for q in range(p + 1, d):
                apq = ap[q]
                if abs(apq) <= OFF_DIAGONAL_TOL:
                    continue
                rotated = True
                aq = a[q]
                theta = (aq[q] - ap[p]) * 0.5 / apq
                t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                ap[p] -= t * apq
                aq[q] += t * apq
                ap[q] = aq[p] = 0.0
                for i in range(d):
                    if i != p and i != q:
                        aip, aiq = a[i][p], a[i][q]
                        a[i][p] = ap[i] = c * aip - s * aiq
                        a[i][q] = aq[i] = s * aip + c * aiq
                for row in vec:
                    vip, viq = row[p], row[q]
                    row[p] = c * vip - s * viq
                    row[q] = s * vip + c * viq
        if not rotated:
            break
    else:
        raise NonConvergence(f"no convergence after {MAX_SWEEPS} Jacobi sweeps")
    order = sorted(range(d), key=lambda i: -a[i][i])
    values = tuple(a[i][i] for i in order)
    vectors = tuple(tuple(vec[r][i] for r in range(d)) for i in order)
    residual = 0.0
    for lam, v in zip(values, vectors):
        for k in range(d):
            row = mat[k]
            r = abs(sum(row[l] * v[l] for l in range(d)) - lam * v[k])
            if r > residual:
                residual = r
    if residual > FLOAT_TOL:
        raise NonConvergence(f"eigenpair residual {residual:.3e} exceeds tol {FLOAT_TOL:.3e}")
    return Spectrum(values, vectors, residual)


def overlap_defect(I: int, T: int) -> Fraction:
    """Defect |I \\ T| |T \\ I| / (|I| |T|), zero exactly when one set contains the other."""
    if I == 0 or T == 0:
        raise ValueError("both subsets must be nonempty")
    return Fraction((I & ~T).bit_count() * (T & ~I).bit_count(), I.bit_count() * T.bit_count())


def overlap_trace(I: int, T: int, m: int) -> Fraction:
    """Closed form tr(Q_I Q_T) = |I intersect T| + the overlap defect, checked on every call.

    P_I sends the all-ones vector to zero, so tr(Q_I Q_T) = 1 + S / (|I| |T|),
    where S sums (|I| [i = k] - 1)(|T| [i = k] - 1) over i and k in
    I intersect T: the integer entries of |I| P_I and |T| P_T.  S reads those
    entries, not the bit counts of the closed form, so it is an independent
    route, and a mismatch raises IdentityViolation.  The check is integer work
    on the common indices only, so any m is accepted.
    """
    if I == 0 or T == 0:
        raise ValueError("both subsets must be nonempty")
    if I < 0 or T < 0 or (I | T) >> m:
        raise ValueError(f"subsets use indices outside 0..{m - 1}")
    value = (I & T).bit_count() + overlap_defect(I, T)
    size_i, size_t = I.bit_count(), T.bit_count()
    common = list(bit_indices(I & T))
    s = sum((size_i * (i == k) - 1) * (size_t * (i == k) - 1) for i in common for k in common)
    exact = 1 + Fraction(s, size_i * size_t)
    if exact != value:
        raise IdentityViolation(
            f"closed-form overlap {value} vs exact trace {exact} "
            f"for I={I:#x}, T={T:#x}, m={m}"
        )
    return value


def _check_projection(p: FloatMatrix, k: int) -> None:
    d = len(p)
    if any(len(row) != d for row in p):
        raise ValueError("P must be square")
    if not 1 <= k <= d:
        raise ValueError(f"rank k={k} out of range 1..{d}")
    worst_sym = max(
        (abs(p[i][j] - p[j][i]) for i in range(d) for j in range(i + 1, d)), default=0.0
    )
    if worst_sym > FLOAT_TOL:
        raise ValueError(f"P is not symmetric within {FLOAT_TOL}: worst gap {worst_sym:.3e}")
    worst_idem = 0.0
    for i in range(d):
        for j in range(d):
            entry = sum(p[i][l] * p[l][j] for l in range(d))
            worst_idem = max(worst_idem, abs(entry - p[i][j]))
    if worst_idem > FLOAT_TOL:
        raise ValueError(f"P is not idempotent within {FLOAT_TOL}: worst gap {worst_idem:.3e}")
    tr = sum(p[i][i] for i in range(d))
    if abs(tr - k) > FLOAT_TOL:
        raise ValueError(f"trace(P) = {tr} is not the requested rank {k}")


def kyfan_check(S: FloatMatrix, P: FloatMatrix, k: int) -> bool:
    """Maximum principle: tr(P S) <= sum of the k largest eigenvalues of S.

    P must be a rank-k orthogonal projection within FLOAT_TOL.  The projection
    onto the top-k eigenvectors is also assembled and must attain the bound
    within FLOAT_TOL, certifying that the maximum is achieved.
    """
    d = len(S)
    if len(P) != d:
        raise ValueError("S and P must have the same dimension")
    _check_projection(P, k)
    spectrum = eigen_sym(S)
    top = sum(spectrum.values[:k])
    tr_ps = sum(P[i][j] * S[j][i] for i in range(d) for j in range(d))
    if tr_ps > top + FLOAT_TOL:
        raise IdentityViolation(
            f"tr(PS) = {tr_ps!r} exceeds the top-{k} eigenvalue sum {top!r}"
        )
    tr_star = 0.0
    for r in range(k):
        v = spectrum.vectors[r]
        tr_star += sum(v[i] * S[i][j] * v[j] for i in range(d) for j in range(d))
    if abs(tr_star - top) > FLOAT_TOL:
        raise IdentityViolation(
            f"top-{k} eigenprojection attains {tr_star!r}, expected {top!r}"
        )
    return True


@dataclass(frozen=True)
class SpectralReport:
    """Majorization evidence for one graph.

    spectrum serializes under the key "lambda"; partial_gaps[k-1] holds
    sum(lambda[:k]) - sum(a_sorted[:k]) for k = 1..m-1 and defect_sums the
    matching exact lower bounds; majorizes, the exact certificate's verdict,
    is always true, since majorization_report raises when it fails.
    """

    spectrum: Spectrum
    a_sorted: tuple[int, ...]
    partial_gaps: tuple[float, ...]
    defect_sums: tuple[Fraction, ...]
    trace_gap: float
    majorizes: bool


def report_dict(report: SpectralReport) -> dict:
    """Flat JSON-ready form; defect sums stay exact and serialize as p/q."""
    return {
        "lambda": list(report.spectrum.values),
        "a_sorted": list(report.a_sorted),
        "partial_gaps": list(report.partial_gaps),
        "defect_sums": [rat_str(d) for d in report.defect_sums],
        "trace_gap": report.trace_gap,
        "majorizes": report.majorizes,
    }


def _prefix_defects(g: BipartiteGraph, den: int, dd: DegreeData) -> tuple[list[int], list[int]]:
    """The degree order and the defect numerators of its prefixes, over D.

    The order sorts the X-vertices by decreasing degree dd.a, ties by index;
    [k] is its first k entries.  D = den is the denominator of scaled_schur,
    which every neighborhood size |T_j| = dd.b divides.  For k = 1..m-1,
    numers[k-1] = sum_j |[k] minus T_j| * |T_j minus [k]| * D / |T_j|,
    so the total overlap defect of [k] is numers[k-1] / (k D).
    """
    weighted = [(t, den // b) for t, b in zip(g.nbrs, dd.b)]
    order = sorted(range(g.m), key=lambda i: (-dd.a[i], i))
    prefix = 0
    numers = []
    for i in order[:-1]:
        prefix |= 1 << i
        numers.append(
            sum((prefix & ~t).bit_count() * (t & ~prefix).bit_count() * w for t, w in weighted)
        )
    return order, numers


def certify_majorization(g: BipartiteGraph, scaled: ScaledRows) -> list[int]:
    """Exact certificate that M > 0 and that its spectrum majorizes the X-degrees.

    Works on R = D*M and the degrees a, b: scaled is the (D, rows, degrees)
    triple of scaled_schur(g), which refuses a disconnected graph; the rows
    are not modified.  For each prefix I = [k] of the degree order,
    k = 1..m-1, Q_I = P_I + J/m is a rank-k orthogonal projection and M is
    the sum of the Q_(T_j), so
    tr(Q_I M) = sum(a_i, i in I) + the total overlap defect of I.  Times
    D*k*m, with numer from _prefix_defects (the defect sum over D that
    majorization_report shows), that is the integer identity

        m*k*sum(R_ii, i in I) - m*sum(R_il, (i, l) in IxI) + k*sum(R)
            == m*(D*k*sum(a_i, i in I) + numer),

    checked exactly beside R symmetric and tr R = D*sum(a).  By Ky Fan's
    maximum principle (Fan 1949) the k largest eigenvalues of M sum to at
    least tr(Q_I M) >= sum(a_i, i in I), the k largest degrees, and the
    traces agree, so the spectrum majorizes a.  Bareiss elimination with no
    row swap then gives the leading principal minors of R (leading_minors);
    all of them positive is Sylvester's criterion for M > 0.  Returns those
    minors, the last being det(D*M); any failure raises IdentityViolation
    with the graph serialized.  No floating point is involved.
    """
    den, rows, dd = scaled
    m = g.m
    order, numers = _prefix_defects(g, den, dd)
    if any(list(col) != row for row, col in zip(rows, zip(*rows))):
        raise IdentityViolation(f"D*M is not symmetric for:\n{write_graph(g)}")
    if sum(rows[i][i] for i in range(m)) != den * sum(dd.a):
        raise IdentityViolation(f"tr(D*M) differs from D*sum(a) for:\n{write_graph(g)}")
    total = sum(map(sum, rows))
    diag = block = deg = 0
    for k, numer in enumerate(numers, start=1):
        i = order[k - 1]
        ri = rows[i]
        diag += ri[i]
        block += ri[i] + 2 * sum(ri[l] for l in order[: k - 1])
        deg += dd.a[i]
        left = m * k * diag - m * block + k * total
        right = m * (den * k * deg + numer)
        if left != right:
            raise IdentityViolation(
                f"D*k*m*tr(Q_I M) = {left} but m*(D*k*sum(a) + numer) = {right} "
                f"at k={k} for:\n{write_graph(g)}"
            )
    minors = leading_minors([row[:] for row in rows])
    if any(p <= 0 for p in minors):
        raise IdentityViolation(
            f"leading minors {minors} of D*M are not all positive, so M is not "
            f"positive definite, for:\n{write_graph(g)}"
        )
    return minors


def majorization_report(g: BipartiteGraph) -> SpectralReport:
    """The Jacobi spectrum of M beside the sorted X-degrees, with the exact verdict.

    The rows and degrees come from one scaled_schur(g) call, which refuses a
    disconnected graph.  certify_majorization decides majorizes on them and
    raises IdentityViolation, with the graph serialized, on any failure, so
    a report that returns always majorizes.  The numbers follow: the
    eigensolver gets the rows divided by D as floats, and for [k], the k
    highest-degree X-vertices (ties broken by index), partial_gaps holds the
    partial eigenvalue sum minus the degree sum and defect_sums the total
    overlap defect of [k] against the neighborhoods, which Ky Fan's maximum
    principle puts below that gap.  Each defect sum is the exact Fraction
    numer / (k * D) whose numerator the certificate checked; it does not
    read the rows.  No float comparison decides anything here.
    """
    scaled = scaled_schur(g)
    certify_majorization(g, scaled)
    den, rows, dd = scaled
    spectrum = eigen_sym([[x / den for x in row] for row in rows])
    order, numers = _prefix_defects(g, den, dd)
    a_sorted = tuple(dd.a[i] for i in order)
    gaps = [lam - deg for lam, deg in zip(accumulate(spectrum.values), accumulate(a_sorted[:-1]))]
    defects = [Fraction(numer, k * den) for k, numer in enumerate(numers, start=1)]
    return SpectralReport(
        spectrum=spectrum,
        a_sorted=a_sorted,
        partial_gaps=tuple(gaps),
        defect_sums=tuple(defects),
        trace_gap=abs(sum(spectrum.values) - sum(dd.a)),
        majorizes=True,
    )
