"""Floating eigensolver, exact overlap formulas, and the majorization certificate.

Eigenvalues are the one place floating point is allowed.  Overlap traces and
defects stay exact rationals; the two meet only inside SpectralReport.  Every
floating comparison follows one rule, read from FLOAT_TOL at call time:

- absolute FLOAT_TOL for the Jacobi residual, the partial-sum gaps, the
  defect comparison, the smallest eigenvalue and the projection checks;
- FLOAT_TOL * max(1, sum(a)) for the trace gap, which grows with the degrees;
- OFF_DIAGONAL_TOL is the Jacobi rotation threshold and _SYM_TOL the input
  symmetry check; neither is a verdict tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, sqrt
from typing import Sequence

from .errors import DisconnectedGraph, IdentityViolation, NonConvergence
from .graphs import BipartiteGraph, degrees, is_connected, write_graph
from .linalg import RationalMatrix, projection_Q, rat_str, scaled_schur

FLOAT_TOL = 1e-9
OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100
_SYM_TOL = 1e-12

FloatMatrix = Sequence[Sequence[float]]


def _as_float_rows(mat: RationalMatrix | FloatMatrix) -> list[list[float]]:
    if isinstance(mat, RationalMatrix):
        return mat.to_floats()
    return [[float(x) for x in row] for row in mat]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted weakly decreasing, matching eigenvectors, worst residual."""

    values: tuple[float, ...]
    vectors: tuple[tuple[float, ...], ...]
    residual: float


def eigen_sym(mat: RationalMatrix | FloatMatrix) -> Spectrum:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Sweeps rotate away every off-diagonal entry larger than 1e-12 in absolute
    value and stop when a full sweep does nothing, capped at 100 sweeps.  The
    residual max over eigenpairs of |A v - lambda v| is measured against the
    original matrix and must come in under FLOAT_TOL.
    """
    a = _as_float_rows(mat)
    d = len(a)
    if any(len(row) != d for row in a):
        raise ValueError("matrix must be square")
    for i in range(d):
        for k in range(i + 1, d):
            if abs(a[i][k] - a[k][i]) > _SYM_TOL:
                raise ValueError(f"matrix is not symmetric at ({i},{k})")
    orig = [row[:] for row in a]
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
            row = orig[k]
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


def overlap_trace(I: int, T: int, m: int, *, verify: bool = False) -> Fraction:
    """Closed form tr(Q_I Q_T) = |I intersect T| + the overlap defect.

    With verify=True the trace is recomputed from the exact matrix product of
    the two projections and must match the closed form.
    """
    if I == 0 or T == 0:
        raise ValueError("both subsets must be nonempty")
    if I < 0 or T < 0 or (I | T) >> m:
        raise ValueError(f"subsets use indices outside 0..{m - 1}")
    value = (I & T).bit_count() + overlap_defect(I, T)
    if verify:
        exact = (projection_Q(I, m) * projection_Q(T, m)).trace()
        if exact != value:
            raise IdentityViolation(
                f"closed-form overlap {value} vs exact trace {exact} "
                f"for I={I:#x}, T={T:#x}, m={m}"
            )
    return value


def _check_projection(p: list[list[float]], k: int) -> None:
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


def kyfan_check(
    S: RationalMatrix | FloatMatrix,
    P: RationalMatrix | FloatMatrix,
    k: int,
) -> bool:
    """Maximum principle: tr(P S) <= sum of the k largest eigenvalues of S.

    P must be a rank-k orthogonal projection within FLOAT_TOL.  The projection
    onto the top-k eigenvectors is also assembled and must attain the bound
    within FLOAT_TOL, certifying that the maximum is achieved.
    """
    s = _as_float_rows(S)
    p = _as_float_rows(P)
    d = len(s)
    if len(p) != d:
        raise ValueError("S and P must have the same dimension")
    _check_projection(p, k)
    spectrum = eigen_sym(s)
    top = sum(spectrum.values[:k])
    tr_ps = sum(p[i][j] * s[j][i] for i in range(d) for j in range(d))
    if tr_ps > top + FLOAT_TOL:
        raise IdentityViolation(
            f"tr(PS) = {tr_ps!r} exceeds the top-{k} eigenvalue sum {top!r}"
        )
    tr_star = 0.0
    for r in range(k):
        v = spectrum.vectors[r]
        tr_star += sum(v[i] * s[i][j] * v[j] for i in range(d) for j in range(d))
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
    matching exact lower bounds.
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


def majorization_report(
    g: BipartiteGraph,
    *,
    scaled: tuple[int, list[list[int]]] | None = None,
) -> SpectralReport:
    """Check that the spectrum of M majorizes the sorted X-degrees.

    [k] is the set of the k highest-degree X-vertices (ties broken by index).
    Each partial eigenvalue sum must exceed the matching degree sum by at
    least the total overlap defect of [k] against the neighborhoods, the
    traces must agree, and the smallest eigenvalue must stay positive.  Any
    failure raises with the offending graph serialized, since it would
    contradict the tree-count bound itself.  scaled, the (D, rows) pair of
    scaled_schur(g), may be passed in when already computed; the eigensolver
    gets the rows divided by D as floats.  Each defect sum is one exact
    Fraction over k * L, with L the lcm of the neighborhood sizes taken from
    g, so the lower bound does not depend on the rows passed in.

    Tolerances follow the module rule: partial sums, defects and the smallest
    eigenvalue allow an absolute FLOAT_TOL; the trace gap allows
    FLOAT_TOL * max(1, sum(a)), both for majorizes and for the raise.
    """
    if not is_connected(g):
        raise DisconnectedGraph("majorization is stated for connected graphs")
    den, rows = scaled_schur(g) if scaled is None else scaled
    spectrum = eigen_sym([[x / den for x in row] for row in rows])
    m = g.m
    dd = degrees(g)
    a = dd.a
    lcm_b = lcm(*dd.b)
    weighted = [(t, lcm_b // b) for t, b in zip(g.nbrs, dd.b)]
    order = sorted(range(m), key=lambda i: (-a[i], i))
    a_sorted = tuple(a[i] for i in order)
    prefix = 0
    gaps = []
    defects = []
    lam_sum = 0.0
    deg_sum = 0
    for k in range(1, m):
        prefix |= 1 << order[k - 1]
        lam_sum += spectrum.values[k - 1]
        deg_sum += a_sorted[k - 1]
        gaps.append(lam_sum - deg_sum)
        numer = sum((prefix & ~t).bit_count() * (t & ~prefix).bit_count() * w for t, w in weighted)
        defects.append(Fraction(numer, k * lcm_b))
    trace_gap = abs(sum(spectrum.values) - sum(a))
    trace_tol = FLOAT_TOL * max(1.0, float(sum(a)))
    majorizes = all(gap >= -FLOAT_TOL for gap in gaps) and trace_gap <= trace_tol
    report = SpectralReport(
        spectrum=spectrum,
        a_sorted=a_sorted,
        partial_gaps=tuple(gaps),
        defect_sums=tuple(defects),
        trace_gap=trace_gap,
        majorizes=majorizes,
    )
    for k, (gap, defect) in enumerate(zip(gaps, defects), start=1):
        if gap < float(defect) - FLOAT_TOL:
            raise IdentityViolation(
                f"partial sum gap {gap!r} at k={k} fell below the defect sum "
                f"{defect} for:\n{write_graph(g)}"
            )
    if trace_gap > trace_tol:
        raise IdentityViolation(
            f"trace gap {trace_gap!r} out of tolerance for:\n{write_graph(g)}"
        )
    if spectrum.values[-1] <= FLOAT_TOL:
        raise IdentityViolation(
            f"smallest eigenvalue {spectrum.values[-1]!r} is not positive for:\n{write_graph(g)}"
        )
    return report
