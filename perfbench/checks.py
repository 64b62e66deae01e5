"""Correctness checks on the package's outputs.

Each check returns a list of failure messages (empty when it passes).  The
checks test properties the method must have, or compare with an
independent computation; none compares with stored numbers.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEPS = (1e-7, 1e-9, 1e-11)   # tried in turn until central differences converge
FD_SELF_TOL = 1e-5               # |FD(h) - FD(h/4)| / |D| counted as converged
FD_TOL = 1e-3                    # |FD - D| / |D| allowed at a converged node
FD_MIN_CONCLUSIVE = 0.5          # share of nodes that must be conclusive


def _fd(forward, x, h):
    n = len(x)
    jac = np.empty((n, n))
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        jac[:, d] = (np.asarray(forward(x + e)) - np.asarray(forward(x - e))) / (2 * h)
    return jac


def cauchy_rows(table, k_max: int) -> list[str]:
    """Every row of the table is present, finite and positive."""
    ks = [r.k for r in table.rows]
    if ks != list(range(2, k_max + 1)):
        return [f"cauchy rows cover stages {ks}, expected 2..{k_max}"]
    return [f"cauchy row k={r.k} is {r.integral!r}" for r in table.rows
            if not (math.isfinite(r.integral) and r.integral > 0)]


def derivative_matches_fd(forward, derivative, nodes, label: str) -> list[str]:
    """Analytic Jacobian agrees with converged central differences.

    At each node the step shrinks along ``FD_STEPS`` until two central
    differences (steps h and h/4) agree.  The node is inconclusive when
    they never agree, or when the analytic Jacobian itself jumps by more
    than ``FD_TOL`` across the stencil: the node then lies on a kink of
    the piecewise map (quadrature nodes can sit exactly on the sup-norm
    edge set of a radial factor), where central differences average the
    two sides.  Conclusive nodes must match the analytic Jacobian, and at
    least ``FD_MIN_CONCLUSIVE`` of the nodes must be conclusive.
    """
    bad, conclusive = [], 0
    for x in nodes:
        x = np.asarray(x, dtype=float)
        jac = np.asarray(derivative(x))
        scale = max(float(np.linalg.norm(jac)), 1e-300)
        for h in FD_STEPS:
            fine = _fd(forward, x, h / 4)
            if np.linalg.norm(_fd(forward, x, h) - fine) / scale > FD_SELF_TOL:
                continue
            steps = h * np.eye(len(x))
            jump = max(float(np.linalg.norm(np.asarray(derivative(x + e))
                                            - np.asarray(derivative(x - e)))) / scale
                       for e in steps)
            if jump <= FD_TOL:
                conclusive += 1
                err = float(np.linalg.norm(fine - jac)) / scale
                if not err <= FD_TOL:
                    bad.append(f"{label}: derivative off by {err:.2e} (relative) at {x.tolist()}")
            break
    if conclusive < FD_MIN_CONCLUSIVE * len(nodes):
        bad.append(f"{label}: only {conclusive}/{len(nodes)} nodes were conclusive")
    return bad


def derivatives_equal(deriv_a, deriv_b, points, label: str, tol: float = 1e-12) -> list[str]:
    """Two maps have the same Jacobian at every point (away from where
    they are meant to differ)."""
    bad = []
    for x in points:
        da, db = np.asarray(deriv_a(x)), np.asarray(deriv_b(x))
        err = float(np.linalg.norm(da - db)) / max(float(np.linalg.norm(db)), 1e-300)
        if not err <= tol:
            bad.append(f"{label}: Jacobians differ by {err:.2e} at {np.asarray(x).tolist()}")
    return bad


def roundtrip(first, second, points, label: str, tol: float = 1e-10) -> list[str]:
    """second(first(x)) = x within ``tol`` in the sup norm."""
    worst = max(float(np.max(np.abs(second(first(x)) - x))) for x in points)
    return [] if worst <= tol else [f"{label}: roundtrip error {worst:.2e}"]


def survey(report, label: str) -> list[str]:
    """Jacobian survey: positive determinant almost everywhere, no hard
    failure (a sign defect confirmed by a finer step and the analytic
    derivative)."""
    bad = []
    if not report.fraction_positive >= 0.999:
        bad.append(f"{label}: fraction_positive {report.fraction_positive}")
    if report.hard_failures:
        bad.append(f"{label}: {len(report.hard_failures)} hard failures")
    return bad


def boundary(deviation: float, label: str) -> list[str]:
    """The map fixes the cube boundary (up to rounding)."""
    return [] if deviation <= 1e-12 else [f"{label}: boundary moved by {deviation:.2e}"]


def degree_is(report, expected: int, label: str) -> list[str]:
    return [] if report.degree == expected else [
        f"{label}: degree {report.degree}, expected {expected}"]
