"""Shared helpers and independent oracles used across the test suite.

The oracles here deliberately avoid the library's solver paths: they
evaluate objectives from their definitions (explicit inverses, naive
loops) and optimize by generic means (coordinate descent, null-space
barrier Newton, random search).
"""

import sys

import numpy as np
import scipy.linalg

from structcov import sample_elliptical
from structcov.rankone import _weights
from structcov.tyler import Iterate


def rand_hermitian(k, rng, complex_=False):
    if complex_:
        A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    else:
        A = rng.standard_normal((k, k))
    return 0.5 * (A + A.conj().T)


def rand_pd(k, rng, complex_=False, ridge=None):
    if complex_:
        A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    else:
        A = rng.standard_normal((k, k))
    M = A @ A.conj().T + (ridge if ridge is not None else 0.5 * k) * np.eye(k)
    return 0.5 * (M + M.conj().T)


def heavy_samples(R0, n, seed):
    return sample_elliptical(R0, n, seed)


def nonincreasing(trace, slack=1e-10):
    trace = np.asarray(trace)
    return bool(np.all(np.diff(trace) <= slack))


# ---------------------------------------------------------------------------
# definition-level objective evaluations
# ---------------------------------------------------------------------------

def tyler_cost_naive(R, X):
    """log det R + (K/N) sum log(x^H R^{-1} x) via eigenvalues and explicit solves."""
    n, k = X.shape
    eigvals = np.linalg.eigvalsh(R)
    logdet = float(np.sum(np.log(eigvals)))
    Rinv = np.linalg.inv(R)
    total = 0.0
    for i in range(n):
        x = X[i]
        total += np.log(np.real(x.conj() @ Rinv @ x))
    return logdet + (k / n) * total


def weighted_scatter_naive(R, X):
    n, k = X.shape
    Rinv = np.linalg.inv(R)
    M = np.zeros((k, k), dtype=complex if np.iscomplexobj(X) else float)
    for i in range(n):
        x = X[i]
        q = np.real(x.conj() @ Rinv @ x)
        M += np.outer(x, x.conj()) / q
    return (k / n) * M


def linear_surrogate_naive(struct, coeffs, R_t, M):
    """f(a) = Tr(R_t^{-1} R(a)) + Tr(M R(a)^{-1}), or inf outside the PD cone."""
    R = struct.assemble(coeffs)
    R = 0.5 * (R + R.conj().T)
    eig = np.linalg.eigvalsh(R)
    if eig[0] <= 0:
        return np.inf
    Rt_inv = np.linalg.inv(R_t)
    return float(np.real(np.trace(Rt_inv @ R) + np.trace(M @ np.linalg.inv(R))))


def gaussian_cost_naive(struct, coeffs, M):
    """g(a) = log det R(a) + Tr(M R(a)^{-1}), or inf outside the PD cone.

    The objective of the linear map iterated as MM on a fixed scatter M.
    """
    R = struct.assemble(coeffs)
    R = 0.5 * (R + R.conj().T)
    eig = np.linalg.eigvalsh(R)
    if eig[0] <= 0:
        return np.inf
    return float(np.sum(np.log(eig)) + np.real(np.trace(M @ np.linalg.inv(R))))


# ---------------------------------------------------------------------------
# independent optimizers
# ---------------------------------------------------------------------------

def central_gradient(value, coeffs, h=1e-6):
    """Central-difference gradient of ``value`` at ``coeffs``, one pair of evaluations per entry."""
    a = np.asarray(coeffs, dtype=float)
    g = np.zeros(a.size)
    for j in range(a.size):
        e = np.zeros(a.size)
        e[j] = h
        g[j] = (value(a + e) - value(a - e)) / (2 * h)
    return g


def coordinate_descent(value, coeffs, grad_tol=1e-10, max_sweeps=4000):
    """Cyclic exact 1-D minimization of ``value`` over coefficient vectors.

    ``value(a)`` is inf outside the feasible set. Uses only function
    evaluations: each coordinate's bracket grows from the current value,
    doubling its step while the value keeps falling, so that it ends where
    the value rises or the point is infeasible and holds the nearest local
    minimum along the coordinate, which scipy's bounded scalar minimizer
    then finds. It stops when a sweep no longer lowers the value or a
    central-difference gradient is small.
    """
    from scipy.optimize import minimize_scalar

    a = np.asarray(coeffs, dtype=float).copy()

    best = value(a)
    for _ in range(max_sweeps):
        for j in range(a.size):
            def f1(t, j=j):
                trial = a.copy()
                trial[j] = t
                return value(trial)

            def edge(sign, j=j):
                x, fx, step = a[j], f1(a[j]), 1e-3 * (1.0 + abs(a[j]))
                while True:
                    y = x + sign * step
                    fy = f1(y)
                    if not fy < fx:
                        return y
                    x, fx, step = y, fy, 2.0 * step

            res = minimize_scalar(f1, bounds=(edge(-1.0), edge(1.0)), method="bounded",
                                  options={"xatol": 1e-14})
            if res.fun < f1(a[j]):
                a[j] = res.x
        swept = value(a)
        if swept >= best or np.linalg.norm(central_gradient(value, a)) <= grad_tol * (1.0 + abs(swept)):
            break
        best = swept
    return a


def barrier_equality_solve(A, w, d, x0, mu_final=1e-10):
    """Interior-point oracle: minimize w@p + sum(d/p) s.t. A p = 0, p > 0.

    Null-space parametrization p = x0 + Z y with a path-following
    log-barrier -mu*sum(log p); plain Newton in y per barrier stage.
    Requires d > 0 and a strictly feasible x0.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    A = np.asarray(A, dtype=float)
    assert np.all(d > 0)
    if A.size == 0:
        Z = np.eye(w.size)
    else:
        Z = scipy.linalg.null_space(A)
        assert np.linalg.norm(A @ x0) <= 1e-10
    assert np.all(x0 > 0)

    y = np.zeros(Z.shape[1])

    def p_of(yv):
        return x0 + Z @ yv

    mu = 1.0
    while True:
        for _ in range(200):
            p = p_of(y)
            grad_p = w - d / p ** 2 - mu / p
            hess_p = 2.0 * d / p ** 3 + mu / p ** 2
            g = Z.T @ grad_p
            H = (Z.T * hess_p) @ Z
            if np.linalg.norm(g) <= 1e-12 * (1.0 + abs(w @ p + np.sum(d / p))):
                break
            step = np.linalg.solve(H, -g)
            t = 1.0
            val = w @ p + np.sum(d / p) - mu * np.sum(np.log(p))
            for _ in range(80):
                p_try = p_of(y + t * step)
                if np.all(p_try > 0):
                    val_try = (w @ p_try + np.sum(d / p_try)
                               - mu * np.sum(np.log(p_try)))
                    if val_try <= val + 1e-12 * (1 + abs(val)):
                        break
                t *= 0.5
            y = y + t * step
        if mu <= mu_final:
            return p_of(y)
        mu = max(mu * 0.1, mu_final)


def preset_basis_loop(name, k, bandwidth=None):
    """The basis stack of a linear-structure preset, built matrix by matrix with np.eye and loops.

    ``name`` is banded (with ``bandwidth``), toeplitz, circulant, diagonal,
    full or hermitian; the order of the matrices is the presets' order.
    """
    if name == "toeplitz":
        name, bandwidth = "banded", k - 1
    if name == "banded":
        mats = [np.eye(k)] + [np.eye(k, k=m) + np.eye(k, k=-m) for m in range(1, bandwidth + 1)]
    elif name == "circulant":
        mats = [np.eye(k)]
        for m in range(1, k // 2 + 1):
            B = np.eye(k, k=m) + np.eye(k, k=-m) + np.eye(k, k=m - k) + np.eye(k, k=k - m)
            mats.append(B / 2.0 if 2 * m == k else B)
    elif name == "diagonal":
        mats = []
        for i in range(k):
            B = np.zeros((k, k))
            B[i, i] = 1.0
            mats.append(B)
    else:
        dtype = complex if name == "hermitian" else float
        mats = []
        for i in range(k):
            B = np.zeros((k, k), dtype=dtype)
            B[i, i] = 1.0
            mats.append(B)
        for i in range(k):
            for j in range(i + 1, k):
                B = np.zeros((k, k), dtype=dtype)
                B[i, j] = B[j, i] = 1.0
                mats.append(B)
                if name == "hermitian":
                    C = np.zeros((k, k), dtype=complex)
                    C[i, j] = 1.0j
                    C[j, i] = -1.0j
                    mats.append(C)
    return np.stack(mats)


def spiked_objective(R, M):
    """log det R + Tr(R^{-1} M) from the definitions."""
    eig = np.linalg.eigvalsh(R)
    if eig[0] <= 0:
        return np.inf
    return float(np.sum(np.log(eig)) + np.real(np.trace(np.linalg.solve(R, M))))


def rank_one_gradient(atoms, result, samples):
    """gamma_j = w_j - g_j^H S g_j, the cost's gradient in p_j at a rank-one fit's scatter.

    Computed by the library's ``rankone._weights`` at unit powers, so
    d_j = g_j^H S g_j. KKT holds at the estimate when gamma >= 0 and
    p_j gamma_j = 0 for every atom.
    """
    w, s = _weights(atoms, np.ones(atoms.shape[1]), Iterate.at(result.scatter, samples))
    return w - s


def count_calls(monkeypatch, targets):
    """Record each call of the ``(owner, attr)`` functions, wherever structcov bound the name.

    Returns the list of recorded calls, one ``attr`` per call, in call order.
    """
    calls = []
    for owner, attr in targets:
        original = getattr(owner, attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        holders = [owner] + [m for n, m in list(sys.modules.items()) if n.startswith("structcov")]
        for module in holders:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls
