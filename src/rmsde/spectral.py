"""The Lanczos-Gauss rule of a symmetric matrix, held as its packed upper
triangle, seen from a vector; the BLAS matvec on that triangle and the
LAPACK drivers that solve the rule's tridiagonal; the aging ratios read
off such a rule; and :func:`_openblas`, the bundled OpenBLAS through
which every foreign-library call of the package goes.  Imports no other
``rmsde`` module.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, Optional

import numpy as np

__all__: list = []  # private to the package: callers import the names they use


@functools.cache
def _openblas():
    """The OpenBLAS bundled with numpy's wheels, opened through ``ctypes``;
    None where that library is missing.  It serves :func:`_blas_threads`,
    :func:`_packed_matvec` and :func:`_tridiagonal_solvers`; ``ctypes``
    loads on the first call."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        return ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))[0])
    except (IndexError, OSError):
        return None


@functools.cache
def _blas_threads() -> Optional[tuple]:
    """``(get, set)`` of the thread count of :func:`_openblas`; None where
    that library or its ``scipy_openblas_*_num_threads64_`` symbols are
    missing."""
    import ctypes

    lib = _openblas()
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no library (None), or no such symbol
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _packed_matvec() -> Callable:
    """``bind(ap)``, which gives ``matvec(x) = a @ x`` for the symmetric
    ``a`` whose packed upper triangle is ``ap`` (row i from column i on,
    row after row: LAPACK's column-major ``'L'`` packed layout of ``a``).
    ``matvec`` may return one buffer that its next call overwrites.  Its
    optional ``at``, the address of ``x``'s data, saves forming that
    address through ``x.ctypes``, which costs more than a small product.

    The product is BLAS ``dspmv`` of :func:`_openblas` (ILP64), bound once
    per matrix, with its output buffer, so that a Lanczos step pays one
    foreign call and allocates no array.  Where that library or the
    symbol is missing, scipy's own ``dspmv`` serves, with the same bytes;
    scipy is imported only then.  ``dspmv`` gives the same bytes at any
    OpenBLAS thread count.  ``dsymv`` on the full matrix, which also
    reads one triangle, does not: at N >= 256 one thread and two gave
    different bytes, which would break byte-identical reruns at any
    thread count.
    """
    import ctypes

    lib = _openblas()
    try:
        dspmv = lib.scipy_dspmv_64_
    except AttributeError:  # no library (None), or no such symbol
        from scipy.linalg.blas import dspmv as scipy_dspmv

        return lambda ap: lambda x, at=None: scipy_dspmv(len(x), 1.0, ap, x, lower=1)
    ptr = ctypes.c_void_p
    # the CHARACTER argument's hidden length comes last, by value
    dspmv.argtypes, dspmv.restype = [ctypes.c_char_p] + [ptr] * 8 + [ctypes.c_size_t], None
    one, zero, inc = (ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(0.0)),
                      ctypes.byref(ctypes.c_int64(1)))

    def bind(ap: np.ndarray) -> Callable:
        n = (math.isqrt(8 * len(ap) + 1) - 1) // 2
        y = np.empty(n)
        size = ctypes.byref(ctypes.c_int64(n))
        data, out = ap.ctypes.data_as(ptr), y.ctypes.data_as(ptr)  # they keep ap and y alive

        def matvec(x: np.ndarray, at: int | None = None) -> np.ndarray:
            dspmv(b"L", size, one, data, x.ctypes.data if at is None else at, inc, zero, out,
                  inc, 1)
            return y

        return matvec

    return bind


def _unpacked(ap: np.ndarray, n: int) -> np.ndarray:
    """The symmetric (N, N) matrix whose packed upper triangle is ``ap``."""
    a = np.empty((n, n))
    upper = np.triu_indices(n)
    a[upper] = a[upper[::-1]] = ap
    return a


# Lanczos steps between two convergence checks of the Gauss rule.
_LANCZOS_CHECK = 16


def _diagonals(alpha: list, beta: list) -> tuple:
    """``(alpha, beta)`` as fresh float64 arrays, which the drivers of
    :func:`_tridiagonal_solvers` overwrite; ``+ 0.0`` makes a -0.0 on the
    diagonal read +0.0, as in a sum of diagonals."""
    d, e = np.add(alpha, 0.0, dtype=np.float64), np.array(beta, dtype=np.float64)
    if e.shape != (max(0, len(d) - 1),):  # the drivers read m - 1 of them
        raise ValueError(f"{len(d)} diagonal entries need {len(d) - 1} off the "
                         f"diagonal, got {e.shape}")
    return d, e


def _tridiagonal(alpha: list, beta: list) -> np.ndarray:
    """The Lanczos matrix: ``alpha`` on the diagonal, ``beta`` on both sides."""
    d, e = _diagonals(alpha, beta)
    t = np.diag(d)
    t.reshape(-1)[1::len(d) + 1] = t.reshape(-1)[len(d)::len(d) + 1] = e
    return t


@functools.cache
def _tridiagonal_solvers() -> tuple:
    """``(eigvalsh, eigh)`` of the Lanczos matrix given as ``(alpha, beta)``,
    with the results of ``np.linalg.eigvalsh`` and ``np.linalg.eigh`` of
    ``_tridiagonal(alpha, beta)``.

    numpy's dense drivers first reduce their input to tridiagonal form,
    which on a tridiagonal input changes nothing (every Householder
    ``tau`` is 0), and then call LAPACK's ``dsterf`` (eigenvalues) or
    ``dstedc('I')`` (eigenvectors too).  Here ``dstedc`` of
    :func:`_openblas` (ILP64), the one tridiagonal routine bound, runs
    directly on ``(alpha, beta)``, which gives the same bytes without the
    O(m^3) reduction: with ``COMPZ = 'N'`` it calls ``dsterf`` itself, on
    workspaces of one entry.  Where that library or the symbol is missing,
    the dense solves on ``_tridiagonal`` serve.
    """
    import ctypes

    lib = _openblas()
    try:
        dstedc = lib.scipy_dstedc_64_
    except AttributeError:  # no library (None), or no such symbol
        return (lambda alpha, beta: np.linalg.eigvalsh(_tridiagonal(alpha, beta)),
                lambda alpha, beta: np.linalg.eigh(_tridiagonal(alpha, beta)))
    ptr = ctypes.c_void_p
    # the CHARACTER argument's hidden length comes last, by value
    dstedc.argtypes, dstedc.restype = [ctypes.c_char_p] + [ptr] * 10 + [ctypes.c_size_t], None

    def ref(value: int):
        return ctypes.byref(ctypes.c_int64(value))

    def solve(compz: bytes, d: np.ndarray, e: np.ndarray, z: np.ndarray, work: np.ndarray,
              iwork: np.ndarray) -> None:
        """``dstedc(compz)`` on the diagonals ``d`` and ``e``, in place."""
        info = ctypes.c_int64()
        dstedc(compz, ref(len(d)), d.ctypes.data, e.ctypes.data, z.ctypes.data,
               ref(max(1, len(z))), work.ctypes.data, ref(len(work)), iwork.ctypes.data,
               ref(len(iwork)), ctypes.byref(info), 1)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def eigvalsh(alpha: list, beta: list) -> np.ndarray:
        d, e = _diagonals(alpha, beta)
        # LDZ = LWORK = LIWORK = 1: Z and the workspaces are not read
        solve(b"N", d, e, np.empty(1), np.empty(1), np.empty(1, dtype=np.int64))
        return d

    def eigh(alpha: list, beta: list) -> tuple:
        d, e = _diagonals(alpha, beta)
        m = len(d)
        z = np.empty((m, m))  # column-major: row k is the k-th eigenvector
        solve(b"I", d, e, z, np.empty(1 + 4 * m + m * m), np.empty(3 + 5 * m, dtype=np.int64))
        return d, z.T

    return eigvalsh, eigh


def _gauss_rule(ap: np.ndarray, x0: np.ndarray, watch: Callable | None = None) -> tuple:
    """Gauss rule ``(theta, weights)`` of the spectral measure of the
    symmetric ``a`` seen from ``x0``: ``sum(weights * f(theta))`` equals
    ``x0^T f(a) x0`` for every polynomial ``f`` of degree below ``2m``,
    with ``m`` Lanczos steps (Golub & Welsch 1969; Golub & Meurant 2010).

    ``a`` comes as its packed upper triangle ``ap``, N(N+1)/2 entries in
    the layout of :func:`_packed_matvec`, which forms each step's product
    with BLAS ``dspmv``.  Lanczos from ``x0`` runs with full
    reorthogonalization (classical Gram-Schmidt, twice) and builds the
    tridiagonal ``T``.  The nodes are its eigenvalues, the Ritz values,
    ascending; the weights are ``|x0|^2`` times the squared first
    components of its eigenvectors.  Every ``_LANCZOS_CHECK`` steps the
    numbers ``watch(theta, weights)`` of the rule so far are compared with
    the last check's; the run stops when each moved by at most ``1e-14``
    times their largest magnitude, when the Krylov space closes (the next
    ``beta`` is at the rounding level ``N eps |a|_F``, with
    ``|a|_F^2 = 2 |ap|^2 - |diag a|^2``; the first step runs for any
    nonzero ``x0``), or at ``m = N``.  With no ``watch`` they are the
    extreme Ritz values, from ``dstedc('N')``, which calls ``dsterf``;
    with one, each check solves the rule with ``dstedc('I')`` and the
    stopping check's solve is the final rule.  ``T`` is solved from its
    diagonals with the bytes of numpy's dense solves
    (:func:`_tridiagonal_solvers`).

    Scaling by a power of two commutes with the roundings of Lanczos and
    of those solves, so the rule of ``2 * a`` is the rule of ``a`` with
    doubled nodes and the same weights, bit for bit: a caller doubles
    the nodes, not the matrix.

    Ritz values lie inside the spectrum.  When the space closes before
    ``N`` steps the rule is exact, but its extremes need not be the
    spectrum's ends: those ends, from ``eigvalsh`` of the unpacked
    matrix, then join the rule as two zero-weight nodes.  So
    ``theta[0]`` and ``theta[-1]`` are the spectrum's ends either way, to
    the stopping tolerance when the run stopped on convergence, unless a
    watch stopped it: then they are Ritz values.
    """
    n = len(x0)
    if ap.shape != (n * (n + 1) // 2,) or ap.dtype != np.float64 or not ap.flags.c_contiguous:
        raise ValueError(f"a start of {n} entries needs a packed triangle of "
                         f"{n * (n + 1) // 2} contiguous float64 entries, got {ap.shape}")
    mass = float(x0 @ x0)
    rows = np.arange(n)
    diagonal = ap[rows * n - rows * (rows - 1) // 2]  # each row's first entry
    tol = n * np.finfo(np.float64).eps * math.sqrt(2.0 * (ap @ ap) - diagonal @ diagonal)
    matvec = _packed_matvec()(ap)
    eigvalsh, eigh = _tridiagonal_solvers()
    basis = np.empty((min(n, 2 * _LANCZOS_CHECK), n))
    address = basis.ctypes.data  # of row 0; a row's product takes its address
    alpha, beta = [], []
    r, b, last, rule = x0, math.sqrt(mass), None, None
    while len(alpha) < n and b > (tol if alpha else 0.0):
        m = len(alpha)
        if m == len(basis):  # grown by a copy, which holds no third block
            grown = np.empty((min(n, 2 * m), n))
            grown[:m] = basis
            basis = grown
            address = basis.ctypes.data
        if m:
            beta.append(b)
        row = basis[m]
        np.divide(r, b, out=row)
        q = basis[:m + 1]
        r = matvec(row, address + m * basis.strides[0])
        h = q @ r
        r -= h @ q
        h2 = q @ r
        r -= h2 @ q
        alpha.append(h[m] + h2[m])
        b = math.sqrt(r @ r)
        if len(alpha) % _LANCZOS_CHECK == 0 and b > tol:
            if watch is None:
                now = eigvalsh(alpha, beta)[[0, -1]]
            else:
                rule = eigh(alpha, beta)
                now = np.asarray(watch(rule[0], mass * rule[1][0] ** 2))
            if last is not None and np.all(np.abs(now - last) <= 1e-14 * np.abs(now).max()):
                break
            last = now
    if rule is None or len(rule[0]) < len(alpha):
        rule = eigh(alpha, beta)
    theta, s = rule
    weights = mass * s[0] ** 2
    if len(alpha) < n and b <= tol:
        lo, hi = np.linalg.eigvalsh(_unpacked(ap, n))[[0, -1]]
        theta = np.concatenate([[lo], theta, [hi]])
        weights = np.concatenate([[0.0], weights, [0.0]])
    return theta, weights


# exponents formed at once by _aging_ratios_one: three times per pair, one per node
_RATIO_EXPONENTS = 1 << 16


def _aging_ratios_one(w: np.ndarray, c2: np.ndarray, pairs: list) -> list:
    """Normalized autocorrelation ratios of the noise-free flow.

    The flow ``x_t = exp((2J - K I) t) x0`` gives
    ``C(s, t) = (1/N) sum_i c_i^2 exp((mu_i - K)(s + t))`` over the
    nodes ``w = mu`` and weights ``c2`` of the spectral measure of ``2J``
    seen from ``x0``: its eigenvalues and squared eigenbasis
    coefficients, or a Gauss rule.  The confinement and ``1/N`` cancel
    from the normalized ratio exactly, so the computation never forms
    the (possibly huge or tiny) bare correlations.  Over the nodes of
    positive weight, each time ``tau`` shifts the exponents
    ``e = log c2 + mu tau`` by their largest, ``m(tau)``, so each sum is
    at least 1, and the ratio of the shifted sums is multiplied by
    ``exp(m(s + t) - (m(2s) + m(2t)) / 2)``.  That exponent is formed from
    the differences of the three leading nodes' logs and nodes, so it is
    exactly 0 when one node leads at all three times: at large times
    the ratio tends to 1, finite, where unshifted sums under- or
    overflow.
    """
    keep = c2 > 0.0
    w, lc = w[keep], np.log(c2[keep])
    out = []
    step = max(1, _RATIO_EXPONENTS // (3 * len(w)))
    for lo in range(0, len(pairs), step):
        s, lam = np.array(pairs[lo:lo + step]).T
        t = lam * s
        times = np.concatenate([s + t, 2 * s, 2 * t])
        e = lc + w * times[:, None]  # one row per time
        top = e.argmax(axis=1)
        sums = np.exp(e - e[np.arange(len(times)), top][:, None]).sum(axis=1)
        (num, den_s, den_t), (i, j, k) = sums.reshape(3, -1), top.reshape(3, -1)
        shift = lc[i] - (lc[j] + lc[k]) / 2 + (w[i] - w[j]) * s + (w[i] - w[k]) * t
        out.extend(num / np.sqrt(den_s * den_t) * np.exp(shift))
    return out
