"""Top-q eigensystem solvers for symmetric PSD matrices.

Three solvers behind one entry point (:func:`top_eigensystem`):

- **Dense subset** (``"dense"``): the exact float64 path.  On the NumPy
  backend this is LAPACK ``syevr`` via :func:`scipy.linalg.eigh`; the
  Torch backend solves the full eigensystem and slices (torch has no
  subset driver).  ``"auto"`` picks it for float32 matrices and for
  sides below :data:`_MIXED_MIN_SIDE`.
- **Mixed precision**: the same subset solve on a float32 copy, then one
  float64 Rayleigh–Ritz step on its vectors.  The tridiagonal reduction
  is memory-bound, so halving its bytes roughly halves its time; the
  refinement restores float64 eigenvalues (Ritz error ≲ residual² / gap).
  A residual guard falls back to the dense solve when float32 cannot
  resolve the spectrum's tail.  ``"auto"`` picks it for float64 matrices
  of side ``>= _MIXED_MIN_SIDE``; it has no method name of its own.
- **Randomized range-finder** (``"randomized"``, Halko-Martinsson-Tropp):
  O(s^2 (q + p)) instead of O(s^3), but with few power iterations its
  trailing eigenvalues are far off on slowly decaying kernel spectra, so
  ``"auto"`` never picks it; it runs only when asked for by name.

All return eigen*values* in *descending* order as NumPy arrays (they feed
the scalar parameter-selection math) and eigen*vectors* as columns, native
to the active :class:`~repro.backend.ArrayBackend`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import get_backend
from repro.exceptions import BackendLinAlgError, ConfigurationError
from repro.instrument import record_ops
from repro.linalg.stable import symmetrize

__all__ = ["top_eigensystem", "randomized_top_eigensystem"]

#: From this matrix side up, ``"auto"`` solves float64 matrices with the
#: mixed-precision path.  Measured on a 2-CPU x86 host (OpenBLAS, mnist
#: analog, Laplacian kernel, q=300, dense against mixed): 0.11 s against
#: 0.18 s at s=500, even at s=1000 (0.25 s), 0.31 s against 0.26 s at
#: s=1024 and 0.99 s against 0.78 s at s=2000.
_MIXED_MIN_SIDE = 1024

#: Largest accepted relative residual ``||K v - theta v|| / theta`` of a
#: refined pair.  For symmetric ``K`` some eigenvalue lies within
#: ``||K v - theta v||`` of the Rayleigh quotient ``theta`` of a unit
#: ``v`` (gap-free bound), so every accepted eigenvalue has relative error
#: at most ``sqrt(eps_float32) ≈ 3.5e-4``; the quadratic bound
#: ``||r||^2 / gap`` makes it far smaller in practice (~1e-8 on kernel
#: blocks).  A float32 solve whose tail sits near float32 resolution
#: (``lambda_q / lambda_1`` approaching ``eps_float32``) cannot meet it,
#: and the dense solve runs instead.
_MIXED_RESIDUAL_BOUND = float(np.sqrt(np.finfo(np.float32).eps))

#: Extra float32 pairs solved below the ``q`` kept ones.  The float32
#: solve is backward stable: its pairs are, up to a residual of order
#: ``s * eps_float32 * lambda_1``, eigenpairs of ``K + dK`` with ``||dK||``
#: of that order too.  So the Ritz values of its ``q + band`` vectors lie
#: within a few ``||dK||`` of the top eigenvalues of ``K`` whatever the
#: gaps (Weyl's inequality, twice): the eigenvalues need no guard on the
#: gap at the cut.  The band tightens the Ritz values far below that a
#: priori bound, which is loose for small ``sigma_q``: without it,
#: ``sigma_q`` had relative error 2e-4 on the mnist analog at s=2000,
#: q=300; with 8 extra pairs the error was 9e-9.
_GUARD_BAND = 8


def _validate_square(a: Any) -> Any:
    a = get_backend().asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(
            f"expected a square matrix, got shape {tuple(a.shape)}"
        )
    return a


def top_eigensystem(
    a: Any,
    q: int,
    *,
    method: str = "auto",
    seed: int | None = 0,
    info: dict[str, Any] | None = None,
) -> tuple[np.ndarray, Any]:
    """Top-``q`` eigenpairs of symmetric PSD ``a``, eigenvalues descending.

    Parameters
    ----------
    a:
        Symmetric matrix of shape ``(s, s)``.  Mild asymmetry from floating
        point accumulation is symmetrized away.
    q:
        Number of eigenpairs, ``1 <= q <= s``.
    method:
        ``"auto"`` (default), ``"dense"`` or ``"randomized"``; see the
        module docstring.
    seed:
        RNG seed for the randomized path.
    info:
        Optional dict that receives ``solver`` (``"dense"``, ``"mixed"``,
        ``"mixed→dense"`` when the mixed result failed the residual guard
        and the dense solve ran, or ``"randomized"``) and, when the mixed
        path ran, ``max_residual``: its largest
        ``||K v - theta v|| / theta``.

    Returns
    -------
    (eigvals, eigvecs):
        ``eigvals``: NumPy array of shape ``(q,)``, descending;
        ``eigvecs``: backend-native ``(s, q)`` with orthonormal columns,
        ``a @ v_i ≈ eigvals_i * v_i``.
    """
    a = _validate_square(a)
    s = a.shape[0]
    q = int(q)
    if not 1 <= q <= s:
        raise ConfigurationError(f"q must be in [1, {s}], got {q}")
    if method not in ("auto", "dense", "randomized"):
        raise ConfigurationError(f"unknown eigensystem method {method!r}")
    if method == "auto":
        is_float64 = get_backend().dtype_of(a) == np.float64
        method = "mixed" if (is_float64 and s >= _MIXED_MIN_SIDE) else "dense"
    info = {} if info is None else info
    info["solver"] = method
    if method == "randomized":
        return randomized_top_eigensystem(a, q, seed=seed)
    if method == "mixed":
        solved = _mixed_top_eigensystem(a, q, info)
        if solved is not None:
            return solved
        info["solver"] = "mixed→dense"
    return _dense_top_eigensystem(a, q)


def _dense_top_eigensystem(a: Any, q: int) -> tuple[np.ndarray, Any]:
    s = a.shape[0]
    record_ops("eig", s * s * s)  # cubic dense-eigensolver cost model
    return get_backend().top_eigh(symmetrize(a), q)


def _mixed_top_eigensystem(
    a: Any, q: int, info: dict[str, Any]
) -> tuple[np.ndarray, Any] | None:
    """Float32 subset solve plus one float64 Rayleigh–Ritz step on float64
    ``a``; ``None`` when the result fails the residual guard.

    No float64 copy of ``a`` is made: the float32 solve runs on one
    symmetrized float32 buffer that it may overwrite, and the refinement
    multiplies by ``a`` itself.
    """
    bk = get_backend()
    s = a.shape[0]
    k = min(s, q + _GUARD_BAND)
    # (a^T + a) / 2 straight into one float32 buffer.
    low = bk.asarray(a.T, dtype=np.float32)
    low += a
    low *= 0.5
    _, v32 = bk.top_eigh(low, k, overwrite=True)
    del low
    basis = bk.asarray(v32, dtype=np.float64)
    del v32
    # The float32 vectors are orthonormal to ~1e-6, so Cholesky-QR is
    # enough: with Q^T Q = L L^T, the basis Q L^-T is orthonormal, and the
    # projected matrix L^-1 (Q^T K Q) L^-T is formed at k x k cost.
    k_basis = a @ basis  # (s, k): the one s*s*k product
    try:
        chol = bk.cholesky(basis.T @ basis)
    except BackendLinAlgError:
        return None
    half = bk.solve_triangular(chol, basis.T @ k_basis, lower=True)
    projected = symmetrize(bk.solve_triangular(chol, half.T, lower=True))
    theta, w = bk.eigh(projected)
    theta = bk.to_numpy(theta)[::-1].copy()
    coef = bk.solve_triangular(
        chol, bk.flip_columns(w)[:, :q], lower=True, trans=True
    )
    vecs = basis @ coef
    # Residuals from K Q coef = K V: s*k*q work, no second s*s product.
    resid = k_basis @ coef
    resid -= vecs * bk.asarray(theta[None, :q], dtype=np.float64)
    # Cost model: the float32 subset solve, K Q, Q^T Q and Q^T K Q,
    # Q coef and K Q coef, and the k x k problem.
    record_ops("eig", s * s * s + s * s * k + 2 * s * k * (k + q) + k * k * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.sqrt(bk.to_numpy(bk.row_sq_norms(resid.T))) / theta[:q]
    worst = float(np.max(np.where(theta[:q] > 0, rel, np.inf)))
    info["max_residual"] = worst
    if not worst <= _MIXED_RESIDUAL_BOUND:
        return None
    return theta[:q].copy(), vecs


def randomized_top_eigensystem(
    a: Any,
    q: int,
    *,
    n_oversample: int = 10,
    n_power_iter: int = 2,
    seed: int | None = 0,
) -> tuple[np.ndarray, Any]:
    """Randomized top-``q`` eigensystem (Halko et al., 2011, Alg. 5.3-ish).

    Builds an orthonormal basis ``Q`` for the range of ``a`` from a Gaussian
    sketch with ``q + n_oversample`` columns, optionally sharpened by
    ``n_power_iter`` subspace iterations, then solves the small projected
    problem exactly.  For PSD matrices with rapid spectral decay — exactly
    the kernel matrices of this paper — a handful of power iterations gives
    near machine-precision leading eigenpairs.

    The Gaussian sketch is always drawn with NumPy's generator and pushed
    to the backend, so the result is backend-independent for a given seed.

    Returns
    -------
    (eigvals, eigvecs):
        As in :func:`top_eigensystem`.
    """
    bk = get_backend()
    a = symmetrize(_validate_square(a))
    s = a.shape[0]
    q = int(q)
    if not 1 <= q <= s:
        raise ConfigurationError(f"q must be in [1, {s}], got {q}")
    rng = np.random.default_rng(seed)
    n_cols = min(s, q + int(n_oversample))
    sketch = bk.asarray(
        rng.standard_normal((s, n_cols)), dtype=bk.dtype_of(a)
    )
    y = a @ sketch
    record_ops("eig", s * s * n_cols)
    # Subspace (power) iteration with re-orthogonalization for stability.
    for _ in range(int(n_power_iter)):
        quu, _ = bk.qr(y)
        y = a @ quu
        record_ops("eig", s * s * n_cols)
    qmat, _ = bk.qr(y)
    small = symmetrize(qmat.T @ a @ qmat)
    record_ops("eig", 2 * s * s * n_cols)
    vals, vecs = bk.eigh(small)
    vals_np = bk.to_numpy(vals)[::-1][:q].copy()
    vecs = bk.matmul(qmat, bk.flip_columns(vecs))[:, :q]
    return vals_np, vecs
