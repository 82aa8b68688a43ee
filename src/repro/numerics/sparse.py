"""In-repo sparse linear algebra (stdlib + numpy only — no scipy).

The scaling refactor (ROADMAP, "One numeric core: sparse at every
size") moves the whole analysis stack — network matrices, PTDF/LODF
sensitivities, WLS estimation and the shift-factor OPF — onto
factorized sparse solves.  This module provides
the primitives:

* :class:`CsrMatrix` — a compressed-sparse-row matrix with the handful
  of vectorized operations the stack needs (matvec, transpose, row and
  column selection, row scaling, and a weighted Gram product
  ``A^T diag(w) A`` for WLS gain matrices).
* :func:`rcm_ordering` — reverse Cuthill–McKee fill-reducing ordering
  (pseudo-peripheral start), applied symmetrically before factorizing.
* :class:`SparseLU` — a left-looking (Gilbert–Peierls) sparse LU with
  threshold partial pivoting and batched forward/backward/transpose
  triangular solves.  A ``allow_singular`` mode records pivot
  magnitudes without dividing through tiny pivots, which is what the
  scaled-rank observability guard consumes.
* :class:`UpdatedSolver` — Sherman–Morrison/Woodbury rank-k updates of
  an existing factorization, used for single-line outage/closure
  sensitivities without re-factorizing the base matrix.

Everything is deterministic: no randomized pivoting, no
hash-order-dependent iteration.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class SingularMatrixError(ValueError):
    """The matrix (or an update Schur complement) is numerically singular."""


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``[s0, s0+1, .., s0+l0-1, s1, ..]`` without a Python loop."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    nonempty = lengths > 0
    starts, lengths = starts[nonempty], lengths[nonempty]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    boundaries = np.cumsum(lengths)[:-1]
    out[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


class CsrMatrix:
    """A real matrix in compressed-sparse-row form.

    ``data``/``indices``/``indptr`` follow the usual CSR convention;
    within each row the column indices are strictly increasing and
    duplicates have been summed (``from_coo`` guarantees this).
    """

    __slots__ = ("shape", "data", "indices", "indptr", "_rows_cache")

    def __init__(self, shape: Tuple[int, int], data: np.ndarray,
                 indices: np.ndarray, indptr: np.ndarray) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self._rows_cache: Optional[np.ndarray] = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_coo(cls, rows, cols, values,
                 shape: Tuple[int, int]) -> "CsrMatrix":
        """Build from triplets, summing duplicates (deterministically)."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        v = np.asarray(values, dtype=float)
        if r.size == 0:
            return cls(shape, np.empty(0), np.empty(0, np.int64),
                       np.zeros(shape[0] + 1, np.int64))
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        first = np.empty(r.size, dtype=bool)
        first[0] = True
        np.logical_or(r[1:] != r[:-1], c[1:] != c[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        data = np.add.reduceat(v, starts)
        rr, cc = r[starts], c[starts]
        counts = np.bincount(rr, minlength=shape[0])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(shape, data, cc, indptr)

    @classmethod
    def from_dense(cls, array) -> "CsrMatrix":
        a = np.asarray(array, dtype=float)
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), np.ones(n), idx,
                   np.arange(n + 1, dtype=np.int64))

    # -- basic properties ----------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def _row_expand(self) -> np.ndarray:
        """The row index of every stored entry (cached)."""
        if self._rows_cache is None:
            counts = np.diff(self.indptr)
            self._rows_cache = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), counts)
        return self._rows_cache

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row_expand(), self.indices] = self.data  # entries unique
        return out

    def diagonal(self) -> np.ndarray:
        n = min(self.shape)
        out = np.zeros(n)
        rows = self._row_expand()
        mask = (rows == self.indices) & (rows < n)
        out[rows[mask]] = self.data[mask]
        return out

    def one_norm(self) -> float:
        """Maximum absolute column sum (matches the dense guard's anorm)."""
        if self.nnz == 0:
            return 0.0
        sums = np.bincount(self.indices, weights=np.abs(self.data),
                           minlength=self.shape[1])
        return float(sums.max())

    # -- products ------------------------------------------------------

    def matvec(self, x) -> np.ndarray:
        """``A @ x`` for a vector (n,) or stacked columns (n, k)."""
        x = np.asarray(x, dtype=float)
        m = self.shape[0]
        rows = self._row_expand()
        if x.ndim == 1:
            return np.bincount(rows, weights=self.data * x[self.indices],
                               minlength=m)
        prod = self.data[:, None] * x[self.indices]
        out = np.empty((m, x.shape[1]))
        for k in range(x.shape[1]):
            out[:, k] = np.bincount(rows, weights=prod[:, k], minlength=m)
        return out

    def rmatvec(self, x) -> np.ndarray:
        """``A.T @ x`` for a vector (m,) or stacked columns (m, k)."""
        x = np.asarray(x, dtype=float)
        n = self.shape[1]
        rows = self._row_expand()
        if x.ndim == 1:
            return np.bincount(self.indices, weights=self.data * x[rows],
                               minlength=n)
        prod = self.data[:, None] * x[rows]
        out = np.empty((n, x.shape[1]))
        for k in range(x.shape[1]):
            out[:, k] = np.bincount(self.indices, weights=prod[:, k],
                                    minlength=n)
        return out

    def transpose(self) -> "CsrMatrix":
        m, n = self.shape
        if self.nnz == 0:
            return CsrMatrix((n, m), np.empty(0), np.empty(0, np.int64),
                             np.zeros(n + 1, np.int64))
        rows = self._row_expand()
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CsrMatrix((n, m), self.data[order], rows[order], indptr)

    # -- selection / scaling -------------------------------------------

    def select_rows(self, rows: Sequence[int]) -> "CsrMatrix":
        """A new matrix holding the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = np.diff(self.indptr)[rows]
        take = _concat_ranges(self.indptr[rows], lengths)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return CsrMatrix((rows.size, self.shape[1]), self.data[take],
                         self.indices[take], indptr)

    def select_columns(self, keep: Sequence[int]) -> "CsrMatrix":
        """Keep the given columns (must be sorted ascending), renumbered."""
        keep = np.asarray(keep, dtype=np.int64)
        mapping = np.full(self.shape[1], -1, dtype=np.int64)
        mapping[keep] = np.arange(keep.size)
        mapped = mapping[self.indices]
        mask = mapped >= 0
        rows = self._row_expand()[mask]
        counts = np.bincount(rows, minlength=self.shape[0])
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CsrMatrix((self.shape[0], keep.size), self.data[mask],
                         mapped[mask], indptr)

    def scale_rows(self, factors) -> "CsrMatrix":
        """``diag(factors) @ A`` — same pattern, scaled values."""
        factors = np.asarray(factors, dtype=float)
        return CsrMatrix(self.shape, self.data * factors[self._row_expand()],
                         self.indices.copy(), self.indptr.copy())

    def gram(self, weights=None) -> "CsrMatrix":
        """``A^T diag(weights) A`` as CSR (weights default to ones).

        Built by expanding, per measurement row, the outer product of
        that row's nonzeros into triplets — rows are processed grouped
        by their nonzero count so the expansion stays vectorized.  This
        avoids a general sparse-sparse matmul, which the WLS gain (and
        observability Gram) never needs.
        """
        m, n = self.shape
        counts = np.diff(self.indptr)
        w = (np.ones(m) if weights is None
             else np.asarray(weights, dtype=float))
        parts_r: List[np.ndarray] = []
        parts_c: List[np.ndarray] = []
        parts_v: List[np.ndarray] = []
        for s in np.unique(counts):
            if s == 0:
                continue
            group = np.flatnonzero(counts == s)
            take = (self.indptr[group][:, None]
                    + np.arange(s, dtype=np.int64)[None, :])
            idx = self.indices[take]            # (g, s)
            vals = self.data[take]              # (g, s)
            wvals = vals * w[group][:, None]
            parts_r.append(np.broadcast_to(
                idx[:, :, None], (group.size, s, s)).ravel())
            parts_c.append(np.broadcast_to(
                idx[:, None, :], (group.size, s, s)).ravel())
            parts_v.append((wvals[:, :, None] * vals[:, None, :]).ravel())
        if not parts_r:
            return CsrMatrix((n, n), np.empty(0), np.empty(0, np.int64),
                             np.zeros(n + 1, np.int64))
        return CsrMatrix.from_coo(np.concatenate(parts_r),
                                  np.concatenate(parts_c),
                                  np.concatenate(parts_v), (n, n))


def rcm_ordering(matrix: CsrMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee ordering of a (pattern-)symmetric matrix.

    Returns a permutation ``perm`` with ``perm[new] = old``; applying it
    symmetrically concentrates the pattern near the diagonal, which
    bounds fill-in of the left-looking LU on mesh-like grids.  Each
    connected component is started from a pseudo-peripheral vertex
    found by a double BFS sweep.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Symmetrize the pattern (cheap; B and gain matrices already are).
    rows = np.concatenate([matrix._row_expand(), matrix.indices])
    cols = np.concatenate([matrix.indices, matrix._row_expand()])
    pattern = CsrMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))
    indptr, indices = pattern.indptr, pattern.indices
    degree = np.diff(indptr)

    def bfs_levels(start: int, visited_mask: np.ndarray) -> List[int]:
        order = [start]
        visited_mask[start] = True
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            nbrs = indices[indptr[node]:indptr[node + 1]]
            fresh = nbrs[~visited_mask[nbrs]]
            if fresh.size:
                fresh = fresh[np.argsort(degree[fresh], kind="stable")]
                visited_mask[fresh] = True
                order.extend(int(v) for v in fresh)
        return order

    visited = np.zeros(n, dtype=bool)
    result: List[int] = []
    by_degree = np.argsort(degree, kind="stable")
    for candidate in by_degree:
        if visited[candidate]:
            continue
        # Double sweep: BFS from the min-degree seed, restart from the
        # last (deepest) vertex discovered — a pseudo-peripheral start.
        probe = np.zeros(n, dtype=bool)
        sweep = bfs_levels(int(candidate), probe)
        start = sweep[-1] if sweep else int(candidate)
        result.extend(bfs_levels(start, visited))
    return np.array(result[::-1], dtype=np.int64)


class SparseLU:
    """Left-looking sparse LU with threshold partial pivoting.

    Factors ``P_r (P A P^T) = L U`` where ``P`` is a symmetric
    fill-reducing permutation (RCM by default) and ``P_r`` the row
    pivoting.  The pivot rule prefers the symmetric diagonal entry when
    it is within ``pivot_threshold`` of the column maximum, preserving
    the RCM structure; otherwise the column maximum is chosen.

    With ``allow_singular=True``, columns whose eligible pivots are all
    below ``anorm * 1e-14`` are *skipped*: the tiny pivot magnitude is
    recorded (for rank decisions) but nothing is divided by it, so the
    factors never explode.  ``solve`` refuses to run on such a
    factorization.
    """

    def __init__(self, matrix: CsrMatrix, order: str = "rcm",
                 pivot_threshold: float = 0.1,
                 allow_singular: bool = False) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"sparse LU needs a square matrix, got {matrix.shape}")
        self.n = n = matrix.shape[0]
        self.anorm = matrix.one_norm()
        self.allow_singular = allow_singular
        if isinstance(order, str):
            if order == "rcm":
                self.perm = rcm_ordering(matrix)
            elif order == "natural":
                self.perm = np.arange(n, dtype=np.int64)
            else:
                raise ValueError(f"unknown ordering {order!r}")
        else:
            self.perm = np.asarray(order, dtype=np.int64)
        self.singular = False
        self.pivot_magnitudes = np.zeros(n)
        self._factorize(matrix, float(pivot_threshold))

    # -- factorization -------------------------------------------------

    def _factorize(self, matrix: CsrMatrix, tau: float) -> None:
        n = self.n
        iperm = np.empty(n, dtype=np.int64)
        iperm[self.perm] = np.arange(n, dtype=np.int64)
        # Column access of the permuted matrix: column j of A' is column
        # perm[j] of A with rows mapped through iperm.  Columns of A are
        # rows of A^T.
        csc = matrix.transpose()
        zero_cut = max(self.anorm, 1.0) * 1e-14

        pinv = np.full(n, -1, dtype=np.int64)    # permuted row -> pivot pos
        rorder = np.empty(n, dtype=np.int64)     # pivot pos -> permuted row
        l_rows: List[np.ndarray] = [None] * n    # type: ignore[list-item]
        l_vals: List[np.ndarray] = [None] * n    # type: ignore[list-item]
        u_rows: List[np.ndarray] = [None] * n    # type: ignore[list-item]
        u_vals: List[np.ndarray] = [None] * n    # type: ignore[list-item]
        u_diag = np.zeros(n)

        x = np.zeros(n)
        stamp = np.full(n, -1, dtype=np.int64)
        unused_scan = 0                          # for singular assignment

        for j in range(n):
            col = self.perm[j]
            start, end = csc.indptr[col], csc.indptr[col + 1]
            seed_rows = iperm[csc.indices[start:end]]
            seed_vals = csc.data[start:end]
            # Symbolic: topological order of reachable pivotal nodes via
            # DFS over L's pattern; collect every touched row.
            topo: List[int] = []
            touched: List[int] = []
            for seed in seed_rows:
                seed = int(seed)
                if stamp[seed] == j:
                    continue
                stack = [(seed, 0)]
                stamp[seed] = j
                while stack:
                    node, ptr = stack[-1]
                    t = pinv[node]
                    children = l_rows[t] if t >= 0 else None
                    advanced = False
                    if children is not None:
                        while ptr < len(children):
                            child = int(children[ptr])
                            ptr += 1
                            if stamp[child] != j:
                                stamp[child] = j
                                stack[-1] = (node, ptr)
                                stack.append((child, 0))
                                advanced = True
                                break
                        else:
                            stack[-1] = (node, ptr)
                    if not advanced:
                        stack.pop()
                        touched.append(node)
                        if t >= 0:
                            topo.append(node)
            x[np.array(touched, dtype=np.int64)] = 0.0
            x[seed_rows] = seed_vals
            # Numeric: apply pivotal updates in topological order
            # (reverse postorder).
            for node in reversed(topo):
                t = pinv[node]
                xval = x[node]
                if xval != 0.0:
                    x[l_rows[t]] -= xval * l_vals[t]
            touched_arr = np.array(touched, dtype=np.int64)
            pivotal_mask = pinv[touched_arr] >= 0
            upper_rows = touched_arr[pivotal_mask]
            lower_rows = touched_arr[~pivotal_mask]
            u_positions = pinv[upper_rows]
            u_rows[j] = u_positions
            u_vals[j] = x[upper_rows].copy()

            pivot_row = -1
            pivot_val = 0.0
            if lower_rows.size:
                lower_abs = np.abs(x[lower_rows])
                cmax = float(lower_abs.max())
                self.pivot_magnitudes[j] = cmax
                if cmax > zero_cut:
                    # Threshold rule: keep the diagonal of the symmetric
                    # ordering when competitive.
                    if (pinv[j] == -1 and stamp[j] == j
                            and abs(x[j]) >= tau * cmax):
                        pivot_row = j
                    else:
                        pivot_row = int(lower_rows[int(lower_abs.argmax())])
                    pivot_val = float(x[pivot_row])
            if pivot_row < 0:
                if not self.allow_singular:
                    raise SingularMatrixError(
                        f"pivot for column {j} is below the singularity "
                        f"cutoff (matrix is singular to working precision)")
                self.singular = True
                # Record an empty L column and retire a row.  Prefer the
                # symmetric diagonal row: for the (symmetric) gain/B
                # matrices a dependent column means the matching row is
                # dependent too, and consuming any other row would
                # manufacture a second spurious deficiency later.
                if pinv[j] == -1:
                    pivot_row = j
                elif lower_rows.size:
                    pivot_row = int(lower_rows[0])
                else:
                    while pinv[unused_scan] != -1:
                        unused_scan += 1
                    pivot_row = unused_scan
                u_diag[j] = 0.0
                l_rows[j] = np.empty(0, dtype=np.int64)
                l_vals[j] = np.empty(0)
            else:
                u_diag[j] = pivot_val
                others = lower_rows[lower_rows != pivot_row]
                vals = x[others] / pivot_val
                keepers = vals != 0.0
                l_rows[j] = others[keepers]
                l_vals[j] = vals[keepers]
            pinv[pivot_row] = j
            rorder[j] = pivot_row

        # Remap L's row indices (permuted rows) to pivot positions so the
        # triangular solves run in pivot space.
        self._l_rows = [pinv[r] for r in l_rows]
        self._l_vals = l_vals
        self._u_rows = u_rows
        self._u_vals = u_vals
        self._u_diag = u_diag
        self._rorder = rorder
        nonskipped = u_diag != 0.0
        self.pivot_magnitudes[nonskipped] = np.abs(u_diag[nonskipped])
        self.fill_nnz = int(sum(r.size for r in self._l_rows)
                            + sum(r.size for r in u_rows)) + n

    # -- solves --------------------------------------------------------

    def _require_nonsingular(self) -> None:
        if self.singular:
            raise SingularMatrixError(
                "matrix is singular to working precision")

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A x = b`` for a vector (n,) or stacked columns (n, k)."""
        self._require_nonsingular()
        b = np.asarray(rhs, dtype=float)
        n = self.n
        if n == 0:
            return np.zeros_like(b)
        bp = b[self.perm]
        z = bp[self._rorder].copy()       # pivot space
        matrix_rhs = z.ndim == 2
        for j in range(n):
            yj = z[j]
            if (yj.any() if matrix_rhs else yj != 0.0):
                rows = self._l_rows[j]
                if rows.size:
                    if matrix_rhs:
                        z[rows] -= self._l_vals[j][:, None] * yj
                    else:
                        z[rows] -= self._l_vals[j] * yj
        for j in range(n - 1, -1, -1):
            xj = z[j] / self._u_diag[j]
            z[j] = xj
            rows = self._u_rows[j]
            if rows.size:
                if matrix_rhs:
                    z[rows] -= self._u_vals[j][:, None] * xj
                else:
                    z[rows] -= self._u_vals[j] * xj
        out = np.empty_like(b)
        out[self.perm] = z
        return out

    def solve_transpose(self, rhs) -> np.ndarray:
        """Solve ``A^T x = b`` (vector or stacked columns)."""
        self._require_nonsingular()
        b = np.asarray(rhs, dtype=float)
        n = self.n
        if n == 0:
            return np.zeros_like(b)
        w = b[self.perm].astype(float, copy=True)
        for j in range(n):                # U^T w = b'
            rows = self._u_rows[j]
            if rows.size:
                w[j] = (w[j] - self._u_vals[j] @ w[rows]) / self._u_diag[j]
            else:
                w[j] = w[j] / self._u_diag[j]
        for j in range(n - 1, -1, -1):    # L^T v = w
            rows = self._l_rows[j]
            if rows.size:
                w[j] = w[j] - self._l_vals[j] @ w[rows]
        out = np.empty_like(b)
        permuted = np.empty_like(w)
        permuted[self._rorder] = w
        out[self.perm] = permuted
        return out


class UpdatedSolver:
    """Sherman–Morrison/Woodbury solver for ``A + U diag(alpha) V^T``.

    Wraps an existing solver for ``A`` (any callable accepting vector or
    matrix right-hand sides) with a rank-k correction.  For the
    topology-change use the updates are symmetric rank-1 terms
    ``±y_k a_k a_k^T`` (line k's admittance and reduced incidence
    vector), so adding/removing a line never re-factorizes the base.

    Raises :class:`SingularMatrixError` when the capacitance (Schur)
    matrix ``diag(1/alpha) + V^T A^-1 U`` is singular — exactly the
    bridge-outage condition of the LODF denominator.
    """

    def __init__(self, base_solve: Callable[[np.ndarray], np.ndarray],
                 base_matvec: Callable[[np.ndarray], np.ndarray],
                 updates: Sequence[Tuple[float, np.ndarray, np.ndarray]]
                 ) -> None:
        if not updates:
            raise ValueError("UpdatedSolver needs at least one update term")
        self._base_solve = base_solve
        self._base_matvec = base_matvec
        self._alphas = np.array([float(a) for a, _, _ in updates])
        if np.any(self._alphas == 0.0):
            raise ValueError("update coefficients must be nonzero")
        self._u = np.column_stack([np.asarray(u, dtype=float)
                                   for _, u, _ in updates])
        self._v = np.column_stack([np.asarray(v, dtype=float)
                                   for _, _, v in updates])
        self._z = base_solve(self._u)            # A^-1 U, one batched solve
        if self._z.ndim == 1:
            self._z = self._z[:, None]
        projected = self._v.T @ self._z
        capacitance = np.diag(1.0 / self._alphas) + projected
        k = capacitance.shape[0]
        # Singularity is cancellation between diag(1/alpha) and V^T Z,
        # so the scale must come from the *operands*: measured against
        # the (possibly fully cancelled) result, a near-zero capacitance
        # would read as full-scale and slip through.
        scale = float(max(np.max(np.abs(1.0 / self._alphas)),
                          np.max(np.abs(projected)) if projected.size
                          else 0.0))
        if scale == 0.0 or (
                abs(float(np.linalg.det(capacitance)))
                <= (scale ** k) * 1e-12):
            raise SingularMatrixError(
                "rank-1 update makes the matrix singular to working "
                "precision (capacitance matrix is singular)")
        self._capacitance = capacitance

    def solve(self, rhs) -> np.ndarray:
        """Solve ``(A + U diag(alpha) V^T) x = rhs``."""
        y = self._base_solve(np.asarray(rhs, dtype=float))
        w = np.linalg.solve(self._capacitance, self._v.T @ y)
        return y - self._z @ w

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        correction = self._u @ (self._alphas[:, None] * (self._v.T @ x)
                                if x.ndim == 2
                                else self._alphas * (self._v.T @ x))
        return self._base_matvec(x) + correction
