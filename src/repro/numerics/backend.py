"""Which linear-algebra path a problem of a given size runs on.

* ``"dense"``  — the original numpy arrays and LAPACK factorizations.
* ``"sparse"`` — the in-repo CSR structures and sparse LU of
  :mod:`repro.numerics.sparse`.

The choice is made from the bus count alone: sparse at or above
:data:`SPARSE_AUTO_MIN_BUSES` buses, dense below.  Only the leaf
kernels (matrix builders, sensitivities, WLS, shift-factor OPF) accept
an explicit backend, so the dense/sparse parity suites can run both
paths on the same input.
"""

from __future__ import annotations

from typing import Optional

#: Bus count at or above which the sparse backend is used.
SPARSE_AUTO_MIN_BUSES = 300


def resolve_backend(backend: Optional[str], num_buses: int) -> str:
    """The concrete backend (``dense`` or ``sparse``) for a problem size.

    ``None`` applies the size rule; an explicit ``"dense"``/``"sparse"``
    is returned as is.
    """
    if backend is None:
        return "sparse" if num_buses >= SPARSE_AUTO_MIN_BUSES else "dense"
    if backend not in ("dense", "sparse"):
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected 'dense' or 'sparse'")
    return backend
