"""Kernel backend selection.

The compiled extension ``_fastcore`` is built by setup.py from the
hand-written C source ``_fastcore.c``. It is preferred when it
imported cleanly; the pure-Python module is the fallback.
SMBMM_KERNELS=pure|compiled forces a backend (forcing "compiled"
raises if the extension is not built).

Every protocol phase runs on ``matmul_mod`` (encode, server compute)
or the LU pair (decode). ``axpy_mod`` has no protocol caller; both
modules keep it because the protocol benchmark traces it by name.
"""

import os

_forced = os.environ.get("SMBMM_KERNELS", "").strip().lower()

if _forced == "pure":
    from . import pure as _impl
elif _forced == "compiled":
    from . import _fastcore as _impl  # type: ignore[attr-defined]
elif _forced:
    raise ImportError(f"unknown SMBMM_KERNELS value: {_forced!r}")
else:
    try:
        from . import _fastcore as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import pure as _impl

backend = "compiled" if _impl.__name__.endswith("_fastcore") else "pure"

matmul_mod = _impl.matmul_mod
axpy_mod = _impl.axpy_mod
lu_factor_mod = _impl.lu_factor_mod
lu_solve_mod = _impl.lu_solve_mod

__all__ = ["backend", "matmul_mod", "axpy_mod", "lu_factor_mod", "lu_solve_mod"]
