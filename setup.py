"""Build script for the optional compiled kernel core.

The package is pure Python; the C extension ``smbmm._kernels._fastcore``
only accelerates the GF(q) inner loops. It is built from the shipped
``src/smbmm/_kernels/_fastcore.c`` (generated once from ``_fastcore.pyx``),
so building needs a C compiler but not Cython. The extension is
optional: if it fails to compile, the build goes on without it and the
package falls back to the pure-Python kernels at import time. Set
SMBMM_SKIP_EXT=1 to skip the extension altogether.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if not os.environ.get("SMBMM_SKIP_EXT"):
    ext_modules.append(
        Extension(
            "smbmm._kernels._fastcore",
            ["src/smbmm/_kernels/_fastcore.c"],
            optional=True,
        )
    )

setup(ext_modules=ext_modules)
