"""Build script: compiles the native scoring kernel when a toolchain is present.

The extension is optional; without it the package falls back to the pure-Python
kernel in templex.kernels.pykernel, and the build says so on stderr.
"""

import sys

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "templex.kernels._native",
                ["src/templex/kernels/_native.pyx"],
                language="c++",
                extra_compile_args=["-O3", "-std=c++11"],
                optional=True,
            )
        ],
        language_level=3,
    )
except ImportError:
    print(
        "warning: Cython is not installed, so the native kernel is not built; "
        "templex will use the pure-Python kernel",
        file=sys.stderr,
    )
    ext_modules = []

setup(ext_modules=ext_modules)
