"""Setuptools build script for the ``repro`` package.

All package metadata lives here.  It is a plain ``setup.py`` so that the
package also installs in offline environments whose setuptools predates
PEP 660 editable-install support (``pip install -e .
--no-build-isolation --no-use-pep517``).  The version is read from
``src/repro/__init__.py`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
