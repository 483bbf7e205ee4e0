"""Setuptools packaging for the ``repro`` toolkit.

This file is the single place the distribution is declared (there is
no ``pyproject.toml``): name, version, the ``src/`` layout and the one
runtime dependency.  ``pip install -e .`` therefore installs the
``repro`` package, and ``PYTHONPATH=src`` remains the zero-install
alternative.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Reproduction toolkit for 'Toward Resilient Algorithms and Applications'",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
