"""Package metadata for the ``repro`` library (sources under ``src/``).

A classic ``setup.py`` with no ``pyproject.toml``: ``pip install -e .``
installs it where the ``wheel`` package is available, and
``python setup.py develop`` needs only setuptools (offline hosts).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
