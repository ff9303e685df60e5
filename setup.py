"""Build script; the package metadata is in pyproject.toml."""

from setuptools import setup

setup()
