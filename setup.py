"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that editable installs work on older
setuptools/pip stacks without the ``wheel`` package (offline environments).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Learning to Query: Focused Web Page Harvesting "
        "for Entity Aspects' (ICDE 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
    extras_require={
        # Running the test suite (hypothesis drives the property and oracle
        # tests) and the figure/perf benchmarks (pytest-benchmark's
        # ``benchmark`` fixture).
        "dev": ["pytest>=7.0", "hypothesis>=6.0", "pytest-benchmark>=3.4"],
    },
    entry_points={"console_scripts": ["repro-l2q = repro.cli:main"]},
)
