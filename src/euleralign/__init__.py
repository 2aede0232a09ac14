"""Pseudospectral simulation and frequency-analysis toolkit for the
compressible Euler-alignment system with fractional-Laplacian velocity
alignment.

Import each name from its module (``from euleralign.simulation import run``);
``import euleralign`` loads every module but ``cli``.  A leading underscore
marks a name that is private to its module."""

from . import grid, operators, lp, besov, model, linear, simulation, config, snapshot

__version__ = "0.1.0"
