"""Rigorous spectral-gap and log-Sobolev bounds for one-dimensional diffusions.

The package splits into small submodules, imported explicitly:

    diffgap.expr     symbolic expressions and exact derivatives
    diffgap.model    diffusion models, weights, dual (weighted) models
    diffgap.quad     adaptive quadrature, expectations and entropy phi checks
    diffgap.bounds   the bound methods and report assembly
    diffgap.oracle   finite-difference eigensolver and exact interval kernels
    diffgap.mcsim    Monte-Carlo simulation and identity checks
    diffgap.gallery  ready-made models
    diffgap.jobs     independent jobs on one forked process per CPU
    diffgap.cli      command-line front end (entry point: diffgap)
"""

__version__ = "0.1.0"

__all__ = ["expr", "model", "quad", "bounds", "oracle", "mcsim", "gallery", "jobs", "cli"]
