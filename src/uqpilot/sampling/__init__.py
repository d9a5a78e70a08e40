"""Sampling: distributions, quadrature rules, sparse grids and the samplers."""
