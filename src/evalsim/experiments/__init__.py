"""Experiment drivers: parameter grids, chunked Monte Carlo, result tables."""
