"""Numerical simulator for heralded single-photon sources.

Computes the heralded idler density matrix and the figures of merit of a
filtered, time-windowed heralding measurement: pair probability, click and
detection efficiencies, heralding efficiency, and production rates.
"""
__version__ = "0.1.0"
