"""Verification toolkit for the genus-2 mirror construction.

Exact theta-section algebra and triangle counting over the polarization
lattice, tropical honeycomb geometry of the moment body, disc and sphere
counting series, a sampled positivity certificate for the interpolated
Kähler metric, and the fiber monodromy table.
"""
