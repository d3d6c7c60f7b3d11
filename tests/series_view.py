"""The exact engine's integer series read as TauSeries, for assertions.

`ScaledSeries` and `LaurentSection` keep exponents as integers over a
denominator; tests that compare against Fraction series read them here.
"""

from mirrorlab.series import LaurentSection, ScaledSeries


def tau_series(value):
    """A ScaledSeries as its TauSeries, a LaurentSection as {x-key: TauSeries},
    and a dict with each value read the same way."""
    if isinstance(value, ScaledSeries):
        return value.series()
    if isinstance(value, LaurentSection):
        return {
            key: ScaledSeries(tuple(sorted((x, c) for x, c in t.items() if c)), value.den,
                              value.cutoff).series()
            for key, t in value.coeffs.items()
        }
    return {key: tau_series(v) for key, v in value.items()}
