"""Test-side readings of a `Cyclo`, kept as oracles for the table code.

A character table is read from its integer canonical rows alone; these
read a value directly, as the package once did, so the tests can compare
the two routes.
"""

from sgplab.exactnum import Cyclo


def key(x: Cyclo) -> tuple:
    """A deterministic sorting key: the order and the canonical coefficients
    as (exponent, numerator, denominator), not a value invariant across
    orders."""
    return (x.order, tuple((e, c.numerator, c.denominator)
                           for e, c in sorted(x.coeffs.items())))


def to_json(x: Cyclo) -> dict:
    """The value as `table_to_json` writes one of its own order."""
    return {"order": x.order,
            "coeffs": [[e, c.numerator, c.denominator] for e, c in sorted(x.coeffs.items())]}


def residue(x: Cyclo, p: int, w: int) -> int:
    """The image in GF(p) under zeta_order -> w, for a prime p that does not
    divide the denominator and w of multiplicative order x.order mod p (a
    root of Phi_order, so the unreduced form may be read)."""
    s = sum(c * pow(w, e, p) for e, c in x._num.items())
    return s * pow(x._den, -1, p) % p
