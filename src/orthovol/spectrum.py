"""Orthospectrum files and the volume identity sum.

A spectrum file lists one orthogeodesic length per line, optionally
followed by an integer multiplicity.  '#' starts a comment, blank
lines are skipped.  The identity sum evaluates the volume kernel at
every listed length and adds the terms with their multiplicities.
"""

from __future__ import annotations

import math

from .special import dimension
from .volume_kernel import volume_kernel

__all__ = [
    "SpectrumFormatError",
    "parse_spectrum",
    "spectrum_volume",
]


class SpectrumFormatError(ValueError):
    """Malformed spectrum file; line_no is 1-based."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_spectrum(text: str) -> list[tuple[float, int]]:
    """Parse spectrum file content into (length, multiplicity) pairs.

    Lengths must be positive finite numbers, multiplicities positive
    integers (default 1).  Entries are returned in file order,
    duplicates preserved.
    """
    entries: list[tuple[float, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) > 2:
            raise SpectrumFormatError(
                line_no, f"expected 'length [multiplicity]', got {len(fields)} fields"
            )
        try:
            length = float(fields[0])
        except ValueError:
            raise SpectrumFormatError(
                line_no, f"length {fields[0]!r} is not a number"
            ) from None
        if not (length > 0.0 and math.isfinite(length)):
            raise SpectrumFormatError(
                line_no, f"length must be positive and finite, got {fields[0]}"
            )
        mult = 1
        if len(fields) == 2:
            try:
                mult = int(fields[1])
            except ValueError:
                raise SpectrumFormatError(
                    line_no, f"multiplicity {fields[1]!r} is not an integer"
                ) from None
            if mult < 1:
                raise SpectrumFormatError(
                    line_no, f"multiplicity must be >= 1, got {mult}"
                )
        entries.append((length, mult))
    return entries


def spectrum_volume(
    n: int, entries: list[tuple[float, int]]
) -> tuple[float, float, list[tuple[float, int, float, float]]]:
    """Sum the volume kernel over a parsed spectrum.

    Returns (total, total_err, rows) where rows carry
    (length, multiplicity, kernel value, kernel err) per entry in file
    order.  The total is the correctly rounded sum of the terms
    mult * value.  Its error estimate adds the terms' error estimates
    linearly, which overstates the combined error but never hides it,
    and half an ulp for the rounding of each term and of the total.
    n goes through __index__ and must be >= 2, also for an empty spectrum.
    """
    n = dimension(n, 2)
    rows = []
    terms = []
    errs = []
    for length, mult in entries:
        value, err, _ = volume_kernel(n, length)
        rows.append((length, mult, value, err))
        terms.append(mult * value)
        errs.append(mult * err)
    total = math.fsum(terms)
    rounding = 0.5 * math.fsum(math.ulp(x) for x in terms + [total] if x)
    return total, math.fsum(errs) + rounding, rows
