"""Benefit functions mapping total contribution to group benefit.

A benefit function B maps the total amount contributed to a common pool
onto the gross benefit produced for the group.  Every built-in shape is
normalised against a *scale* argument, the maximum attainable pool
(group size times the per-member contribution), so the same handle can
be reused across group sizes without rescaling by hand.

All shapes are non-negative on [0, scale] and vectorise over numpy
arrays, which keeps the fitness averaging loops fast.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["BenefitFunction"]


@np.errstate(over="ignore")
def expit(u):
    """Logistic function ``1 / (1 + exp(-u))``; saturates to 0 and 1 without warnings."""
    return 1.0 / (1.0 + np.exp(-np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class BenefitFunction:
    """Immutable handle for a benefit shape.

    Construct through the classmethods (`linear`, `step`, `sigmoid`,
    `tabulated`, `from_csv`) rather than directly; they validate the
    shape parameters once so evaluation can stay branch-light.

    Calling the handle evaluates ``B(total, scale)`` where *scale* is
    the maximum pool the current group could assemble.  Scalar input
    gives a float back, array input an array.
    """

    kind: str
    # shape parameters; which ones matter depends on `kind`
    slope: float = 1.0
    amplitude: float = 100.0
    steepness: float = 100.0
    threshold: float = 0.75
    knots: tuple[tuple[float, float], ...] = field(default=())

    @classmethod
    def linear(cls, slope: float = 1.0) -> "BenefitFunction":
        """B(C) = slope * C, the classic linear public-goods benefit."""
        if not 0 <= slope < math.inf:
            raise ValueError(f"linear benefit needs a finite slope >= 0, got {slope}")
        return cls(kind="linear", slope=slope)

    @classmethod
    def step(cls, amplitude: float = 100.0, threshold: float = 0.75) -> "BenefitFunction":
        """All-or-nothing benefit: `amplitude` once C reaches threshold * scale."""
        if not 0 <= amplitude < math.inf:
            raise ValueError(f"step benefit needs a finite amplitude >= 0, got {amplitude}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"step threshold must lie in (0, 1], got {threshold}")
        return cls(kind="step", amplitude=amplitude, threshold=threshold)

    @classmethod
    def sigmoid(
        cls,
        amplitude: float = 100.0,
        steepness: float = 100.0,
        threshold: float = 0.75,
    ) -> "BenefitFunction":
        """Smoothed threshold benefit.

        B(C) = amplitude * (F(C) - F(0)) / (F(scale) - F(0)) with
        F(C) = 1 / (1 + exp(steepness * (C/scale - threshold))), i.e. a
        logistic ramp centred at `threshold * scale`, rescaled so that
        B(0) = 0 and B(scale) = amplitude exactly.
        """
        if not 0 <= amplitude < math.inf:
            raise ValueError(f"sigmoid benefit needs a finite amplitude >= 0, got {amplitude}")
        if not 0 < steepness < math.inf:
            raise ValueError(f"sigmoid steepness must be positive and finite, got {steepness}")
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"sigmoid threshold must lie in (0, 1), got {threshold}")
        return cls(
            kind="sigmoid",
            amplitude=amplitude,
            steepness=steepness,
            threshold=threshold,
        )

    @classmethod
    def tabulated(cls, knots) -> "BenefitFunction":
        """Piecewise-linear benefit through explicit (C, B) knots.

        Knots must be finite and strictly increasing in C, with non-negative
        B values; evaluation outside the covered C range is an error, not an
        extrapolation.
        """
        pts = tuple((float(c), float(b)) for c, b in knots)
        if len(pts) < 2:
            raise ValueError("tabulated benefit needs at least two knots")
        for c, b in pts:
            if not (math.isfinite(c) and math.isfinite(b)):
                raise ValueError(f"tabulated knots must be finite, got ({c}, {b})")
        cs = [c for c, _ in pts]
        if any(c1 <= c0 for c0, c1 in zip(cs, cs[1:])):
            raise ValueError("tabulated knots must be strictly increasing in C")
        if any(b < 0 for _, b in pts):
            raise ValueError("tabulated benefit values must be non-negative")
        return cls(kind="tabulated", knots=pts)

    @classmethod
    def from_csv(cls, path) -> "BenefitFunction":
        """Load a tabulated benefit from a two-column CSV (C, B) with a header row."""
        rows = []
        with open(Path(path), newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < 2:
                raise ValueError(f"benefit CSV {path} needs a two-column header row")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"benefit CSV {path} line {lineno}: expected two columns")
                rows.append((float(row[0]), float(row[1])))
        return cls.tabulated(rows)

    @cached_property
    def _sigmoid_ends(self):
        """The sigmoid's F(0) and F(scale), which no argument changes.

        Cached on the instance, outside the dataclass fields, so equality,
        hashing and `dataclasses.asdict` see only the shape parameters.
        """
        return expit(self.steepness * self.threshold), expit(-self.steepness * (1.0 - self.threshold))

    def __call__(self, total, scale: float):
        """Evaluate B(total) for a group whose full pool would be `scale`."""
        if scale <= 0:
            raise ValueError(f"benefit scale must be positive, got {scale}")
        total = np.asarray(total, dtype=float)
        if self.kind == "linear":
            out = self.slope * total
        elif self.kind == "step":
            out = np.where(total >= self.threshold * scale, self.amplitude, 0.0)
        elif self.kind == "sigmoid":
            # expit(-u) == 1/(1+e^u); rescale so the end points are exact
            f = expit(-self.steepness * (total / scale - self.threshold))
            f0, f1 = self._sigmoid_ends
            out = self.amplitude * (f - f0) / (f1 - f0)
        elif self.kind == "tabulated":
            cs = np.array([c for c, _ in self.knots])
            bs = np.array([b for _, b in self.knots])
            if np.any(total < cs[0] - 1e-9) or np.any(total > cs[-1] + 1e-9):
                raise ValueError(
                    f"tabulated benefit evaluated outside knot coverage "
                    f"[{cs[0]}, {cs[-1]}]"
                )
            out = np.interp(total, cs, bs)
        else:  # pragma: no cover - constructors prevent this
            raise ValueError(f"unknown benefit kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out
