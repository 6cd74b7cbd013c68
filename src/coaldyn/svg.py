"""Deterministic SVG previews of the composition simplex.

Hand-rolled on purpose: previews must be byte-stable across platforms, and
the data files remain the authoritative output.  States (i_c, i_d) map to
barycentric points in a fixed triangle with the outsider vertex bottom-left,
defectors bottom-right, cooperators on top.  Shading opacity and the
arrow colour ramp are fixed monotone transforms of the raw values.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH = 640.0
_HEIGHT = 620.0
_V_C = (320.0, 60.0)
_V_D = (580.0, 540.0)
_V_O = (60.0, 540.0)

_COOL = (70, 130, 180)
_WARM = (220, 50, 47)


def _point(i_c: float, i_d: float, z: int) -> tuple[float, float]:
    i_o = z - i_c - i_d
    px = (i_c * _V_C[0] + i_d * _V_D[0] + i_o * _V_O[0]) / z
    py = (i_c * _V_C[1] + i_d * _V_D[1] + i_o * _V_O[1]) / z
    return px, py


def _f(v: float) -> str:
    return f"{v:.2f}"


def _ramp(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    rgb = tuple(int(round(a + (b - a) * t)) for a, b in zip(_COOL, _WARM))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def simplex_svg(z: int, *, shade=None, arrows=None, label: str = "") -> str:
    """Render a simplex preview.

    shade: (i_c, i_d, values), three per-state arrays, drawn as darkened
    dots whose opacity follows sqrt(value / max value); states with value 0
    or opacity below 0.004 are left out.  Any other iterable is read as
    (i_c, i_d, value) triples.  arrows: iterable of
    (i_c, i_d, d_c, d_d, speed), drawn from each state along the composition
    displacement (d_c, d_d), coloured by speed through a fixed cool-to-warm
    ramp.  Output is a pure function of the inputs.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_WIDTH)}" '
        f'height="{_f(_HEIGHT)}" viewBox="0 0 {_f(_WIDTH)} {_f(_HEIGHT)}">',
        f'<rect width="{_f(_WIDTH)}" height="{_f(_HEIGHT)}" fill="white"/>',
        '<polygon points="'
        f'{_f(_V_C[0])},{_f(_V_C[1])} {_f(_V_D[0])},{_f(_V_D[1])} {_f(_V_O[0])},{_f(_V_O[1])}'
        '" fill="none" stroke="black" stroke-width="1.5"/>',
        f'<text x="{_f(_V_C[0])}" y="{_f(_V_C[1] - 14.0)}" text-anchor="middle" '
        'font-family="sans-serif" font-size="18">C</text>',
        f'<text x="{_f(_V_D[0] + 14.0)}" y="{_f(_V_D[1] + 6.0)}" '
        'font-family="sans-serif" font-size="18">D</text>',
        f'<text x="{_f(_V_O[0] - 26.0)}" y="{_f(_V_O[1] + 6.0)}" '
        'font-family="sans-serif" font-size="18">O</text>',
    ]
    if label:
        parts.append(
            f'<text x="{_f(_WIDTH / 2.0)}" y="{_f(_HEIGHT - 18.0)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{label}</text>'
        )

    if shade is not None:
        if not isinstance(shade, tuple):  # (i_c, i_d, value) triples, as perfbench/scaling.py passes
            shade = np.reshape(np.array(list(shade), dtype=float), (-1, 3)).T
        i_c, i_d, values = (np.asarray(a) for a in shade)
        vmax = float(values.max(initial=0.0))
        if vmax > 0.0:
            lit = np.flatnonzero(values > 0.0)
            opacity = np.sqrt(values[lit] / vmax)
            shown = opacity >= 0.004
            lit, opacity = lit[shown], opacity[shown]
            px, py = _point(i_c[lit], i_d[lit], z)
            r = _f(min(9.0, max(2.2, 380.0 / z)))
            parts.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="#1f2430" fill-opacity="{o:.3f}"/>'
                         for x, y, o in zip(px.tolist(), py.tolist(), opacity.tolist()))

    if arrows is not None:
        arrows = list(arrows)
        smax = max((a[4] for a in arrows), default=0.0)
        for i_c, i_d, d_c, d_d, speed in arrows:
            norm = math.hypot(d_c, d_d)
            if norm <= 0.0 or smax <= 0.0:
                continue
            px, py = _point(i_c, i_d, z)
            # Displacement direction in the same barycentric map.
            dx = (d_c * (_V_C[0] - _V_O[0]) + d_d * (_V_D[0] - _V_O[0])) / z
            dy = (d_c * (_V_C[1] - _V_O[1]) + d_d * (_V_D[1] - _V_O[1])) / z
            dn = math.hypot(dx, dy)
            if dn <= 0.0:
                continue
            t = speed / smax
            length = 12.0 * (0.4 + 0.6 * t)
            ux, uy = dx / dn, dy / dn
            qx, qy = px + ux * length, py + uy * length
            hx, hy = -uy, ux
            colour = _ramp(t)
            parts.append(
                f'<path d="M {_f(px)} {_f(py)} L {_f(qx)} {_f(qy)} '
                f'M {_f(qx - 4.0 * ux + 2.0 * hx)} {_f(qy - 4.0 * uy + 2.0 * hy)} '
                f'L {_f(qx)} {_f(qy)} '
                f'L {_f(qx - 4.0 * ux - 2.0 * hx)} {_f(qy - 4.0 * uy - 2.0 * hy)}" '
                f'stroke="{colour}" stroke-width="1.3" fill="none"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
