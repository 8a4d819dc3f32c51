"""File emission: CSV series, JSON summaries, static SVG plots.

CSV values are written with repr, the shortest string that round-trips
the double exactly, so re-parsing reproduces the in-memory series bit
for bit.  Plots are self-contained SVG with no plotting dependency:
log-log axes, decade grid, the measured series, the fitted line over
its window, and a guide line at the expected slope.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_hash, config_to_dict

OUT_ENV = "SEVOLAB_OUT"

_COLORS = ("#1965b0", "#dc050c", "#4eb265", "#f7a800", "#882e72",
           "#72190e")


def resolve_out_dir(config: ExperimentConfig) -> Path:
    """Explicit config.out wins; otherwise root from $SEVOLAB_OUT (or
    ./out) plus a kind-hash leaf naming the exact configuration."""
    if config.out is not None:
        path = Path(config.out)
    else:
        root = Path(os.environ.get(OUT_ENV, "out"))
        path = root / f"{config.kind}-{config_hash(config)[:12]}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_config_echo(out_dir: Path, config: ExperimentConfig) -> Path:
    path = Path(out_dir) / "config.json"
    doc = {"config": config_to_dict(config), "sha256": config_hash(config)}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def write_norms_csv(path, result) -> Path:
    """Columns t,l2_1..l2_k,hs_1..hs_k,sup_1..sup_k,mean_1..mean_k."""
    path = Path(path)
    k = result.l2.shape[0]
    names = ["t"]
    for stem in ("l2", "hs", "sup", "mean"):
        names += [f"{stem}_{ell + 1}" for ell in range(k)]
    rows = np.vstack((result.times, result.l2, result.hsigma, result.sup,
                      result.mean)).T.tolist()
    with path.open("w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return path


def read_norms_csv(path) -> dict:
    """Inverse of write_norms_csv; arrays keyed t, l2, hs, sup, mean."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    k = (len(header) - 1) // 4
    raw = np.array([[float(x) for x in line.split(",")]
                    for line in lines[1:]])
    out = {"t": raw[:, 0]}
    for i, stem in enumerate(("l2", "hs", "sup", "mean")):
        out[stem] = raw[:, 1 + i * k: 1 + (i + 1) * k].T
    return out


def write_lifespan_csv(path, sweep) -> Path:
    """Columns epsilon,T; capped runs carry T = nan."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("epsilon,T\n")
        for eps, T in zip(sweep.epsilons, sweep.lifespans):
            fh.write(f"{repr(float(eps))},"
                     f"{repr(float(T)) if T is not None else 'nan'}\n")
    return path


def read_lifespan_csv(path) -> tuple:
    lines = Path(path).read_text().strip().split("\n")[1:]
    eps, T = [], []
    for line in lines:
        a, b = line.split(",")
        eps.append(float(a))
        T.append(float(b))
    return np.array(eps), np.array(T)


def _ticks(lo: float, hi: float):
    return range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)


def plot_loglog(path, curves, *, fit=None, guide_slope: float | None = None,
                title: str = "", xlabel: str = "t",
                ylabel: str = "value") -> Path:
    """Static log-log SVG.

    curves: (x, y, label) triples; points with nonpositive coordinates
    are dropped (they cannot be drawn on log axes), and a curve left
    without points is not drawn, while the others keep the colour of
    their place in curves.  fit: a FitResult
    whose line is drawn over its own window.  guide_slope: a reference
    line at the expected slope, offset above the data.
    """
    W, H = 720.0, 480.0
    ML, MR, MT, MB = 70.0, 22.0, 42.0, 52.0

    pts = []  # (log10 x, log10 y, label, colour) of each drawable curve
    for i, (x, y, label) in enumerate(curves):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        good = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
        if np.any(good):
            pts.append((np.log10(x[good]), np.log10(y[good]), label,
                        _COLORS[i % len(_COLORS)]))
    if not pts:
        raise ValueError("nothing to plot: no positive finite points")
    lx0 = min(p[0].min() for p in pts)
    lx1 = max(p[0].max() for p in pts)
    ly0 = min(p[1].min() for p in pts)
    ly1 = max(p[1].max() for p in pts)
    ly1 += 0.3  # headroom for the guide line
    padx = 0.04 * max(lx1 - lx0, 1e-12)
    pady = 0.04 * max(ly1 - ly0, 1e-12)
    lx0, lx1 = lx0 - padx, lx1 + padx
    ly0, ly1 = ly0 - pady, ly1 + pady

    def X(lx):
        return ML + (lx - lx0) / (lx1 - lx0) * (W - ML - MR)

    def Y(ly):
        return H - MB - (ly - ly0) / (ly1 - ly0) * (H - MT - MB)

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">',
        f'<rect width="{W:.0f}" height="{H:.0f}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for d in _ticks(lx0, lx1):
        x = X(d)
        svg.append(f'<line x1="{x:.1f}" y1="{MT:.1f}" x2="{x:.1f}" '
                   f'y2="{H - MB:.1f}" stroke="#dddddd"/>')
        svg.append(f'<text x="{x:.1f}" y="{H - MB + 18:.1f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">1e{d}</text>')
    for d in _ticks(ly0, ly1):
        y = Y(d)
        svg.append(f'<line x1="{ML:.1f}" y1="{y:.1f}" x2="{W - MR:.1f}" '
                   f'y2="{y:.1f}" stroke="#dddddd"/>')
        svg.append(f'<text x="{ML - 6:.1f}" y="{y + 4:.1f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">1e{d}</text>')
    svg.append(f'<rect x="{ML:.1f}" y="{MT:.1f}" width="{W - ML - MR:.1f}" '
               f'height="{H - MT - MB:.1f}" fill="none" stroke="#333333"/>')
    svg.append(f'<text x="{(ML + W - MR) / 2:.1f}" y="{H - 12:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{xlabel}</text>')
    svg.append(f'<text x="18" y="{(MT + H - MB) / 2:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13" transform="rotate(-90 18 '
               f'{(MT + H - MB) / 2:.1f})">{ylabel}</text>')

    legend_y = MT + 16.0
    for lx, ly, label, color in pts:
        coords = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(lx, ly))
        svg.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        if label:
            svg.append(f'<line x1="{W - MR - 150:.1f}" y1="{legend_y - 4:.1f}" '
                       f'x2="{W - MR - 130:.1f}" y2="{legend_y - 4:.1f}" '
                       f'stroke="{color}" stroke-width="2"/>')
            svg.append(f'<text x="{W - MR - 124:.1f}" y="{legend_y:.1f}" '
                       f'font-family="sans-serif" font-size="11">'
                       f'{label}</text>')
            legend_y += 15.0

    def line_through(slope, log10_anchor_x, log10_anchor_y, a, b,
                     color, dash):
        la = lx0 + 0.05 * (lx1 - lx0) if a is None else math.log10(a)
        lb = lx1 - 0.05 * (lx1 - lx0) if b is None else math.log10(b)
        ya = log10_anchor_y + slope * (la - log10_anchor_x)
        yb = log10_anchor_y + slope * (lb - log10_anchor_x)
        svg.append(f'<line x1="{X(la):.1f}" y1="{Y(ya):.1f}" '
                   f'x2="{X(lb):.1f}" y2="{Y(yb):.1f}" stroke="{color}" '
                   f'stroke-width="1.4" stroke-dasharray="{dash}"/>')

    if fit is not None:
        # log10 y = (intercept + slope ln x) / ln 10
        anchor_x = (math.log10(fit.window[0]) + math.log10(fit.window[1])) / 2
        anchor_y = (fit.intercept + fit.slope * anchor_x * math.log(10.0)) \
            / math.log(10.0)
        line_through(fit.slope, anchor_x, anchor_y,
                     fit.window[0], fit.window[1], "#111111", "6 3")
        svg.append(f'<text x="{W - MR - 150:.1f}" y="{legend_y:.1f}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'fit {fit.slope:+.3f}</text>')
        legend_y += 15.0
    if guide_slope is not None:
        mid = pts[0]
        j = mid[0].size // 2
        line_through(guide_slope, mid[0][j], mid[1][j] + 0.22, None, None,
                     "#888888", "2 3")
        svg.append(f'<text x="{W - MR - 150:.1f}" y="{legend_y:.1f}" '
                   f'font-family="sans-serif" font-size="11" fill="#666666">'
                   f'guide {guide_slope:+.3f}</text>')

    path = Path(path)
    path.write_text("\n".join(svg) + "\n</svg>\n")
    return path
