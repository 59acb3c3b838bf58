"""Output checks.  Each returns a list of problems; an empty list passes.

The checks compare the program's outputs with the references in
``refs`` or with properties the method must have.  None compares with
stored program output.  Every check is small in memory next to the stage
it checks, so the peak resident size stays the program's.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import refs

TOL = 1e-12
INSIDE_PX = 3.0
CLOUD_CHUNK = 1 << 20


def check_delta(fit, max_depth: int) -> list:
    floats, exact = refs.survivor_masses(max_depth)
    problems = []
    if exact[1] != Fraction(3, 4):
        problems.append(f"reference depth-1 survivor mass is {exact[1]}, not 3/4")
    if list(fit.depths) != list(range(2, max_depth + 1)):
        problems.append(f"depths {fit.depths}")
        return problems
    want = [-math.log(floats[d]) for d in fit.depths]
    for d, got, ref in zip(fit.depths, fit.values, want):
        if abs(got - ref) > TOL:
            problems.append(f"depth {d}: -log mass {got!r} vs reference {ref!r}")
    if any(w != 0 for w in fit.widths):
        problems.append(f"bracket widths {fit.widths} are not all 0")
    ref_slope = refs.slope([float(d) for d in fit.depths], want)
    if abs(fit.exponent - ref_slope) > 1e-9:
        problems.append(f"delta {fit.exponent!r} vs reference slope {ref_slope!r}")
    return problems


def check_alpha(fit, depth: int, n_cap: int, floor: Fraction) -> list:
    masses = sorted(6 / den for _, den in refs.accelerated_leaves(depth, n_cap, floor))
    problems = []
    if fit.enumerated != len(masses):
        problems.append(f"enumerated {fit.enumerated} vs reference {len(masses)}")
    pairs = []
    for e, got in zip(fit.eps, fit.small_mass):
        ref = math.fsum(m for m in masses if m <= e)
        if abs(got - ref) > 1e-9 * max(abs(got), abs(ref)):
            problems.append(f"S({e!r}) = {got!r} vs reference {ref!r}")
        if ref > 0:
            pairs.append((math.log(e), math.log(ref)))
    if len(pairs) < 2:
        problems.append("fewer than two positive S(eps) pairs")
        return problems
    ref_slope = refs.slope([x for x, _ in pairs], [y for _, y in pairs])
    if abs(fit.exponent - ref_slope) > 1e-9:
        problems.append(f"alpha_1 {fit.exponent!r} vs reference slope {ref_slope!r}")
    return problems


def check_cloud(points) -> list:
    """Every chaos-game point is the image of an elementary map, whose
    chosen coordinate is 1 / (1 + rest) >= 1/2, so it lies in the closed
    simplex with a largest coordinate of at least 1/2."""
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != 2:
        return [f"cloud has shape {pts.shape}"]
    outside = low = 0
    for start in range(0, len(pts), CLOUD_CHUNK):
        chunk = pts[start : start + CLOUD_CHUNK]
        lam3 = 1.0 - chunk[:, 0] - chunk[:, 1]
        top = np.maximum(np.maximum(chunk[:, 0], chunk[:, 1]), lam3)
        outside += int(np.count_nonzero((chunk.min(axis=1) < -TOL) | (lam3 < -TOL)))
        low += int(np.count_nonzero(~(top >= 0.5 - TOL)))
    problems = []
    if outside:
        problems.append(f"{outside} points outside the closed simplex")
    if low:
        problems.append(f"{low} points with every coordinate below 1/2")
    return problems


def check_box(fit, points, exponents) -> list:
    ref = refs.box_counts(points, exponents)
    want = [ref[k] for k in sorted(exponents, reverse=True)]  # sizes ascending
    problems = []
    if list(fit.counts) != want:
        problems.append(f"box counts {fit.counts} vs reference {want}")
    for fine, coarse in zip(fit.counts, fit.counts[1:]):
        if not coarse <= fine <= 4 * coarse:
            problems.append(f"counts {coarse} -> {fine} break N(s) <= N(s/2) <= 4 N(s)")
    if not 1.55 <= fit.dimension <= 1.95:
        problems.append(f"box dimension {fit.dimension!r} outside [1.55, 1.95]")
    return problems


def check_bound(bound, delta, alpha) -> list:
    problems = []
    if bound != 2.0 - min(delta, alpha):
        problems.append(f"bound {bound!r} is not 2 - min({delta!r}, {alpha!r})")
    if not 1.0 < bound < 2.0:
        problems.append(f"bound {bound!r} outside (1, 2)")
    return problems


def check_returns(roofs, drawn: int, lost: int, want: int) -> list:
    problems = []
    if drawn != roofs.size + lost:
        problems.append(f"drawn {drawn} != returns {roofs.size} + lost {lost}")
    if roofs.size < want:
        problems.append(f"{roofs.size} returns, fewer than {want}")
    if not np.all(roofs > 0):
        problems.append(f"{int(np.count_nonzero(~(roofs > 0)))} roof values are not > 0")
    return problems


def check_tail(fit) -> list:
    _, _, exponent, residual, _ = fit
    if not (exponent > 0 and residual < 0.1):
        return [f"tail exponent {exponent!r} with residual {residual!r}"]
    return []


def check_kerckhoff(freq: float, t: float, samples: int) -> list:
    p = refs.kerckhoff_share(t)
    sigma = math.sqrt(p * (1 - p) / samples)
    if abs(freq - p) > 5 * sigma:
        return [f"T={t}: frequency {freq!r} vs 3/(k+1)^2 = {p!r} (sigma {sigma:.3g})"]
    return []


def check_balance(rows, samples: int) -> list:
    problems = []
    for row in rows:
        if row["completed"] + row["unresolved"] != samples:
            problems.append(f"C={row['C']}: completed + unresolved != {samples}")
    probs = [row["probability"] for row in sorted(rows, key=lambda r: r["C"])]
    if any(b < a for a, b in zip(probs, probs[1:])):
        problems.append(f"probabilities {probs} decrease as C grows")
    return problems


def check_image(image, width: int, height: int) -> list:
    """The raster of a gasket cloud: nothing deep inside the central
    removed triangle, something deep inside each corner region."""
    img = np.asarray(image)
    if img.shape != (height, width) or img.dtype != np.uint8:
        return [f"image {img.shape} {img.dtype}"]
    problems = []
    if img.max() != 255:
        problems.append(f"brightest pixel is {img.max()}, not 255")
    depth = refs.raster_depths(width, height)
    margin = INSIDE_PX + math.sqrt(0.5)  # the whole pixel square is that far in
    lit = img > 0
    central = np.all(depth < -margin, axis=0)
    if np.any(lit & central):
        problems.append(f"{int(np.count_nonzero(lit & central))} lit pixels inside the central triangle")
    for i in range(3):
        if not np.any(lit & (depth[i] > margin)):
            problems.append(f"no lit pixel in corner region {i + 1}")
    return problems


def parse_pgm(data: bytes):
    """(width, height, maxval, payload) of a binary PGM, or a problem string."""
    if not data.startswith(b"P5"):
        return "missing P5 magic"
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                return "header ends inside a comment"
            continue
        end = pos
        while end < len(data) and data[end : end + 1].isdigit():
            end += 1
        if end == pos:
            return "malformed header"
        fields.append(int(data[pos:end]))
        pos = end
    if not data[pos : pos + 1].isspace():
        return "no whitespace after maxval"
    width, height, maxval = fields
    return width, height, maxval, data[pos + 1 :]


def check_pgm(data: bytes, width: int, height: int):
    """(problems, image): the header and payload size of a binary PGM, and
    its payload as an image when the size is right."""
    parsed = parse_pgm(data)
    if isinstance(parsed, str):
        return [parsed], None
    w, h, maxval, payload = parsed
    problems = []
    if (w, h, maxval) != (width, height, 255):
        problems.append(f"header {w}x{h} maxval {maxval}")
    if len(payload) != width * height:
        problems.append(f"{len(payload)} payload bytes, not {width * height}")
        return problems, None
    return problems, np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def check_render(data: bytes, report: str, width: int, height: int) -> list:
    """The PGM ``rauzy-gasket render`` wrote, and its JSON report."""
    problems, image = check_pgm(data, width, height)
    if image is None:
        return problems
    problems += check_image(image, width, height)
    try:
        occupied = json.loads(report).get("occupied_pixels")
    except ValueError as exc:
        return problems + [f"unparseable report: {exc}"]
    if occupied != int(np.count_nonzero(image)):
        problems.append(f"report says {occupied} occupied pixels, the PGM has "
                        f"{int(np.count_nonzero(image))}")
    return problems
