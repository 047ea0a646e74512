"""Matrix and grayscale-image I/O.

Two persistence formats only: CSV for matrices and tables, and PGM
(P2/P5, maxval 255) for images.  `save_csv` writes every CSV the toolkit
emits, headerless matrices and the CLI's tables alike; a failed read or
write raises IoError.  Images map to matrix columns scaled to [0, 1];
emission rescales back to [0, 255].
"""

import itertools
import re

import numpy as np

from .errors import EmptyInput, FormatError, IoError, ParseError


def load_matrix_csv(path):
    """Load a headerless, comma-separated matrix; line i becomes row i."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    rows = []
    width = None
    for i, ln in enumerate(text.split("\n"), 1):  # blank lines are skipped, but counted
        if ln.strip() == "":
            continue
        tokens = ln.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise FormatError(f"line {i}: expected {width} fields, got {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise ParseError(f"line {i}: non-numeric token ({exc})") from exc
    if not rows:
        raise EmptyInput(f"{path} contains no data")
    return np.asarray(rows, dtype=float)


def save_csv(path, header, rows):
    """Write `rows` as comma-separated lines, below a `header` row unless it is None.

    Each column takes its format from its first row: a float is printed
    with 17 significant digits, enough for an exact float64 round-trip,
    anything else with str.
    """
    try:
        with open(path, "w") as fh:
            if header is not None:
                fh.write(",".join(header) + "\n")
            line = None
            for row in rows:
                if line is None:
                    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in row) + "\n"
                fh.write(line % tuple(row))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_matrix_csv(m, path):
    """Write a matrix in the headerless CSV format read by load_matrix_csv."""
    save_csv(path, None, np.atleast_2d(np.asarray(m, dtype=float)))


class ImageGrid:
    """An 8-bit grayscale image: `pixels` is a (height, width) uint8 array."""

    def __init__(self, pixels):
        pixels = np.asarray(pixels)
        if pixels.ndim != 2:
            raise FormatError("ImageGrid needs a 2-D pixel array")
        if pixels.size and (pixels.min() < 0 or pixels.max() > 255):
            raise FormatError("pixel values must lie in [0, 255]")
        self.pixels = pixels.astype(np.uint8)


def _resize_nearest(pixels, w, h):
    src_h, src_w = pixels.shape
    rows = np.minimum((np.arange(h) * src_h) // h, src_h - 1)
    cols = np.minimum((np.arange(w) * src_w) // w, src_w - 1)
    return pixels[np.ix_(rows, cols)]


# A PGM header token, or a '#' comment running to the end of its line.
_HEADER_TOKEN = re.compile(rb"#[^\n]*|\S+")


def load_pgm(path, resize=None):
    """Load a P2 (ASCII) or P5 (binary) PGM with maxval 255.

    `resize=(w, h)` applies nearest-neighbor resampling after the read.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(data) < 2 or data[:2] not in (b"P2", b"P5"):
        raise FormatError("not a P2/P5 PGM file")
    magic = data[:2].decode()

    # Width, height and maxval: the first three tokens after the magic that are not comments.
    tokens = list(itertools.islice(
        (t for t in _HEADER_TOKEN.finditer(data, 2) if not t[0].startswith(b"#")), 3))
    if len(tokens) < 3:
        raise ParseError("truncated PGM header")
    pos = tokens[-1].end()
    try:
        width, height, maxval = (int(t[0]) for t in tokens)
    except ValueError as exc:
        raise ParseError(f"bad PGM header token: {exc}") from exc
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise FormatError("non-positive PGM dimensions")

    n = width * height
    if magic == "P5":
        body = data[pos + 1 : pos + 1 + n]
        if len(body) < n:
            raise ParseError("truncated P5 pixel data")
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    else:
        try:
            values = [int(t) for t in data[pos:].split()]
        except ValueError as exc:
            raise ParseError(f"bad P2 pixel token: {exc}") from exc
        if len(values) < n:
            raise ParseError("truncated P2 pixel data")
        pixels = np.asarray(values[:n], dtype=int)
        if pixels.min() < 0 or pixels.max() > 255:
            raise ParseError("P2 pixel outside [0, 255]")
        pixels = pixels.astype(np.uint8).reshape(height, width)

    grid = ImageGrid(pixels)
    if resize is not None:
        w, h = resize
        grid = ImageGrid(_resize_nearest(grid.pixels, w, h))
    return grid


def save_pgm(g, path):
    """Write an ImageGrid as a binary (P5) PGM, maxval 255."""
    try:
        with open(path, "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % g.pixels.shape[::-1])  # width, then height
            fh.write(g.pixels.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def matrix_to_image(m, height, width):
    """Map a [0, 1]-scaled matrix column-or-block back to 8-bit pixels.

    Values are rescaled by 255 and clamped to [0, 255] before rounding.
    """
    m = np.asarray(m, dtype=float).reshape(height, width)
    pixels = np.clip(np.rint(m * 255.0), 0, 255)
    return ImageGrid(pixels)


def image_to_matrix(grid):
    """Scale 8-bit pixels to [0, 1] floats."""
    return grid.pixels.astype(float) / 255.0


def tile_images(grids, cols, separator=2):
    """Concatenate equally sized images into one canvas, row-major.

    Panels are separated by `separator` white pixels; used for the
    original / recovered / salient / error recovery panels.
    """
    if not grids:
        raise EmptyInput("no images to tile")
    h, w = grids[0].pixels.shape
    for g in grids:
        if g.pixels.shape != (h, w):
            raise FormatError("all tiled images must share one shape")
    rows = (len(grids) + cols - 1) // cols
    canvas = np.full(
        (rows * h + (rows - 1) * separator, cols * w + (cols - 1) * separator),
        255,
        dtype=np.uint8,
    )
    for idx, g in enumerate(grids):
        r, c = divmod(idx, cols)
        y = r * (h + separator)
        x = c * (w + separator)
        canvas[y : y + h, x : x + w] = g.pixels
    return ImageGrid(canvas)
