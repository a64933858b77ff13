"""Multi-view dataset loading, normalization, batching and synthetic data,
and the one writer of each plain-text artifact format.

On disk a dataset is a JSON manifest next to one headerless CSV matrix per
view (rows are samples) and an optional labels file with one non-negative
integer per line::

    {
      "name": "digits",
      "n": 2000,
      "likelihood": "bernoulli",
      "views": [{"name": "pix", "dim": 240, "path": "pix.csv"}, ...],
      "labels": "labels.txt"
    }
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import string
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numgrad import as_tensor
from .numgrad.params import write_atomic
from .seeding import check_int, check_ints, check_real, is_int, is_real, rng_for

MANIFEST_FILE = "manifest.json"
# values per chunk of a CSV write: the vectorized writer's working set stays
# near 1 MB, and no whole file is held in memory
_CSV_CHUNK = 4096
LIKELIHOODS = ("bernoulli", "gaussian")
FORMAT_VERSION = 1  # of descriptor.json and state.json
# the test of each plain JSON kind; every kind is one of these, a list of one, or either | None
_JSON_TESTS = dict(int=is_int, float=is_real, str=lambda v: isinstance(v, str), dict=lambda v: isinstance(v, dict))
_JSON_KINDS = frozenset(
    kind + none for base in _JSON_TESTS for kind in (base, f"tuple[{base}, ...]") for none in ("", " | None")
)


class LoadError(ValueError):
    """An input file failed validation; the message names the offender."""


def check_batch(x, dim, what) -> np.ndarray:
    """``x`` as a float64 array; it must be an (n, ``dim``) matrix, else a ValueError names ``what``."""
    arr = as_tensor(x)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{what} must be (n, {dim}), got shape {np.shape(x)}")
    return arr


def check_views(views, dims) -> list[np.ndarray]:
    """``views`` as float64 arrays, one (n, d) matrix per d of ``dims``, all with the same n."""
    if len(views) != len(dims):
        raise ValueError(f"expected {len(dims)} views, got {len(views)} (all views are required)")
    mats = [check_batch(x, d, f"view {v}") for v, (x, d) in enumerate(zip(views, dims))]
    _same_rows(mats, range(len(mats)))
    return mats


def _same_rows(mats, names) -> int:
    """The row count every one of ``mats`` has, else a ValueError names two views by ``names``."""
    for name, mat in zip(names, mats):
        if mat.shape[0] != mats[0].shape[0]:
            raise ValueError(f"view {name!r} has {mat.shape[0]} rows, view {names[0]!r} has {mats[0].shape[0]}")
    return mats[0].shape[0]


def check_likelihood(likelihood) -> None:
    if likelihood not in LIKELIHOODS:
        raise ValueError(f"likelihood must be one of {LIKELIHOODS}, got {likelihood!r}")


@dataclass
class NormalizationRecord:
    """Per-view affine feature transform y = (x - offset) * scale.

    Bernoulli normalization stores min/range, Gaussian stores mean/std;
    constant features get scale 0 and map to exactly 0. Applying the record
    to the data it was fit on reproduces the normalized data exactly. The
    likelihood of the model that owns the record says which of the two it is.
    """

    offsets: list[np.ndarray]
    scales: list[np.ndarray]

    def apply(self, matrices) -> list[np.ndarray]:
        mats = check_views(matrices, [off.shape[0] for off in self.offsets])
        return [(x - off) * sc for x, off, sc in zip(mats, self.offsets, self.scales)]


@dataclass
class MultiViewDataset:
    """Dense per-view matrices with optional ground-truth labels."""

    name: str
    view_names: list[str]
    matrices: list[np.ndarray]
    labels: np.ndarray | None = None
    likelihood: str | None = None
    normalization: NormalizationRecord | None = None

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("dataset needs at least one view")
        if len(self.view_names) != len(self.matrices):
            raise ValueError(f"dataset has {len(self.view_names)} view names for {len(self.matrices)} matrices")
        for name, mat in zip(self.view_names, self.matrices):
            if not isinstance(mat, np.ndarray) or mat.ndim != 2:
                got = f"shape {mat.shape}" if isinstance(mat, np.ndarray) else type(mat).__name__
                raise ValueError(f"view {name!r} must be a 2-D numpy array, got {got}")
        n = _same_rows(self.matrices, self.view_names)
        if self.labels is not None and len(self.labels) != n:
            raise ValueError(f"dataset has {len(self.labels)} labels for {n} rows")

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.matrices)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(mat.shape[1] for mat in self.matrices)


def _finite_cells(text: str):
    """How many finite numbers the matrix reader's own rule (``np.loadtxt``)
    reads in ``text``, None when it reads anything else; a blank line holds
    none."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt([text], delimiter=",", dtype=np.float64, ndmin=1)
    except ValueError:
        return None
    return values.size if np.isfinite(values).all() else None


def _find_bad_row(path: Path):
    """What is wrong with the first row the matrix reader refuses, in the
    program's words: a cell that is not a finite number, or a row whose cell
    count is not the first row's. Rows are the file's lines, counted from 0;
    a blank line, which the reader skips, is compared with none. A byte the
    text encoding cannot decode is shown as ``\\xNN`` in its cell."""
    first = None
    with open(path, errors="backslashreplace") as handle:
        for row, line in enumerate(handle):
            count = _finite_cells(line)
            if count is None:
                for col, cell in enumerate(line.rstrip("\n").split(",")):
                    if _finite_cells(cell) != 1:
                        return f"cell {cell!r} at {path} row {row} column {col} is not a finite number"
            elif count and first is None:
                first = row, count
            elif count and count != first[1]:
                return f"{path} row {row} has {count} cells, row {first[0]} has {first[1]}"
    return None


def _load_matrix(path: Path, n: int, dim: int, view_name: str) -> np.ndarray:
    """The (``n``, ``dim``) float64 matrix of view ``view_name`` in the CSV at
    ``path``, as ``np.loadtxt(path, delimiter=",", ndmin=2)`` reads it.

    A file of that shape whose every cell is a plain decimal
    (``[+-]?digits[.digits]([eE][+-]?digits)?``) between "," and "\\n",
    with 16 digits a cell or more on average, as ``save_matrix`` writes, is
    read by ``_read_csv`` in blocks of whole lines, at about twice the speed;
    it gives the same bits. Any other file (blank lines, "\\r", spaces,
    comments, ``nan``/``inf``, non-ASCII bytes, another shape, an unreadable
    path) and any platform without an 80-bit long double is read by
    ``np.loadtxt``, which also words every error."""
    mat = _read_csv(path, n, dim)
    if mat is not None:
        return mat
    try:
        # an undecodable byte reads as \xNN, as in _find_bad_row: in a comment it is skipped with it
        with open(path, errors="backslashreplace") as handle, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # the shape check reports it
            mat = np.loadtxt(handle, delimiter=",", dtype=np.float64, ndmin=2)
        error = None if np.isfinite(mat).all() else "non-finite values"
    except OSError as exc:
        raise LoadError(f"view {view_name!r}: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        error = exc
    if error is not None:
        problem = _find_bad_row(path) or f"malformed CSV {path}: {error}"
        raise LoadError(f"view {view_name!r}: {problem}")
    if mat.shape != (n, dim):
        raise LoadError(f"view {view_name!r}: {path} has shape {mat.shape}, manifest declares ({n}, {dim})")
    return np.ascontiguousarray(mat)


# The numpy reader of ``_load_matrix``, the counterpart of ``save_matrix``'s
# writer. The non-digit bytes of a block are its whole structure: each must
# follow the one before it by a rule of ``_FOLLOWS``, and the separators give
# the cells and rows. A cell's digits with its point and sign deleted are an
# integer M (strtoll, through ``np.fromstring``), and with k digits after the
# point its value is +-M / 10**k. For M < 10**18 and k <= 27 both are exact in
# the x87 long double's 64-bit significand (10**27 = 2**27 * 5**27 and
# 5**27 < 2**63), so the division rounds once, to 64 bits. Rounding that to
# float64 is the correctly rounded value unless the 64-bit result lies on a
# float64 midpoint, which its low 11 bits show (0x400); see Lemire, "Number
# Parsing at a Gigabyte per Second", SPE 2021. Those cells, longer mantissas,
# k > 27 and cells with an exponent are read by Python's float(), which rounds
# correctly, as np.loadtxt does. The gain is in cells of 16 digits or more,
# which strtod cannot read in double arithmetic: a block of shorter cells, or
# of many cells for float(), is left to np.loadtxt.
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"  # x87 80-bit
_CSV_BLOCK = 1 << 17  # bytes read at a time: a block's temporaries stay in cache
# np.loadtxt's strtod reads a decimal of at most 15 significant digits in exact
# double arithmetic, as fast as this reader: a block averaging fewer than this
# many digits a cell goes to it
_CELL_DIGITS = 16
# float() of a cell costs about as much as ten cells in numpy: a block may send
# this many, and a 32nd of its cells, to it before np.loadtxt is the faster
_SLOW_CELLS = 64
# the kinds of non-digit byte: separator, sign, point, exponent mark, exponent sign
_SEP, _SIGN, _POINT, _EXP, _EXP_SIGN = range(5)


def _reader_tables():
    """The grammar written once: each byte's kind (255 outside the grammar);
    whether a kind may follow another, indexed (previous * 5 + kind) * 2 +
    (any digits between them); and the divisors 10**k, then -10**k at k + 28,
    as long doubles, each exact, for k in [0, 27]."""
    kinds = np.full(256, 255, dtype=np.uint8)
    for chars, kind in ((b",\n", _SEP), (b"+-", _SIGN), (b".", _POINT), (b"eE", _EXP)):
        kinds[list(chars)] = kind
    follows = np.zeros((5, 5, 2), dtype=bool)
    for rule in "SG0 SP1 SE1 SS1 GP1 GE1 GS1 PE1 PS1 Ex0 ES1 xS1".split():  # S, G, P, E, x: as the kinds above
        follows["SGPEx".index(rule[0]), "SGPEx".index(rule[1]), int(rule[2])] = True
    pow10 = np.ones(28, dtype=np.longdouble)
    for k in range(1, 28):
        pow10[k] = pow10[k - 1] * 10
    return kinds, follows.ravel(), np.concatenate([pow10, -pow10])


_KINDS, _FOLLOWS, _POW10 = _reader_tables()
_NEWLINE_AS_COMMA = bytes.maketrans(b"\n", b",")
_LONG_WORDS = np.dtype(np.longdouble).itemsize // 2  # uint16 words per long double; the first holds the low bits


def _read_csv(path: Path, n: int, dim: int):
    """The (``n``, ``dim``) matrix in the CSV at ``path`` when every cell and
    row is in the fast grammar and the file holds that shape, else None."""
    if not _EXTENDED:
        return None
    try:
        with open(path, "rb") as handle:
            # a cell takes at least 2 bytes, a last one without its newline 1:
            # a file too short for the manifest's shape is not allocated for
            if 2 * n * dim - 1 > os.fstat(handle.fileno()).st_size:
                return None
            out = np.empty(n * dim)
            done = 0
            for text in _line_blocks(handle):
                cells = _parse_block(text, dim, out[done:])
                if cells is None:
                    return None
                done += cells
    except OSError:
        return None
    return out.reshape(n, dim) if done == out.size else None


def _line_blocks(handle):
    """The bytes of ``handle`` in blocks of whole lines of about
    ``_CSV_BLOCK`` bytes, a last line without its newline given one."""
    pieces = []
    while block := handle.read(_CSV_BLOCK):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pieces, block[:cut]])
            pieces = [block[cut:]]
        else:  # a line longer than a block
            pieces.append(block)
    if any(pieces):
        yield b"".join([*pieces, b"\n"])


def _parse_block(text: bytes, dim: int, out: np.ndarray):
    """Parse ``text``, whole lines of ``dim`` cells each, into the start of
    the flat ``out``; the number of cells, or None if a byte, a cell or a row
    is outside the grammar, ``out`` is too short, or np.loadtxt reads the
    block at least as fast (short cells, or many cells for float())."""
    b = np.frombuffer(text, dtype=np.uint8)
    at = np.flatnonzero(b < 48 if b.max() < 58 else np.subtract(b, 48, dtype=np.uint8) > 9)
    char = b.take(at)
    kind = _KINDS.take(char)
    if kind.max() > _EXP:
        return None
    exponents = np.flatnonzero(kind == _EXP)
    if exponents.size:
        kind[1:][(kind[1:] == _SIGN) & (kind[:-1] == _EXP)] = _EXP_SIGN
    key = kind * 2  # the first non-digit follows a line end, of kind _SEP = 0
    key[1:] += kind[:-1] * 10
    key[0] += at[0] > 0
    key[1:] += at[1:] - at[:-1] > 1
    if not _FOLLOWS.take(key).all():
        return None
    seps = np.flatnonzero(kind == _SEP)
    cells = seps.size
    line_ends = char.take(seps) == ord("\n")  # every row must end at its dim-th cell
    if cells > out.size or np.count_nonzero(line_ends) * dim != cells or not line_ends[dim - 1 :: dim].all():
        return None
    if len(text) - at.size < _CELL_DIGITS * cells:
        return None
    ends = at.take(seps)
    first = np.empty(cells, dtype=np.intp)  # each cell's first non-digit
    first[0] = 0
    np.add(seps[:-1], 1, out=first[1:])
    lead = char.take(first)
    negative = lead == ord("-")
    first += negative | (lead == ord("+"))
    k = ends - at.take(first) - 1
    k *= kind.take(first) == _POINT
    mantissas = np.fromstring(text.translate(_NEWLINE_AS_COMMA, b".+-eE"), dtype=np.int64, sep=",", count=cells)
    values = mantissas.astype(np.longdouble)
    values /= _POW10.take(np.minimum(k, 27) + 28 * negative)
    slow = values.view(np.uint16)[::_LONG_WORDS] & 0x7FF == 0x400
    slow |= (mantissas >= 10**18) | (k > 27)  # strtoll caps an overflow at 2**63 - 1
    if exponents.size:
        slow[np.searchsorted(seps, exponents)] = True
    if np.count_nonzero(slow) > _SLOW_CELLS + cells // 32:  # np.loadtxt reads, e.g., "%.18e" cells faster
        return None
    out[:cells] = values
    for cell in np.flatnonzero(slow).tolist():
        start = ends[cell - 1] + 1 if cell else 0
        out[cell] = float(text[start : ends[cell]])
        if not np.isfinite(out[cell]):  # 1e999: np.loadtxt reads inf, which the error reports
            return None
    return cells


def load_labels(path, n) -> np.ndarray:
    """One non-negative integer in ASCII digits per non-blank line; with
    ``n`` not None the file must hold exactly ``n`` of them. A ``LoadError``
    names the file."""
    try:
        with open(path, newline="", errors="backslashreplace") as handle:  # an undecodable byte reads as \xNN
            text = handle.read()
    except OSError as exc:
        raise LoadError(f"cannot read labels file {path}: {exc}") from exc
    # lines end at "\n" only and lose only ASCII whitespace (a "\r\n" end
    # too): str.splitlines also splits at U+2028, str.strip also trims U+00A0
    lines = [ln.strip(string.whitespace) for ln in text.split("\n") if ln.strip(string.whitespace)]
    if not lines:
        raise LoadError(f"labels file {path} is empty")
    if n is not None and len(lines) != n:
        raise LoadError(f"labels file {path} has {len(lines)} entries, expected {n}")
    labels = np.empty(len(lines), dtype=np.int64)
    for i, token in enumerate(lines):
        # ASCII digits only: int() also reads "1_0" as 10 and other scripts' digits
        if not (token.isascii() and token.removeprefix("-").isdigit()):
            raise LoadError(f"labels file {path} row {i}: {token!r} is not an integer")
        value = int(token)
        if value < 0:
            raise LoadError(f"labels file {path} row {i}: label {value} out of range (must be >= 0)")
        labels[i] = value
    return labels


def save_labels(path, labels) -> None:
    """The format ``load_labels`` reads, written atomically."""
    write_atomic(path, [("\n".join(str(int(v)) for v in labels) + "\n").encode()])


def save_matrix(path, mat) -> None:
    """A headerless CSV row per row of the 2-D ``mat``, each value ``%.17g``
    (exact round trip, the bytes of ``np.savetxt``), written atomically in
    chunks of about ``_CSV_CHUNK`` values, so no whole file is held in memory.

    A chunk of whole rows whose every value is 0 or has 1e-11 < |x| < 2**53
    is laid out by numpy (``_csv_text``); any other chunk (NaN, infinities,
    subnormals, huge or tiny values, no columns) is formatted one row at a
    time by Python's ``%`` operator, which gives the same bytes."""
    fmt = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    rows = max(1, _CSV_CHUNK // max(mat.shape[1], 1))

    def chunks():
        for i in range(0, mat.shape[0], rows):
            block = mat[i : i + rows]
            values = np.asarray(block, dtype=np.float64).ravel()
            size = np.abs(values)
            if values.size and ((size > 1e-11) & (size < 2.0**53) | (values == 0)).all():
                for j in range(0, values.size, _CSV_CHUNK):  # a row can be wider than a chunk
                    yield _csv_text(values[j : j + _CSV_CHUNK], j, mat.shape[1])
            else:
                yield "".join(fmt % tuple(row) for row in block.tolist()).encode()

    write_atomic(path, chunks())


# The numpy writer of ``save_matrix``: Ryu printf's integer method (Adams,
# "Ryu revisited: printf floating point conversion", OOPSLA 2019) over a whole
# chunk. With x = m * 2**e2 and k = floor(log10 |x|), the 17 digits are
# m * 5**s * 2**(e2 + s) for s = 16 - k, rounded half to even on the bits
# shifted out. For 1e-11 < |x| < 2**53, s lies in [1, 27], so 5**s < 2**63 and
# the product fits two uint64 limbs. Every limb stays uint64 (with int64 it
# would promote to float64), and no shift reaches 64 bits, which C leaves
# undefined.
_X_LOW, _X_HIGH = -11, 15  # the decimal exponents of the fast range
_POW5_HI = np.array([5**s >> 32 for s in range(28)], dtype=np.uint64)
_POW5_LO = np.array([5**s & 0xFFFFFFFF for s in range(28)], dtype=np.uint64)
_E4, _E8, _E16, _E17 = (np.uint64(10**p) for p in (4, 8, 16, 17))
_HALF = np.uint64(2**63)


def _quads() -> np.ndarray:
    """Each of 0..9999 as its four ASCII digits (a little-endian word) in the
    low half, and in the high half the place of its last nonzero digit (1-4),
    or -16 for 0000, below every place."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(np.int64)
    nonzero = digits != 0
    last = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), -16)
    return words + last * 2**32


_QUADS = _quads()

# A value's text is laid out in a row of 32 bytes, 0 where nothing is written:
# 1 sign, 2-6 "0.000", 7-24 the digits with at most one point among them,
# 25-28 "e-XX", 29 the separator. Digit j comes from column 7 + j of the
# digits as computed, before the point, or from column 8 + j of the same
# digits moved one byte on, after it.
_CSV_WIDTH = 32


def _csv_templates():
    """The ``%g`` rules written once, as three byte tables of one row per
    (end of row, sign, decimal exponent X, significant-digit count n): the
    constant bytes, and the masks that keep the digits before the point
    (from the plain digit row) and after it (from the row moved one byte on).

    Fixed notation for -4 <= X < 17 (with 17 digits), else ``d.ddd...e-XX``;
    trailing zeros and a bare point are stripped; ``-`` for every negative
    value, -0 included."""
    eol, neg, x, n = np.ix_(range(2), range(2), range(_X_LOW, _X_HIGH + 1), range(1, 18))
    fixed, small = x >= -4, (x >= -4) & (x < 0)
    point = np.where(x >= 0, x + 1, np.where(fixed, 17, 1))  # digits before the point
    shape = (2, 2, x.size, 17, _CSV_WIDTH)
    const, keep_plain, keep_moved = (np.zeros(shape, dtype=np.uint8) for _ in range(3))
    const[..., 1] = np.where(neg, ord("-"), 0)
    const[..., 2] = np.where(small, ord("0"), 0)
    const[..., 3] = np.where(small, ord("."), 0)
    for zeros in range(3):  # the zeros of 0.0ddd, 0.00ddd, 0.000ddd
        const[..., 4 + zeros] = np.where(small & (x <= -2 - zeros), ord("0"), 0)
    for j in range(17):  # an integer part keeps its zeros
        keep_plain[..., 7 + j] = np.where((j < point) & ((j < n) | (x >= 0)), 0xFF, 0)
        keep_moved[..., 8 + j] = np.where((j >= point) & (j < n), 0xFF, 0)
        const[..., 8 + j] = np.where((point == j + 1) & (n > j + 1), ord("."), 0)
    for col, char in ((25, ord("e")), (26, ord("-")), (27, ord("0") + -x // 10), (28, ord("0") + -x % 10)):
        const[..., col] = np.where(fixed, 0, char)
    const[..., 29] = np.where(eol, ord("\n"), ord(","))
    return tuple(table.reshape(-1, _CSV_WIDTH).view(np.uint64) for table in (const, keep_plain, keep_moved))


_CSV_CONST, _CSV_KEEP_PLAIN, _CSV_KEEP_MOVED = _csv_templates()


def _scaled_digits(m, e2, s):
    """floor(m * 10**s * 2**e2) for uint64 ``m`` < 2**53 and 1 <= ``s`` <= 27,
    and whether its exact value rounds up, half to even."""
    shift = -(e2 + s)  # in [-2, 63] for the fast range and s within 1 of its value
    m = m << np.maximum(-shift, 0).astype(np.uint64)  # < 2**55 where the shift is negative
    left = 63 - np.maximum(shift, 0).astype(np.uint64)
    m_hi, m_lo, p_hi, p_lo = m >> 32, m & 0xFFFFFFFF, _POW5_HI[s], _POW5_LO[s]
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi  # < 2**55 + 2**63
    lo = low + (mid << 32)
    hi = m_hi * p_hi + (mid >> 32) + (lo < low)
    floor = (hi << 1) << left | lo >> (63 - left)
    dropped = (lo << 1) << left  # the bits shifted out, at the top of a word
    return floor, (dropped > _HALF) | (dropped == _HALF) & (floor & 1 == 1)


def _decimal(values):
    """Each value's 17 significant digits as an integer in [1e16, 1e17),
    correctly rounded, and its decimal exponent; 0 and 0 for a zero. Every
    value is 0 or has 1e-11 < |x| < 2**53."""
    zero = values == 0
    size = np.where(zero, 1.0, np.abs(values))
    fraction, exponent = np.frexp(size)
    m = (fraction * 2.0**53).astype(np.uint64)
    e2 = exponent.astype(np.int64) - 53
    s = np.minimum(16 - np.floor(np.log10(size)), 27).astype(np.int64)  # log10 may round 1e-11 + ulp down
    digits, up = _scaled_digits(m, e2, s)
    off = np.flatnonzero((digits < _E16) | (digits >= _E17))  # log10 missed k by one
    if off.size:
        s[off] += np.where(digits[off] < _E16, 1, -1)
        digits[off], up[off] = _scaled_digits(m[off], e2[off], s[off])
    # rounding never carries to 1e17: that would take a double within 5e-18
    # (relative) below a power of ten, and none of 1e-10..1e16 has one
    digits += up
    exp10 = 16 - s
    digits[zero] = 0
    exp10[zero] = 0
    return digits, exp10


def _ascii(digits):
    """The 17 ASCII digits of each of ``digits`` in columns 7-23 of a
    ``_CSV_WIDTH``-byte row, zeros elsewhere, and how many are significant."""
    lead = digits // _E16
    rest = digits - lead * _E16
    eights = np.empty((digits.size, 2), dtype=np.uint64)
    eights[:, 0] = rest // _E8
    eights[:, 1] = rest - eights[:, 0] * _E8
    high = eights // _E4
    quads = _QUADS.take(np.stack([high, eights - high * _E4], axis=2).reshape(-1, 4))
    rows = np.zeros((digits.size, _CSV_WIDTH), dtype=np.uint8)
    rows[:, 7] = lead + ord("0")
    rows.view("<u4")[:, 2:6] = quads  # columns 8-23, the low halves
    last = quads >> 32  # each quad's last nonzero digit
    count = np.maximum(np.maximum(last[:, 0] + 1, last[:, 1] + 5), np.maximum(last[:, 2] + 9, last[:, 3] + 13))
    return rows, np.maximum(count, 1)


def _csv_text(values, start, ncols) -> np.ndarray:
    """The ``%.17g`` CSV bytes of ``values``, consecutive cells of a
    row-major matrix with ``ncols`` columns from flat index ``start`` on;
    each value is 0 or has 1e-11 < |x| < 2**53."""
    digits, exp10 = _decimal(values)
    plain, count = _ascii(digits)
    moved = np.zeros_like(plain)  # the digits one byte on, for those after the point
    moved.ravel()[1:] = plain.ravel()[:-1]
    eol = np.zeros(values.size, dtype=bool)
    eol[(ncols - 1 - start) % ncols :: ncols] = True
    key = ((eol * 2 + np.signbit(values)) * (_X_HIGH - _X_LOW + 1) + exp10 - _X_LOW) * 17 + count - 1
    text = _CSV_CONST.take(key, axis=0)
    text |= plain.view(np.uint64) & _CSV_KEEP_PLAIN.take(key, axis=0)
    text |= moved.view(np.uint64) & _CSV_KEEP_MOVED.take(key, axis=0)
    del plain, moved  # before the compaction's index array, 8 bytes per byte of text
    text = text.view(np.uint8).ravel()
    return text.take(np.flatnonzero(text != 0))


def save_json(path, obj) -> None:
    """Indented JSON with a final newline, written atomically."""
    write_atomic(path, [(json.dumps(obj, indent=2) + "\n").encode()])


def load_json(path, what) -> dict:
    """The JSON object in file ``path``; a ``LoadError`` names ``what`` and
    the file when it cannot be read, is not JSON or holds no object."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise LoadError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise LoadError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not json_fits(obj, "dict"):
        raise LoadError(f"{what} {path} must hold a JSON object")
    return obj


def json_fits(value, kind: str) -> bool:
    """Whether a JSON value is of ``kind``, written as an annotation: ``int``
    (not a bool, not ``2.0``), ``float`` (an int too, if a float64 holds it;
    not NaN or infinite, which JSON lacks), ``str``, ``dict`` (a JSON
    object), ``tuple[K, ...]`` (a JSON list of kind K), any of these
    ``| None``; others raise KeyError."""
    if value is None:
        return kind.endswith(" | None")
    kind = kind.removesuffix(" | None")
    if kind.startswith("tuple["):
        return isinstance(value, list) and all(json_fits(item, kind[6:-6]) for item in value)
    return _JSON_TESTS[kind](value)


def json_field(obj: dict, key: str, kind: str, where: str):
    """``obj[key]`` once it fits ``kind``; a field left out reads as None,
    which only a ``| None`` kind takes. A ``LoadError`` names ``where`` and
    the field."""
    if key not in obj and not kind.endswith(" | None"):
        raise LoadError(f"{where} is missing the required field {key!r}")
    if not json_fits(obj.get(key), kind):
        raise LoadError(f"{where}: {key} must be {kind}, got {obj[key]!r}")
    return obj.get(key)


def json_build(obj: dict, target, where: str):
    """``target`` called with ``obj`` as keyword arguments, the parameters
    annotated with a JSON kind; those without a default are required. A
    field unknown, missing or not of its annotation's kind, or a ValueError
    of ``target``, raises a ``LoadError`` naming ``where``."""
    params = [p for p in inspect.signature(target).parameters.values() if p.annotation in _JSON_KINDS]
    unknown = sorted(set(obj) - {p.name for p in params})
    if unknown:
        raise LoadError(f"{where} has unknown fields {unknown}")
    missing = [p.name for p in params if p.default is p.empty and p.name not in obj]
    if missing:
        raise LoadError(f"{where} is missing the required fields {missing}")
    args = {p.name: json_field(obj, p.name, p.annotation, where) for p in params if p.name in obj}
    with _naming(where):
        return target(**args)


@contextlib.contextmanager
def _naming(where: str):
    """A ValueError of the block, raised again as a ``LoadError`` naming ``where``."""
    try:
        yield
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


def check_format_version(obj: dict, where: str) -> None:
    version = json_field(obj, "format_version", "int", where)
    if version != FORMAT_VERSION:
        raise LoadError(f"{where} has format_version {version}, only {FORMAT_VERSION} is supported")


def load_dataset(manifest_path) -> MultiViewDataset:
    """Read a manifest and every matrix it references, validating shapes."""
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path, "manifest")
    where = f"manifest {manifest_path}"
    name = json_field(manifest, "name", "str", where)
    n = json_field(manifest, "n", "int", where)
    likelihood = json_field(manifest, "likelihood", "str | None", where)
    with _naming(where):  # before any view is read
        check_int("n", n, 1)
        if likelihood is not None:
            check_likelihood(likelihood)
    base = manifest_path.parent
    views = json_field(manifest, "views", "tuple[dict, ...]", where)
    if not views:
        raise LoadError(f"{where}: views must list at least one view")
    entries = []  # (name, path, dim) of each view, all checked before any CSV is read
    for i, view in enumerate(views):
        at = f"{where} view {i}"
        view_name, path = json_field(view, "name", "str", at), json_field(view, "path", "str", at)
        dim = json_field(view, "dim", "int", at)
        with _naming(at):
            check_int("dim", dim, 1)
        entries.append((view_name, base / path, dim))
    labels = json_field(manifest, "labels", "str | None", where)
    return MultiViewDataset(
        name=name,
        view_names=[view_name for view_name, _, _ in entries],
        matrices=[_load_matrix(path, n, dim, view_name) for view_name, path, dim in entries],
        labels=load_labels(base / labels, n) if labels else None,
        likelihood=likelihood,
    )


def normalize(dataset: MultiViewDataset, kind: str) -> MultiViewDataset:
    """Bernoulli: per-feature min-max to [0, 1]. Gaussian: per-feature
    standardization. Constant features map to 0 under either kind. Only a
    raw dataset with rows is taken; an already-normalized or empty one raises
    ValueError."""
    check_likelihood(kind)
    if dataset.normalization is not None:
        raise ValueError(f"dataset {dataset.name!r} is already normalized")
    if dataset.n == 0:
        raise ValueError(f"dataset {dataset.name!r} has no rows to normalize")
    offsets, scales = [], []
    for mat in dataset.matrices:
        if kind == "bernoulli":
            offset = mat.min(axis=0)
            spread = mat.max(axis=0) - offset
        else:
            offset, spread = mat.mean(axis=0), mat.std(axis=0)
        offsets.append(offset)
        scales.append(np.where(spread > 0, 1.0 / np.where(spread > 0, spread, 1.0), 0.0))
    record = NormalizationRecord(offsets, scales)
    return MultiViewDataset(
        name=dataset.name,
        view_names=list(dataset.view_names),
        matrices=record.apply(dataset.matrices),
        labels=None if dataset.labels is None else dataset.labels.copy(),
        likelihood=dataset.likelihood,
        normalization=record,
    )


def batch_iter(n: int, batch_size: int, seed: int, epoch: int, stream=()) -> list[np.ndarray]:
    """Seeded permutation of the ``n`` sample indices chunked into batches;
    the last batch may be short. A pure function of (seed, stream, epoch)."""
    n, batch_size = check_int("n", n, 0), check_int("batch_size", batch_size, 1)
    order = rng_for(seed, "batch", *stream, epoch).permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def synth_generate(
    n_clusters: int,
    n_views: int,
    n: int,
    latent_dim: int,
    separation: float,
    view_dims: tuple[int, ...],
    seed: int,
    noise: float = 0.1,
    likelihood: str = "gaussian",
    return_latent: bool = False,
):
    """Cluster labels -> latent Gaussians -> random affine view maps + noise.

    Cluster means are random directions rescaled so the minimum pairwise
    distance equals ``separation`` (all zero when separation is 0). With
    ``return_latent`` the latent draws and means come back too, for tests.
    """
    check_likelihood(likelihood)
    counts = {"n_clusters": n_clusters, "n_views": n_views, "n": n, "latent_dim": latent_dim}
    n_clusters, n_views, n, latent_dim = (check_int(name, value, 1) for name, value in counts.items())
    view_dims = check_ints("view_dims", view_dims, 1)
    check_real("separation", separation, 0)
    check_real("noise", noise, 0)
    if len(view_dims) != n_views:
        raise ValueError(f"need {n_views} view dims, got {len(view_dims)}")
    rng = rng_for(seed, "synth")
    labels = rng.integers(0, n_clusters, size=n)
    means = rng.normal(size=(n_clusters, latent_dim))
    if n_clusters > 1:
        gaps = [np.linalg.norm(means[a] - means[b]) for a in range(n_clusters) for b in range(a + 1, n_clusters)]
        means *= separation / min(gaps)
    else:
        means[:] = 0.0
    z = means[labels] + rng.normal(size=(n, latent_dim))
    matrices = []
    for dim in view_dims:
        proj = rng.normal(size=(latent_dim, dim)) / np.sqrt(latent_dim)
        offset = rng.normal(size=dim)
        matrices.append(z @ proj + offset + noise * rng.normal(size=(n, dim)))
    dataset = MultiViewDataset(
        name="synthetic",
        view_names=[f"view{v}" for v in range(n_views)],
        matrices=matrices,
        labels=labels,
        likelihood=likelihood,
    )
    if return_latent:
        return dataset, {"z": z, "means": means}
    return dataset


def save_dataset(dataset: MultiViewDataset, directory) -> Path:
    """Write matrices, labels and manifest; values round-trip exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    views = []
    for name, mat in zip(dataset.view_names, dataset.matrices):
        filename = f"{name}.csv"
        save_matrix(directory / filename, mat)
        views.append({"name": name, "dim": int(mat.shape[1]), "path": filename})
    manifest = {"name": dataset.name, "n": int(dataset.n), "views": views}
    if dataset.likelihood is not None:
        manifest["likelihood"] = dataset.likelihood
    if dataset.labels is not None:
        save_labels(directory / "labels.txt", dataset.labels)
        manifest["labels"] = "labels.txt"
    path = directory / MANIFEST_FILE
    save_json(path, manifest)
    return path
