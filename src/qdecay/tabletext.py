"""Table text in bulk: ``cells(values, json)`` formats a whole column at once.

The result is a ``(rows, width)`` uint8 matrix, a NUL-padded row per value
holding ``str`` of it (CSV) or ``json.dumps`` of it (JSON), byte for byte.
Floats get CPython's shortest round-trip ``repr`` digits from the common
branch of Ryū's ``d2d`` in uint64 arithmetic (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018); zero, subnormals, non-finite values,
``|v| >= 2**50`` and Ryū's trailing-zero cases go through ``str`` (or
``json.dumps``) one by one.  Integers get their digits by division by 10**4;
other values, and columns too short to pay for the kernels, go through
``str`` (``json.dumps``).  Digits land right-aligned in a source row per
value, and a gather through a table of layouts, an index row per layout
class, makes the text.  ``Table`` writes a table file, each slice's cells
laid between its separators; the layout tables are built on first use.
"""

from __future__ import annotations

import functools
import json as _json
from typing import Iterator, Sequence, Tuple

import numpy as np

from .core import EncodedColumn, mulhilo

# A source row: up to 20 digits right-aligned in bytes [0, 20), an exponent
# as "0htu" in [20, 24), then the constant characters, NUL last.
_SOURCE = 32
_MINUS, _DOT, _E, _PLUS, _ZERO, _NUL = 24, 25, 26, 27, 28, 31
_CONSTANTS = b"-.e+0\0\0\0"
_FLOAT_WIDTH = 24  # the longest repr: "-2.2250738585072014e-308"
_INT_WIDTH = 21
_CHUNK = 8192  # values per kernel call, which bounds its work arrays
_KERNEL_MIN = 256  # fewer values than this go through str faster than the kernels' fixed cost
_GATHER = 512  # values per gather: its intp index takes 8 bytes per character of a layout
_PIECE = 1 << 16  # bytes of row text whose padding is dropped at once

_M32 = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0 .. 9999 as one uint32 each."""
    k = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((k.size, 4), dtype=np.uint8)
    for col, power in enumerate((1000, 100, 10, 1)):
        digits[:, col] = k // power % 10 + ord("0")
    return digits.view(np.uint32).ravel()


@functools.cache
def _ryu() -> dict:
    """Ryū's ``e2 < 0`` constants by biased exponent ``E`` (``e2 = E - 1077``), as in ``d2d``.

    ``T`` is the top 125 bits of ``5**(-e2 - q)``, ``shift`` is ``j - 64``;
    ``fast`` marks the kernel's branch, ``0 < E < 1077`` with ``q > 1``.
    """
    tab = {"t_lo": np.zeros(2048, np.uint64), "t_hi": np.zeros(2048, np.uint64), "fast": np.zeros(2048, bool)}
    tab.update(shift=np.ones(2048, np.uint8), q63=np.zeros(2048, np.uint8), e10=np.zeros(2048, np.int16))
    p5, i = 1, 0  # 5**i; i = -e2 - q grows as the exponent falls
    for exponent in range(1076, 0, -1):
        e2 = exponent - 1077
        q = max(0, (-e2 * 732923 >> 20) - 1)  # log10Pow5(-e2) - (-e2 > 1)
        if q <= 1:
            continue
        while i < -e2 - q:
            p5, i = p5 * 5, i + 1
        k = p5.bit_length() - 125
        t = p5 >> k if k >= 0 else p5 << -k
        tab["fast"][exponent] = True
        tab["t_lo"][exponent], tab["t_hi"][exponent] = t & 0xFFFFFFFFFFFFFFFF, t >> 64
        tab["q63"][exponent], tab["shift"][exponent], tab["e10"][exponent] = min(q, 63), q - k - 64, q + e2
    return tab


def _table(rows: Iterator[list], n: int, width: int) -> np.ndarray:
    """The ``n`` index rows, then the same behind a minus sign, NUL-padded."""
    index = np.full((2 * n, width), _NUL, dtype=np.uint8)
    for k, row in enumerate(rows):
        index[k, : len(row)] = row
        index[n + k, : len(row) + 1] = [_MINUS, *row]
    return index


@functools.cache
def _float_layouts() -> np.ndarray:
    """Class ``17 * (d + 3) + L - 1``: fixed notation, ``L`` digits, the point at ``d``.

    Class ``340 + 34 * (x < 0) + 17 * (|x| >= 100) + L - 1`` is exponent
    notation with exponent ``x``; 408 more is the same class negated.
    """

    def rows():
        for key in range(408):
            n, point = key % 17 + 1, key // 17 - 3
            digits = list(range(20 - n, 20))
            if key >= 340:
                exp_sign, three = divmod(point - 17, 2)
                exp = [_E, (_PLUS, _MINUS)[exp_sign], *[21] * three, 22, 23]
                yield digits[:1] + [_DOT] * (n > 1) + digits[1:] + exp
            elif point <= 0:
                yield [_ZERO, _DOT] + [_ZERO] * -point + digits
            elif point < n:
                yield digits[:point] + [_DOT] + digits[point:]
            else:
                yield digits + [_ZERO] * (point - n) + [_DOT, _ZERO]

    return _table(rows(), 408, _FLOAT_WIDTH)


@functools.cache
def _int_layouts() -> np.ndarray:
    """Class ``L - 1``: an ``L``-digit int; 20 more the same negated."""
    return _table((list(range(20 - n, 20)) for n in range(1, 21)), 20, _INT_WIDTH)


def _mul64(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High and low words of ``a * b``, elementwise."""
    lo, hi, work = a.copy(), np.empty_like(a), [np.empty_like(a) for _ in range(3)]
    mulhilo(lo, (b, b & _M32, b >> np.uint64(32)), hi, *work)
    return hi, lo


def _shift_right(lo: np.ndarray, hi: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``(hi:lo) >> shift`` for 0 < shift < 64, when the result fits 64 bits."""
    return (lo >> shift) | (hi << (np.uint64(64) - shift))


def _n_digits(u: np.ndarray) -> np.ndarray:
    """The decimal digits of each uint64 (1 for 0), from its bit length as in "Bit Twiddling Hacks"."""
    u = u | np.uint64(1)
    bits = (u.astype(np.float64).view(np.int64) >> 52) - 1022  # one too many where the float rounded up
    t = bits * 1233 >> 12
    return t + (u >= _POW10[t])


def _layout(digits: np.ndarray, n_digits: int, layouts: np.ndarray, key: np.ndarray, chars: np.ndarray, exp=None):
    """Write ``digits`` (and the exponent ``exp``) into source rows, then lay them out by class ``key``."""
    source = np.empty((len(key), _SOURCE), dtype=np.uint8)
    source.view(np.uint64)[:, 3] = np.frombuffer(_CONSTANTS, dtype=np.uint64)
    words, quads, ten4 = source.view(np.uint32), _quads(), np.uint64(10_000)
    for col in range(4, 4 - -(-n_digits // 4), -1):
        q = digits // ten4
        words[:, col] = quads[(digits - q * ten4).view(np.int64)]
        digits = q
    if exp is not None:
        words[:, 5] = quads[exp]
    flat = source.ravel()
    for lo in range(0, len(key), _GATHER):
        rows = np.arange(lo, min(lo + _GATHER, len(key)), dtype=np.intp)[:, None] * _SOURCE
        index = np.take(layouts, key[lo : lo + _GATHER], axis=0) + rows
        flat.take(index, out=chars[lo : lo + _GATHER], mode="clip")


def _product(mv: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words ``(w0, w1, w2)``, low first, of the 192-bit ``mv * (t_hi:t_lo)``."""
    a_hi, w0 = _mul64(mv, t_lo)
    b_hi, b_lo = _mul64(mv, t_hi)
    w1 = a_hi + b_lo
    return w0, w1, b_hi + (w1 < a_hi)


def _interval(bits: np.ndarray, exponent: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Ryū's ``vr``, ``vp`` and ``vm`` of each double, and whether it leaves the kernel's branch."""
    tab = _ryu()
    mantissa = bits & _MANTISSA
    mv = (mantissa | np.uint64(1 << 52)) << np.uint64(2)
    low_q = (np.uint64(1) << tab["q63"][exponent]) - np.uint64(1)
    slow = ~tab["fast"][exponent] | ((mv & low_q) == 0)
    # vr, vp and vm are 4*m2, 4*m2 + 2 and 4*m2 - 1 - mmShift times T,
    # shifted right by j; with P = 4*m2*T, the last two are P + 2T and
    # P - (1 + mmShift)T, so two wide products serve all three
    t_lo, t_hi, shift = tab["t_lo"][exponent], tab["t_hi"][exponent], tab["shift"][exponent]
    w0, w1, w2 = _product(mv, t_lo, t_hi)
    vr = _shift_right(w1, w2, shift)
    d0, d1 = t_lo << np.uint64(1), (t_hi << np.uint64(1)) | (t_lo >> np.uint64(63))  # 2T
    carry = (w0 + d0 < d0) + d1
    x1 = w1 + carry
    vp = _shift_right(x1, w2 + (x1 < carry), shift)
    mm_shift = (mantissa != 0) | (exponent <= 1)
    borrow = (w0 < np.where(mm_shift, d0, t_lo)) + np.where(mm_shift, d1, t_hi)
    vm = _shift_right(w1 - borrow, w2 - (w1 < borrow), shift)
    return vr, vp, vm, slow


def _shortest(bits: np.ndarray, exponent: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest digits of each double, the number of digits removed, and the ``slow`` mask."""
    vr, vp, vm, slow = _interval(bits, exponent)
    # remove the most digits r with vp // 10**r > vm // 10**r, by bisection
    removed = np.zeros(vr.size, dtype=np.int64)
    for step in (16, 8, 4, 2, 1):
        vp_s, vm_s = vp // _POW10[step], vm // _POW10[step]
        drop = vp_s > vm_s
        np.copyto(vp, vp_s, where=drop)
        np.copyto(vm, vm_s, where=drop)
        removed += step * drop
    # round on the last removed digit, or up when vr falls on vm
    vr //= _POW10[np.maximum(removed - 1, 0)]
    q = vr // np.uint64(10)
    last = vr - q * np.uint64(10)
    np.copyto(vr, q, where=removed > 0)
    return vr + ((vr == vm) | ((removed > 0) & (last >= 5))), removed, slow


def _float_cells(v: np.ndarray, json: bool, chars: np.ndarray) -> None:
    # each stage is a function, whose work arrays are freed when it returns
    bits = v.view(np.uint64)
    exponent = (bits >> np.uint64(52)).view(np.int64) & 0x7FF
    out, removed, slow = _shortest(bits, exponent)
    out[slow] = 0
    n_digits = _n_digits(out)
    point = _ryu()["e10"][exponent] + removed + n_digits
    point[slow] = 1
    x = np.abs(point - 1)
    key = np.where((point > -4) & (point <= 16), 17 * point + 51, 340 + 34 * (point < 1) + 17 * (x >= 100))
    key += n_digits - 1 + 408 * (bits >> np.uint64(63)).view(np.int64)
    _layout(out, 17, _float_layouts(), key, chars, exp=np.minimum(x, 999))
    rows = np.flatnonzero(slow)
    if rows.size:
        text = _text_cells(v[rows].tolist(), json)
        chars[rows] = 0
        chars[rows, : text.shape[1]] = text


def _int_cells(v: np.ndarray, json: bool, chars: np.ndarray) -> None:
    negative = v < 0
    u = v.astype(np.int64 if v.dtype.kind == "i" else np.uint64).view(np.uint64)
    u = np.where(negative, np.uint64(0) - u, u)
    n_digits = _n_digits(u)
    _layout(u, int(n_digits.max()), _int_layouts(), n_digits - 1 + 20 * negative, chars)


def _text_cells(values: Sequence, json: bool) -> np.ndarray:
    text = [(_json.dumps(x) if json else str(x)).encode() for x in values]
    if b"\0" in b"".join(text):
        raise ValueError("a cell's text holds a NUL character, which marks padding")
    width = max([1, *map(len, text)])
    return np.array(text, dtype=f"S{width}").view(np.uint8).reshape(len(text), width)


def cells(values, json: bool) -> np.ndarray:
    """The text of each value, ``str`` (CSV) or ``json.dumps`` (JSON), one NUL-padded row each."""
    numeric = isinstance(values, np.ndarray) and values.ndim == 1 and values.size >= _KERNEL_MIN
    kind = values.dtype.kind if numeric else ""
    if kind == "f" and values.dtype.itemsize <= 8:
        kernel, width, values = _float_cells, _FLOAT_WIDTH, values.astype(np.float64, copy=False)
    elif kind and kind in "iu":
        kernel, width = _int_cells, _INT_WIDTH
    else:
        return _text_cells(values.tolist() if isinstance(values, np.ndarray) else values, json)
    # the result before the work arrays, so what stays is not allocated above what is freed
    chars = np.empty((values.size, width), dtype=np.uint8)
    for lo in range(0, values.size, _CHUNK):
        kernel(values[lo : lo + _CHUNK], json, chars[lo : lo + _CHUNK])
    return chars


ROWS_PER_SLICE = 4096  # rows formatted per write: bounds the work arrays alive at once


class Table:
    """The file at ``path`` open for writing: CSV rows under a header, or a JSON array of row objects.

    A CSV row is its cells joined by ``,`` and ended by ``\\n``; a JSON row
    fills the template ``{"key": cell, ...}``, rows joined by ``,\\n`` inside
    ``[\\n ... \\n]\\n``, or ``[]\\n``.  A clean exit from the ``with`` block
    writes the closing bytes; after an error a JSON table stays unclosed.  An
    encoded column's values are formatted once while consecutive slices share
    them, and a code outside them raises ``ValueError`` naming the column.
    """

    def __init__(self, path: str, header: Sequence[str], json: bool) -> None:
        self.path, self.header, self.json, self.n_rows = path, list(header), json, 0
        if json:
            keys = [_json.dumps(k) + ": " for k in self.header]
            texts = [",\n{" + keys[0]] + [", " + k for k in keys[1:]] + ["}"]
        else:
            texts = [""] + [","] * (len(self.header) - 1) + ["\n"]
        self._separators = [np.frombuffer(t.encode(), dtype=np.uint8) for t in texts]
        self._cache: dict = {}  # id(values) -> (values, cells); holding values keeps the id from reuse
        self._text = np.empty(0, dtype=np.uint8)  # the slice's text, grown as needed and reused
        self._fh = open(path, "wb")
        if not json:
            self._fh.write((",".join(self.header) + "\n").encode())

    def __enter__(self) -> "Table":
        return self

    def __exit__(self, exc_type, *_) -> None:
        with self._fh:
            if exc_type is None and self.json:
                self._fh.write(b"\n]\n" if self.n_rows else b"[]\n")

    def write(self, cols) -> None:
        """Append a block of equal-length columns, one per header key, ``ROWS_PER_SLICE`` rows at a time."""
        for lo in range(0, len(cols[0]), ROWS_PER_SLICE):
            self._write_slice([c[lo : lo + ROWS_PER_SLICE] for c in cols])

    def _write_slice(self, cols) -> None:
        previous, self._cache = self._cache, {}
        columns = [self._column(name, col, previous) for name, col in zip(self.header, cols, strict=True)]
        pieces = [self._separators[0]]
        for chars, sep in zip(columns, self._separators[1:]):
            pieces += [np.zeros(chars.shape[1], dtype=np.uint8), sep]
        shape = (len(columns[0]), sum(map(len, pieces)))
        size = shape[0] * shape[1]
        if self._text.size < size:
            self._text = np.empty(size, dtype=np.uint8)
        text = self._text[:size].reshape(shape)
        text[:] = np.concatenate(pieces)
        at = len(pieces[0])
        for chars, sep in zip(columns, self._separators[1:]):
            text[:, at : at + chars.shape[1]] = chars
            at += chars.shape[1] + len(sep)
        if self.json and self.n_rows == 0 and len(text):  # the table's first row opens the array
            text[0, :2] = np.frombuffer(b"[\n", dtype=np.uint8)
        self.n_rows += len(text)
        # the padding is dropped from a few rows at a time, which bounds the mask and the bytes out
        step = max(1, _PIECE // shape[1])
        for lo in range(0, len(text), step):
            piece = text[lo : lo + step]
            self._fh.write(piece[piece != 0])

    def _column(self, name: str, col, previous: dict) -> np.ndarray:
        if not isinstance(col, EncodedColumn):
            return cells(col, self.json)
        key = id(col.values)
        entry = self._cache.get(key) or previous.get(key) or (col.values, cells(col.values, self.json))
        self._cache[key] = entry
        chars, codes = entry[1], col.codes
        if codes.size and (codes.min() < 0 or codes.max() >= len(chars)):
            raise ValueError(f"{name}: codes span [{codes.min()}, {codes.max()}], outside the {len(chars)} values")
        return np.take(chars, codes, axis=0)
