"""CSV rows of int64 and float64 arrays in the bytes of "%d" and "%.17g", made by numpy.

Each field is a fixed run of byte slots, held slot-major, (slot, row), so every op runs
along the rows; unprinted slots hold NUL, dropped after one transpose by bytes.translate.
A float with 1e-4 <= |x| < 1e17 prints in fixed notation: its exponent k comes from a
table of the least doubles >= 10**j, and d = round-half-even(|x| * 10**(16 - k)) from one
exact Dekker two-product (10**(16 - k) <= 1e20 is exact, and the high part is an even
integer, so hi + rint(lo) is d); none rounds up to 18 digits, as the largest double
below each 10**j is over half a 17th digit below it.  Python's %.17g formats the rest.
"""

import numpy as np

__all__ = ["format_block"]

_MARK = 1  # the first slot of a field Python formats, split on after translate
_MINUS, _ZERO, _DOT = (np.uint8(ord(c)) for c in "-0.")
_POW10 = np.array([float(f"1e{j}") for j in range(-4, 17)])  # each the least double >= 10**j
_SCALE = np.array([float(10**m) for m in range(21)])
_SHOWN = np.array([10**i for i in range(18, 0, -1)] + [0], dtype=np.uint64)[:, None]
_J, _Z = np.arange(17)[:, None], np.arange(1, 4)[:, None]  # digit and zero slots


def _split(a):  # Veltkamp's split: a = hi + lo, each of 26 bits
    hi = (2.0**27 + 1) * a - ((2.0**27 + 1) * a - a)
    return hi, a - hi


def _digits(u, width: int):
    """The last `width` digits of the uint64s u, one ASCII row each, nine a uint32 at a time."""
    out = np.empty((width, len(u)), dtype=np.uint8)
    for end in range(width, 0, -9):
        part, u = (u % 10**9).astype(np.uint32), u // 10**9
        for i in range(end - 1, max(end - 10, -1), -1):
            q = part // 10  # faster than np.divmod
            out[i], part = part - q * 10, q
    return np.add(out, _ZERO, out=out)


def _int_slots(x):
    """The 20 slots of "%d" % x, a sign and 19 digits, then ","; no entry needs Python."""
    out, u = np.empty((21, len(x)), dtype=np.uint8), np.abs(x).view(np.uint64)  # |-2**63| too
    np.multiply(x < 0, _MINUS, out=out[0])
    np.multiply(_digits(u, 19), u >= _SHOWN, out=out[1:20])
    out[20] = ord(",")
    return out, np.zeros(len(x), dtype=bool)


def _float_slots(x):
    """The 40 slots of "%.17g" % x and ",": sign, "0", 17 integer digits, ".", "000", 17
    fraction digits; and the mask of the entries Python formats, their slots _MARK, NUL..."""
    ax, out = np.abs(x), np.empty((41, len(x)), dtype=np.uint8)
    python = ~((ax >= 1e-4) & (ax < 1e17))
    ax[python] = 1.0
    k = np.searchsorted(_POW10, ax, side="right") - 5
    scale = _SCALE[16 - k]
    hi = ax * scale
    (ah, al), (bh, bl) = _split(ax), _split(scale)
    lo = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)  # ax * scale - hi, exactly
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    digits = _digits(d.astype(np.uint64), 17)
    last = 16 - np.argmax(digits[::-1] != _ZERO, axis=0)  # the last nonzero digit
    for slots, keep, byte in [(out[0], x < 0, _MINUS), (out[1], k < 0, _ZERO),
                              (out[2:19], _J <= k, digits), (out[19], last > k, _DOT),
                              (out[20:23], _Z <= -1 - k, _ZERO),
                              (out[23:40], (_J > k) & (_J <= last), digits)]:
        np.multiply(keep, byte, out=slots)
    out[:40, python] = 0
    out[0, python] = _MARK
    out[40] = ord(",")
    return out, python


def format_block(columns) -> str:
    """Rows of equal-length int64 and float64 columns, as "%d,%.17g,...\\n" % row writes them."""
    slots, python = zip(*[(_float_slots if c.dtype.kind == "f" else _int_slots)(c)
                          for c in columns])
    slots, python = np.vstack(slots), np.column_stack(python)
    slots[-1] = ord("\n")
    text = slots.T.tobytes().translate(None, b"\0")
    if python.any():
        pieces = text.split(bytes([_MARK]))  # around the marks, in the order of np.nonzero
        text = b"".join(piece + b"%.17g" % columns[c][r]
                        for piece, r, c in zip(pieces, *np.nonzero(python))) + pieces[-1]
    return text.decode("ascii")
