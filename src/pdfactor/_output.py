"""Output files: each one written as a new file, and CSV rows encoded
byte for byte as '%.17g' formats their numbers."""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

# The CSV files are written in blocks of whole samples, about this many
# rows each: the per-block cost vanishes, and a block is too small to
# raise peak memory or to be returned to the system and faulted back in.
_BLOCK_ROWS = 1024


def _create(path):
    """Open path to write bytes to a new file. An existing regular file is
    unlinked first, since one truncated on open is flushed to disk on close
    (ext4); a symlink is kept and written through."""
    with contextlib.suppress(OSError):
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
    return open(path, "wb")


# The CSV encoder. Every field is the bytes '%.17g' % x writes. When x
# rounds to 17 significant digits at a decimal exponent E in -4..16, that
# is positional notation, and its digits are D = round(|x| 10^(16-E)), an
# integer in [10^16, 10^17): the exact product of |x| and 10^(16-E),
# rounded half to even. A zero is written from D = 0 at E = 0. Other values
# (|x| < 1e-4, |x| >= 1e17, inf, nan) are formatted by '%.17g' itself.
#
# Each field has a slot of 14 uint32 words (56 bytes), and a per-field mask
# picks its bytes, in order, from
#   bytes  2..7   "-0.000"         sign, "0." and the zeros that lead when E < 0
#   bytes  8..27  "000d" / "00-d" and 16 digits: D, with the sign before it
#   byte  31      "."
#   bytes 32..51  the same 20 bytes, for the digits after the point
#   byte  52      "," or "\n"
# or a string from '%.17g' at bytes 8..31. The mask depends only on the
# sign, E and nd, the digits left once trailing zeros are dropped, so it is
# a row of a table, as are the slot's 4-digit words.
_FIXED = (1e-4, 1e17)
_SLOT = 14
_STRING_KEY = 2 * 21 * 17 - 1  # + the length of a string from '%.17g'


@functools.cache
def _encoder_tables() -> tuple:
    """The 4-digit words, the digits kept of each group and the masks.
    Built on first use, so that importing the package does not pay for
    them."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii4 = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1)
    ascii4 = ascii4.reshape(10000, 4)
    signed = ascii4[:10].copy()
    signed[:, 2] = ord("-")
    words = np.concatenate([ascii4, signed]).view(np.uint32).ravel()
    # A group's digits through its last nonzero one; -64 for 0000.
    kept = ((ascii4 != ord("0")) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    kept = kept.astype(np.intp)
    kept[0] = -64
    j = np.arange(4 * _SLOT)
    neg, E, nd = np.indices((2, 21, 17)).reshape(3, -1, 1)
    E, nd = E - 4, nd + 1
    masks = (j == 52) | np.where(
        E < 0,
        ((j >= 3 - neg) & (j <= 3 - E)) | ((j >= 11) & (j < 11 + nd)),
        ((j >= 11 - neg) & (j <= 11 + E))
        | ((nd > E + 1) & ((j == 31) | ((j >= 36 + E) & (j < 35 + nd)))),
    )
    length = np.arange(1, 25)[:, np.newaxis]  # '%.17g' writes at most 24
    strings = (j == 52) | ((j >= 8) & (j < 8 + length))
    tables = words, kept, np.concatenate([masks, strings])
    for table in tables:
        table.flags.writeable = False
    return tables


_POW10 = np.array([float(10**k) for k in range(21)])
# Veltkamp's split of each power: 26 high bits and the exact rest.
_POW10_HI = _POW10 * 134217729.0
_POW10_HI -= _POW10_HI - _POW10
_POW10_LO = _POW10 - _POW10_HI


def _word(four) -> np.uint32:
    return np.frombuffer(four, np.uint32)[0]


class _CsvEncoder:
    """Writes the rows of float arrays with cols columns as CSV lines,
    byte for byte what '%.17g' formats, at most rows rows (and _BLOCK_ROWS)
    at a time in work buffers allocated once: fresh ones per block fault
    their pages in again (8,300 minor faults, not 5,200, and 128 ms, not
    119, on a 2-core host for `pdfactor simulate`, n = 4, 16 particles)."""

    def __init__(self, cols, rows):
        self.rows = rows = min(rows, _BLOCK_ROWS)
        size = cols * rows
        self.floats = np.empty((7, size))
        self.ints = np.empty((4, size), np.intp)
        self.bools = np.empty((3, size), bool)
        self.groups = np.empty((5, size), np.intp)
        self.words = np.empty((5, size), np.uint32)
        self.kept = np.empty((4, size), np.intp)
        self.mask = np.empty((size, 4 * _SLOT), bool)
        self.slots = np.empty((size, _SLOT), np.uint32)
        self.slots[:, 0] = _word(b"\0\0-0")
        self.slots[:, 1] = _word(b".000")
        ends = self.slots.reshape(rows, cols, _SLOT)[:, :, _SLOT - 1]
        ends[...] = _word(b",\0\0\0")
        ends[:, -1] = _word(b"\n\0\0\0")

    def write(self, fh, rows) -> None:
        for lo in range(0, len(rows), self.rows):
            fh.write(self._encode(rows[lo:lo + self.rows].ravel()))

    def _encode(self, x) -> np.ndarray:
        words, kept_digits, masks = _encoder_tables()
        size = x.size
        a, f, *work = self.floats[:, :size]
        E, K, D, T = self.ints[:, :size]
        neg, fixed, tmp = self.bools[:, :size]
        np.abs(x, out=a)
        np.signbit(x, out=neg)
        np.greater_equal(a, _FIXED[0], out=fixed)
        fixed &= np.less(a, _FIXED[1], out=tmp)
        odd = np.flatnonzero(~fixed)
        a[odd] = 1.0
        np.log10(a, out=f)
        np.floor(f, out=f)
        np.clip(f, -4, 16, out=f)
        E[...] = f
        _digits(a, E, D, K, f, *work)
        # Next to a power of ten, log10 can miss E by one. D is then out of
        # range, and one step of E toward it is right: no double below
        # 10^(E+1) is near enough to it for D to round up to 10^17.
        np.subtract(D, 10**16, out=T)
        far = np.flatnonzero(np.greater_equal(T.view(np.uint64), 9 * 10**16, out=tmp))
        if far.size:
            Ef = E[far] + np.where(D[far] < 10**16, -1, 1)
            Df = np.empty_like(far)
            _digits(a[far], Ef, Df, np.empty_like(far), *np.empty((6, far.size)))
            E[far], D[far] = Ef, Df
        E[odd] = D[odd] = 0
        # D's first digit, then four groups of four; D is spent.
        G = self.groups[:, :size]
        np.floor_divide(D, 10**8, out=K)
        np.multiply(K, 10**8, out=T)
        np.subtract(D, T, out=T)
        np.floor_divide(K, 10**8, out=G[0])
        np.multiply(G[0], 10**8, out=D)
        np.subtract(K, D, out=K)
        for high, rest in ((1, K), (3, T)):
            np.floor_divide(rest, 10**4, out=G[high])
            np.multiply(G[high], 10**4, out=D)
            np.subtract(rest, D, out=G[high + 1])
        # nd: the digits through D's last nonzero one, and at least E + 1.
        kept = np.take(kept_digits, G[1:], out=self.kept[:, :size], mode="clip")
        nd = kept[0]
        nd += 1
        for row, offset in ((1, 5), (2, 9), (3, 13)):
            np.maximum(nd, np.add(kept[row], offset, out=kept[row]), out=nd)
        np.maximum(nd, np.add(E, 1, out=T), out=nd)
        np.maximum(nd, 1, out=nd)
        # The mask row: (21 neg + E + 4) 17 + nd - 1.
        key = np.multiply(neg, 21 * 17, out=T)
        key += np.multiply(E, 17, out=K)
        key += nd
        key += 4 * 17 - 1
        G[0] += np.multiply(neg, 10000, out=K)
        W = np.take(words, G, out=self.words[:, :size], mode="clip")
        slots = self.slots[:size]
        slots[:, 2:7] = W.T
        slots[:, 7] = _word(b"\0\0\0.")
        slots[:, 8:13] = W.T
        odd = odd[x[odd] != 0]
        text = ("%-24.17g" * odd.size % tuple(x[odd].tolist())).encode()
        chars = np.frombuffer(text, np.uint8).reshape(odd.size, 24)
        key[odd] = _STRING_KEY + np.count_nonzero(chars != ord(" "), axis=1)
        slots.view(np.uint8)[odd, 8:32] = chars
        mask = np.take(masks, key, axis=0, out=self.mask[:size], mode="clip")
        return slots.view(np.uint8).ravel()[mask.ravel()]


def _digits(a, E, D, K, t, p, hi, lo, ah, al) -> None:
    """D = round(a 10^(16-E)), half to even, for 10^(16-E) exact: hi + lo
    is the exact product (Dekker), and K and t..al are work arrays."""
    np.subtract(16, E, out=K)
    np.take(_POW10, K, out=p, mode="clip")
    np.multiply(a, p, out=hi)
    np.multiply(a, 134217729.0, out=ah)
    np.subtract(ah, a, out=al)
    ah -= al
    np.subtract(a, ah, out=al)
    np.take(_POW10_HI, K, out=p, mode="clip")
    np.take(_POW10_LO, K, out=t, mode="clip")
    np.multiply(ah, p, out=lo)
    lo -= hi
    lo += np.multiply(ah, t, out=ah)
    lo += np.multiply(al, p, out=p)
    lo += np.multiply(al, t, out=t)
    # hi, at least 2^53 when D is in range, is an even integer, so rounding
    # lo half to even rounds hi + lo half to even.
    np.rint(lo, out=lo)
    D[...] = hi
    K[...] = lo
    D += K
