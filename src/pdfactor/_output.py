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
# Each field has a slot of 32 bytes, 4 little-endian uint64 words on any
# host, that holds its text and separator, "," or "\n", as one run of
# nonzero bytes between zeros; the slots with their zero bytes dropped are
# the lines. D's digits d0..d16 come in two copies, U with d_i at byte
# 11 + i and S, U shifted down a byte. A table row keeps bytes of S and U
# and fills in others:
#   E >= 0   the sign at byte 9, d0..dE from S, the "." at 11 + E, then U
#   E < 0    the sign, "0", the "." at 11 + E and zeros up to byte 10, then U
# then the separator. The key is the sign, E and nd, the digits left once
# trailing zeros are dropped, plus _KEYS for "\n" at the end of a line. A
# string from '%.17g' and its separator fill the slot from byte 0.
#
# E is _LOW at x's biased binary exponent b, the exponent of the largest of
# _DECADES at or below 2^(b - 1023), or one more where |x| is at or above the
# next of them: '%.17g' writes each of _DECADES at its own exponent and the
# double below it at the one before.
_DECADES = np.array([float(f"1e{E}") for E in range(-4, 18)])  # its ends bound E
_LOW = np.searchsorted(_DECADES, np.ldexp(1.0, np.arange(-1023, 1025).clip(-14, 56)), "right") - 5
_KEYS = 2 * 21 * 17  # in the table's first half


@functools.cache
def _encoder_tables() -> tuple:
    """The 4-digit words, with the digits kept of each group in the high
    half, and the tables of S's masks, U's masks and bytes filled in,
    (2 _KEYS, 4) words each. Built on first use, so that importing the
    package does not pay for them."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii4 = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1)
    ascii4 = ascii4.reshape(10000, 4)
    # A group's digits through its last nonzero one; -64 for 0000.
    kept = ((ascii4 != ord("0")) * np.arange(1, 5)).max(axis=1)
    kept[0] = -64
    words = ascii4.view("<u4").ravel().astype(np.int64) | (kept << 32)
    j = np.arange(32, dtype=np.int8)
    last, neg, E, nd = np.indices((2, 2, 21, 17), np.int8).reshape(4, -1, 1)
    E, nd = E - 4, nd + 1
    end = np.where(nd > E + 1, 11 + nd, 11 + E)
    rows = np.zeros((3, 2 * _KEYS, 32), np.uint8)
    rows[0][(j >= 10) & (j <= 10 + E)] = 255
    rows[1][(j >= np.maximum(11, 12 + E)) & (j <= 10 + nd)] = 255
    rows[2][(E < 0) & (j >= 10 + E) & (j <= 10)] = ord("0")
    rows[2][(neg == 1) & (j == 9 + np.minimum(E, 0))] = ord("-")
    rows[2][(j == 11 + E) & (j < end)] = ord(".")
    np.put_along_axis(rows[2], end, np.where(last, ord("\n"), ord(",")), axis=1)
    tables = words, *rows.view("<u8")
    for table in tables:
        table.flags.writeable = False
    return tables


_POW10 = np.array([float(10**k) for k in range(21)])
# Veltkamp's split of each power: 26 high bits and the exact rest.
_POW10_HI = _POW10 * 134217729.0
_POW10_HI -= _POW10_HI - _POW10
_POW10_LO = _POW10 - _POW10_HI


class _CsvEncoder:
    """Encodes floats as CSV fields, byte for byte what '%.17g' formats, in
    work buffers kept from call to call and grown only for a call of more
    fields than any before it: fresh ones per block fault their pages in
    again (8,300 minor faults, not 5,200, and 128 ms, not 119, on a 2-core
    host for `pdfactor simulate`, n = 4, 16 particles)."""

    size = 0  # fields the work buffers hold, flat: a call's are one contiguous run

    def write(self, fh, rows) -> None:
        """Write the rows of a 2-D float array as CSV lines."""
        for lo in range(0, len(rows), _BLOCK_ROWS):
            fh.write(_join(self.encode(rows[lo:lo + _BLOCK_ROWS])[0]))

    def encode(self, *parts) -> list:
        """The slots of the floats in parts, an array per part shaped as it
        plus 4 words, alive until the next call. In a part of more than one
        dimension, the last field along the last axis ends a line."""
        words, *tables = _encoder_tables()
        size = sum(part.size for part in parts)
        if size > self.size:
            self.size = size
            self.floats = np.empty(8 * size)
            self.ints = np.empty(14 * size, np.int64)
            self.bools = np.empty(3 * size, bool)
            self.slots = np.empty(20 * size, "<u8")  # U, S and table rows
        x, a, f, *work = self.floats[:8 * size].reshape(8, size)
        np.concatenate([part.ravel() for part in parts], out=x)
        ints = self.ints[:14 * size].reshape(14, size)
        E, K, D, T = ints[:4]
        neg, fixed, tmp = self.bools[:3 * size].reshape(3, size)
        np.abs(x, out=a)
        np.signbit(x, out=neg)
        np.greater_equal(a, _DECADES[0], out=fixed)
        fixed &= np.less(a, _DECADES[-1], out=tmp)
        odd = np.flatnonzero(~fixed)
        a[odd] = 1.0  # E = 0
        np.right_shift(a.view(np.int64), 52, out=K)
        _LOW.take(K, out=E)
        np.add(E, 5, out=K)
        E += np.greater_equal(a, _DECADES.take(K, out=f), out=tmp)
        _digits(a, E, D, K, f, *work)
        D[odd] = 0
        # D's first digit, then four groups of four; D is spent.
        G = ints[4:9]
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
        # The groups' words, and nd: the digits through D's last nonzero
        # one, and at least E + 1.
        W = words.take(G, out=ints[9:], mode="clip")
        kept = np.right_shift(W[1:], 32, out=G[1:])
        nd = kept[0]
        nd += 1
        for row, offset in ((1, 5), (2, 9), (3, 13)):
            np.maximum(nd, np.add(kept[row], offset, out=kept[row]), out=nd)
        np.maximum(nd, np.add(E, 1, out=T), out=nd)
        np.maximum(nd, 1, out=nd)
        # The key: (21 neg + E + 4) 17 + nd - 1.
        key = np.multiply(neg, 21 * 17, out=T)
        key += np.multiply(E, 17, out=K)
        key += nd
        key += 4 * 17 - 1
        U, S, *rows = self.slots[:20 * size].reshape(5, size, 4)
        slots, lo = [], 0
        for part in parts:
            hi = lo + part.size
            if part.ndim > 1:
                key[lo:hi].reshape(-1, part.shape[-1])[:, -1] += _KEYS
            slots.append(U[lo:hi].reshape(*part.shape, 4))
            lo = hi
        # U's digit words, and S: U's bytes one place on. S's last byte is
        # left as it was; no S mask keeps a byte past 26.
        U.view("<u4")[:, 2:7] = W.T  # the low halves
        S.view(np.uint8).reshape(-1)[:-1] = U.view(np.uint8).reshape(-1)[1:]
        S_mask, U_mask, fill = [table.take(key, axis=0, out=out, mode="clip")
                                for table, out in zip(tables, rows)]
        S &= S_mask
        U &= U_mask
        U |= S
        U |= fill
        odd = odd[x[odd] != 0]
        if odd.size:  # the string from '%.17g', and the separator
            text = "".join(("%.17g" % v + ",\n"[end]).ljust(32, "\0") for v, end in zip(
                x[odd].tolist(), (key[odd] >= _KEYS).tolist()))
            U[odd] = np.frombuffer(text.encode(), "<u8").reshape(-1, 4)
        return slots


def _slots(*shape) -> np.ndarray:
    """Slots of the given shape, in which to put fields together into lines."""
    return np.empty((*shape, 4), "<u8")


def _join(slots) -> np.ndarray:
    """The bytes of contiguous slots, zeros dropped: their fields in order."""
    text = slots.view(np.uint8).reshape(-1)
    return text[text != 0]


def _digits(a, E, D, K, t, p, hi, lo, ah, al) -> None:
    """D = round(a 10^(16-E)), half to even, for 10^(16-E) exact: hi + lo
    is the exact product (Dekker), and K and t..al are work arrays."""
    np.subtract(16, E, out=K)
    _POW10.take(K, out=p, mode="clip")
    np.multiply(a, p, out=hi)
    np.multiply(a, 134217729.0, out=ah)
    np.subtract(ah, a, out=al)
    ah -= al
    np.subtract(a, ah, out=al)
    _POW10_HI.take(K, out=p, mode="clip")
    _POW10_LO.take(K, out=t, mode="clip")
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
