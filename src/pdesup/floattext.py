"""``format(v, ".17g")`` for arrays of doubles by numpy arithmetic, and the
trajectory CSV lines made of it.

D = round(|x| 10^p), p = 16 - e, e the decimal exponent of x, holds its 17
digits.  Dekker's two-product (T. J. Dekker, Numer. Math. 18, 1971) of |x| and
the double b nearest 10^p, plus |x| times the double nearest 10^p - b, gives
|x| 10^p = hi + lo, exactly for p <= 22 and lo within 2^-48 for p <= 44.  As hi
is an even integer above 2^53, D = hi + rint(lo), ties to even.  Zeros, values
outside [1e-27, 1e16) and, for p > 22, a lo within 2^-47 of a tie go to format.
"""

import numpy as np

from .core import CHUNK_VALUES

_W = 48  # a value's columns: '-', "0.000", d0 '.' d1 '.' ... d16 '.', "e-XX\n", 3 spare


def _tables():
    """The doubles nearest 10^e (-28 <= e <= 16) and whether each is below it;
    10^p (p <= 44) as split for the two-product; per 4-digit group its "d.d.d.d."
    and its trailing zeros (4 for 0000); the first word per lead digit, the last
    per e; and by %g's rule the keep-mask of each (e, sign, last nonzero digit)."""
    p10 = np.array([float(10 ** k) for k in range(45)])
    c = 134217729.0 * p10  # Veltkamp's split by 2^27 + 1
    low = [float(10 ** k - int(b)) for k, b in enumerate(p10.tolist())]  # 10^p - b
    tens = [1 / 10 ** -k if k < 0 else float(10 ** k) for k in range(-28, 17)]
    below = [k < 0 and n * 10 ** -k < d
             for k, (n, d) in zip(range(-28, 17), (b.as_integer_ratio() for b in tens))]
    n = np.arange(10000)
    quads = np.full((10000, 8), ord("."), np.uint8)
    quads[:, ::2] = n[:, None] // [1000, 100, 10, 1] % 10 + 48
    heads = np.array([f"-0.000{d}." for d in range(10)], dtype="S8")
    tails = np.array([f"e{k:+03d}\n" for k in range(-28, 17)], dtype="S8")
    e, neg, last, col = np.ix_(np.arange(-28, 17), [0, 1], np.arange(17), np.arange(_W))
    j, slot = np.divmod(col - 6, 2)  # d_j in column 6 + 2j, the '.' slot after it in 7 + 2j
    q, small, sci = np.maximum(e, 0), (e < 0) & (e >= -4), e < -4  # small: 0.000ddd
    keep = ((col >= 6) & (col < 40) & ((slot == 0) & (j <= np.maximum(q, last))
                                        | (slot == 1) & (j == q) & (last > q) & ~small)
            | small & ((col == 1) | (col == 2) | (col >= 3) & (col < 2 - e))
            | sci & (col >= 40) & (col < 44) | (col == 44) | (col == 0) & (neg == 1))
    return (np.array(tens), np.array(below), np.array([p10, c - (c - p10), p10 - (c - (c - p10)), low]),
            quads.view(np.uint64).ravel(), sum(n % 10 ** k == 0 for k in range(1, 5)).astype(np.int8),
            heads.view(np.uint64), tails.view(np.uint64), keep.reshape(-1, _W).astype(np.uint8))


_TABLES = _tables()


def text_block(v, out):
    """``format(x, ".17g")`` and a line break for each value x of ``v``, into the
    rows of ``out`` (uint8, :data:`_W` columns), NUL in the columns they drop."""
    tens, below, ten, quads, zeros, heads, tails, keep = _TABLES
    x = np.abs(v)
    ok = (x >= 1e-27) & (x < 1e16)
    x[~ok] = 1.0
    k = np.searchsorted(tens, x, side="right") - 1  # the double nearest 10^e, at most x
    e = k - 28 - ((x == tens[k]) & below.take(k))
    b, b_hi, b_lo, b_low = ten.take(16 - e, axis=1)  # b = b_hi + b_lo, halves of 26 bits
    c = 134217729.0 * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    hi = x * b
    lo = ((x_hi * b_hi - hi) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo + x * b_low
    r = np.rint(lo)
    deep = np.flatnonzero(e < -6)  # p > 22
    ok[deep] &= abs(abs(lo[deep] - r[deep]) - 0.5) >= 2.0 ** -47
    d = hi.astype(np.int64) + r.astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry + 28
    top, groups = d // 10 ** 8, np.empty((4, d.size), np.int32)  # digits 1-4, ..., 13-16
    lead = top // 10 ** 8
    groups[1], groups[3] = top - lead * 10 ** 8, d - top * 10 ** 8  # digits 1-8, 9-16
    groups[::2] = groups[1::2] // 10 ** 4
    groups[1::2] -= groups[::2] * 10 ** 4
    words = out.view(np.uint64)
    words[:, 0], words[:, 1:5], words[:, 5] = heads.take(lead), quads.take(groups).T, tails.take(e)
    z = zeros.take(groups)  # trailing zeros of digits 1-8 and 9-16, then of 1-16
    z = z[1::2] + (z[1::2] == 4) * z[::2]
    out *= keep.take(e * 34 + 17 * (v < 0) + 16 - z[1] - (z[1] == 8) * z[0], axis=0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        out[bad] = np.array([format(f, ".17g") + "\n" for f in v[bad].tolist()],
                            dtype=f"S{_W}").view(np.uint8).reshape(-1, _W)


def csv_blocks(times, nodes, values):
    """The ``t,x[,y],u`` lines (bytes) of the (times × nodes) ``values``, given the
    text of each time and node, at most :data:`~pdesup.core.CHUNK_VALUES` (4096)
    values at a time: a block's lines are the rows of one byte matrix, its NULs
    dropped."""
    t_text, x_text = (np.array([s + "," for s in c], dtype="S") for c in (times, nodes))
    t_text, x_text = (a.view(np.uint8).reshape(a.size, -1) for a in (t_text, x_text))
    n, wt, wx = values.shape[1], t_text.shape[1], x_text.shape[1]
    pre = -(-(wt + wx) // 8) * 8  # the value's columns start 8-byte aligned, after NULs
    rows, cols = max(1, CHUNK_VALUES // n), min(n, CHUNK_VALUES)
    buf = bytearray(rows * cols * (pre + _W))  # translated without a copy
    line = np.frombuffer(buf, np.uint8).reshape(rows * cols, -1)
    line.reshape(rows, cols, -1)[..., pre - wx:pre] = x_text[:cols]

    def lines(i, j):
        v = values[i:i + rows, j:j + cols]
        by_node = line[:v.size].reshape(*v.shape, -1)
        by_node[..., :wt] = t_text[i:i + rows, None]
        if cols < n:  # a sample takes several blocks
            by_node[..., pre - wx:pre] = x_text[j:j + cols]
        text_block(v.ravel(), line[:v.size, pre:])
        line[v.size:] = 0  # rows a shorter block leaves unused drop out with the NULs
        return buf.translate(None, b"\0")

    return (lines(i, j) for i in range(0, len(values), rows) for j in range(0, n, cols))
