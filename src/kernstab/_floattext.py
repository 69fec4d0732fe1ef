"""Exact ``'%.17g' %`` text of whole float64 arrays, for the CSV writer.

``format_floats`` writes each value as ``'%.17g' % v`` does, with numpy
array arithmetic in place of one Python format call per value.
"""

from __future__ import annotations

import functools

import numpy as np

_E_MIN, _E_MAX = -324, 308  # decimal exponents of the finite doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for binary64
_DELTA = 2.0**-45  # certification margin: twice the error bound of format_floats
_CELL = 32  # bytes of one cell's text record, NUL where no character is


@functools.cache
def _tables() -> dict:
    """The lookup tables of ``format_floats``, built on its first call.

    Indexed by ``E - _E_MIN`` for a decimal exponent ``E``: ``scale``,
    ``2^t`` with ``t = 200`` below ``E = -250``, ``-200`` above ``250`` and
    0 between; ``hi``, the double nearest ``10^(16-E) 2^-t``, and ``lo``,
    the double nearest the rest (both from exact integers, correctly
    rounded), with ``hi == hi_hi + hi_lo`` its Veltkamp split; ``lead``,
    bytes 0-7 of a record for each first digit, without and with the point
    after it; ``tail``/``tail_end``, bytes 24-31 (the ``e+XX`` of ``%e``,
    and the cell's ``,`` or the row's newline).  ``groups[g]`` and
    ``groups[10000 + g]`` are the four ASCII digits of ``g < 10^4``, the
    second with the zeros NUL that have only zeros after them.
    """
    hi, lo, scale, head, point, tail, tail_end = [], [], [], [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        t = 200 if e < -250 else -200 if e > 250 else 0
        num, den = 10 ** max(16 - e, 0) << max(-t, 0), 10 ** max(e - 16, 0) << max(t, 0)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
        scale.append(2.0**t)
        prefix = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
        suffix = b"" if -4 <= e < 17 else b"e%+03d" % e
        head.append(int.from_bytes(b"\0" + prefix.ljust(7, b"\0"), "little"))
        point.append(0 if prefix else ord(".") << 56)
        tail.append(int.from_bytes((suffix + b",").ljust(8, b"\0"), "little"))
        tail_end.append(int.from_bytes((suffix + b"\n").ljust(8, b"\0"), "little"))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    # lead[((E - _E_MIN) * 10 + first digit) * 2 + point]
    lead = (
        np.array(head, np.uint64)[:, None, None]
        | (np.arange(10, dtype=np.uint64) + ord("0"))[:, None] << np.uint64(48)
        | np.array(point, np.uint64)[:, None, None] * np.arange(2, dtype=np.uint64)
    )
    g = np.arange(10000, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    digits += ord("0")
    stripped = digits.copy()
    for j in range(4):
        stripped[np.all(digits[:, j:] == ord("0"), axis=1), j] = 0
    return {
        "scale": np.array(scale), "hi": hi, "hi_hi": hi_hi, "hi_lo": hi - hi_hi,
        "lo": np.array(lo), "lead": lead.ravel(),
        "tail": np.array(tail, np.uint64), "tail_end": np.array(tail_end, np.uint64),
        "groups": np.concatenate([digits, stripped]).view(np.uint32).ravel(),
    }


def printf_floats(values: list) -> list:
    """``'%.17g' % v`` of each value: the fallback of ``format_floats``."""
    return ["%.17g" % v for v in values]


def format_floats(values: np.ndarray) -> list:
    """The CSV text of each row of a 2-D float64 array: each value as
    ``'%.17g' % v`` writes it, joined by commas.

    Digits.  For a finite nonzero ``v``, ``E = floor(log10|v|)`` (one off
    at worst, near a power of ten) and ``y = |v| 10^(16-E)``; the 17
    digits are ``N = round(y)``.  ``y`` is formed in double-double as
    ``u P`` with ``u = |v| 2^t`` (exact) and ``P = 10^(16-E) 2^-t ~ hi +
    lo`` from ``_tables``; ``t`` keeps ``u`` within ``[1e-264,
    1e251]`` and ``hi`` within ``[1e-234, 1e280]``, so that no step below
    overflows or underflows and Dekker's product ``s + e == u hi`` is
    exact.  Then ``a = floor(s)``, ``r = fl(fl(s - a) + fl(e + fl(u lo)))``,
    ``Y = a + floor(r)`` and ``f = r - floor(r)`` (``s - a`` and ``f``
    exact).

    Error bound.  ``Y < 10^17`` needs ``s < 2^57`` (``r`` is tiny against
    ``s``), so ``|e| <= ulp(s)/2 <= 8`` and ``|u lo| <= 2^-53 u hi`` is
    about 16 at most: every sum stays below 32, where half an ulp is
    ``2^-49``.  The roundings of ``u lo``, of ``e + u lo`` and of ``r``
    err by at most ``2^-49`` each, and the table by ``u |P - hi - lo| <=
    2^-106 u hi``, about ``2^-49``, so ``|y - (Y + f)| < 2^-46``.

    Certification.  A value is certified when ``|f - 1/2| > 2^-45``, twice
    the bound, and ``10^16 <= Y`` and ``N = Y + (f > 1/2) < 10^17``.  Then
    ``N`` is ``y`` rounded to nearest, decided by no tie or near-tie, and
    the decade is right: ``y > 10^16 - 2^-46``, and should ``y`` be below
    ``10^16``, the true exponent is ``E - 1``, whose ``10 y`` rounds up to
    ``10^17``, written as the ``N = 10^16`` at ``E`` that this gives.
    Zeros are written ``0`` or ``-0``.  Every other value (ties, near-ties,
    ``Y`` outside the decade, a rounding up to ``10^17``, inf and nan) is
    formatted by ``'%.17g' %`` unchanged (``printf_floats``).

    Text.  Each cell is a ``_CELL``-byte record, NUL where ``%.17g`` writes
    no character: the sign at byte 0, the ``0.000`` of ``%f`` below 1 at
    bytes 1-5, the first digit and the point at bytes 6-7, the other 16
    digits at bytes 8-23 (trailing zeros NUL) and the exponent and the
    separator at bytes 24-31; ``%f`` from 10 up has the point after digit
    ``E``.  Dropping every NUL joins the records into the text.
    """
    tab = _tables()
    cols = values.shape[1]
    x = values.ravel()
    certified = np.isfinite(x) & (x != 0)
    v = np.abs(x, where=certified, out=np.ones_like(x))  # 1 for zero, inf and nan
    E = np.floor(np.log10(v)).astype(np.int64)
    i = E - _E_MIN
    u = v * tab["scale"][i]
    s = u * tab["hi"][i]
    c = _SPLIT * u
    u_hi = c - (c - u)
    u_lo = u - u_hi
    hi_hi, hi_lo = tab["hi_hi"][i], tab["hi_lo"][i]
    e = ((u_hi * hi_hi - s) + u_hi * hi_lo + u_lo * hi_hi) + u_lo * hi_lo
    a = np.floor(s)
    r = (s - a) + (e + u * tab["lo"][i])
    whole = np.floor(r)
    f = r - whole
    Y = a.astype(np.int64) + whole.astype(np.int64)
    N = Y + (f > 0.5)
    certified &= (np.abs(f - 0.5) > _DELTA) & (Y >= 10**16) & (N < 10**17)
    N[~certified] = 0  # "0" for a zero (E is 0 there); the rest is overwritten below
    certified |= x == 0

    # N = g0 g1 g2 g3 g4: one digit, then four groups of four
    g0 = N // 10**16
    rest = N - g0 * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    groups = tab["groups"]
    cells = np.empty((x.size, _CELL // 4), np.uint32)
    cells[:, 2] = groups[g1 + 10000 * ((g2 == 0) & (lower == 0))]
    cells[:, 3] = groups[g2 + 10000 * (lower == 0)]
    cells[:, 4] = groups[g3 + 10000 * (g4 == 0)]
    cells[:, 5] = groups[g4 + 10000]
    words = cells.view(np.uint64)
    words[:, 0] = tab["lead"][(i * 10 + g0) * 2 + (rest != 0)]
    words[:, 0] |= np.where(np.signbit(x), np.uint64(ord("-")), 0)
    words[:, 3] = tab["tail"][i]
    words[cols - 1 :: cols, 3] = tab["tail_end"][i[cols - 1 :: cols]]
    text = cells.view(np.uint8)

    big = np.flatnonzero(certified & (E >= 1) & (E < 17))
    if big.size:  # the point after digit E, and every digit before it kept
        digits = np.empty((big.size, 5), np.uint32)
        for j, g in enumerate((g0, g1, g2, g3, g4)):
            digits[:, j] = groups[g[big]]
        digits = digits.view(np.uint8)[:, 3:]  # the 17 digits of N
        kept = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
        at, col = E[big, None], np.arange(18)
        moved = np.take_along_axis(digits, np.where(col <= at, col, col - 1), axis=1)
        moved[col == at + 1] = ord(".")
        moved[col > np.where(kept > at[:, 0] + 1, kept, at[:, 0])[:, None]] = 0
        text[big, 6:24] = moved

    slow = np.flatnonzero(~certified)
    if slow.size:
        printed = "".join([p.ljust(24, "\0") for p in printf_floats(x[slow].tolist())])
        text[slow, :24] = np.frombuffer(printed.encode("ascii"), np.uint8).reshape(-1, 24)
        words[slow, 3] = np.where(slow % cols == cols - 1, ord("\n"), ord(","))
    return text[text != 0].tobytes().decode("ascii").split("\n")[:-1]
