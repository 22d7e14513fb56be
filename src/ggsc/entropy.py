"""Adaptive range coding of bounded integer symbol streams.

The coder is a byte-wise range coder (Martin, "Range encoding", 1979)
on a 64-bit window.  Its state is `low`, the bottom of the current
interval, and `rng`, the interval's width, starting at 0 and 2^64.  A
symbol with cumulative count `cumlow`, count `freq` and model total
`total` narrows the interval to

    r = rng // total;  low += r * cumlow;  rng = r * freq

and while `rng` is below 2^56 the top byte of `low` leaves: `low` keeps
its low 56 bits and both shift left by 8.  Renormalized, `rng` is at
least 2^56 and a total at most 2^24, so r >= 2^32 and no symbol's width
rounds to zero.  An addition can carry `low` past 2^64; the carry goes
back into the bytes already written, turning trailing 0xFF bytes into
0x00 and adding one to the byte before them.  Probabilities come from
an order-0 adaptive model shared by encoder and decoder:

* every symbol starts with count 1 (no zero-probability symbols),
* a coded symbol's count grows by 32,
* when the total exceeds 2^24 all counts are halved, rounding up.

A caller may give each symbol a context, a small non-negative integer
that both sides know before the symbol is coded (the codec uses the
frequency band of an attribute coefficient).  Each context then has a
model of its own under the same rules, which sees only that context's
symbols; the interval arithmetic is shared.  Without contexts every
symbol shares one model, and the bytes are those of a single context.

A model depends only on the symbols already coded, and `total` grows
by a fixed step, so the points where it halves are known in advance.
The encoder therefore computes every symbol's (cumlow, freq, total)
with numpy before coding starts: inside one rescale segment a symbol's
cumulative count is the segment's base prefix plus the increment times
the number of earlier, smaller symbols in the segment (per context,
scattered back to symbol order).  The decoder learns each symbol only
as it decodes it, so each of its models is a Fenwick tree (a Python
list built with numpy, rebuilt at each rescale) with O(log alphabet)
queries and updates.

A payload is framed as

    [symbol count: u32 LE][coded bytes]

(contexts are not stored: the decoder is given the same ones).  After
the last symbol the encoder flushes one byte: the top byte of the
smallest multiple of 2^56 at or above `low`, which lies inside the final
interval because its width is at least 2^56.

Encoding is canonical -- one byte string per symbol sequence -- and
the decoder checks that in its loop.  It tracks diff = code - low, where
the code is the payload read as a big-endian number with zero bytes
after its end: 8 bytes to prime, one per renormalization.  A symbol
whose value diff // r is `total` or more lies in the dead zone left by
the rounding of r, which no encoding reaches.  At the end the decoder
requires that it consumed exactly len + 7 bytes and that diff < 2^56.
The decoded symbols drive an encoder through the same intervals and
renormalizations, so that encoder writes len bytes too (one per
renormalization and the flush byte, against the decoder's priming 8);
and of the multiples of 2^56 at or above `low`, diff < 2^56 leaves only
the smallest, which is what that encoder flushes.  So a payload decodes
only if it is the canonical encoding of the symbols it decodes to, and
everything else raises `CorruptPayloadError`: framing violations,
trailing garbage, truncation anywhere and the vast majority of bit
flips, without re-encoding anything.  The unavoidable residue is
corruption that happens to transform one canonical payload into another,
which is indistinguishable from a legitimate encoding of a different
stream without out-of-band redundancy.

The caller passes the symbol count it expects; a header that claims
any other count is rejected before decoding, which bounds the decoder's
memory and time by that count.  A symbol's count is at most its model's
total minus one, and the total at most 2^24, so each symbol costs more
than 2^-24 bits: a body of n bytes holds fewer than n * 2^27 symbols,
and a count that large is refused before decoding too.

Values too wide to model symbol by symbol are split the same way by
the codec's attribute payloads and the geometry section: the coder
takes each value's bit length (its *class*), and the low `class - 1`
bits follow raw, MSB-first, their leading 1 implied.  `raw_bit_chunks`
lays those bits out in bounded chunks and `unpack_raw_bits` checks a
raw section's length and zero padding.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

#: The coder's window: `low` has 64 bits, and a byte leaves it whenever
#: the range falls below 2^56.
_TOP = 1 << 64
_BOT = 1 << 56
_LOW56 = _BOT - 1

# Symbols whose model values are converted to Python ints at a time.
_CHUNK = 1 << 12
#: Raw bits packed or unpacked per `raw_bit_chunks` step: bounds the int64
#: (rows, bits) temporaries to 512 KiB each whatever the value count.
CHUNK_BITS = 1 << 16

COUNT_INIT = 1
COUNT_INCREMENT = 32
RESCALE_LIMIT = 1 << 24

MIN_ALPHABET = 2
MAX_ALPHABET = 1 << 16
MAX_SYMBOLS = (1 << 32) - 1
#: Contexts are integers in [0, MAX_CONTEXTS).
MAX_CONTEXTS = 1 << 8


class CorruptPayloadError(ValueError):
    """An entropy-coded payload failed framing or canonicality checks."""


@dataclass
class SymbolStream:
    """Integer symbols in [0, alphabet_size) destined for one payload."""

    alphabet_size: int
    symbols: np.ndarray

    def __post_init__(self) -> None:
        if not MIN_ALPHABET <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(
                f"alphabet_size must be in [{MIN_ALPHABET}, {MAX_ALPHABET}]"
            )
        self.symbols = np.ascontiguousarray(self.symbols, dtype=np.int64)
        if self.symbols.ndim != 1:
            raise ValueError("symbols must be 1-D")
        if self.symbols.shape[0] > MAX_SYMBOLS:
            raise ValueError("stream too long for u32 framing")
        if self.symbols.size and (
            self.symbols.min() < 0 or self.symbols.max() >= self.alphabet_size
        ):
            raise ValueError("symbols must lie in [0, alphabet_size)")

    def __len__(self) -> int:
        return self.symbols.shape[0]


def _equal_before(key: np.ndarray) -> np.ndarray:
    """#{j < i : key[j] == key[i]} for each i, by one stable argsort (a
    radix sort for keys of 16 bits or less)."""
    n = key.shape[0]
    pos = np.arange(n)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    start = np.where(first, pos, 0)
    np.maximum.accumulate(start, out=start)
    here = np.empty(n, dtype=np.int64)
    here[order] = pos - start
    return here


def _earlier_counts(seg: np.ndarray, alphabet: int, groups: np.ndarray | None = None,
                    above: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each i, over the earlier j of its group: (#{seg[j] < seg[i]},
    #{seg[j] == seg[i]}).

    Without `groups` every symbol is in one group; with them `above` is
    each symbol's count of earlier symbols of its group.  With R_b(i) the
    number of those j whose seg[j] >> b equals seg[i] >> b, a smaller
    earlier symbol first differs from seg[i] at one bit b where seg[i]
    has a 1, so the first count is the sum over b of bit_b(seg[i]) *
    (R_{b+1} - R_b), and the second is R_0.  Each R_b is one stable
    argsort of the group and seg[i] >> b.
    """
    bits = (alphabet - 1).bit_length()
    if groups is None:
        high = 0
        above = np.arange(seg.shape[0])  # R_b for b = bits: every j < i
    else:
        high = groups << bits
    top = (0 if groups is None else int(groups.max()) << bits) | (alphabet - 1)
    dtype = np.uint16 if top < 1 << 16 else np.uint32
    less = np.zeros(seg.shape[0], dtype=np.int64)
    for b in range(bits - 1, -1, -1):
        here = _equal_before(((high | seg) >> b).astype(dtype))
        diff = above - here
        diff *= (seg >> b) & 1
        less += diff
        above = here
    return less, above


def _segments(symbols: np.ndarray, alphabet: int):
    """Yield one adaptive model's (cumlow, freq, total) for every symbol,
    as int64 arrays, one rescale segment at a time.

    `total` grows by COUNT_INCREMENT per symbol, so where the model halves
    is known in advance; inside a segment the counts are the segment's base
    counts plus COUNT_INCREMENT per earlier occurrence.  Until the first
    rescale every base count is COUNT_INIT, which needs no table.
    """
    n = symbols.shape[0]
    base = None
    total = alphabet * COUNT_INIT
    start = 0
    while start < n:
        stop = min(n, start + max(1, (RESCALE_LIMIT - total) // COUNT_INCREMENT + 1))
        seg = symbols[start:stop]
        less, equal = _earlier_counts(seg, alphabet)
        if base is None:
            cumlow = COUNT_INIT * seg + COUNT_INCREMENT * less
            freq = COUNT_INIT + COUNT_INCREMENT * equal
        else:
            cum = np.cumsum(base)
            cum -= base
            cumlow = cum[seg] + COUNT_INCREMENT * less
            freq = base[seg] + COUNT_INCREMENT * equal
        yield cumlow, freq, total + COUNT_INCREMENT * np.arange(stop - start)
        if stop < n:
            counts = COUNT_INCREMENT * np.bincount(seg, minlength=alphabet)
            counts += COUNT_INIT if base is None else base
            base = (counts + 1) >> 1
            total = int(base.sum())
        start = stop


def _model(symbols: np.ndarray, alphabet: int, contexts: np.ndarray | None = None):
    """Yield the model's (cumlow, freq, total) for every symbol, as
    int64 arrays in symbol order.

    Without contexts there is one adaptive model, and the arrays come one
    rescale segment at a time.  With them each context has a model of its
    own, which sees only that context's symbols, and the arrays come in
    one piece.  Until a context's first rescale its base counts are all
    COUNT_INIT, so one pass that counts only the earlier symbols of each
    symbol's context gives every context's values; a context busy enough
    to rescale is then redone alone through `_segments`.
    """
    if contexts is None:
        yield from _segments(symbols, alphabet)
        return
    rank = _equal_before(contexts.astype(np.uint16))  # earlier symbols of the context
    less, equal = _earlier_counts(symbols, alphabet, contexts, rank)
    cumlow = COUNT_INIT * symbols + COUNT_INCREMENT * less
    freq = COUNT_INIT + COUNT_INCREMENT * equal
    total = alphabet * COUNT_INIT + COUNT_INCREMENT * rank
    first = max(1, (RESCALE_LIMIT - alphabet * COUNT_INIT) // COUNT_INCREMENT + 1)
    for ctx in np.unique(contexts[rank >= first]):
        rows = np.flatnonzero(contexts == ctx)
        pos = 0
        for arrays in _segments(symbols[rows], alphabet):
            stop = pos + arrays[0].shape[0]
            for out, values in zip((cumlow, freq, total), arrays):
                out[rows[pos:stop]] = values
            pos = stop
    yield cumlow, freq, total


def _carry(out: bytearray) -> None:
    """Add one to the bytes written so far, as a big-endian number."""
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1


def _encode_bytes(symbols: np.ndarray, alphabet: int,
                  contexts: np.ndarray | None = None) -> bytes:
    if symbols.shape[0] == 0:
        return b""
    if symbols.min() < 0 or symbols.max() >= alphabet:
        raise ValueError("symbols out of range for the declared alphabet")
    out = bytearray()
    low, rng = 0, _TOP
    for arrays in _model(symbols, alphabet, contexts):
        for a in range(0, arrays[0].shape[0], _CHUNK):
            chunk = [arr[a : a + _CHUNK].tolist() for arr in arrays]
            for cumlow, freq, total in zip(*chunk):
                r = rng // total
                low += r * cumlow
                rng = r * freq
                if rng < _BOT:
                    # low + rng never grows between renormalizations and
                    # is below 2^65 after one: at most one carry pends.
                    if low >= _TOP:
                        _carry(out)
                        low -= _TOP
                    while rng < _BOT:
                        out.append(low >> 56)
                        low = (low & _LOW56) << 8
                        rng <<= 8
    # Flush the top byte of the smallest multiple of 2^56 at or above low;
    # a pending carry, or the rounding up, carries into the bytes written.
    top = (low + _LOW56) >> 56
    if top > 0xFF:
        _carry(out)
    out.append(top & 0xFF)
    return bytes(out)


def _fenwick(counts: np.ndarray) -> list[int]:
    """Fenwick tree of `counts` as a list (entry 0 unused).

    A search from the top power of two at or below the alphabet size
    visits indices up to twice that power minus one; when the alphabet is
    not a power of two, the entries past it hold a sentinel that no
    search target reaches.  (A power-of-two alphabet needs none: its last
    entry is the total, which every target is below.)
    """
    a = counts.shape[0]
    tree = np.zeros(a + 1, dtype=np.int64)
    tree[1:] = counts
    step = 1
    while step < a:
        child = np.arange(step, a + 1 - step, 2 * step)
        tree[child + step] += tree[child]
        step *= 2
    top_bit = 1 << (a.bit_length() - 1)
    out = tree.tolist()
    if a != top_bit:
        out += [1 << 62] * (2 * top_bit - a - 1)
    return out


def _uniform_fenwick(alphabet: int) -> list[int]:
    """`_fenwick` of `alphabet` counts of COUNT_INIT, built without numpy.

    Entry i covers as many counts as the lowest set bit of i, so entries
    1 .. 2^(k+1) are two copies of entries 1 .. 2^k with the last one
    doubled.  Repeating a list builds the tree in a fraction of what the
    numpy build and its `tolist` cost per payload.
    """
    tree = [COUNT_INIT]
    while 2 * len(tree) <= alphabet:
        tree *= 2
        tree[-1] = COUNT_INIT * len(tree)
    top_bit = len(tree)
    tree.insert(0, 0)
    if alphabet != top_bit:
        # Entry top_bit + i covers what entry i does.
        tree += tree[1 : alphabet - top_bit + 1]
        tree += [1 << 62] * (2 * top_bit - alphabet - 1)
    return tree


def _decode_symbols(data: bytes, alphabet: int, count: int,
                    contexts: np.ndarray | None = None) -> np.ndarray:
    """Decode `count` symbols from the coded bytes, with one model per
    context when `contexts` gives each symbol's.

    Raises `CorruptPayloadError` unless the bytes are the canonical
    encoding of the symbols they decode to (see the module docstring).
    """
    if count >= len(data) << 27:
        raise CorruptPayloadError(
            f"{len(data)} coded bytes cannot hold {count} symbols"
        )
    buf = data + bytes(7)  # bytes past the end read as zero
    end = len(buf)
    diff = int.from_bytes(buf[:8], "big")  # code - low
    pos = 8
    rng = _TOP

    top_bit = 1 << (alphabet.bit_length() - 1)
    limit = RESCALE_LIMIT
    # One [counts, Fenwick tree, total] per context, made on first use;
    # the current context's are held in locals and `total` is written
    # back when the context changes.
    models: dict[int, list] = {}
    ctx = None
    counts = tree = model = None
    total = 0

    out = array("q")
    for c_next in repeat(0, count) if contexts is None else contexts.tolist():
        if c_next != ctx:
            if model is not None:
                model[2] = total
            ctx = c_next
            model = models.get(ctx)
            if model is None:
                model = models[ctx] = [[COUNT_INIT] * alphabet,
                                       _uniform_fenwick(alphabet),
                                       alphabet * COUNT_INIT]
            counts, tree, total = model
        r = rng // total
        value = diff // r
        if value >= total:
            raise CorruptPayloadError("code lies in the coder's dead zone")
        sym = 0
        rem = value
        bit = top_bit
        while bit:
            t = tree[sym + bit]
            if t <= rem:
                sym += bit
                rem -= t
            bit >>= 1
        c = counts[sym]
        diff -= r * (value - rem)
        rng = r * c
        while rng < _BOT:
            if pos == end:
                raise CorruptPayloadError(
                    "payload ends before its symbol count is met"
                )
            diff = (diff << 8) | buf[pos]
            pos += 1
            rng <<= 8
        out.append(sym)
        counts[sym] = c + COUNT_INCREMENT
        j = sym + 1
        while j <= alphabet:
            tree[j] += COUNT_INCREMENT
            j += j & -j
        total += COUNT_INCREMENT
        if total > limit:
            halved = (np.array(counts, dtype=np.int64) + 1) >> 1
            counts = model[0] = halved.tolist()
            tree = model[1] = _fenwick(halved)
            total = int(halved.sum())
    if pos != end:
        raise CorruptPayloadError("payload carries bytes past its last symbol")
    if diff >= _BOT:
        raise CorruptPayloadError("payload's last byte is not the encoder's flush")
    return np.frombuffer(out, dtype=np.int64)


def _check_contexts(contexts, count: int) -> np.ndarray | None:
    if contexts is None:
        return None
    ctx = np.asarray(contexts)
    if ctx.shape != (count,) or not np.issubdtype(ctx.dtype, np.integer):
        raise ValueError(f"contexts must be {count} integers, one per symbol")
    if count and (ctx.min() < 0 or ctx.max() >= MAX_CONTEXTS):
        raise ValueError(f"contexts must lie in [0, {MAX_CONTEXTS})")
    return ctx.astype(np.int64)


def aac_encode(stream: SymbolStream, contexts: np.ndarray | None = None) -> bytes:
    """Encode a stream into its canonical [count u32][coded bytes] payload.

    `contexts`, one integer in [0, MAX_CONTEXTS) per symbol, gives each
    context an adaptive model of its own; without it every symbol shares
    one.
    """
    ctx = _check_contexts(contexts, len(stream))
    return struct.pack("<I", len(stream)) + _encode_bytes(
        stream.symbols, stream.alphabet_size, ctx
    )


def aac_decode(payload: bytes, alphabet_size: int, count: int,
               contexts: np.ndarray | None = None) -> SymbolStream:
    """Decode a payload; raises `CorruptPayloadError` on any inconsistency.

    `count` is the number of symbols the caller expects.  A header that
    claims any other number is rejected before anything is allocated, so
    the count bounds the decoder's memory and time.  `contexts` must be
    those the payload was encoded with.
    """
    if not MIN_ALPHABET <= alphabet_size <= MAX_ALPHABET:
        raise ValueError(
            f"alphabet_size must be in [{MIN_ALPHABET}, {MAX_ALPHABET}]"
        )
    ctx = _check_contexts(contexts, count)
    if len(payload) < 4:
        raise CorruptPayloadError("payload shorter than its count header")
    (claimed,) = struct.unpack_from("<I", payload, 0)
    if claimed != count:
        raise CorruptPayloadError(
            f"payload holds {claimed} symbols, expected {count}"
        )
    if claimed == 0:
        if len(payload) != 4:
            raise CorruptPayloadError("empty stream carries trailing bytes")
        return SymbolStream(alphabet_size, np.empty(0, dtype=np.int64))
    symbols = _decode_symbols(bytes(payload[4:]), alphabet_size, claimed, ctx)
    return SymbolStream(alphabet_size, symbols)


def raw_bit_chunks(classes: np.ndarray):
    """Per class b >= 2, in chunks of at most CHUNK_BITS bits: the rows,
    the section bit positions of their low b - 1 bits (one row each, MSB
    first) and those bits' significance.

    A class is a value's bit length.  Its leading 1 is implied, so a raw
    section holds the low `class - 1` bits of each value of class 2 or
    more, in row order.
    """
    widths = np.maximum(classes - 1, 0)
    offsets = np.cumsum(widths) - widths
    order = np.argsort(classes, kind="stable")  # each class's rows, ascending
    ends = np.cumsum(np.bincount(classes)).tolist()
    for b in range(2, len(ends)):
        rows = order[ends[b - 1] : ends[b]]
        step = max(CHUNK_BITS // (b - 1), 1)
        sig = np.arange(b - 2, -1, -1)
        for a in range(0, rows.shape[0], step):
            chunk = rows[a : a + step]
            yield chunk, offsets[chunk, None] + np.arange(b - 1), sig


def unpack_raw_bits(data: bytes, nbits: int, what: str) -> np.ndarray:
    """The `nbits` bits of a raw section zero padded to a byte, as uint8;
    any other length or nonzero padding raises `CorruptPayloadError`."""
    if len(data) != (nbits + 7) // 8:
        raise CorruptPayloadError(
            f"{what} holds {len(data)} bytes, {nbits} bits need {(nbits + 7) // 8}"
        )
    if nbits % 8 and data[-1] & ((1 << (8 - nbits % 8)) - 1):
        raise CorruptPayloadError(f"nonzero padding in {what}")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def empirical_entropy_bits(symbols: np.ndarray, alphabet_size: int) -> float:
    """Order-0 empirical entropy of a stream, in total bits (n * H)."""
    sym = np.asarray(symbols, dtype=np.int64)
    n = sym.shape[0]
    if n == 0:
        return 0.0
    freq = np.bincount(sym, minlength=alphabet_size)
    p = freq[freq > 0] / n
    return float(n * -(p * np.log2(p)).sum())
