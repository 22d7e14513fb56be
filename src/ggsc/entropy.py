"""Adaptive range coding of bounded integer symbol streams.

The coder is a byte-wise range coder (Martin, "Range encoding", 1979)
on an 88-bit window.  Its state is `low`, the bottom of the current
interval, and `rng`, the interval's width, starting at 0 and 2^88.
Symbols are coded two at a time, the alphabet extension of Witten, Neal
and Cleary (1987): symbols 2k and 2k + 1 narrow the interval in one
step, by their joint probability.  A pair whose first symbol has
cumulative count C1, count F1 and model total T1, and whose second
symbol has C2, F2 and T2 (counted after the first symbol's update),
takes the part

    [C1 T2 + C2 F1, C1 T2 + C2 F1 + F1 F2)  of  [0, T1 T2),

the second symbol's slice of the first symbol's part.  An odd last
symbol is a pair whose second symbol is certain: C2 = 0 and F2 = T2 = 1,
so it narrows the interval by its own probability.  A step with
joint values (cumlow, freq, total) narrows the interval to

    r = rng // total;  low += r * cumlow;  rng = r * freq

and while `rng` is below 2^80 the top byte of `low` leaves: `low` keeps
its low 80 bits and both shift left by 8.  Renormalized, `rng` is at
least 2^80 and a joint total below 2^49, so r >= 2^31 and no step's
width rounds to zero; `low` and `rng` stay within the three 30-bit
digits of a Python int.  An addition can carry `low` past 2^88; the
carry goes back into the bytes already written, turning trailing 0xFF
bytes into 0x00 and adding one to the byte before them.  Probabilities
come from an order-0 adaptive model shared by encoder and decoder:

* every symbol starts with count 1 (no zero-probability symbols),
* a coded symbol's count grows by 32,
* after a step that takes the total past 2^24 all counts are halved,
  rounding up.  A step halves a model once, and never between the two
  symbols of a pair, so a total is at most 2^24 + 32 and the decoder
  knows T2 before it decodes the first symbol.

A caller may give each symbol a context, a small non-negative integer
that both sides know before the symbol is coded (the codec uses the
frequency band of an attribute coefficient).  Each context then has a
model of its own under the same rules, which sees only that context's
symbols; the interval arithmetic is shared, and a pair may span two
contexts (then T2 is the second context's total).  Without contexts
every symbol is in context 0.

A model depends only on the symbols already coded, and `total` grows
by a fixed step, so the points where it halves are known in advance;
they cut each context's symbols into rescale segments.  The encoder
computes every symbol's (cumlow, freq, total) with numpy before coding
starts, in rounds.  A round takes every context's next segment.  There a
symbol's cumulative count is the segment's base cumulative count plus
the increment times the number of earlier, smaller symbols of the
segment, and one pass counts those for every segment of the round.  A
context's counts at the end of its segment, halved, are its base in the
next round; in the first, every count is COUNT_INIT.  A stream in which
no context halves is thus one round over whole arrays.  The pairs' joint
values are three int64 products of those arrays.

The decoder learns each symbol only as it decodes it, so each of its
models is a Fenwick tree (Fenwick, 1994): a Python list built in one
linear pass, and again from the halved counts at each rescale, with
O(log alphabet) queries and updates.  From a pair's value v in
[0, T1 T2) it reads the first symbol at v // T2 and the second at
(v - C1 T2) // F1.  It decodes an odd last symbol the way the encoder
codes it, paired with a partner context whose total is 1 and whose
counts are all 1, so the partner's symbol is 0 with C2 = 0 and
F2 = T2 = 1; that symbol is then dropped.

A payload is framed as

    [symbol count: u32 LE][coded bytes]

(contexts are not stored: the decoder is given the same ones).  After
the last step the encoder flushes one byte: the top byte of the
smallest multiple of 2^80 at or above `low`, which lies inside the final
interval because its width is at least 2^80.

Encoding is canonical -- one byte string per symbol sequence -- and
the decoder checks that in its loop.  It tracks diff = code - low, where
the code is the payload read as a big-endian number with zero bytes
after its end: 11 bytes to prime, one per renormalization.  A step whose
value diff // r is its joint total or more lies in the dead zone left
by the rounding of r, which no encoding reaches.  At the end the decoder
requires that it consumed exactly len + 10 bytes and that diff < 2^80.
The decoded symbols drive an encoder through the same intervals and
renormalizations, so that encoder writes len bytes too (one per
renormalization and the flush byte, against the decoder's priming 11);
and of the multiples of 2^80 at or above `low`, diff < 2^80 leaves only
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
total minus one, and the total at most 2^24 + 32, so each symbol costs
more than 2^-24 bits: a body of n bytes holds fewer than n * 2^27
symbols, and a count that large is refused before decoding too.

Values too wide to model symbol by symbol are split the same way by
the codec's attribute payloads and the geometry section: the coder
takes each value's bit length (its *class*), and the low `class - 1`
bits follow raw, MSB-first, their leading 1 implied.  Such a *classed*
payload is framed as

    [class count: u32 LE][class-bytes length: u32 LE][class bytes]
    [raw bits, MSB-first, zero padded to a byte]

where the class bytes are the coder's output after its count header.
Values come and go as (rows, L) int64 limbs of `partition.LIMB_BITS`
bits, least significant first.  `classed_payload` writes the payload,
`classed_sections` checks its framing and splits off the raw bits, and
`classed_values` checks their length and zero padding and restores each
value, its leading 1 included.  The coder's calls stay with the
callers: these helpers never code a symbol.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .partition import LIMB_BITS

#: The coder's window: `low` has 88 bits, and a byte leaves it whenever
#: the range falls below 2^80.  Python ints hold both in three 30-bit
#: digits.
_TOP = 1 << 88
_BOT = 1 << 80
_LOW80 = _BOT - 1
#: Bytes the decoder primes its window with.
_PRIME = 11

# Coding steps whose values are converted to Python ints at a time.
_CHUNK = 1 << 12
#: Bit-matrix entries per `pack_raw_bits` / `unpack_raw_bits` chunk: each
#: temporary of a chunk takes at most CHUNK_BITS bytes, 64 KiB.
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
    first[:1] = True  # `key` is empty for an empty stream
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    start = np.where(first, pos, 0)
    np.maximum.accumulate(start, out=start)
    here = np.empty(n, dtype=np.int64)
    here[order] = pos - start
    return here


def _earlier_counts(seg: np.ndarray, alphabet: int, groups: np.ndarray,
                    above: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each i, over the earlier j of its group: (#{seg[j] < seg[i]},
    #{seg[j] == seg[i]}).

    `above` is each symbol's count of earlier symbols of its group.  With
    R_b(i) the number of those j whose seg[j] >> b equals seg[i] >> b, a
    smaller earlier symbol first differs from seg[i] at one bit b where
    seg[i] has a 1, so the first count is the sum over b of bit_b(seg[i])
    * (R_{b+1} - R_b), and the second is R_0.  Each R_b is one stable
    argsort of the group and seg[i] >> b.
    """
    bits = (alphabet - 1).bit_length()
    key = groups << bits | seg
    dtype = np.uint16 if key.max(initial=0) < 1 << 16 else np.uint32
    less = np.zeros(seg.shape[0], dtype=np.int64)
    for b in range(bits - 1, -1, -1):
        here = _equal_before((key >> b).astype(dtype))
        diff = above - here
        diff *= (seg >> b) & 1
        less += diff
        above = here
    return less, above


def _model(symbols: np.ndarray, alphabet: int, contexts: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model's (cumlow, freq, total) for every symbol, as int64 arrays
    in symbol order, one round of rescale segments at a time (see the
    module docstring).  A context's segment ends at the symbol that takes
    its total past RESCALE_LIMIT, or at that symbol's partner when the
    pair stays in the context.
    """
    rank = _equal_before(contexts.astype(np.uint16))  # earlier symbols of the context
    size = np.bincount(contexts)
    start = np.zeros_like(size)
    base, t = None, alphabet * COUNT_INIT  # every count COUNT_INIT until a halving
    model = place = None
    while True:
        stop = start + np.maximum(1, (RESCALE_LIMIT - t) // COUNT_INCREMENT + 1)
        if model is None and (stop >= size).all():
            rows, above = slice(None), rank  # no context halves
        else:
            if place is None:
                # A symbol that closes a pair inside its context goes with its partner.
                place = rank.copy()
                place[1::2] -= contexts[1::2] == contexts[:-1:2]
            rows = np.flatnonzero((rank >= start[contexts]) & (place < stop[contexts]))
            above = rank[rows] - start[contexts[rows]]
        sym, ctx = symbols[rows], contexts[rows]
        less, equal = _earlier_counts(sym, alphabet, ctx, above)
        if base is None:
            cum, freq, total = COUNT_INIT * sym, COUNT_INIT, t
        else:
            cum = np.cumsum(base, axis=1) - base
            cum, freq, total = cum[ctx, sym], base[ctx, sym], t[ctx]
        joint = (cum + COUNT_INCREMENT * less, freq + COUNT_INCREMENT * equal,
                 total + COUNT_INCREMENT * above)
        if isinstance(rows, slice):
            return joint
        if model is None:
            model = tuple(np.empty(symbols.shape[0], dtype=np.int64) for _ in joint)
        for out, values in zip(model, joint):
            out[rows] = values
        start += np.bincount(ctx, minlength=size.shape[0])
        if (start == size).all():
            return model
        seen = np.bincount(ctx * alphabet + sym, minlength=size.shape[0] * alphabet)
        base = ((COUNT_INIT if base is None else base)
                + COUNT_INCREMENT * seen.reshape(-1, alphabet) + 1) >> 1
        t = base.sum(axis=1)


def _steps(cumlow: np.ndarray, freq: np.ndarray, total: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coding step's joint (cumlow, freq, total): symbols 2k and
    2k + 1 as one, an odd last symbol paired with a certain one.

    The first symbol takes [C1 T2, (C1 + F1) T2) of [0, T1 T2) and the
    second the part [C2 F1, (C2 + F2) F1) of that; the second symbol's
    values already count the first's update.  Every total is at most
    RESCALE_LIMIT + COUNT_INCREMENT, so the products stay below 2^49.
    """
    if cumlow.shape[0] % 2:
        # The certain partner: C2 = 0 and F2 = T2 = 1.
        cumlow, freq, total = (np.append(a, v) for a, v in ((cumlow, 0), (freq, 1), (total, 1)))
    c1, c2 = cumlow[0::2], cumlow[1::2]
    f1, f2 = freq[0::2], freq[1::2]
    t1, t2 = total[0::2], total[1::2]
    return c1 * t2 + c2 * f1, f1 * f2, t1 * t2


def _carry(out: bytearray) -> None:
    """Add one to the bytes written so far, as a big-endian number."""
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1


def _encode_bytes(symbols: np.ndarray, alphabet: int, contexts: np.ndarray) -> bytes:
    if symbols.shape[0] == 0:
        return b""
    out = bytearray()
    put = out.append
    top, bot, low80 = _TOP, _BOT, _LOW80
    low, rng = 0, top
    steps = _steps(*_model(symbols, alphabet, contexts))
    for a in range(0, steps[0].shape[0], _CHUNK):
        chunk = [arr[a : a + _CHUNK].tolist() for arr in steps]
        for cumlow, freq, total in zip(*chunk):
            r = rng // total
            low += r * cumlow
            rng = r * freq
            if rng < bot:
                # low + rng never grows between renormalizations and is
                # below 2^89 after one: at most one carry pends.
                if low >= top:
                    _carry(out)
                    low -= top
                while rng < bot:
                    put(low >> 80)
                    low = (low & low80) << 8
                    rng <<= 8
    # Flush the top byte of the smallest multiple of 2^80 at or above low;
    # a pending carry, or the rounding up, carries into the bytes written.
    top = (low + _LOW80) >> 80
    if top > 0xFF:
        _carry(out)
    out.append(top & 0xFF)
    return bytes(out)


def _fenwick(counts: list[int]) -> list[int]:
    """Fenwick tree of `counts` as a list: entry i, from 1, is the sum of
    counts[i - (i & -i) : i], and entry 0 is unused.

    Each entry, once complete, is added to the one entry that covers it
    next, so one pass builds the tree.  A search from the top power of
    two at or below the alphabet size visits indices up to twice that
    power minus one; when the alphabet is not a power of two, the entries
    past it hold a sentinel that no search target reaches.  (A
    power-of-two alphabet needs none: its last entry is the total, which
    every target is below.)
    """
    a = len(counts)
    tree = [0, *counts]
    for i in range(1, a):
        j = i + (i & -i)
        if j <= a:
            tree[j] += tree[i]
    top_bit = 1 << (a.bit_length() - 1)
    if a != top_bit:
        tree += [1 << 62] * (2 * top_bit - a - 1)
    return tree


def _decode_symbols(data: bytes, alphabet: int, count: int,
                    contexts: np.ndarray) -> np.ndarray:
    """Decode `count` symbols from the coded bytes, with one model per
    context.

    Raises `CorruptPayloadError` unless the bytes are the canonical
    encoding of the symbols they decode to (see the module docstring).
    """
    buf = data + bytes(_PRIME - 1)  # bytes past the end read as zero
    end = len(buf)
    diff = int.from_bytes(buf[:_PRIME], "big")  # code - low
    pos = _PRIME
    rng = _TOP

    top_bit = 1 << (alphabet.bit_length() - 1)
    limit = RESCALE_LIMIT
    inc = COUNT_INCREMENT
    # Each context's counts, Fenwick tree and total, indexed by context;
    # index MAX_CONTEXTS is the odd last symbol's partner.
    counts_of: list = [None] * (MAX_CONTEXTS + 1)
    trees: list = [None] * (MAX_CONTEXTS + 1)
    totals = [0] * (MAX_CONTEXTS + 1)
    ctx = contexts.tolist()
    for c in set(ctx):
        counts_of[c] = [COUNT_INIT] * alphabet
        trees[c] = _fenwick(counts_of[c])
        totals[c] = alphabet * COUNT_INIT
    if count & 1:
        # Total 1 and every count 1: the search finds symbol 0, with
        # C2 = 0 and F2 = T2 = 1, the encoder's certain partner.
        ctx.append(MAX_CONTEXTS)
        counts_of[MAX_CONTEXTS] = [1] * alphabet
        trees[MAX_CONTEXTS] = _fenwick(counts_of[MAX_CONTEXTS])
        totals[MAX_CONTEXTS] = 1

    out = array("q")
    for c1, c2 in zip(ctx[0::2], ctx[1::2]):
        t1 = totals[c1]
        t2 = t1 + inc if c2 == c1 else totals[c2]  # no rescale inside a pair
        joint = t1 * t2
        r = rng // joint
        value = diff // r
        if value >= joint:
            raise CorruptPayloadError("code lies in the coder's dead zone")
        # The first symbol from value // T2, then the second from what is
        # left inside the first's part, in steps of F1.  (The Fenwick
        # search is written out twice: a call would cost a tenth of the
        # step.)
        counts = counts_of[c1]
        tree = trees[c1]
        v1 = rem = value // t2
        s1 = 0
        bit = top_bit
        while bit:
            t = tree[s1 + bit]
            if t <= rem:
                s1 += bit
                rem -= t
            bit >>= 1
        f1 = counts[s1]
        cum = (v1 - rem) * t2
        counts[s1] = f1 + inc
        j = s1 + 1
        while j <= alphabet:
            tree[j] += inc
            j += j & -j
        totals[c1] = t1 + inc
        if c2 != c1:
            counts = counts_of[c2]
            tree = trees[c2]
        v2 = rem = (value - cum) // f1
        s2 = 0
        bit = top_bit
        while bit:
            t = tree[s2 + bit]
            if t <= rem:
                s2 += bit
                rem -= t
            bit >>= 1
        f2 = counts[s2]
        diff -= r * (cum + (v2 - rem) * f1)
        rng = r * (f1 * f2)
        while rng < _BOT:
            if pos == end:
                raise CorruptPayloadError(
                    "payload ends before its symbol count is met"
                )
            diff = (diff << 8) | buf[pos]
            pos += 1
            rng <<= 8
        out.append(s1)
        out.append(s2)
        counts[s2] = f2 + inc
        j = s2 + 1
        while j <= alphabet:
            tree[j] += inc
            j += j & -j
        totals[c2] += inc
        if t1 + inc > limit or t2 + inc > limit:
            for c in {c1, c2}:
                if totals[c] > limit:
                    counts_of[c] = [(f + 1) >> 1 for f in counts_of[c]]
                    trees[c] = _fenwick(counts_of[c])
                    totals[c] = sum(counts_of[c])
    if pos != end:
        raise CorruptPayloadError("payload carries bytes past its last symbol")
    if diff >= _BOT:
        raise CorruptPayloadError("payload's last byte is not the encoder's flush")
    return np.frombuffer(out, dtype=np.int64)[:count]


def _check_contexts(contexts, count: int) -> np.ndarray:
    """The contexts as int64, or context 0 for every symbol when None."""
    if contexts is None:
        return np.zeros(count, dtype=np.int64)
    ctx = np.asarray(contexts)
    if ctx.shape != (count,) or not np.issubdtype(ctx.dtype, np.integer):
        raise ValueError(f"contexts must be {count} integers, one per symbol")
    if count and (ctx.min() < 0 or ctx.max() >= MAX_CONTEXTS):
        raise ValueError(f"contexts must lie in [0, {MAX_CONTEXTS})")
    return ctx.astype(np.int64)


def aac_encode(stream: SymbolStream, contexts: np.ndarray | None = None) -> bytes:
    """Encode a stream into its canonical [count u32][coded bytes] payload.

    `contexts`, one integer in [0, MAX_CONTEXTS) per symbol, gives each
    context an adaptive model of its own; without it every symbol is in
    context 0.
    """
    ctx = _check_contexts(contexts, len(stream))
    return struct.pack("<I", len(stream)) + _encode_bytes(
        stream.symbols, stream.alphabet_size, ctx
    )


def aac_decode(payload: bytes, alphabet_size: int, count: int,
               contexts: np.ndarray | None = None) -> SymbolStream:
    """Decode a payload; raises `CorruptPayloadError` on any inconsistency.

    `count` is the number of symbols the caller expects.  A header that
    claims any other number, or more than the body can hold, is rejected
    before anything is allocated, so the count bounds the decoder's memory
    and time.  `contexts` must be those the payload was encoded with.
    """
    if not MIN_ALPHABET <= alphabet_size <= MAX_ALPHABET:
        raise ValueError(
            f"alphabet_size must be in [{MIN_ALPHABET}, {MAX_ALPHABET}]"
        )
    if len(payload) < 4:
        raise CorruptPayloadError("payload shorter than its count header")
    (claimed,) = struct.unpack_from("<I", payload, 0)
    if claimed != count:
        raise CorruptPayloadError(
            f"payload holds {claimed} symbols, expected {count}"
        )
    body = bytes(payload[4:])
    if claimed and claimed >= len(body) << 27:
        raise CorruptPayloadError(
            f"{len(body)} coded bytes cannot hold {claimed} symbols"
        )
    ctx = _check_contexts(contexts, count)  # after the checks: may allocate `count` zeros
    if claimed == 0:
        if body:
            raise CorruptPayloadError("empty stream carries trailing bytes")
        return SymbolStream(alphabet_size, np.empty(0, dtype=np.int64))
    return SymbolStream(alphabet_size, _decode_symbols(body, alphabet_size, claimed, ctx))


def pack_raw_bits(limbs: np.ndarray, widths: np.ndarray) -> bytes:
    """The low `widths[i]` bits of each row of `limbs`, MSB-first and in
    row order, zero padded to a byte.

    `limbs` is (rows, L) limbs (module docstring); a width is at most
    L * LIMB_BITS.  Each chunk of rows is narrowed to the big-endian bytes
    the widest width needs and unpacked to a bit matrix, whose columns of
    low bits are kept: temporaries stay within CHUNK_BITS bytes each.
    """
    nbits = int(widths.sum())
    if nbits == 0:
        return b""
    bits = np.empty(nbits, dtype=np.uint8)
    pos = 0
    for rows, keep in _raw_chunks(widths):
        k = -(-keep.shape[1] // LIMB_BITS)
        be = limbs[rows, k - 1 :: -1].astype(">u8").view(np.uint8).reshape(-1, k, 8)
        be = be[:, :, 8 - LIMB_BITS // 8 :].reshape(be.shape[0], -1)
        chunk = np.unpackbits(be[:, be.shape[1] - keep.shape[1] // 8 :], axis=1)[keep]
        bits[pos : pos + chunk.shape[0]] = chunk
        pos += chunk.shape[0]
    return np.packbits(bits).tobytes()


def unpack_raw_bits(data: bytes, widths: np.ndarray, count: int,
                    what: str) -> np.ndarray:
    """Invert `pack_raw_bits`: (rows, count) int64 limbs that hold each
    row's raw bits, zero above them.  A section of any other length, or
    with nonzero padding, raises `CorruptPayloadError`."""
    nbits = int(widths.sum())
    if len(data) != (nbits + 7) // 8:
        raise CorruptPayloadError(
            f"{what} holds {len(data)} bytes, {nbits} bits need {(nbits + 7) // 8}"
        )
    if nbits % 8 and data[-1] & ((1 << (8 - nbits % 8)) - 1):
        raise CorruptPayloadError(f"nonzero padding in {what}")
    limbs = np.zeros((widths.shape[0], count), dtype=np.int64)
    if nbits == 0:
        return limbs
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pos = 0
    for rows, keep in _raw_chunks(widths):
        mat = np.zeros(keep.shape, dtype=np.uint8)
        end = pos + int(widths[rows].sum())
        mat[keep] = bits[pos:end]
        pos = end
        k = -(-keep.shape[1] // LIMB_BITS)
        be = np.zeros((mat.shape[0], k * LIMB_BITS // 8), dtype=np.uint8)
        be[:, be.shape[1] - keep.shape[1] // 8 :] = np.packbits(mat, axis=1)
        words = np.zeros((mat.shape[0], k, 8), dtype=np.uint8)
        words[:, :, 8 - LIMB_BITS // 8 :] = be.reshape(mat.shape[0], k, -1)
        limbs[rows, k - 1 :: -1] = words.view(">u8")[..., 0]
    return limbs


def classed_payload(coded: bytes, limbs: np.ndarray, classes: np.ndarray) -> bytes:
    """A classed payload (module docstring) from the coder's payload of
    the `classes` and each value's (rows, L) limbs; a class is at most
    L * LIMB_BITS."""
    raw = pack_raw_bits(limbs, np.maximum(classes - 1, 0))
    return b"".join([coded[:4], struct.pack("<I", len(coded) - 4), coded[4:], raw])


def classed_sections(payload: bytes) -> tuple[bytes, bytes]:
    """(the coder's [count][class bytes] payload, the raw bits) of a
    classed payload, split by its framing without decoding; a framing
    they do not fit raises `CorruptPayloadError`."""
    if len(payload) < 8:
        raise CorruptPayloadError("payload shorter than its header")
    (class_len,) = struct.unpack_from("<I", payload, 4)
    if 8 + class_len > len(payload):
        raise CorruptPayloadError(
            f"class bytes ({class_len}) run past the payload end ({len(payload)})")
    return payload[:4] + payload[8 : 8 + class_len], payload[8 + class_len :]


def classed_values(raw: bytes, classes: np.ndarray, count: int, what: str) -> np.ndarray:
    """(rows, count) int64 limbs of the values of `classes` (each at most
    count * LIMB_BITS): the raw bits with each leading 1 set.  A raw
    section of any other length, or with nonzero padding, raises
    `CorruptPayloadError`."""
    limbs = unpack_raw_bits(raw, np.maximum(classes - 1, 0), count, what)
    lead = np.flatnonzero(classes)
    top = classes[lead] - 1
    limbs[lead, top // LIMB_BITS] |= 1 << top % LIMB_BITS
    return limbs


def _raw_chunks(widths: np.ndarray):
    """(row slice, keep mask) per chunk of rows: the mask marks, in each
    row's number narrowed to the widest width's bytes and unpacked, the
    columns of its low bits."""
    cols = 8 * ((int(widths.max()) + 7) // 8)
    step = max(CHUNK_BITS // cols, 1)
    for a in range(0, widths.shape[0], step):
        rows = slice(a, a + step)
        yield rows, np.arange(cols - 1, -1, -1) < widths[rows, None]


def empirical_entropy_bits(symbols: np.ndarray, alphabet_size: int) -> float:
    """Order-0 empirical entropy of a stream, in total bits (n * H)."""
    sym = np.asarray(symbols, dtype=np.int64)
    n = sym.shape[0]
    if n == 0:
        return 0.0
    freq = np.bincount(sym, minlength=alphabet_size)
    p = freq[freq > 0] / n
    return float(n * -(p * np.log2(p)).sum())
