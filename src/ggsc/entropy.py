"""Adaptive binary arithmetic coding of bounded integer symbol streams.

This is the classic 32-bit integer arithmetic coder (Witten/Neal/Cleary
lineage): `low`/`high` straddle a shrinking interval, equal top bits are
shifted out as coded bits, and near-convergence states around the
midpoint are counted as underflow bits emitted with the next resolved
bit.  Probabilities come from an order-0 adaptive model shared by
encoder and decoder:

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
The encoder therefore computes every symbol's (cumlow, cumhigh, total)
with numpy before coding starts: inside one rescale segment a symbol's
cumulative count is the segment's base prefix plus the increment times
the number of earlier, smaller symbols in the segment (per context,
scattered back to symbol order).  The decoder learns each symbol only
as it decodes it, so each of its models is a Fenwick tree (a Python
list built with numpy, rebuilt at each rescale) with O(log alphabet)
queries and updates.  Both sides do a renormalization
as one step: the k equal top bits of low and high (k = 32 minus the bit
length of low ^ high) and then the run of underflow positions (low =
01..., high = 10...).  The encoder gathers its bits in an int flushed to
a bytearray; the decoder reads them through 64-bit windows precomputed
for every byte offset.  The interval arithmetic, the model and the flush
are those of the bit-at-a-time coder, so the bytes are too.

A payload is framed as

    [symbol count: u32 LE][coded bytes, MSB-first within each byte]

(contexts are not stored: the decoder is given the same ones), and the
encoder flushes the entire 32-bit low register after the last
symbol before padding to a byte.  The full flush costs a few bytes over
the minimal two-bit variant but buys a sharp property: the decoder
consumes exactly the bits the encoder wrote (32 for priming plus one
per renormalization on both sides), so it never has to invent bits past
the payload end, and running out of bits is always truncation.

Encoding is also canonical -- one byte string per symbol sequence --
and the decoder exploits that for corruption detection: after decoding
`count` symbols it re-encodes them and requires the result to match the
received bytes exactly.  Every payload that is not the canonical
encoding of some stream therefore raises `CorruptPayloadError`: framing
violations, trailing garbage, truncation anywhere, and the vast
majority of bit flips.  The unavoidable residue is corruption that
happens to transform one canonical payload into another, which is
indistinguishable from a legitimate encoding of a different stream
without out-of-band redundancy.  The caller passes the symbol count it
expects; a header that claims any other count is rejected before
decoding, which narrows the window further and bounds the decoder's
memory and time by that count.

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

_MASK = (1 << 32) - 1
_LOW31 = _MASK >> 1
_TOP = 1 << 31
_SECOND = 1 << 30

# Symbols whose model values are converted to Python ints at a time, and
# the coded bits gathered in an int before they go to the output buffer.
_CHUNK = 1 << 12
_FLUSH_BITS = 256
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
    """Yield one adaptive model's (cumlow, cumhigh, total) for every symbol,
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
            cumhigh = cumlow + COUNT_INIT + COUNT_INCREMENT * equal
        else:
            cum = np.cumsum(base)
            cum -= base
            cumlow = cum[seg] + COUNT_INCREMENT * less
            cumhigh = cumlow + base[seg] + COUNT_INCREMENT * equal
        yield cumlow, cumhigh, total + COUNT_INCREMENT * np.arange(stop - start)
        if stop < n:
            counts = COUNT_INCREMENT * np.bincount(seg, minlength=alphabet)
            counts += COUNT_INIT if base is None else base
            base = (counts + 1) >> 1
            total = int(base.sum())
        start = stop


def _model(symbols: np.ndarray, alphabet: int, contexts: np.ndarray | None = None):
    """Yield the model's (cumlow, cumhigh, total) for every symbol, as
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
    cumhigh = cumlow + COUNT_INIT + COUNT_INCREMENT * equal
    total = alphabet * COUNT_INIT + COUNT_INCREMENT * rank
    first = max(1, (RESCALE_LIMIT - alphabet * COUNT_INIT) // COUNT_INCREMENT + 1)
    for ctx in np.unique(contexts[rank >= first]):
        rows = np.flatnonzero(contexts == ctx)
        pos = 0
        for arrays in _segments(symbols[rows], alphabet):
            stop = pos + arrays[0].shape[0]
            for out, values in zip((cumlow, cumhigh, total), arrays):
                out[rows[pos:stop]] = values
            pos = stop
    yield cumlow, cumhigh, total


def _encode_bytes(symbols: np.ndarray, alphabet: int,
                  contexts: np.ndarray | None = None) -> bytes:
    if symbols.shape[0] == 0:
        return b""
    if symbols.min() < 0 or symbols.max() >= alphabet:
        raise ValueError("symbols out of range for the declared alphabet")
    out = bytearray()
    acc = nacc = 0  # output bits not yet in `out`, MSB first, and their count
    low, high, pending = 0, _MASK, 0
    for arrays in _model(symbols, alphabet, contexts):
        for a in range(0, arrays[0].shape[0], _CHUNK):
            chunk = [arr[a : a + _CHUNK].tolist() for arr in arrays]
            for cumlow, cumhigh, total in zip(*chunk):
                rng = high - low + 1
                high = low + cumhigh * rng // total - 1
                low += cumlow * rng // total
                x = low ^ high
                if x < _TOP:
                    # k equal top bits leave; the first is followed by
                    # the pending underflow bits, each its complement.
                    k = 32 - x.bit_length()
                    acc = (acc << (k + pending)) | (
                        (low >> (32 - k)) + (((1 << pending) - 1) << (k - 1))
                    )
                    nacc += k + pending
                    pending = 0
                    low = (low << k) & _MASK
                    high = ((high << k) & _MASK) | ((1 << k) - 1)
                    if nacc >= _FLUSH_BITS:
                        r = nacc & 7
                        out += (acc >> r).to_bytes(nacc >> 3, "big")
                        acc &= (1 << r) - 1
                        nacc = r
                if low & ~high & _SECOND:
                    # low = 01.., high = 10..: u underflow shifts, one per
                    # position where low has a 1 and high a 0.
                    u = 31 - ((low & ~high & _LOW31) ^ _LOW31).bit_length()
                    pending += u
                    low = (low << u) & _LOW31
                    high = ((high << u) & _LOW31) | _TOP | ((1 << u) - 1)
    # Flush the whole low register (pending underflow bits trail the
    # first one, as in renormalization).  The stream value is then low
    # itself, and the decoder consumes exactly this many bits: priming
    # plus one per renormalization adds up to the same total, so a
    # canonical payload never makes the decoder read past its end.
    acc = (acc << (32 + pending)) | (low + (((1 << pending) - 1) << 31))
    nacc += 32 + pending
    pad = -nacc % 8
    out += (acc << pad).to_bytes((nacc + pad) >> 3, "big")
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
    """Decode `count` symbols from the coded bytes (MSB-first bits), with
    one model per context when `contexts` gives each symbol's.

    Raises `CorruptPayloadError` if the bytes run out first: the canonical
    encoder writes exactly the bits consumed here, so that is truncation.
    """
    nbits = 8 * len(data)
    if nbits < 32:
        raise CorruptPayloadError("payload ends before its symbol count is met")
    # window[p]: the 64 bits starting at byte p (big-endian words read at
    # every byte offset).  One renormalization reads at most 25 bits (an
    # interval of width >= 2^30 / 2^24 doubles until it exceeds 2^30),
    # which fit after any bit offset in the byte.
    words = np.ndarray(
        (len(data),), dtype=">u8", buffer=data + bytes(7), strides=(1,)
    )
    window = array("Q", words.astype(np.uint64).tobytes())

    top_bit = 1 << (alphabet.bit_length() - 1)
    limit = RESCALE_LIMIT
    # One [counts, Fenwick tree, total] per context, made on first use;
    # the current context's are held in locals and `total` is written
    # back when the context changes.
    models: dict[int, list] = {}
    ctx = None
    counts = tree = model = None
    total = 0

    low, high = 0, _MASK
    code = window[0] >> 32
    bitpos = 32
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
        rng = high - low + 1
        value = ((code - low + 1) * total - 1) // rng
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
        cumlow = value - rem
        high = low + (cumlow + c) * rng // total - 1
        low += cumlow * rng // total
        k = 32 - (low ^ high).bit_length()
        if k:
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
        u = 0
        if low & ~high & _SECOND:
            u = 31 - ((low & ~high & _LOW31) ^ _LOW31).bit_length()
            low = (low << u) & _LOW31
            high = ((high << u) & _LOW31) | _TOP | ((1 << u) - 1)
        need = k + u
        if need:
            if bitpos + need > nbits:
                raise CorruptPayloadError(
                    "payload ends before its symbol count is met"
                )
            bits = (window[bitpos >> 3] >> (64 - (bitpos & 7) - need)) & (
                (1 << need) - 1
            )
            bitpos += need
            if u:
                # Underflow shifts keep the code's top bit.
                code = (((code << k) | (bits >> u)) & _TOP) | (
                    ((code << need) | bits) & _LOW31
                )
            else:
                code = ((code << k) | bits) & _MASK
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
    body = bytes(payload[4:])
    symbols = _decode_symbols(body, alphabet_size, claimed, ctx)
    if _encode_bytes(symbols, alphabet_size, ctx) != body:
        raise CorruptPayloadError(
            "payload fails canonical re-encoding (truncated or corrupt)"
        )
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
