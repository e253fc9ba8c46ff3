"""Erase-mask generation and bit-packed serialization.

The row-based conditional sampler erases exactly T cells per sub-patch-grid
row, keeping every new erased column farther than delta from the row's
previous picks and farther than Delta from the previous row's picks, except
in rows where rejection sampling gives up (see generate_row_mask).  Bit
polarity: 1 = kept, 0 = erased.

The sampler holds the columns far enough from the previous row, far enough
from this row's picks, and both, as Python-int bit sets, and places a
deadlocked pick by dilating the picks' bit set until it covers the pool.
It stays draw-exact: the same SplitMix64 draws, hence the same masks, as the
scalar list-based sampler that defined the seed-mode format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError
from .prng import SplitMix64


@dataclass(frozen=True)
class SamplerParams:
    rows: int
    cols: int
    samples_per_row: int  # T: erased cells per row
    intra_row_delta: int  # delta: min extra distance within a row
    inter_row_delta: int  # Delta: min extra distance to previous row's picks
    seed: int = 0


@dataclass(frozen=True)
class EraseMask:
    bits: np.ndarray  # uint8 (rows, cols), 1 = kept
    params: SamplerParams | None = field(default=None, compare=False)

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other):
        if not isinstance(other, EraseMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )


def validate_params(p: SamplerParams) -> None:
    """Raise ParameterError unless one row fits T picks more than delta apart
    and Delta < cols.  This does not keep generate_row_mask from falling back."""
    if p.rows < 1 or p.cols < 1:
        raise ParameterError(f"grid must be at least 1x1, got {p.rows}x{p.cols}")
    if p.samples_per_row < 1:
        raise ParameterError(f"T must be >= 1, got {p.samples_per_row}")
    if p.intra_row_delta < 0 or p.inter_row_delta < 0:
        raise ParameterError("distance thresholds must be >= 0")
    if p.samples_per_row * (p.intra_row_delta + 1) > p.cols:
        raise ParameterError(
            f"infeasible: T*(delta+1) = "
            f"{p.samples_per_row * (p.intra_row_delta + 1)} > cols = {p.cols}"
        )
    if p.inter_row_delta >= p.cols:
        raise ParameterError(
            f"Delta={p.inter_row_delta} must be < cols={p.cols}"
        )


# Seed-mode containers carry only (seed, T, delta, Delta), so both limits are
# part of the mask format: changing either changes the regenerated masks.
_MAX_ATTEMPTS = 1000
_ROW_RESTARTS = 32


def _bands(cols: int, r: int) -> list[int]:
    """Bit set of the columns within r of each column c in [0, cols) (columns
    past the grid's right edge may be set too; callers mask them off)."""
    band = (1 << 2 * r + 1) - 1
    return [band << c >> r for c in range(cols)]


def _pick_fallback(allowed: int, intra: int, chosen: int, prev: int, full: int) -> int:
    """Deterministic farthest-point placement once rejection gives up.

    Arguments are column bit sets.  Picks from the columns allowed by both
    constraints; failing that, from those satisfying delta alone (breaking
    Delta); failing that, from any column not yet chosen (breaking delta too,
    which validate_params does not rule out).  Within the pool it maximizes
    the distance to this row's and the previous row's picks, lowest column on
    ties: the covered set grows by one column a step until no pool column is
    left outside it, and the last non-empty remainder holds the farthest ones.
    """
    pool = allowed or intra or full & ~chosen
    covered = chosen | prev
    far = pool
    rest = pool & ~covered if covered else 0  # no picks yet: all columns tie
    while rest:
        far = rest
        covered |= covered << 1 | covered >> 1
        rest = pool & ~covered
    return (far & -far).bit_length() - 1


def generate_row_mask(p: SamplerParams) -> EraseMask:
    """Draw an erase mask from the row-based conditional sampler.

    Deterministic for a fixed seed.  Each pick draws columns until one is
    farther than delta from this row's picks and than Delta from the previous
    row's.  Greedy picks can corner themselves: a pick with no hit in
    _MAX_ATTEMPTS draws (skipped at once if no column qualifies) is placed by
    _pick_fallback and the row redrawn, up to _ROW_RESTARTS times; the last
    attempt stands, so it may break Delta and, in tight cases, delta.

    The qualifying columns are kept as Python-int bit sets (bit c = column
    c), so a draw is tested with one shift and a pick updates them from
    per-column band tables; the draw sequence is exactly that of the scalar
    sampler that defined the format.
    """
    validate_params(p)
    rng = SplitMix64(p.seed)
    draw = rng.next_below
    cols, delta, big_delta = p.cols, p.intra_row_delta, p.inter_row_delta
    full = (1 << cols) - 1
    near_of = _bands(cols, big_delta)  # near_of[c]: columns within Delta of c
    clear_of = [~band for band in _bands(cols, delta)]  # all but those within delta
    erased = 0  # bit row * cols + c set for each erased cell
    prev = 0
    far_prev = full
    for row in range(p.rows):
        for _restart in range(_ROW_RESTARTS):
            chosen = near = 0
            intra = full
            deadlocked = False
            for _t in range(p.samples_per_row):
                allowed = far_prev & intra
                col = -1
                if allowed:
                    for _attempt in range(_MAX_ATTEMPTS):
                        cand = draw(cols)
                        if allowed >> cand & 1:
                            col = cand
                            break
                else:  # every draw would be rejected
                    rng.skip(_MAX_ATTEMPTS)
                if col < 0:
                    deadlocked = True
                    col = _pick_fallback(allowed, intra, chosen, prev, full)
                chosen |= 1 << col
                near |= near_of[col]
                intra &= clear_of[col]
            if not deadlocked:
                break
        erased |= chosen << row * cols
        prev = chosen
        far_prev = full & ~near
    size = p.rows * cols
    gone = np.unpackbits(np.frombuffer(erased.to_bytes((size + 7) // 8, "little"), np.uint8),
                         count=size, bitorder="little")
    return EraseMask((1 - gone).reshape(p.rows, cols), p)


def generate_random_mask(rows: int, cols: int, erased_k: int, seed: int) -> EraseMask:
    """Unconstrained baseline: erased_k cells uniformly without replacement."""
    total = rows * cols
    if not 0 <= erased_k <= total:
        raise ParameterError(f"erased_k={erased_k} out of range [0, {total}]")
    rng = SplitMix64(seed)
    idx = list(range(total))
    for i in range(erased_k):  # partial Fisher-Yates
        j = i + rng.next_below(total - i)
        idx[i], idx[j] = idx[j], idx[i]
    bits = np.ones(total, dtype=np.uint8)
    bits[idx[:erased_k]] = 0
    return EraseMask(bits.reshape(rows, cols))


def all_kept_mask(rows: int, cols: int) -> EraseMask:
    return EraseMask(np.ones((rows, cols), dtype=np.uint8))


def pack_mask(m: EraseMask) -> bytes:
    """Row-major, MSB-first bit packing, zero-padded to a byte boundary."""
    return np.packbits(m.bits.reshape(-1)).tobytes()


def unpack_mask(data: bytes, rows: int, cols: int) -> EraseMask:
    expected = (rows * cols + 7) // 8
    if len(data) != expected:
        raise FormatError(
            f"mask payload is {len(data)} bytes, want {expected} for {rows}x{cols}"
        )
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=rows * cols)
    return EraseMask(bits.reshape(rows, cols).astype(np.uint8))
