"""Erase-mask generation and bit-packed serialization.

The row-based conditional sampler erases exactly T cells per sub-patch-grid
row, keeping every new erased column farther than delta from the row's
previous picks and farther than Delta from the previous row's picks.  Bit
polarity: 1 = kept, 0 = erased.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, GeometryError, ParameterError
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

    @property
    def erased_count(self) -> int:
        return int(self.bits.size - self.bits.sum())

    def kept_per_row(self) -> np.ndarray:
        return self.bits.sum(axis=1)

    def __eq__(self, other):
        if not isinstance(other, EraseMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )


def validate_params(p: SamplerParams) -> None:
    """Raise ParameterError unless the constraints are jointly satisfiable."""
    if p.rows < 1 or p.cols < 1:
        raise ParameterError(f"grid must be at least 1x1, got {p.rows}x{p.cols}")
    if p.samples_per_row < 1:
        raise ParameterError(f"T must be >= 1, got {p.samples_per_row}")
    if p.samples_per_row > p.cols:
        raise ParameterError(
            f"T={p.samples_per_row} exceeds cols={p.cols}"
        )
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


def _min_dist(col: int, others: list[int]) -> int:
    return min(abs(col - o) for o in others) if others else 1 << 30


def _pick_fallback(cols: int, chosen: list[int], prev: list[int],
                   delta: int, big_delta: int) -> int:
    """Deterministic farthest-point placement once rejection gives up.

    Prefers columns satisfying both constraints; failing that, satisfies the
    intra-row constraint (hard, guaranteed feasible by validate_params) and
    maximizes distance to the previous row's picks.
    """
    free = [c for c in range(cols) if c not in chosen]
    both = [c for c in free
            if _min_dist(c, chosen) > delta and _min_dist(c, prev) > big_delta]
    pool = both
    if not pool:
        pool = [c for c in free if _min_dist(c, chosen) > delta]
    if not pool:  # unreachable after validate_params, kept as a guard
        pool = free
    return max(pool, key=lambda c: (min(_min_dist(c, chosen), _min_dist(c, prev)), -c))


def generate_row_mask(p: SamplerParams) -> EraseMask:
    """Draw an erase mask from the row-based conditional sampler.

    Deterministic for a fixed seed.  Never fails once validate_params
    passes: a per-sample rejection loop is capped at _MAX_ATTEMPTS, then the
    farthest-point fallback places the remaining samples of the row.
    """
    validate_params(p)
    rng = SplitMix64(p.seed)
    bits = np.ones((p.rows, p.cols), dtype=np.uint8)
    prev: list[int] = []
    for row in range(p.rows):
        # Greedy per-sample rejection can corner itself even when a joint
        # placement exists, so a deadlocked row is restarted with fresh
        # draws a few times before the deterministic fallback kicks in.
        best: list[int] = []
        for restart in range(_ROW_RESTARTS):
            chosen: list[int] = []
            deadlocked = False
            for _t in range(p.samples_per_row):
                col = -1
                for _attempt in range(_MAX_ATTEMPTS):
                    cand = rng.next_below(p.cols)
                    if cand in chosen:
                        continue
                    if _min_dist(cand, chosen) <= p.intra_row_delta:
                        continue
                    if _min_dist(cand, prev) <= p.inter_row_delta:
                        continue
                    col = cand
                    break
                if col < 0:
                    deadlocked = True
                    col = _pick_fallback(p.cols, chosen, prev,
                                         p.intra_row_delta, p.inter_row_delta)
                chosen.append(col)
            best = chosen
            if not deadlocked:
                break
        bits[row, best] = 0
        prev = best
    return EraseMask(bits, p)


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


def uniform_kept_count(m: EraseMask) -> int:
    """Kept sub-patches per row, raising if rows are ragged."""
    kept = m.kept_per_row()
    if not (kept == kept[0]).all():
        raise GeometryError(f"ragged mask: kept-per-row counts {sorted(set(kept.tolist()))}")
    return int(kept[0])
