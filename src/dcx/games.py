"""Combinatorial complexity of N^D grid games (tic-tac-toe, Qubic).

Covers the closed-form state-space bounds, the factorial game-tree count,
exhaustive breadth-first enumeration of legal positions with optional
symmetry reduction, and the entropy of the per-ply state distribution.

Board geometry comes from one index grid, _grid(spec): the row-major cell
index at each coordinate. The cells of every win line along a direction
are k slices of the grid, and a symmetry map is the grid transposed and
flipped, then flattened.

Enumeration works on bitboards: a position is one uint32 holding the X
cell mask in bits 0-15 and the O mask in bits 16-31, which is why boards
are capped at 16 cells. Each ply is a numpy array of such positions; win
lines are cell masks, and a symmetry map is applied through byte lookup
tables. The canonical representative of a symmetry class is its minimum
packed image, not its minimum cell tuple, so the representatives differ
from a tuple-based enumeration while the class counts are the same.
Only the geometry and the enumeration import numpy; the closed forms are
plain integer and math arithmetic.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DegenerateInput, InvalidParameter, ResourceLimit
from .measures import ANALYTIC, ENUMERATED, MeasureResult, log10_int, normalized_entropy

if TYPE_CHECKING:
    import numpy as np

# A position packs into one uint32, the X mask in bits 0-15 and the O mask
# in bits 16-31, so enumeration stops at 16 cells.
ENUMERATION_CELL_LIMIT = 16
_O_SHIFT = 16
_CELL_MASK = (1 << _O_SHIFT) - 1
_LOG10_FLOAT_MAX = math.log10(sys.float_info.max)


def _count_text(n: int) -> str:
    """A positive count in full up to 15 digits, else as 10^<log10>."""
    return str(n) if n < 10**15 else f"10^{log10_int(n):.3f}"


@dataclass(frozen=True)
class GridGameSpec:
    """An N^D board played to at most max_plies with win lines of win_length."""

    side: int
    dims: int
    max_plies: int
    win_length: int

    def __post_init__(self) -> None:
        for name in ("side", "dims", "max_plies", "win_length"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidParameter(f"{name} must be a positive integer")
        if self.win_length > self.side:
            raise InvalidParameter("win_length cannot exceed the board side")
        # log10(cells) = dims * log10(side) is judged before side**dims is
        # formed, with one dimension to spare for rounding; the exact count
        # then settles the boundary
        if (
            self.side > 1 and self.dims > 1 + _LOG10_FLOAT_MAX / math.log10(self.side)
        ) or self.cells > sys.float_info.max:
            raise InvalidParameter("the board's cell count is past the float range")
        if self.max_plies > self.cells:
            raise InvalidParameter("max_plies cannot exceed the cell count")

    @property
    def cells(self) -> int:
        return self.side**self.dims


TIC_TAC_TOE = GridGameSpec(side=3, dims=2, max_plies=9, win_length=3)
QUBIC = GridGameSpec(side=4, dims=3, max_plies=64, win_length=4)

PRESETS = {"ttt": TIC_TAC_TOE, "qubic": QUBIC}

# published average game lengths; any other board defaults to its max_plies
_AVERAGE_GAME_LENGTHS = {TIC_TAC_TOE: 9, QUBIC: 20}


def preset(name: str) -> GridGameSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidParameter(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def ssc_upper_bound(spec: GridGameSpec) -> float:
    """log10 of 3^cells: every cell empty, X, or O regardless of legality."""
    return spec.cells * math.log10(3.0)


# Size, in bits, past which ssc_combinatorial and gtc_factorial stop forming
# exact integers and work in logarithms instead, as descriptors._EXACT_SUM_BITS
# does for the geometric tree sum. plies * bit_length(cells) bounds the bits
# of every term. Every board the tests and the benchmark pin stays exact
# (the 40 x 40 board to 1,600 plies is at 17,600 bits), and every sum past
# the bound is past the float range too, so only its log10 is reported.
_EXACT_BITS = 1 << 16

# Most plies ssc_combinatorial sums: its log-space loop takes about 1.2 s
# and holds one float per ply at this bound (Python 3.11, x86-64 Linux).
SSC_PLY_LIMIT = 1_000_000


def _stone_factors(spec: GridGameSpec):
    """Per ply, (free cells, the mover's stones after the move): the ply's
    arrangement count is the last ply's times the first over the second."""
    x = o = 0
    for ply in range(1, spec.max_plies + 1):
        free = spec.cells - x - o
        if ply % 2:
            x += 1
            yield free, x
        else:
            o += 1
            yield free, o


def ssc_combinatorial(spec: GridGameSpec) -> tuple[int | None, float]:
    """Stone-count sum over plies 1..max_plies, exact then logged.

    Ply i places ceil(i/2) X stones and floor(i/2) O stones; the term
    counts every such arrangement, comb(cells, x) * comb(cells - x, o), so
    a few positions reached only through illegal play are included.
    Returns (total, log10(total)). Past _EXACT_BITS the total is None and
    the terms are summed as natural logarithms, relative to the largest.
    Boards past SSC_PLY_LIMIT plies are refused with ResourceLimit.
    """
    if spec.max_plies > SSC_PLY_LIMIT:
        raise ResourceLimit(
            f"the stone-count sum supports at most {SSC_PLY_LIMIT} plies, "
            f"got {_count_text(spec.max_plies)}"
        )
    if spec.max_plies * spec.cells.bit_length() > _EXACT_BITS:
        logs, log_term = array("d"), 0.0
        for free, stones in _stone_factors(spec):
            log_term += math.log(free) - math.log(stones)
            logs.append(log_term)
        top = max(logs)
        return None, (top + math.log(math.fsum(math.exp(v - top) for v in logs))) / math.log(10)
    total, term = 0, 1
    for free, stones in _stone_factors(spec):
        term = term * free // stones
        total += term
    return total, log10_int(total)


def gtc_factorial(cells: int, avg_game_length: int) -> float:
    """log10 of cells! / (cells - avg_game_length)!, exact in integers up to
    _EXACT_BITS and in the O(1) log-gamma form past it."""
    if cells < 1 or avg_game_length < 1:
        raise InvalidParameter("cells and avg_game_length must be positive")
    if avg_game_length > cells:
        raise InvalidParameter("avg_game_length cannot exceed the cell count")
    if avg_game_length * cells.bit_length() > _EXACT_BITS:
        return _ln_falling_factorial(cells, avg_game_length) / math.log(10)
    return log10_int(math.perm(cells, avg_game_length))


def _ln_falling_factorial(n: int, k: int) -> float:
    """ln(n! / (n - k)!) in O(1). The plain lgamma(n + 1) - lgamma(n - k + 1)
    loses log2(n / k) bits, 1% of the value at n = 10^18, k = 2,000, so past
    n - k = 10^4 both take Stirling's series with the large terms together."""
    m = n - k + 1
    if m < 10_000:  # lgamma(m) is not large beside the result
        return math.lgamma(n + 1) - math.lgamma(m)
    # to the series' 1/(12 z) term, which leaves out under 3e-15 at z >= 10^4
    return k * math.log(n + 1) + (m - 0.5) * math.log1p(k / m) - k + (1 / (n + 1) - 1 / m) / 12


@lru_cache(maxsize=None)
def _grid(spec: GridGameSpec) -> np.ndarray:
    """The board's geometry: grid[c_0, ..., c_{D-1}] is the cell index at
    those coordinates, in row-major order."""
    import numpy as np

    grid = np.arange(spec.cells).reshape((spec.side,) * spec.dims)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def win_lines(spec: GridGameSpec) -> tuple[tuple[int, ...], ...]:
    """All straight segments of win_length cells, as sorted index tuples.

    Directions are vectors in {-1,0,1}^D whose first nonzero component is
    positive, so each geometric line is generated once, and the cell index
    rises along each of them, so every segment comes out sorted.
    """
    if spec.side == 1:  # the single cell is the only line, in any dimension
        return ((0,),)
    grid, k = _grid(spec), spec.win_length
    lines = set()  # only win_length 1 gives one segment in several directions
    for d in itertools.product((-1, 0, 1), repeat=spec.dims):
        if not any(d) or next(v for v in d if v) < 0:
            continue
        # per axis, the first origin and the number of origins whose last
        # cell, k - 1 steps along d, is still on the board; the j-th cells
        # of all the segments are then one slice of the grid
        first = [(k - 1) * (v < 0) for v in d]
        count = [spec.side - (k - 1) * abs(v) for v in d]
        nth = (
            grid[tuple(slice(f + j * v, f + j * v + n) for f, v, n in zip(first, d, count))]
            for j in range(k)
        )
        lines.update(zip(*(cells.ravel().tolist() for cells in nth)))
    return tuple(sorted(lines))


@lru_cache(maxsize=None)
def symmetry_maps(spec: GridGameSpec) -> tuple[tuple[int, ...], ...]:
    """Index permutations for the board's axis-permutation/reflection group.

    For D = 2 this is the 8-element dihedral group; in general 2^D * D!.
    Map m sends a board to its image via image[i] = board[m[i]]. A side-1
    board has one cell, so its whole group is the single identity map.
    """
    if spec.side == 1:
        return ((0,),)
    import numpy as np

    grid, axes = _grid(spec), range(spec.dims)
    return tuple(
        tuple(np.flip(grid.transpose(perm), [a for a in axes if flips[a]]).ravel().tolist())
        for perm in itertools.permutations(axes)
        for flips in itertools.product((False, True), repeat=spec.dims)
    )


@lru_cache(maxsize=None)
def _line_masks(spec: GridGameSpec) -> np.ndarray:
    """One 16-bit cell mask per entry of win_lines(spec)."""
    import numpy as np

    masks = np.array(
        [sum(1 << cell for cell in line) for line in win_lines(spec)], dtype=np.uint32
    )
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=None)
def _symmetry_tables(spec: GridGameSpec) -> np.ndarray:
    """Per symmetry map, the image of each low byte and each high byte.

    tables[g, 0, b] is the image under map g of a cell mask whose low byte
    is b and whose high byte is zero; tables[g, 1, b] the same for the high
    byte. OR-ing the two gives the image of any 16-bit mask, so each map
    costs 512 entries rather than one per mask.
    """
    import numpy as np

    maps = np.array(symmetry_maps(spec))
    # argsort inverts each map: bit s of a board lands on bit inverse[s] of its image
    weights = np.zeros((len(maps), 2 * 8), dtype=np.int64)
    weights[:, : spec.cells] = 1 << np.argsort(maps, axis=1)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    # distinct powers of two, so the sum is the OR of the moved bits
    tables = (weights.reshape(len(maps), 2, 8) @ byte_bits.T).astype(np.uint32)
    tables.flags.writeable = False
    return tables


def canonical_positions(positions: np.ndarray, spec: GridGameSpec) -> np.ndarray:
    """Minimum packed image of each packed position over the symmetry group.

    The representative is the smallest uint32, which orders by O mask first
    and X mask second; it is not the lexicographically smallest cell tuple,
    but every orbit still has exactly one.
    """
    import numpy as np

    x = positions & _CELL_MASK
    o = positions >> _O_SHIFT
    # intp indices once, not a conversion per table lookup
    x_lo, x_hi, o_lo, o_hi = (
        byte.astype(np.intp) for byte in (x & 0xFF, x >> 8, o & 0xFF, o >> 8)
    )
    best = np.full(positions.shape, np.iinfo(np.uint32).max, dtype=np.uint32)
    for lo, hi in _symmetry_tables(spec):
        image = (lo[o_lo] | hi[o_hi]) << _O_SHIFT
        image |= lo[x_lo]
        image |= hi[x_hi]
        np.minimum(best, image, out=best)
    return best


def _distinct(positions: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a uint32 array.

    np.unique gives the same result, but numpy 2.4.6 routes it through a hash
    table that took 0.29 s on 480k uint32 values where sorting and
    comparing neighbours took 6 ms (2-vCPU x86-64 machine).
    """
    import numpy as np

    ordered = np.sort(positions)
    keep = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _completes_line(masks: np.ndarray, lines: np.ndarray) -> np.ndarray:
    import numpy as np

    won = np.zeros(masks.shape, dtype=bool)
    for line in lines:
        won |= (masks & line) == line
    return won


@dataclass(frozen=True)
class PlyDistribution:
    """Unique reachable positions per ply, starting at the empty board."""

    counts_per_ply: tuple[int, ...]
    symmetry_reduced: bool

    @property
    def total(self) -> int:
        return sum(self.counts_per_ply)


def enumerate_states(spec: GridGameSpec, symmetry: bool = False) -> PlyDistribution:
    """Breadth-first count of legal positions reachable under alternation.

    Each ply's positions are one sorted, duplicate-free uint32 array, packed
    as X mask | O mask << 16; that packing is what caps boards at
    ENUMERATION_CELL_LIMIT cells. Positions where a player has already
    completed a line are counted but generate no children. With symmetry
    on, positions are replaced by canonical_positions (the minimum packed
    image) before deduplication, giving one position per class.
    """
    if spec.cells > ENUMERATION_CELL_LIMIT:  # refused before numpy loads
        raise ResourceLimit(
            f"enumeration supports at most {ENUMERATION_CELL_LIMIT} cells, "
            f"got {_count_text(spec.cells)}"
        )
    import numpy as np

    lines = _line_masks(spec)
    cell_bits = np.uint32(1) << np.arange(spec.cells, dtype=np.uint32)
    frontier = np.zeros(1, dtype=np.uint32)
    counts = [1]
    for ply in range(spec.max_plies):
        shift = 0 if ply % 2 == 0 else _O_SHIFT
        occupied = (frontier | (frontier >> _O_SHIFT)) & _CELL_MASK
        free = (occupied[:, None] & cell_bits) == 0
        children = _distinct((frontier[:, None] | (cell_bits << shift))[free])
        if symmetry:
            children = _distinct(canonical_positions(children, spec))
        if children.size == 0:
            break
        counts.append(int(children.size))
        # wins are counted in their ply but halt further expansion; only the
        # player who just moved can have completed a line
        mover = (children >> shift) & _CELL_MASK
        frontier = children[~_completes_line(mover, lines)]
    return PlyDistribution(counts_per_ply=tuple(counts), symmetry_reduced=symmetry)


def ply_entropy(dist: PlyDistribution) -> MeasureResult:
    """Normalized entropy of the per-ply position counts.

    Events are the plies themselves: p_i = count_i / total with
    event_count = number of plies recorded.
    """
    counts = dist.counts_per_ply
    if sum(1 for c in counts if c > 0) < 2:
        raise DegenerateInput("ply entropy needs at least two occupied plies")
    total = dist.total
    probs = [c / total for c in counts]
    value = normalized_entropy(probs, event_count=len(counts))
    kind = "symmetry-reduced" if dist.symmetry_reduced else "raw legal"
    return MeasureResult(
        measure_name="ply_entropy_sym" if dist.symmetry_reduced else "ply_entropy_raw",
        value=value,
        convention=(
            f"per-ply {kind} position counts / total; "
            f"event_count = {len(counts)} plies"
        ),
        provenance=ENUMERATED,
    )


def grid_measures(
    spec: GridGameSpec, avg_game_length: int | None = None, enumeration: bool = True
) -> tuple[list[MeasureResult], list[str]]:
    """The game report's measures and notes. avg_game_length (default: a
    preset board's published length, else max_plies) feeds the factorial
    tree count; boards past the enumeration limit get a note instead of
    the enumerated counts."""
    if avg_game_length is None:
        avg_game_length = _AVERAGE_GAME_LENGTHS.get(spec, spec.max_plies)
    total, log10_total = ssc_combinatorial(spec)
    measures = [
        MeasureResult(
            "ssc_upper_bound_log10",
            ssc_upper_bound(spec),
            "log10(3^cells): each cell empty or one of two marks",
            ANALYTIC,
        ),
        MeasureResult(
            "ssc_combinatorial_log10",
            log10_total,
            "log10 of the exact sum over per-ply stone-count arrangements",
            ANALYTIC,
        ),
    ]
    notes = []
    if total is None or total > sys.float_info.max:
        notes.append(
            "ssc_combinatorial_total omitted: the exact total exceeds the "
            "float range; ssc_combinatorial_log10 carries its magnitude"
        )
    else:
        measures.append(
            MeasureResult(
                "ssc_combinatorial_total",
                float(total),
                "exact integer total of per-ply stone-count arrangements",
                ANALYTIC,
            )
        )
    measures.append(
        MeasureResult(
            "gtc_factorial_log10",
            gtc_factorial(spec.cells, avg_game_length),
            "log10 of the falling factorial cells! / (cells - avg_moves)!",
            ANALYTIC,
        )
    )
    if not enumeration:
        return measures, notes
    try:
        raw = enumerate_states(spec, symmetry=False)
    except ResourceLimit:
        notes.append(
            f"enumeration skipped: {_count_text(spec.cells)} cells exceeds the "
            f"{ENUMERATION_CELL_LIMIT}-cell guard"
        )
        return measures, notes
    sym = enumerate_states(spec, symmetry=True)
    measures += [
        MeasureResult(
            "legal_positions_total",
            float(raw.total),
            "breadth-first count of reachable positions; wins halt expansion",
            ENUMERATED,
        ),
        MeasureResult(
            "symmetry_classes_total",
            float(sym.total),
            "breadth-first count of canonical forms under the board symmetry group",
            ENUMERATED,
        ),
        ply_entropy(raw), ply_entropy(sym),
    ]
    return measures, notes
