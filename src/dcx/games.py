"""Combinatorial complexity of N^D grid games (tic-tac-toe, Qubic).

Covers the closed-form state-space bounds, the factorial game-tree count,
exhaustive breadth-first enumeration of legal positions with optional
symmetry reduction, and the entropy of the per-ply state distribution.

Board geometry is row-major index arithmetic: a cell's index is the sum
of its coordinates times the axis strides (side^(D-1), ..., side, 1). A
win line is an origin's index plus k multiples of a direction's step, and
a symmetry map reads each image coordinate from a permuted, possibly
reversed, board axis.

With win lines of w cells, every arrangement of stones is reachable up
to ply 2w - 1, and at ply 2w every arrangement whose X stones fill no
line, so a board played to at most 2w plies is counted in closed form:
its arrangements and their symmetry classes (by Burnside's lemma). Other
boards are searched on bitboards: a position is one 32-bit value holding
the X cell mask in bits 0-15 and the O mask in bits 16-31, which is why
boards are capped at 16 cells. Boards of at most nine cells are searched
in plain Python, with one table over every cell mask for the wins and
one per symmetry map for the images. Larger boards are searched by a
numpy kernel: each ply is a uint32 array of positions, win lines are
cell masks, and a symmetry map is applied through byte lookup tables.
The canonical representative of a symmetry class is its minimum packed
image, not its minimum cell tuple, so the representatives differ from a
tuple-based enumeration while the class counts are the same. Only the
search of boards past nine cells imports numpy; the geometry and the
closed forms are plain integer and math arithmetic.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    DegenerateInput,
    InvalidParameter,
    Record,
    ResourceLimit,
    check_count,
    count_text,
)
from .measures import ANALYTIC, ENUMERATED, MeasureResult, log10_int, normalized_entropy

if TYPE_CHECKING:
    import numpy as np

# A position packs into one uint32, the X mask in bits 0-15 and the O mask
# in bits 16-31, so enumeration stops at 16 cells.
ENUMERATION_CELL_LIMIT = 16
_O_SHIFT = 16
_CELL_MASK = (1 << _O_SHIFT) - 1
# enumerate_states takes one of three routes, each exact. A board played to
# at most twice its win length (max_plies <= 2 * win_length) is counted in
# closed form: 4 x 4 to six plies, raw and reduced, in 0.2-0.3 ms with win
# 4 and 0.6-0.9 ms with win 3. Other boards of at most this many cells (at
# most 6,046 legal positions, and tables of 512 entries) are searched in
# plain Python, larger ones by the numpy kernel. The Python search costs
# about 0.7 us per raw position and 1.5-5 us per symmetry class, against
# importing numpy, about 72 ms (median of 15 `python -c "import numpy"`
# against `python -c pass`). Raw and reduced, ttt takes 6 ms, a full 10 x 1
# game with win 3 36 ms and a full 11 x 1 game 107 ms, against the kernel's
# 4-5 ms plus the import, so full games break even at 10-11 cells; the
# kernel takes 4 x 4 to seven plies with win 3 in 40 ms (medians of warm
# calls; Python 3.11, numpy 2.4.6, 2-vCPU x86-64).
_PYTHON_SEARCH_CELLS = 9
_LOG10_FLOAT_MAX = math.log10(sys.float_info.max)


class GridGameSpec(Record):
    """An N^D board played to at most max_plies with win lines of win_length."""

    side: int
    dims: int
    max_plies: int
    win_length: int

    def __post_init__(self) -> None:
        for name in ("side", "dims", "max_plies", "win_length"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
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


def _arrangement_terms(spec: GridGameSpec):
    """Per ply from the first, comb(cells, x) * comb(cells - x, o): the
    arrangements of its x = ceil(ply/2) X stones and o = floor(ply/2) O
    stones, each term exact."""
    term = 1
    for free, stones in _stone_factors(spec):
        term = term * free // stones
        yield term


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
            f"got {count_text(spec.max_plies)}"
        )
    if spec.max_plies * spec.cells.bit_length() > _EXACT_BITS:
        logs, log_term = array("d"), 0.0
        for free, stones in _stone_factors(spec):
            log_term += math.log(free) - math.log(stones)
            logs.append(log_term)
        top = max(logs)
        return None, (top + math.log(math.fsum(math.exp(v - top) for v in logs))) / math.log(10)
    total = sum(_arrangement_terms(spec))
    return total, log10_int(total)


def gtc_factorial(cells: int, avg_game_length: int) -> float:
    """log10 of cells! / (cells - avg_game_length)!, exact in integers up to
    _EXACT_BITS and in the O(1) log-gamma form past it."""
    cells = check_count(cells, "cells")
    avg_game_length = check_count(avg_game_length, "avg_game_length")
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


def _strides(spec: GridGameSpec) -> list[int]:
    """Per axis, how far the row-major cell index moves for one step."""
    return [spec.side ** (spec.dims - 1 - axis) for axis in range(spec.dims)]


@lru_cache(maxsize=None)
def win_lines(spec: GridGameSpec) -> tuple[tuple[int, ...], ...]:
    """All straight segments of win_length cells, as sorted index tuples.

    Directions are vectors in {-1,0,1}^D whose first nonzero component is
    positive, so each geometric line is generated once, and the cell index
    rises along each of them, so every segment comes out sorted.
    """
    if spec.side == 1:  # the single cell is the only line, in any dimension
        return ((0,),)
    strides, k = _strides(spec), spec.win_length
    lines = set()  # only win_length 1 gives one segment in several directions
    for d in itertools.product((-1, 0, 1), repeat=spec.dims):
        if not any(d) or next(v for v in d if v) < 0:
            continue
        # per axis, the origins whose last cell, k - 1 steps along d, is
        # still on the board
        origins = itertools.product(*(
            [c * s for c in range((k - 1) * (v < 0), spec.side - (k - 1) * (v > 0))]
            for v, s in zip(d, strides)
        ))
        step = sum(v * s for v, s in zip(d, strides))
        lines.update(tuple(range(start, start + k * step, step)) for start in map(sum, origins))
    return tuple(sorted(lines))


@lru_cache(maxsize=None)
def symmetry_maps(spec: GridGameSpec) -> tuple[tuple[int, ...], ...]:
    """Index permutations for the board's axis-permutation/reflection group.

    For D = 2 this is the 8-element dihedral group; in general 2^D * D!.
    Map m sends a board to its image via image[i] = board[m[i]]. Axis a of
    the image reads axis perm[a] of the board, reversed when flips[a] is
    set; the maps run over the axis permutations, then the flip sets, each
    in itertools order. A side-1 board has one cell, so its whole group is
    the single identity map.
    """
    if spec.side == 1:
        return ((0,),)
    strides, side = _strides(spec), spec.side
    return tuple(
        # image axis a reads board axis perm[a], reversed where flips[a] is set
        tuple(map(sum, itertools.product(*(
            [c * strides[p] for c in range(side)[::-1 if f else 1]] for p, f in zip(perm, flips)
        ))))
        for perm in itertools.permutations(range(spec.dims))
        for flips in itertools.product((False, True), repeat=spec.dims)
    )


def _cycle_lengths(m: tuple[int, ...], placed=()):
    """The length of each cycle of the index permutation m, leaving out
    the cells in placed, which must be whole cycles of m."""
    seen = bytearray(len(m))
    for cell in placed:
        seen[cell] = 1
    for start in range(len(m)):
        length, cell = 0, start
        while not seen[cell]:
            seen[cell] = 1
            cell = m[cell]
            length += 1
        if length:
            yield length


def _cycle_polynomial(lengths, top_x: int, top_o: int) -> list[list[int]]:
    """poly[x][o], the coefficient of a^x b^o in the product over the cycle
    lengths of (1 + a^len + b^len), truncated at top_x, top_o: the ways to
    fill whole cycles with x X and o O stones."""
    poly = [[1] + [0] * top_o] + [[0] * (top_o + 1) for _ in range(top_x)]
    for n in lengths:
        # downwards, so each coefficient reads the two it adds before this
        # cycle's factor updates them
        for x in range(top_x, -1, -1):
            row = poly[x]
            for o in range(top_o, -1, -1):
                if x >= n:
                    row[o] += poly[x - n][o]
                if o >= n:
                    row[o] += row[o - n]
    return poly


def _fixed_arrangements(maps, max_plies: int) -> list[int]:
    """Per ply 0..max_plies, the sum over maps of the arrangements of the
    ply's ceil(ply/2) X and floor(ply/2) O stones that each map fixes.

    A map fixes an arrangement exactly when each of its cycles is all
    empty, all X or all O, so the count is the coefficient of a^x b^o in
    the product over its cycles of (1 + a^len + b^len).
    """
    top_x, top_o = (max_plies + 1) // 2, max_plies // 2
    sums = [0] * (max_plies + 1)
    for m in maps:
        poly = _cycle_polynomial(_cycle_lengths(m), top_x, top_o)
        for ply in range(max_plies + 1):
            sums[ply] += poly[(ply + 1) // 2][ply // 2]
    return sums


def _fixed_line_arrangements(maps, lines) -> int:
    """The sum over maps of the arrangements that each map fixes in which
    X's w stones fill one of the lines, each w cells long, and O's w
    stones lie off it.

    A map fixes such an arrangement only when it maps the line onto
    itself, and then exactly when O's stones fill whole cycles of the map
    outside the line: the coefficient of b^w in the product over those
    cycles of (1 + b^len). The lines are distinct sets of w cells, so no
    arrangement is counted under two of them.
    """
    w = len(lines[0])
    return sum(
        _cycle_polynomial(_cycle_lengths(m, line), 0, w)[0][w]
        for m in maps for line in lines if tuple(sorted(m[cell] for cell in line)) == line
    )


def _orbit_counts(maps, max_plies: int, lines) -> tuple[int, ...]:
    """Per ply 0..max_plies, at most 2w for lines w cells long, the classes
    of the ply's reachable arrangements under the group of the maps, which
    must map lines onto lines: by Burnside's lemma, the mean over the group
    of the reachable arrangements each map fixes. Every arrangement is
    reachable before ply 2w, and at ply 2w those whose X stones fill no
    line."""
    sums = _fixed_arrangements(maps, max_plies)
    if max_plies == 2 * len(lines[0]):
        sums[-1] -= _fixed_line_arrangements(maps, lines)
    return tuple(total // len(maps) for total in sums)


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
    """Sorted distinct values of a uint32 array, which is sorted in place.

    np.unique gives the same result, but numpy 2.4.6 routes it through a hash
    table that took 0.29 s on 480k uint32 values where sorting and
    comparing neighbours took 6 ms (2-vCPU x86-64 machine).
    """
    import numpy as np

    positions.sort()
    keep = np.ones(positions.shape, dtype=bool)
    np.not_equal(positions[1:], positions[:-1], out=keep[1:])
    return positions[keep]


def _completes_line(masks: np.ndarray, lines: np.ndarray) -> np.ndarray:
    import numpy as np

    won = np.zeros(masks.shape, dtype=bool)
    for line in lines:
        won |= (masks & line) == line
    return won


class PlyDistribution(Record):
    """Unique reachable positions per ply, starting at the empty board."""

    counts_per_ply: tuple[int, ...]
    symmetry_reduced: bool

    @property
    def total(self) -> int:
        return sum(self.counts_per_ply)


def _closed_form_counts(spec: GridGameSpec, symmetry: bool) -> tuple[int, ...]:
    """enumerate_states' per-ply counts where max_plies <= 2 * win_length.

    Before ply 2 * win_length - 1 neither player holds win_length stones,
    so no position short of that ply ends the game and every arrangement
    of each ply's stones up to it is reachable. At ply 2 * win_length an
    arrangement is reachable unless X's stones fill a line, which ended
    the game a ply earlier. The counts are the classes of those
    arrangements under symmetry_maps(spec), or under the identity alone
    for the raw counts.
    """
    maps = symmetry_maps(spec) if symmetry else (tuple(range(spec.cells)),)
    counts = _orbit_counts(maps, spec.max_plies, win_lines(spec))
    # a ply with no position ends the tuple, as it ends the searches
    return counts if counts[-1] else counts[:-1]


@lru_cache(maxsize=None)
def _mask_tables(spec: GridGameSpec) -> tuple[bytes, tuple[tuple[tuple[int, ...], ...], ...]]:
    """The plain-Python search's lookup tables, each of 2^cells entries.

    won[mask] is 1 when the cell mask holds a win line. Per symmetry map,
    the pair holds the image of each X mask and of each O mask, the latter
    already shifted to the O bits, so a packed image is one OR.
    """
    lines = [sum(1 << cell for cell in line) for line in win_lines(spec)]
    won = bytes(any(mask & line == line for line in lines) for mask in range(1 << spec.cells))
    images = []
    for m in symmetry_maps(spec):
        table = [0]
        for cell in range(spec.cells):  # bit m[i] of a board lands on bit i of its image
            bit = 1 << m.index(cell)
            table += [mask | bit for mask in table]
        images.append((tuple(table), tuple(mask << _O_SHIFT for mask in table)))
    return won, tuple(images)


def _python_counts(spec: GridGameSpec, symmetry: bool) -> tuple[int, ...]:
    """enumerate_states' per-ply counts by a breadth-first search over sets
    of packed Python ints, with _mask_tables for the wins and images."""
    won, images = _mask_tables(spec)
    # a cell is free when neither its X bit nor its O bit is set
    cells = [(1 << cell | 1 << cell + _O_SHIFT, 1 << cell) for cell in range(spec.cells)]
    frontier, counts = [0], [1]
    for ply in range(spec.max_plies):
        shift = 0 if ply % 2 == 0 else _O_SHIFT
        children = {p | bit << shift for p in frontier for both, bit in cells if not p & both}
        if symmetry:
            children = {
                min(x_image[p & _CELL_MASK] | o_image[p >> _O_SHIFT] for x_image, o_image in images)
                for p in children
            }
        if not children:
            break
        counts.append(len(children))
        # only the player who just moved can have completed a line
        frontier = [p for p in children if not won[p >> shift & _CELL_MASK]]
    return tuple(counts)


def _numpy_counts(spec: GridGameSpec, symmetry: bool) -> tuple[int, ...]:
    """enumerate_states' per-ply counts with each ply one sorted,
    duplicate-free uint32 array.

    Every position in the frontier of ply p holds p stones, so it has
    exactly cells - p children; they are built into one array of that
    exact size, a cell at a time, with no frontier x cells temporaries.
    """
    import numpy as np

    lines = _line_masks(spec)
    frontier = np.zeros(1, dtype=np.uint32)
    counts = [1]
    for ply in range(spec.max_plies):
        shift = 0 if ply % 2 == 0 else _O_SHIFT
        occupied = (frontier | (frontier >> _O_SHIFT)) & _CELL_MASK
        children = np.empty(frontier.size * (spec.cells - ply), dtype=np.uint32)
        start = 0
        for cell in range(spec.cells):
            parents = frontier[(occupied & (1 << cell)) == 0]
            stop = start + parents.size
            np.bitwise_or(parents, np.uint32(1 << cell + shift), out=children[start:stop])
            start = stop
        children = _distinct(children)
        if symmetry:
            children = _distinct(canonical_positions(children, spec))
        if children.size == 0:
            break
        counts.append(int(children.size))
        # only the player who just moved can have completed a line
        mover = (children >> shift) & _CELL_MASK
        frontier = children[~_completes_line(mover, lines)]
    return tuple(counts)


def enumerate_states(spec: GridGameSpec, symmetry: bool = False) -> PlyDistribution:
    """Per-ply count of legal positions reachable under alternation.

    Positions where a player has already completed a line are counted but
    generate no children. With symmetry on, positions are counted once per
    class under symmetry_maps(spec). Boards past ENUMERATION_CELL_LIMIT
    cells, the most the searches' packing (X mask | O mask << 16) holds,
    are refused. A ply with no position ends the counts. They are exact on
    each of three routes: a board played to at most twice its win length
    (max_plies <= 2 * win_length) is counted in closed form, other boards
    of at most nine cells (_PYTHON_SEARCH_CELLS) are searched breadth-first
    in plain Python, and larger ones by the numpy kernel. A search
    deduplicates each position's canonical form (the minimum packed image,
    as canonical_positions defines it).
    """
    if spec.cells > ENUMERATION_CELL_LIMIT:  # refused before numpy loads
        raise ResourceLimit(
            f"enumeration supports at most {ENUMERATION_CELL_LIMIT} cells, "
            f"got {count_text(spec.cells)}"
        )
    if spec.max_plies <= 2 * spec.win_length:
        count = _closed_form_counts
    elif spec.cells <= _PYTHON_SEARCH_CELLS:
        count = _python_counts
    else:
        count = _numpy_counts
    return PlyDistribution(counts_per_ply=count(spec, symmetry), symmetry_reduced=symmetry)


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
                total,
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
            f"enumeration skipped: {count_text(spec.cells)} cells exceeds the "
            f"{ENUMERATION_CELL_LIMIT}-cell guard"
        )
        return measures, notes
    sym = enumerate_states(spec, symmetry=True)
    measures += [
        MeasureResult(
            "legal_positions_total",
            raw.total,
            "breadth-first count of reachable positions; wins halt expansion",
            ENUMERATED,
        ),
        MeasureResult(
            "symmetry_classes_total",
            sym.total,
            "breadth-first count of canonical forms under the board symmetry group",
            ENUMERATED,
        ),
        ply_entropy(raw), ply_entropy(sym),
    ]
    return measures, notes
