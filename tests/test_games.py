"""Grid-game counts: combinatorial formulas against brute-force enumeration
and published totals."""

import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from dcx import games
from dcx.cli import main
from dcx.errors import DegenerateInput, InvalidParameter, ResourceLimit
from dcx.games import (
    GridGameSpec,
    PlyDistribution,
    canonical_positions,
    enumerate_states,
    grid_measures,
    gtc_factorial,
    ply_entropy,
    preset,
    ssc_combinatorial,
    ssc_upper_bound,
    symmetry_maps,
    win_lines,
)

TTT = preset("ttt")
QUBIC = preset("qubic")

# breadth-first results frozen from an independent enumeration
TTT_RAW_COUNTS = (1, 9, 72, 252, 756, 1260, 1520, 1140, 390, 78)
TTT_SYM_COUNTS = (1, 3, 12, 38, 108, 174, 204, 153, 57, 15)


class TestCombinatorialCounts:
    def test_ttt_arrangement_total(self):
        total, log10_total = ssc_combinatorial(TTT)
        assert total == 6045
        assert log10_total == pytest.approx(3.7814, abs=1e-4)

    def test_qubic_arrangement_log10(self):
        _, log10_total = ssc_combinatorial(QUBIC)
        assert log10_total == pytest.approx(29.6189, abs=1e-4)

    def test_one_cell_board(self):
        spec = GridGameSpec(side=1, dims=1, max_plies=1, win_length=1)
        assert ssc_combinatorial(spec) == (1, 0.0)

    def test_upper_bound_dominates_arrangements(self):
        for spec in (TTT, QUBIC):
            assert ssc_upper_bound(spec) >= ssc_combinatorial(spec)[1]
        assert ssc_upper_bound(TTT) == pytest.approx(9 * math.log10(3))

    def test_arrangements_dominate_legal_positions(self):
        # arrangement counting ignores move-order legality, so it can only
        # overcount relative to the breadth-first census minus the empty board
        total, _ = ssc_combinatorial(TTT)
        assert total >= enumerate_states(TTT).total - 1

    def test_per_ply_term_matches_brute_force(self):
        # place ceil(i/2) first-player and floor(i/2) second-player stones on
        # 9 cells every possible way and count the distinct boards
        for ply in range(1, 10):
            x_count = (ply + 1) // 2
            o_count = ply // 2
            boards = set()
            for xs in itertools.combinations(range(9), x_count):
                rest = [c for c in range(9) if c not in xs]
                for os_ in itertools.combinations(rest, o_count):
                    board = [0] * 9
                    for c in xs:
                        board[c] = 1
                    for c in os_:
                        board[c] = 2
                    boards.add(tuple(board))
            expected = math.comb(9, x_count) * math.comb(9 - x_count, o_count)
            assert len(boards) == expected

    def test_gtc_factorial_ttt(self):
        assert gtc_factorial(9, 9) == pytest.approx(math.log10(math.factorial(9)))
        assert gtc_factorial(9, 9) == pytest.approx(5.5598, abs=1e-4)

    def test_gtc_factorial_qubic(self):
        assert gtc_factorial(64, 20) == pytest.approx(34.6788, abs=1e-3)

    def test_gtc_factorial_rejects_overlong_games(self):
        with pytest.raises(InvalidParameter):
            gtc_factorial(9, 10)


def comb_sum_oracle(spec: GridGameSpec) -> int:
    """The stone-count sum as the product of two binomials per ply."""
    return sum(
        math.comb(spec.cells, (i + 1) // 2) * math.comb(spec.cells - (i + 1) // 2, i // 2)
        for i in range(1, spec.max_plies + 1)
    )


# boards on each side of games._EXACT_BITS: 10,000 cells have 14 bits, so
# 4,681 plies are the last exact count and 4,682 the first in logarithms
NEAR_THRESHOLD = [GridGameSpec(side=100, dims=2, max_plies=p, win_length=3) for p in (4681, 4682)]


class TestLogSpaceCounts:
    @pytest.mark.parametrize(("side", "dims", "plies"),
                             [(1, 1, 1), (2, 2, 4), (3, 2, 9), (4, 2, 16), (4, 3, 64), (40, 2, 1600)])
    def test_exact_sum_equals_the_binomial_products(self, side, dims, plies):
        spec = GridGameSpec(side=side, dims=dims, max_plies=plies, win_length=1)
        assert ssc_combinatorial(spec)[0] == comb_sum_oracle(spec)

    def test_the_threshold_falls_between_the_boards(self):
        below, above = NEAR_THRESHOLD
        assert isinstance(ssc_combinatorial(below)[0], int)
        assert ssc_combinatorial(above)[0] is None

    @pytest.mark.parametrize("spec", NEAR_THRESHOLD, ids=["below", "above"])
    def test_both_forms_agree_across_the_threshold(self, spec, monkeypatch):
        forms = []
        for bits in (0, 1 << 30):  # every count in logarithms, then every count exact
            monkeypatch.setattr(games, "_EXACT_BITS", bits)
            forms.append((ssc_combinatorial(spec)[1], gtc_factorial(spec.cells, spec.max_plies)))
        (ssc_logged, gtc_logged), (ssc_exact, gtc_exact) = forms
        assert ssc_logged == pytest.approx(ssc_exact, rel=1e-13)
        assert gtc_logged == pytest.approx(gtc_exact, rel=1e-13)

    @pytest.mark.parametrize(("cells", "moves"), [(10**8, 5000), (10**18, 2000), (2**20, 10**5)])
    def test_factorial_keeps_its_digits_on_boards_of_many_cells(self, cells, moves, monkeypatch):
        # lgamma(cells + 1) - lgamma(cells - moves + 1) as two floats lost
        # 1% of the value at 10^18 cells
        assert moves * cells.bit_length() > games._EXACT_BITS
        logged = gtc_factorial(cells, moves)
        monkeypatch.setattr(games, "_EXACT_BITS", 1 << 30)
        assert logged == pytest.approx(gtc_factorial(cells, moves), rel=1e-13)

    def test_stone_count_sums_past_the_ply_limit_are_refused(self):
        spec = GridGameSpec(side=10_000, dims=2, max_plies=games.SSC_PLY_LIMIT + 1, win_length=1)
        with pytest.raises(ResourceLimit, match="plies"):
            ssc_combinatorial(spec)

    def test_the_logged_sum_holds_one_double_per_ply(self):
        # a list of one Python float per ply peaked at 30.9 MB at the limit
        at_limit = GridGameSpec(side=10_000, dims=2, max_plies=games.SSC_PLY_LIMIT, win_length=1)
        assert ssc_combinatorial(at_limit) == (None, 2733139.2377379076)
        # traced on a tenth of the plies, as tracing slows the loop fivefold
        spec = GridGameSpec(side=10_000, dims=2, max_plies=100_000, win_length=1)
        tracemalloc.start()
        try:
            ssc_combinatorial(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * spec.max_plies

    def test_sums_past_the_threshold_are_past_the_float_range(self, monkeypatch):
        # so the report loses no float total by summing them in logarithms
        monkeypatch.setattr(games, "_EXACT_BITS", 1 << 30)
        for spec in (NEAR_THRESHOLD[1], GridGameSpec(side=2**20, dims=1, max_plies=3277, win_length=1)):
            assert spec.max_plies * spec.cells.bit_length() > 1 << 16
            assert ssc_combinatorial(spec)[0] > sys.float_info.max

    def test_a_large_custom_board_returns_within_a_second(self, capsys):
        # the exact big-integer sum over 90,000 plies ran for minutes
        argv = ["--format", "json", "game", "custom", "--side", "300", "--dims", "2",
                "--plies", "90000", "--win", "3", "--no-enumerate"]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert '"ssc_combinatorial_log10"' in out and "ssc_combinatorial_total omitted" in out


class TestWinLines:
    def test_ttt_has_eight(self):
        assert len(win_lines(TTT)) == 8

    def test_qubic_has_seventy_six(self):
        assert len(win_lines(QUBIC)) == 76

    def test_lines_have_win_length_cells(self):
        for spec in (TTT, QUBIC):
            for line in win_lines(spec):
                assert len(line) == spec.win_length
                assert len(set(line)) == spec.win_length

    @pytest.mark.parametrize(("side", "dims"), [(2, 1), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2),
                                                 (4, 3), (5, 2), (5, 3)])
    def test_counts_match_the_closed_form(self, side, dims):
        # per axis a direction component of 0 leaves side origins and each
        # of -1 and +1 leaves side - win + 1, over all 3^dims - 1 nonzero
        # directions, halved for the two orientations of each line; with
        # win == side that is ((side + 2)^dims - side^dims) / 2: 8 for ttt,
        # 10 for 4 x 4 win 4, 76 for Qubic
        for win in range(2, side + 1):
            lines = win_lines(GridGameSpec(side=side, dims=dims, max_plies=1, win_length=win))
            assert len(lines) == ((3 * side - 2 * win + 2) ** dims - side**dims) // 2
            assert lines == tuple(sorted(lines))
            assert all(list(line) == sorted(line) for line in lines)
        assert len(win_lines(GridGameSpec(side, dims, 1, 1))) == side**dims


# boards whose group holds 2 (1-D), 8 (2-D), 48 (3-D) and 384 (4-D) maps
GROUP_BOARDS = [GridGameSpec(6, 1, 1, 3), TTT, GridGameSpec(4, 2, 1, 3), QUBIC,
                GridGameSpec(5, 3, 1, 4), GridGameSpec(2, 4, 1, 2)]


class TestSymmetryGroup:
    """Group properties that hold whatever order the maps come in."""

    @pytest.mark.parametrize(
        "spec", GROUP_BOARDS, ids=[f"{s.side}^{s.dims}-w{s.win_length}" for s in GROUP_BOARDS]
    )
    def test_is_the_axis_permutation_and_reflection_group(self, spec):
        maps = symmetry_maps(spec)
        group = set(maps)
        assert len(maps) == len(group) == math.factorial(spec.dims) * 2**spec.dims
        assert tuple(range(spec.cells)) in group
        assert all(sorted(m) == list(range(spec.cells)) for m in maps)
        # applying a then b reads board[a[b[i]]]
        assert all(tuple(a[i] for i in b) in group for a in maps for b in maps)
        lines = {frozenset(line) for line in win_lines(spec)}
        for m in maps:
            assert {frozenset(m[c] for c in line) for line in lines} == lines

    def test_a_one_cell_board_has_only_the_identity(self):
        assert symmetry_maps(GridGameSpec(side=1, dims=12, max_plies=1, win_length=1)) == ((0,),)


class TestEnumeration:
    def test_ttt_raw_census(self):
        dist = enumerate_states(TTT, symmetry=False)
        assert dist.counts_per_ply == TTT_RAW_COUNTS
        assert dist.total == 5478

    def test_ttt_symmetry_census(self):
        dist = enumerate_states(TTT, symmetry=True)
        assert dist.counts_per_ply == TTT_SYM_COUNTS
        assert dist.total == 765

    def test_symmetry_reduction_bounded_by_group_order(self):
        # 8 board symmetries: each class covers between 1 and 8 positions
        group = len(symmetry_maps(TTT))
        assert group == 8
        for raw, sym in zip(TTT_RAW_COUNTS, TTT_SYM_COUNTS):
            assert raw / group <= sym <= raw

    def test_one_cell_census(self):
        spec = GridGameSpec(side=1, dims=1, max_plies=1, win_length=1)
        assert enumerate_states(spec).counts_per_ply == (1, 1)

    def test_refuses_large_boards(self):
        with pytest.raises(ResourceLimit):
            enumerate_states(QUBIC)

    @pytest.mark.parametrize(
        ("side", "dims", "cells"),
        [
            (4, 3, "64"),
            (10**15 - 1, 1, "999999999999999"),
            (10**15, 1, "10^15.000"),
            (2, 1000, "10^301.030"),  # 302 digits
        ],
    )
    def test_skipped_enumeration_note_writes_long_counts_as_powers(self, side, dims, cells):
        spec = GridGameSpec(side=side, dims=dims, max_plies=1, win_length=1)
        _, notes = grid_measures(spec)
        assert notes == [f"enumeration skipped: {cells} cells exceeds the 16-cell guard"]

    @pytest.mark.parametrize(
        ("win", "raw", "sym"),
        [
            (4, (1, 16, 240, 1680, 10920, 43680, 160160),
             (1, 3, 33, 219, 1413, 5514, 20122)),
            (3, (1, 16, 240, 1680, 10920, 43680, 153296),
             (1, 3, 33, 219, 1413, 5514, 19253)),
        ],
    )
    def test_four_by_four_six_plies(self, win, raw, sym):
        # frozen from the tuple enumeration below; too slow to rerun it here
        spec = GridGameSpec(side=4, dims=2, max_plies=6, win_length=win)
        assert enumerate_states(spec, symmetry=False).counts_per_ply == raw
        assert enumerate_states(spec, symmetry=True).counts_per_ply == sym


# --- the tuple enumeration the packed one replaced, kept as its oracle ---------


def oracle_canonical_form(board, spec):
    """Lexicographic minimum of the board over its symmetry group images."""
    return min(tuple(board[i] for i in m) for m in symmetry_maps(spec))


def oracle_winner(board, lines):
    for line in lines:
        first = board[line[0]]
        if first and all(board[i] == first for i in line[1:]):
            return True
    return False


def oracle_counts(spec, symmetry):
    lines = win_lines(spec)
    frontier = {(0,) * spec.cells}
    counts = [1]
    for ply in range(spec.max_plies):
        player = 1 if ply % 2 == 0 else 2
        seen = set()
        for board in frontier:
            for cell, value in enumerate(board):
                if value:
                    continue
                child = board[:cell] + (player,) + board[cell + 1 :]
                if symmetry:
                    child = oracle_canonical_form(child, spec)
                seen.add(child)
        if not seen:
            break
        counts.append(len(seen))
        frontier = {b for b in seen if not oracle_winner(b, lines)}
    return tuple(counts)


ORACLE_BOARDS = [
    GridGameSpec(side=1, dims=1, max_plies=1, win_length=1),
    GridGameSpec(side=6, dims=1, max_plies=6, win_length=3),
    GridGameSpec(side=12, dims=1, max_plies=6, win_length=4),
    GridGameSpec(side=3, dims=2, max_plies=9, win_length=1),
    GridGameSpec(side=3, dims=2, max_plies=9, win_length=2),
    TTT,
    GridGameSpec(side=2, dims=3, max_plies=8, win_length=2),
    GridGameSpec(side=2, dims=4, max_plies=7, win_length=2),
    GridGameSpec(side=4, dims=2, max_plies=5, win_length=4),
    GridGameSpec(side=4, dims=2, max_plies=5, win_length=3),
]


@pytest.mark.parametrize("symmetry", [False, True], ids=["raw", "sym"])
@pytest.mark.parametrize(
    "spec", ORACLE_BOARDS,
    ids=[f"{s.side}^{s.dims}-p{s.max_plies}-w{s.win_length}" for s in ORACLE_BOARDS],
)
def test_matches_tuple_enumeration(spec, symmetry):
    assert enumerate_states(spec, symmetry).counts_per_ply == oracle_counts(spec, symmetry)


def pack(board: tuple[int, ...]) -> int:
    """A 0/1/2 cell tuple as the uint32 the enumeration uses: X bits | O bits << 16."""
    x = sum(1 << i for i, v in enumerate(board) if v == 1)
    o = sum(1 << i for i, v in enumerate(board) if v == 2)
    return x | o << 16


def canonical(board: tuple[int, ...], spec: GridGameSpec) -> int:
    return int(canonical_positions(np.array([pack(board)], dtype=np.uint32), spec)[0])


class TestCanonicalForm:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        boards = np.array(
            [pack(tuple(int(v) for v in rng.integers(0, 3, 9))) for _ in range(200)],
            dtype=np.uint32,
        )
        canon = canonical_positions(boards, TTT)
        assert np.array_equal(canonical_positions(canon, TTT), canon)

    def test_constant_on_orbits(self):
        rng = np.random.default_rng(1)
        maps = symmetry_maps(TTT)
        for _ in range(200):
            board = tuple(int(v) for v in rng.integers(0, 3, 9))
            m = maps[rng.integers(0, len(maps))]
            transformed = tuple(board[i] for i in m)
            assert canonical(transformed, TTT) == canonical(board, TTT)

    def test_canonical_is_orbit_minimum(self):
        # the representative is the smallest packed image, for every group
        # size the enumeration meets: 2 (1-D), 8 (2-D), 48 (3-D), 384 (4-D)
        rng = np.random.default_rng(2)
        for spec in (GridGameSpec(6, 1, 6, 3), TTT, GridGameSpec(2, 3, 8, 2),
                     GridGameSpec(2, 4, 7, 2)):
            maps = symmetry_maps(spec)
            for _ in range(50):
                board = tuple(int(v) for v in rng.integers(0, 3, spec.cells))
                orbit = {pack(tuple(board[i] for i in m)) for m in maps}
                assert canonical(board, spec) == min(orbit)


class TestPlyEntropy:
    def test_ttt_raw_value(self):
        value = ply_entropy(enumerate_states(TTT, symmetry=False)).value
        assert value == pytest.approx(0.7614, abs=1e-4)

    def test_ttt_symmetry_value(self):
        value = ply_entropy(enumerate_states(TTT, symmetry=True)).value
        assert value == pytest.approx(0.7830, abs=1e-4)

    def test_needs_two_occupied_plies(self):
        with pytest.raises(DegenerateInput):
            ply_entropy(PlyDistribution(counts_per_ply=(5,), symmetry_reduced=False))


class TestSpecValidation:
    def test_win_length_bounded_by_side(self):
        with pytest.raises(InvalidParameter):
            GridGameSpec(side=3, dims=2, max_plies=9, win_length=4)

    def test_plies_bounded_by_cells(self):
        with pytest.raises(InvalidParameter):
            GridGameSpec(side=3, dims=2, max_plies=10, win_length=3)

    def test_preset_rejects_unknown(self):
        with pytest.raises(InvalidParameter):
            preset("chess")
