"""Game representations and random generators.

Two-player games come in two flavors: :class:`OrdinalBimatrix` stores each
player's preference ranks directly (Row is ranked within every column,
Column within every row; larger rank = better), and
:class:`CardinalBimatrix` stores real payoffs. Dominance analysis only ever
depends on the ordinal content, so cardinal games exist for the generators
that need a total order over a whole matrix (symmetric / potential /
constant-sum constructions) and for mixed-strategy dominance.

All samplers are pure functions of their arguments and a :class:`Seed`;
repeated calls with the same seed return identical objects. Two-player
games of every class are built in one place, :func:`sample_class_batch`,
which also fixes the payoff distribution and the tie policy; the per-game
samplers draw a batch of one. Action indices are 0-based throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

ROW = 0
COL = 1

UNIFORM = "uniform"
NORMAL = "normal"
DISTRIBUTIONS = (UNIFORM, NORMAL)


class GameClass(Enum):
    """Supported random-game constructions for two-player games."""

    BASELINE = "baseline"
    SYMMETRIC = "symmetric"
    POTENTIAL = "potential"
    CONSTANT_SUM = "constant-sum"
    STRAT_COMPLEMENTS = "strat-complements"
    STRAT_COMPLEMENTS_SYM = "strat-complements-sym"

    @property
    def requires_square(self) -> bool:
        return self in (GameClass.SYMMETRIC, GameClass.STRAT_COMPLEMENTS_SYM)


@dataclass(frozen=True)
class Seed:
    """Master seed plus a sub-stream index.

    Sub-streams are derived with ``numpy``'s splittable ``SeedSequence``
    (spawn keys), so independent streams can be drawn in any order, in
    particular in parallel, without changing any of them.
    """

    master: int
    stream: int = 0
    path: tuple[int, ...] = ()

    def seed_sequence(self, *path: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master, spawn_key=(self.stream, *self.path, *path)
        )

    def child(self, index: int) -> Seed:
        """The seed of part ``index`` of an experiment (a grid point): its
        spawn keys extend this seed's by ``index``, so its streams share no
        random numbers with this seed's own or with another stream's."""
        return Seed(self.master, self.stream, (*self.path, index))

    def generator(self, *path: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed_sequence(*path)))


def _as_int_matrix(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _as_float_matrix(rows: Iterable[Iterable[float]]) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in rows)


@dataclass(frozen=True)
class OrdinalBimatrix:
    """Two-player game in rank form.

    ``row_ranks[i][j]`` is Row's rank of her action ``i`` when Column plays
    ``j`` (each column is a permutation of ``1..m``); ``col_ranks[i][j]`` is
    Column's rank of his action ``j`` against Row's ``i`` (each row is a
    permutation of ``1..n``). Higher rank is better.
    """

    row_ranks: tuple[tuple[int, ...], ...]
    col_ranks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "row_ranks", _as_int_matrix(self.row_ranks))
        object.__setattr__(self, "col_ranks", _as_int_matrix(self.col_ranks))
        m, n = self.m, self.n
        if m < 1 or n < 1:
            raise ValueError("game must have at least one action per player")
        if any(len(r) != n for r in self.row_ranks) or any(
            len(r) != n for r in self.col_ranks
        ) or len(self.col_ranks) != m:
            raise ValueError("rank matrices must both be m x n")
        full_m = set(range(1, m + 1))
        for j in range(n):
            if {self.row_ranks[i][j] for i in range(m)} != full_m:
                raise ValueError(f"row_ranks column {j} is not a permutation of 1..{m}")
        full_n = set(range(1, n + 1))
        for i in range(m):
            if set(self.col_ranks[i]) != full_n:
                raise ValueError(f"col_ranks row {i} is not a permutation of 1..{n}")

    @property
    def m(self) -> int:
        return len(self.row_ranks)

    @property
    def n(self) -> int:
        return len(self.row_ranks[0])

    def to_json_dict(self) -> dict:
        return {
            "type": "ordinal",
            "m": self.m,
            "n": self.n,
            "row_ranks": [list(r) for r in self.row_ranks],
            "col_ranks": [list(r) for r in self.col_ranks],
        }


@dataclass(frozen=True)
class CardinalBimatrix:
    """Two-player game with real payoffs ``u_row``, ``u_col`` (m x n).

    Entries must be distinct within each column of ``u_row`` and within each
    row of ``u_col`` so that the induced ranks are well defined.
    """

    u_row: tuple[tuple[float, ...], ...]
    u_col: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "u_row", _as_float_matrix(self.u_row))
        object.__setattr__(self, "u_col", _as_float_matrix(self.u_col))
        m, n = self.m, self.n
        if m < 1 or n < 1:
            raise ValueError("game must have at least one action per player")
        if len(self.u_col) != m or any(len(r) != n for r in self.u_row) or any(
            len(r) != n for r in self.u_col
        ):
            raise ValueError("payoff matrices must both be m x n")
        for j in range(n):
            col = [self.u_row[i][j] for i in range(m)]
            if len(set(col)) != m:
                raise ValueError(f"u_row column {j} has tied payoffs")
        for i in range(m):
            if len(set(self.u_col[i])) != n:
                raise ValueError(f"u_col row {i} has tied payoffs")

    @property
    def m(self) -> int:
        return len(self.u_row)

    @property
    def n(self) -> int:
        return len(self.u_row[0])

    def to_json_dict(self) -> dict:
        return {
            "type": "cardinal",
            "m": self.m,
            "n": self.n,
            "u_row": [list(r) for r in self.u_row],
            "u_col": [list(r) for r in self.u_col],
        }


@dataclass(frozen=True)
class OrdinalTensorGame:
    """N-player game in rank form.

    ``ranks[k][p]`` is a permutation of ``1..dims[k]`` giving player ``k``'s
    ranking of her own actions when the other players jointly play the
    opponent profile with flat index ``p``. Profiles enumerate the other
    players in increasing player order, first player most significant.
    """

    dims: tuple[int, ...]
    ranks: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "ranks", tuple(_as_int_matrix(r) for r in self.ranks)
        )
        if len(self.dims) < 2:
            raise ValueError("tensor games need at least two players")
        if any(d < 1 for d in self.dims):
            raise ValueError("all action counts must be >= 1")
        if len(self.ranks) != len(self.dims):
            raise ValueError("one rank tensor per player required")
        for k, mk in enumerate(self.dims):
            expected = opponent_profile_count(self.dims, k)
            if len(self.ranks[k]) != expected:
                raise ValueError(
                    f"player {k}: expected {expected} opponent profiles, "
                    f"got {len(self.ranks[k])}"
                )
            full = set(range(1, mk + 1))
            for p, perm in enumerate(self.ranks[k]):
                if set(perm) != full:
                    raise ValueError(
                        f"player {k}, profile {p}: not a permutation of 1..{mk}"
                    )

    @property
    def player_count(self) -> int:
        return len(self.dims)

    def to_json_dict(self) -> dict:
        return {
            "type": "tensor",
            "dims": list(self.dims),
            "ranks": [[list(p) for p in r] for r in self.ranks],
        }


def opponent_profile_count(dims: Sequence[int], player: int) -> int:
    out = 1
    for k, d in enumerate(dims):
        if k != player:
            out *= d
    return out


def _action_index(a) -> int:
    """``a`` as a Python int, for Python and numpy integers only."""
    try:
        return operator.index(a)
    except TypeError:
        raise ValueError(f"action index must be an integer, not {a!r}") from None


def check_action_sets(
    game: OrdinalBimatrix | CardinalBimatrix,
    player: int,
    own: Iterable[int] | None,
    opp: Iterable[int] | None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``player``'s own and opponent action sets of a bimatrix game, sorted;
    ``None`` stands for the full set. Raises ValueError on a player other
    than ROW or COL, an empty set, a repeated action, an index that is not
    an integer, or one outside ``0..size-1`` (numpy would wrap a negative
    one)."""
    if player not in (ROW, COL):
        raise ValueError(f"player must be {ROW} (row) or {COL} (column)")
    own_size, opp_size = (game.m, game.n) if player == ROW else (game.n, game.m)
    own = tuple(range(own_size)) if own is None else tuple(sorted(map(_action_index, own)))
    opp = tuple(range(opp_size)) if opp is None else tuple(sorted(map(_action_index, opp)))
    if not own or not opp:
        raise ValueError("action sets must be nonempty")
    if len(set(own)) < len(own) or len(set(opp)) < len(opp):
        raise ValueError("action sets must not repeat an action")
    if any(not 0 <= a < own_size for a in own) or any(not 0 <= a < opp_size for a in opp):
        raise ValueError("action index out of range")
    return own, opp


def game_from_json_dict(data: dict) -> OrdinalBimatrix | CardinalBimatrix | OrdinalTensorGame:
    kind = data.get("type")
    if kind == "ordinal":
        return OrdinalBimatrix(data["row_ranks"], data["col_ranks"])
    if kind == "cardinal":
        return CardinalBimatrix(data["u_row"], data["u_col"])
    if kind == "tensor":
        return OrdinalTensorGame(tuple(data["dims"]), data["ranks"])
    raise ValueError(f"unknown game type {kind!r}")


def rank_along(u: np.ndarray, axis: int) -> np.ndarray:
    """Ranks 1..K of ``u`` along ``axis`` (1 = smallest; tied entries in
    index order), from one stable argsort and an inverse-permutation
    scatter."""
    k = u.shape[axis]
    order = u.argsort(axis=axis, kind="stable")
    ranks = np.empty(u.shape, dtype=np.int16 if k <= np.iinfo(np.int16).max else np.int32)
    shape = [k if a == axis else 1 for a in range(u.ndim)]
    np.put_along_axis(ranks, order, np.arange(1, k + 1, dtype=ranks.dtype).reshape(shape), axis)
    return ranks


def _draw_matrix(
    rng: np.random.Generator, shape: tuple[int, ...], distribution: str
) -> np.ndarray:
    if distribution == UNIFORM:
        return rng.random(shape)
    if distribution == NORMAL:
        return rng.standard_normal(shape)
    raise ValueError(f"unknown distribution {distribution!r}")


def check_payoff_law(distribution: str, crra_alpha: float | None) -> None:
    """Raise ValueError on an unknown distribution, a CRRA exponent outside
    (0, 1], or CRRA on normal payoffs, which can be negative."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
    if crra_alpha is not None:
        if not 0 < crra_alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if distribution != UNIFORM:
            raise ValueError("CRRA transform requires nonnegative payoffs, and normal ones can be negative")


def _nondecreasing_maps(rng: np.random.Generator, batch: int, m: int, n: int) -> np.ndarray:
    """(batch, n) array of uniform draws from the C(m+n-1, n) nondecreasing
    maps [n] -> [m], 0-based.

    Stars and bars: the sorted positions ``c`` of the n smallest of m + n - 1
    uniforms are a uniform n-subset of ``{0, .., m+n-2}``, and
    ``b_i = c_i - i`` is the map.
    """
    if m == 1:
        return np.zeros((batch, n), dtype=np.int64)
    u = rng.random((batch, m + n - 1))
    chosen = np.sort(np.argpartition(u, n - 1, axis=1)[:, :n], axis=1)
    return chosen - np.arange(n)


def _complements_stack(
    rng: np.random.Generator, batch: int, m: int, n: int, distribution: str, axis: int
) -> np.ndarray:
    """A (batch, m, n) payoff draw conditioned on a uniform nondecreasing
    best-response map: each column's best row (``axis`` 1) or each row's best
    column (``axis`` 2). The map is drawn first, then the stack, and each
    line's maximum is swapped into the place the map gives. By
    exchangeability this is the i.i.d. law conditioned on the map, payoff
    values included, without rejection."""
    size, lines = (m, n) if axis == 1 else (n, m)
    best = np.expand_dims(_nondecreasing_maps(rng, batch, size, lines), axis)
    u = _draw_matrix(rng, (batch, m, n), distribution)
    top = np.expand_dims(u.argmax(axis=axis), axis)
    high = np.take_along_axis(u, top, axis)
    np.put_along_axis(u, top, np.take_along_axis(u, best, axis), axis)
    np.put_along_axis(u, best, high, axis)
    return u


def sample_class_batch(
    rng: np.random.Generator,
    batch: int,
    m: int,
    n: int,
    game_class: GameClass = GameClass.BASELINE,
    distribution: str = UNIFORM,
    crra_alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row's and Column's (batch, m, n) payoffs of ``batch`` games of a class.

    Every sampler of two-player games draws here: Row's (batch, m, n) stack
    first, then Column's, each from ``distribution``. Baseline games are two
    independent stacks. One stack R drives the symmetric ((R, R^T)),
    potential ((R, R)) and constant-sum ((R, 1 - R)) classes; 1 - R is exact
    for uniform draws and orders the actions as -R does. The strategic
    complementarity classes condition each stack on a nondecreasing
    best-response map, drawn uniformly over such maps just before the stack,
    by swapping each column's (row's) maximum into the row (column) the map
    gives; this matches the conditional law, payoffs included, without
    rejection. ``crra_alpha`` then raises every payoff to that power with
    ``np.power`` (as :func:`apply_crra` does, so the two agree bit for bit;
    Python's float pow differs in the last bit on some inputs).

    Ties are kept. A float tie has probability about 2**-53 per pair, and
    every reader of a batch treats it the same way: neither tied action
    outranks the other, and among tied best responses the lowest action
    counts. The per-game samplers redraw a tied game whole, since
    :class:`CardinalBimatrix` rejects ties.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if game_class.requires_square and m != n:
        raise ValueError(f"{game_class.value} requires m = n")
    check_payoff_law(distribution, crra_alpha)
    if game_class in (GameClass.STRAT_COMPLEMENTS, GameClass.STRAT_COMPLEMENTS_SYM):
        u_row = _complements_stack(rng, batch, m, n, distribution, 1)
    else:
        u_row = _draw_matrix(rng, (batch, m, n), distribution)
    if game_class is GameClass.BASELINE:
        u_col = _draw_matrix(rng, (batch, m, n), distribution)
    elif game_class in (GameClass.SYMMETRIC, GameClass.STRAT_COMPLEMENTS_SYM):
        u_col = u_row.transpose(0, 2, 1)
    elif game_class is GameClass.POTENTIAL:
        u_col = u_row
    elif game_class is GameClass.CONSTANT_SUM:
        u_col = 1.0 - u_row
    else:
        u_col = _complements_stack(rng, batch, m, n, distribution, 2)
    if crra_alpha is not None:
        u_row, u_col = np.power(u_row, crra_alpha), np.power(u_col, crra_alpha)
    return u_row, u_col


def sample_tensor_batch(rng: np.random.Generator, batch: int, dims: Sequence[int]) -> list[np.ndarray]:
    """Uniform payoffs of ``batch`` N-player games, per player k a
    (batch, m_k, profiles_k) stack, profiles in lexicographic order over the
    other players (first most significant)."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("need >= 2 players, each with >= 1 action")
    total = math.prod(dims)
    return [rng.random((batch, mk, total // mk)) for mk in dims]


def _has_tie(u_row: np.ndarray, u_col: np.ndarray) -> bool:
    """Whether Row's payoffs tie within a column or Column's within a row."""
    return bool(
        (np.diff(np.sort(u_row, axis=0), axis=0) == 0).any()
        or (np.diff(np.sort(u_col, axis=1), axis=1) == 0).any()
    )


def _draw_game(
    rng: np.random.Generator,
    m: int,
    n: int,
    game_class: GameClass = GameClass.BASELINE,
    distribution: str = UNIFORM,
    crra_alpha: float | None = None,
) -> CardinalBimatrix:
    """Game 0 of a size-1 :func:`sample_class_batch`, drawn again, whole,
    while it has a tie."""
    while True:
        u_row, u_col = (u[0] for u in sample_class_batch(rng, 1, m, n, game_class, distribution, crra_alpha))
        if not _has_tie(u_row, u_col):
            return CardinalBimatrix(u_row.tolist(), u_col.tolist())


def sample_baseline(m: int, n: int, seed: Seed) -> OrdinalBimatrix:
    """Draw an ordinal game: every Row column and every Column row is an
    independent uniform permutation (the ranks of a size-1 uniform batch)."""
    u_row, u_col = sample_class_batch(seed.generator(), 1, m, n)
    return OrdinalBimatrix(rank_along(u_row[0], 0).tolist(), rank_along(u_col[0], 1).tolist())


def sample_cardinal(m: int, n: int, distribution: str, seed: Seed) -> CardinalBimatrix:
    """Draw i.i.d. real payoffs for both players from ``uniform`` or ``normal``."""
    return _draw_game(seed.generator(), m, n, GameClass.BASELINE, distribution)


def apply_crra(game: CardinalBimatrix, alpha: float) -> CardinalBimatrix:
    """Concave power transform ``x -> x**alpha`` of all payoffs.

    Requires nonnegative payoffs and ``alpha`` in (0, 1]. The transform is
    strictly increasing, so the ordinal content of the game is unchanged.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    u = np.array([game.u_row, game.u_col])
    if (u < 0).any():
        raise ValueError("CRRA transform requires nonnegative payoffs")
    u_row, u_col = np.power(u, alpha)  # as sample_class_batch applies CRRA
    return CardinalBimatrix(u_row.tolist(), u_col.tolist())


def ordinalize(game: CardinalBimatrix) -> OrdinalBimatrix:
    """Rank form of a cardinal game (1 = worst). Raises on tied payoffs."""
    u_row = np.array(game.u_row)
    u_col = np.array(game.u_col)
    return OrdinalBimatrix(rank_along(u_row, 0).tolist(), rank_along(u_col, 1).tolist())


def sample_nondecreasing_br(m: int, n: int, seed: Seed) -> tuple[int, ...]:
    """Uniform draw from the C(m+n-1, n) nondecreasing maps [n] -> [m],
    0-based: a batch of one from the class sampler's map draw."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return tuple(_nondecreasing_maps(seed.generator(), 1, m, n)[0].tolist())


def sample_class(
    game_class: GameClass, m: int, n: int, seed: Seed, distribution: str = UNIFORM
) -> CardinalBimatrix:
    """Draw a cardinal game from one of the structured classes, as
    :func:`sample_class_batch` builds them."""
    return _draw_game(seed.generator(), m, n, game_class, distribution)


def sample_nplayer(dims: Sequence[int], seed: Seed) -> OrdinalTensorGame:
    """Draw an N-player ordinal game: one independent uniform permutation of
    each player's actions per opponent profile (the ranks of a size-1
    :func:`sample_tensor_batch`)."""
    dims = tuple(int(d) for d in dims)
    payoffs = sample_tensor_batch(seed.generator(), 1, dims)
    return OrdinalTensorGame(dims, tuple(rank_along(u[0], 0).T.tolist() for u in payoffs))
