"""Game representations and random generators.

Two-player games come in two flavors: :class:`OrdinalBimatrix` stores each
player's preference ranks directly (Row is ranked within every column,
Column within every row; larger rank = better), and
:class:`CardinalBimatrix` stores real payoffs. Dominance analysis only ever
depends on the ordinal content, so cardinal games exist for the generators
that need a total order over a whole matrix (symmetric / potential /
constant-sum constructions) and for mixed-strategy dominance.

All samplers are pure functions of their arguments and a :class:`Seed`;
repeated calls with the same seed return identical objects. Action indices
are 0-based throughout.
"""

from __future__ import annotations

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

_MAX_TIE_RESAMPLES = 64


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

    def seed_sequence(self, *path: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master, spawn_key=(self.stream, *path)
        )

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


def sample_baseline(m: int, n: int, seed: Seed) -> OrdinalBimatrix:
    """Draw an ordinal game: every Row column and every Column row is an
    independent uniform permutation."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    rng = seed.generator()
    row_ranks = np.empty((m, n), dtype=np.int64)
    for j in range(n):
        row_ranks[:, j] = rng.permutation(m) + 1
    col_ranks = np.empty((m, n), dtype=np.int64)
    for i in range(m):
        col_ranks[i, :] = rng.permutation(n) + 1
    return OrdinalBimatrix(row_ranks.tolist(), col_ranks.tolist())


def _draw_matrix(
    rng: np.random.Generator, shape: tuple[int, ...], distribution: str
) -> np.ndarray:
    if distribution == UNIFORM:
        return rng.random(shape)
    if distribution == NORMAL:
        return rng.standard_normal(shape)
    raise ValueError(f"unknown distribution {distribution!r}")


def _tie_mask(u: np.ndarray, axis: int) -> np.ndarray:
    """Entries that collide with another entry along ``axis`` (0: within a
    column, 1: within a row) of an m x n matrix, or of each matrix of a
    stack indexed by the leading axes."""
    if axis == 0:
        eq = u[..., None, :, :] == u[..., :, None, :]
        eq &= ~np.eye(u.shape[-2], dtype=bool)[:, :, None]
        return eq.any(axis=-3)
    eq = u[..., :, :, None] == u[..., :, None, :]
    eq &= ~np.eye(u.shape[-1], dtype=bool)
    return eq.any(axis=-2)


def _resample_ties(
    rng: np.random.Generator, u: np.ndarray, axis: int, distribution: str
) -> np.ndarray:
    # Ties have probability ~0 for float64 draws; resampling the offending
    # entries preserves the no-tie conditional law.
    for _ in range(_MAX_TIE_RESAMPLES):
        mask = _tie_mask(u, axis)
        if not mask.any():
            return u
        fresh = _draw_matrix(rng, u.shape, distribution)
        u = np.where(mask, fresh, u)
    raise RuntimeError("could not break payoff ties")  # pragma: no cover


def sample_cardinal(m: int, n: int, distribution: str, seed: Seed) -> CardinalBimatrix:
    """Draw i.i.d. real payoffs for both players from ``uniform`` or ``normal``."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
    rng = seed.generator()
    u_row = _resample_ties(rng, _draw_matrix(rng, (m, n), distribution), 0, distribution)
    u_col = _resample_ties(rng, _draw_matrix(rng, (m, n), distribution), 1, distribution)
    return CardinalBimatrix(u_row.tolist(), u_col.tolist())


def apply_crra(game: CardinalBimatrix, alpha: float) -> CardinalBimatrix:
    """Concave power transform ``x -> x**alpha`` of all payoffs.

    Requires nonnegative payoffs and ``alpha`` in (0, 1]. The transform is
    strictly increasing, so the ordinal content of the game is unchanged.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    for matrix in (game.u_row, game.u_col):
        for row in matrix:
            if any(x < 0 for x in row):
                raise ValueError("CRRA transform requires nonnegative payoffs")
    pow_ = lambda rows: [[x**alpha for x in row] for row in rows]
    return CardinalBimatrix(pow_(game.u_row), pow_(game.u_col))


def ordinalize(game: CardinalBimatrix) -> OrdinalBimatrix:
    """Rank form of a cardinal game (1 = worst). Raises on tied payoffs."""
    u_row = np.array(game.u_row)
    u_col = np.array(game.u_col)
    return OrdinalBimatrix(rank_along(u_row, 0).tolist(), rank_along(u_col, 1).tolist())


def sample_nondecreasing_br(m: int, n: int, seed: Seed | None = None,
                            rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """Uniform draw from the C(m+n-1, n) nondecreasing maps [n] -> [m].

    Classic stars-and-bars bijection: a sorted n-subset ``c`` of
    ``{0, .., m+n-2}`` maps to ``b_i = c_i - i``. Returns 0-based values.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if rng is None:
        if seed is None:
            raise ValueError("either seed or rng is required")
        rng = seed.generator()
    chosen = np.sort(rng.permutation(m + n - 1)[:n])
    return tuple(int(c - i) for i, c in enumerate(chosen))


def _force_column_argmax(u: np.ndarray, best_rows: Sequence[int]) -> np.ndarray:
    # Swap each column's maximum into the prescribed row. By exchangeability
    # this realizes the distribution of an i.i.d. matrix conditioned on its
    # column-argmax pattern.
    out = u.copy()
    for j, b in enumerate(best_rows):
        top = int(out[:, j].argmax())
        out[[top, b], j] = out[[b, top], j]
    return out


def sample_class(
    game_class: GameClass, m: int, n: int, seed: Seed, distribution: str = UNIFORM
) -> CardinalBimatrix:
    """Draw a cardinal game from one of the structured classes.

    A single payoff matrix drives the symmetric ((R, R^T)), potential
    ((R, R)) and constant-sum ((R, 1-R)) constructions. The strategic
    complementarity classes condition each payoff matrix on having a
    nondecreasing best-response function; this is realized directly by
    drawing the best-response map uniformly over nondecreasing functions and
    placing each column's (row's) maximum accordingly, which matches the
    conditional law without rejection.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return _sample_class_impl(seed.generator(), game_class, m, n, distribution)


def _sample_class_impl(
    rng: np.random.Generator, game_class: GameClass, m: int, n: int, distribution: str
) -> CardinalBimatrix:
    if game_class.requires_square and m != n:
        raise ValueError(f"{game_class.value} requires m = n")

    if game_class is GameClass.BASELINE:
        u_row = _resample_ties(rng, _draw_matrix(rng, (m, n), distribution), 0, distribution)
        u_col = _resample_ties(rng, _draw_matrix(rng, (m, n), distribution), 1, distribution)
        return CardinalBimatrix(u_row.tolist(), u_col.tolist())

    if game_class in (GameClass.SYMMETRIC, GameClass.POTENTIAL, GameClass.CONSTANT_SUM):
        r = rng.random((m, n))
        while len(set(r.ravel().tolist())) != m * n:  # pragma: no cover
            r = rng.random((m, n))
        if game_class is GameClass.SYMMETRIC:
            u_col = r.T
        elif game_class is GameClass.POTENTIAL:
            u_col = r
        else:
            u_col = 1.0 - r
        return CardinalBimatrix(r.tolist(), u_col.tolist())

    # Strategic complementarities: Row's best response b: [n] -> [m] and
    # (independently) Column's d: [m] -> [n], both nondecreasing.
    b = sample_nondecreasing_br(m, n, rng=rng)
    u_row = _force_column_argmax(rng.random((m, n)), b)
    if game_class is GameClass.STRAT_COMPLEMENTS_SYM:
        u_col = u_row.T
    else:
        d = sample_nondecreasing_br(n, m, rng=rng)
        u_col = _force_column_argmax(rng.random((n, m)), d).T
    return CardinalBimatrix(u_row.tolist(), u_col.tolist())


def sample_nplayer(dims: Sequence[int], seed: Seed) -> OrdinalTensorGame:
    """Draw an N-player ordinal game: one independent uniform permutation of
    each player's actions per opponent profile."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("need >= 2 players, each with >= 1 action")
    rng = seed.generator()
    ranks = []
    for k, mk in enumerate(dims):
        profiles = opponent_profile_count(dims, k)
        ranks.append(
            tuple(tuple(int(x) + 1 for x in rng.permutation(mk)) for _ in range(profiles))
        )
    return OrdinalTensorGame(dims, tuple(ranks))
