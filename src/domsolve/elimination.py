"""Pure-strategy strict dominance and iterated elimination.

One scalar reference serves games of any number of players, and a bimatrix
game is its two-player case (paper, Appendix C). :func:`_dominated` reads a
player's ``view``, her rank of each own action at each opponent profile.
:func:`_eliminate` is the one scalar fixpoint; its rule decides what a round
deletes: pure dominance here (:func:`_pure`), mixed dominance and
never-best-response deletion in :mod:`domsolve.rationalizability`. For a
bimatrix the views are ``row_ranks`` and the transpose of ``col_ranks``, and
a player's opponent profiles are the other player's alive actions.

The engine deletes simultaneously: in every round each player removes all of
her currently strictly dominated actions relative to the current surviving
sets. The number of iterations is the number of rounds in which at least one
action was deleted, so a game with no dominated action at all has 0
iterations. Final survivors do not depend on deletion order (see
:func:`iterate_random_order`, used by the test suite to confirm this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import gt
from typing import Sequence

import numpy as np

from .games import (
    COL,
    ROW,
    OrdinalBimatrix,
    OrdinalTensorGame,
    check_action_sets,
)

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EliminationTrace:
    """Round-by-round record of an iterated elimination run.

    ``rounds[r][k]`` is the sorted tuple of player ``k``'s actions removed in
    round ``r``; every recorded round removes at least one action in total.
    """

    rounds: tuple[tuple[tuple[int, ...], ...], ...]
    surviving: tuple[tuple[int, ...], ...]

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def solvable(self) -> bool:
        return all(len(s) == 1 for s in self.surviving)

    def removed(self, player: int) -> tuple[int, ...]:
        """All actions of ``player`` removed over the whole run, in deletion order."""
        out: list[int] = []
        for rnd in self.rounds:
            out.extend(rnd[player])
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "rounds": [
                [
                    {"player": k, "removed": list(removed)}
                    for k, removed in enumerate(rnd)
                    if removed
                ]
                for rnd in self.rounds
            ],
            "surviving": [list(s) for s in self.surviving],
            "iterations": self.iterations,
            "solvable": self.solvable,
        }


def _dominated(view: Matrix, own: Sequence[int], profiles: Sequence[int]) -> list[int]:
    """Actions of ``own`` strictly dominated within ``own`` at ``profiles``.

    ``view[a][q]`` is the player's rank of her own action ``a`` at opponent
    profile ``q``; ``a`` is dominated iff some other action ``b`` of ``own``
    has ``view[b][q] > view[a][q]`` at every profile ``q`` of ``profiles``.
    """
    ranks = {a: [view[a][q] for q in profiles] for a in own}
    out = []
    for a in own:
        ra = ranks[a]
        for b in own:
            if b != a and all(map(gt, ranks[b], ra)):
                out.append(a)
                break
    return out


def _opponent_profiles(
    dims: Sequence[int], alive: Sequence[Sequence[int]]
) -> Sequence[Sequence[int]]:
    """Per player, the flat indices of the opponent profiles made of alive
    actions only.

    Profiles enumerate the other players in increasing player order, first
    player most significant (the order of :class:`OrdinalTensorGame`). With
    two players the index is the other player's action itself.
    """
    if len(dims) == 2:
        return alive[1], alive[0]
    out = []
    for player in range(len(dims)):
        profiles = [0]
        for k, d in enumerate(dims):
            if k != player:
                profiles = [p * d + a for p in profiles for a in alive[k]]
        out.append(profiles)
    return out


def _eliminate(removed, alive: list[list[int]]):
    """Simultaneous-deletion fixpoint from the initial sets ``alive`` (one
    sorted list per player, left unmodified).

    ``removed(alive)`` is the rule: each player's actions a round deletes,
    in their order in ``alive``. Returns (rounds, surviving sets,
    undominated counts), the last being the set sizes the first round keeps.
    """
    alive = list(alive)
    rounds: list[tuple[tuple[int, ...], ...]] = []
    undominated = None
    while True:
        removals = removed(alive)
        if undominated is None:
            undominated = [len(own) - len(gone) for own, gone in zip(alive, removals)]
        if not any(removals):
            return rounds, alive, undominated
        rounds.append(tuple(map(tuple, removals)))
        for k, gone in enumerate(removals):
            if gone:
                alive[k] = [a for a in alive[k] if a not in gone]


def _pure(views: Sequence[Matrix], dims: Sequence[int]):
    """The pure strict-dominance rule of :func:`_eliminate`."""
    return lambda alive: list(map(_dominated, views, alive, _opponent_profiles(dims, alive)))


def _views(
    game: OrdinalBimatrix | OrdinalTensorGame,
) -> tuple[tuple[Matrix, ...], tuple[int, ...]]:
    """Each player's ``view`` of :func:`_dominated`, and the action counts.

    A bimatrix is the two-player case: Row's view is ``row_ranks`` and
    Column's is the transpose of ``col_ranks``.
    """
    if isinstance(game, OrdinalTensorGame):
        return tuple(tuple(zip(*r)) for r in game.ranks), game.dims
    return (game.row_ranks, tuple(zip(*game.col_ranks))), (game.m, game.n)


def _solve(game: OrdinalBimatrix | OrdinalTensorGame):
    """:func:`_eliminate` from every player's full action set."""
    views, dims = _views(game)
    return _eliminate(_pure(views, dims), [list(range(d)) for d in dims])


def _run_elimination(
    row_ranks: Matrix,
    col_ranks: Matrix,
    rows: Sequence[int],
    cols: Sequence[int],
):
    """Bimatrix fixpoint restricted to initial sets ``rows``/``cols``.

    Returns (rounds, surviving_rows, surviving_cols, undominated_row_count,
    undominated_col_count), the U-counts taken from the first round. No
    code in the package calls it: the tests use it as the 2 x n reference,
    and ``perfbench/tracing.py`` wraps this name here and in
    :mod:`enumeration`, which binds it for that purpose only.
    """
    rounds, (rows, cols), (u_r, u_c) = _eliminate(
        _pure((row_ranks, tuple(zip(*col_ranks))), (len(row_ranks), len(col_ranks[0]))),
        [list(rows), list(cols)],
    )
    return rounds, rows, cols, u_r, u_c


def strictly_dominates(
    game: OrdinalBimatrix,
    player: int,
    a: int,
    b: int,
    opp: Sequence[int] | None = None,
) -> bool:
    """True iff ``player``'s action ``a`` beats ``b`` against every opponent
    action in ``opp`` (defaults to the opponent's full set)."""
    if a == b:
        raise ValueError("an action cannot dominate itself")
    _, opp = check_action_sets(game, player, (a, b), opp)
    view = _views(game)[0][player]
    return all(view[a][q] > view[b][q] for q in opp)


def undominated(
    game: OrdinalBimatrix,
    player: int,
    own: Sequence[int] | None = None,
    opp: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Actions in ``own`` not strictly dominated within ``own`` against ``opp``."""
    own, opp = check_action_sets(game, player, own, opp)
    dom = set(_dominated(_views(game)[0][player], own, opp))
    return tuple(a for a in own if a not in dom)


def iterate(game: OrdinalBimatrix | OrdinalTensorGame) -> EliminationTrace:
    """Iterated elimination of strictly dominated actions, all players
    deleting simultaneously each round."""
    rounds, alive, _ = _solve(game)
    return EliminationTrace(
        rounds=tuple(rounds), surviving=tuple(tuple(a) for a in alive)
    )


def iterate_random_order(
    game: OrdinalBimatrix, rng: np.random.Generator
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Delete one uniformly chosen dominated action at a time until none is
    left; returns the surviving sets. Used to confirm order independence."""
    dominated = _pure(*_views(game))
    alive = [list(range(game.m)), list(range(game.n))]
    while True:
        cand = [(k, a) for k, gone in enumerate(dominated(alive)) for a in gone]
        if not cand:
            return tuple(alive[ROW]), tuple(alive[COL])
        player, action = cand[int(rng.integers(len(cand)))]
        alive[player].remove(action)


def count_pure_nash(game: OrdinalBimatrix | OrdinalTensorGame) -> int:
    """Number of cells where each player's action is a best response to the
    others' (ranked top at their profile)."""
    views, dims = _views(game)
    cells = itertools.product(*map(range, dims))
    return sum(
        all(v[a][q] == d for v, a, (q,), d in zip(views, c, _opponent_profiles(dims, [[a] for a in c]), dims))
        for c in cells
    )


@dataclass(frozen=True)
class GameMetrics:
    """The dominance summary of one game: undominated counts ``u_r``/``u_c``
    (one round), surviving counts ``s_r``/``s_c``, iterations and solvability."""

    u_r: int
    u_c: int
    s_r: int
    s_c: int
    iterations: int
    solvable: bool


def metrics(game: OrdinalBimatrix) -> GameMetrics:
    rounds, (rows, cols), (u_r, u_c) = _solve(game)
    return GameMetrics(
        u_r=u_r,
        u_c=u_c,
        s_r=len(rows),
        s_c=len(cols),
        iterations=len(rounds),
        solvable=len(rows) == 1 and len(cols) == 1,
    )


def subgame(game: OrdinalBimatrix, rows: Sequence[int], cols: Sequence[int]) -> OrdinalBimatrix:
    """Restriction of ``game`` to the given actions, with ranks recomputed."""
    rows, cols = check_action_sets(game, ROW, rows, cols)
    rr = np.array(game.row_ranks)[np.ix_(rows, cols)]
    cc = np.array(game.col_ranks)[np.ix_(rows, cols)]
    rr = rr.argsort(axis=0).argsort(axis=0) + 1
    cc = cc.argsort(axis=1).argsort(axis=1) + 1
    return OrdinalBimatrix(rr.tolist(), cc.tolist())


def solvable_subgame(
    game: OrdinalBimatrix, m_target: int, n_target: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row/column subsets of a solvable game forming a solvable subgame of
    the requested size.

    Works greedily: while a side is too large, drop the first action of that
    side that gets eliminated when iterating the current subgame. Deleting an
    action that the elimination process would have removed anyway leaves the
    final survivors (hence solvability) unchanged.
    """
    if not iterate(game).solvable:
        raise ValueError("game is not solvable")
    if not 1 <= m_target <= game.m or not 1 <= n_target <= game.n:
        raise ValueError("target size out of range")
    views, dims = _views(game)
    alive = [list(range(d)) for d in dims]
    targets = (m_target, n_target)
    while len(alive[ROW]) > m_target or len(alive[COL]) > n_target:
        for k in (ROW, COL):
            if len(alive[k]) > targets[k]:
                rounds, _, _ = _eliminate(_pure(views, dims), alive)
                alive[k].remove(next(a for rnd in rounds for a in rnd[k]))
    return tuple(alive[ROW]), tuple(alive[COL])


# :func:`iterate`, under the name the N-player callers use.
iterate_nplayer = iterate


def undominated_nplayer(game: OrdinalTensorGame, player: int) -> tuple[int, ...]:
    """Player's actions undominated in the full game (one round)."""
    if not 0 <= player < game.player_count:
        raise ValueError(f"player must lie in 0..{game.player_count - 1}")
    views, dims = _views(game)
    dom = _pure(views, dims)([list(range(d)) for d in dims])[player]
    return tuple(a for a in range(dims[player]) if a not in dom)
