"""Mixed-strategy strict dominance, rationalizability, and
point-rationalizability.

Whether an action x is strictly dominated by a mixture of the player's other
surviving actions is the sign of the value of the zero-sum "gap game"
D[y, j] = u(y, j) - u(x, j) (alternatives y against opponent actions j).
:func:`solve_gap_games` solves a whole stack of gap games of one shape with a
batched lockstep simplex and reads off both optimal strategies, so every
verdict carries two certificates checked by direct dot products: the
mixture sigma bounds the value from below (it dominates by at least
``lower``) and the opponent mixture tau bounds it from above. An action is
dominated iff ``lower`` exceeds the tolerance; verdicts with a gap inside the
tolerance are conservatively classified "not dominated". A problem whose
certificates do not meet, or that exceeds the pivot cap, is re-solved by the
same simplex in exact ``Fraction`` arithmetic and counted as a fallback; its
certificates must then meet exactly, so a solver malfunction can only
surface as an explicit error, never as a silently wrong certificate.

Mixed dominance and point-rationalizability (iterated deletion of actions
that are never a best response to any surviving pure opponent profile, an
ordinal notion) are deletion rules: the per-game references pass theirs to
:func:`domsolve.elimination._eliminate`, and :func:`rationalizable_batch`,
which takes one normal-form payoff array per player of N, passes its rule
to :func:`domsolve._simkernels._fixpoint`; the batch rule gathers the
remaining checks of every player and decides them in one call per round and
check shape, so players whose widest checks agree share a call.
With N >= 3 a mixture must win at every opponent profile, so the survivors
are the best responses to correlated beliefs; rationalizability with
independent beliefs differs and is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _simkernels as kernels
from .elimination import _dominated, _eliminate, _opponent_profiles, _views, iterate
from .exact import CapacityError
from .games import COL, ROW, CardinalBimatrix, OrdinalBimatrix, _action_index, check_action_sets, ordinalize
from .games import OrdinalTensorGame

_VERIFY_SLACK = 1e-9
_PIVOT_EPS = 1e-12
_PIVOTS_PER_DIMENSION = 10
# Largest k + p of a gap game the exact fallback solves: a random 32 x 32
# one takes 2.3 s (median of 5; 0.27 s at 19 x 20). The exact pivot cap,
# comb(k + p, k), fits an int64 up to k + p = 66.
EXACT_GAP_LIMIT = 64


class LPSolveError(RuntimeError):
    """The dominance LP failed or its certificate did not re-verify."""


@dataclass(frozen=True)
class MixedCertificate:
    """A mixture strictly dominating some action.

    ``support[i]`` carries probability ``weights[i]``; ``margin`` is the
    re-verified minimum payoff gap over the opponent set used in the check.
    """

    support: tuple[int, ...]
    weights: tuple[float, ...]
    margin: float

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must align")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.margin <= 0:
            raise ValueError("margin must be positive")


@dataclass(frozen=True)
class RationalizabilityReport:
    """Surviving sets under the three nested solution concepts.

    Per player: point-rationalizable ⊆ rationalizable ⊆ pure survivors.
    """

    rationalizable: tuple[tuple[int, ...], tuple[int, ...]]
    point_rationalizable: tuple[tuple[int, ...], tuple[int, ...]]
    pure_survivors: tuple[tuple[int, ...], tuple[int, ...]]
    mixed_solvable: bool
    mixed_iterations: int

    def __post_init__(self):
        for k in (ROW, COL):
            inner = set(self.point_rationalizable[k])
            mid = set(self.rationalizable[k])
            outer = set(self.pure_survivors[k])
            if not (inner <= mid <= outer):
                raise ValueError("inclusion chain violated")


def _payoff_view(game: CardinalBimatrix, player: int) -> np.ndarray:
    """(own actions) x (opponent actions) payoff matrix for ``player``."""
    if player == ROW:
        return np.array(game.u_row, dtype=float)
    return np.array(game.u_col, dtype=float).T


def _default_tol(blocks: np.ndarray) -> np.ndarray:
    """1e-9 times the largest absolute payoff of each (..., k, p) block,
    and at least 1e-9."""
    return 1e-9 * np.maximum(1.0, np.abs(blocks).max(axis=(-2, -1), initial=0.0))


@dataclass(frozen=True)
class GapSolution:
    """Both optimal strategies of a stack of gap games, as certificates.

    ``sigma[b]`` mixes the alternatives (the rows of ``gaps[b]``) and
    ``lower[b] = min_j (sigma D)_j``; ``upper[b] = max_y (D tau)_y`` for the
    opponent mixture tau. Both are direct dot products, so
    ``lower <= value <= upper`` holds whatever the solver did.
    ``fallback[b]`` marks problems that :func:`linprog` solved exactly.
    """

    sigma: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fallback: np.ndarray


def solve_gap_games(gaps: np.ndarray, sizes: np.ndarray | None = None) -> GapSolution:
    """Solve the zero-sum games ``gaps`` (shape (B, k, p), maximizer on the
    k rows) together.

    Each game is shifted and scaled to entries in [1, 3] (:func:`_shifted`),
    so max 1.y s.t. A y <= 1, y >= 0 starts feasible from the slack basis
    and needs no phase 1. All unfinished problems pivot in lockstep under
    Bland's rule; the slack duals give sigma and y gives tau. The problems
    that hit their pivot cap, or whose certificates disagree by more than
    the verification slack, are re-solved exactly by one :func:`linprog`
    call. The cap is ``_PIVOTS_PER_DIMENSION`` times the problem's k + p; a
    caller that pads problems passes their unpadded k + p as ``sizes``.
    """
    gaps = np.asarray(gaps, dtype=float)
    batch, k, p = gaps.shape
    if sizes is None:
        sizes = np.full(batch, k + p)
    shifted, scale = _shifted(gaps)
    duals, primal, capped = _lockstep_simplex(shifted, _PIVOTS_PER_DIMENSION * sizes)
    sigma = _normalized(duals)
    lower, upper = _certificate_bounds(gaps, sigma, _normalized(primal))
    fallback = capped | (np.abs(upper - lower) > _VERIFY_SLACK * np.maximum(1.0, scale))
    if fallback.any():
        sigma[fallback], lower[fallback], upper[fallback] = linprog(gaps[fallback])
    return GapSolution(sigma=sigma, lower=lower, upper=upper, fallback=fallback)


def linprog(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float sigma, lower and upper (as in :class:`GapSolution`) of a stack
    of gap games (B, k, p), solved exactly: float entries are dyadic, so the
    games run as ``Fraction``s through :func:`_shifted` and
    :func:`_lockstep_simplex`, where Bland's rule cannot cycle and the pivot
    cap is the number of bases. Raises :class:`LPSolveError` unless lower ==
    upper exactly, and :class:`CapacityError` for k + p above
    ``EXACT_GAP_LIMIT`` before any ``Fraction`` is built."""
    batch, k, p = gaps.shape
    if k + p > EXACT_GAP_LIMIT:
        raise CapacityError(f"the exact gap-game solve supports k + p <= {EXACT_GAP_LIMIT}, not {k + p}")
    exact = np.frompyfunc(Fraction, 1, 1)(gaps)
    duals, primal, _ = _lockstep_simplex(_shifted(exact)[0], np.full(batch, math.comb(k + p, k)))
    sigma = _normalized(duals)
    lower, upper = _certificate_bounds(exact, sigma, _normalized(primal))
    if (lower != upper).any():
        raise LPSolveError("exact certificates do not meet")
    return sigma.astype(float), lower.astype(float), upper.astype(float)


def _shifted(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each (k, p) game over its scale (largest |entry|, returned too) + 2."""
    scale = np.abs(gaps).max(axis=(1, 2), initial=0)
    return gaps / np.where(scale > 0, scale, 1)[:, None, None] + 2, scale


def _lockstep_simplex(
    a: np.ndarray, caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max 1.y s.t. a[b] y <= 1, y >= 0 for a stack of positive (k, p)
    matrices, problem b pivoting at most ``caps[b]`` times. Returns the
    slack duals (B, k), the primal y (B, p) and a mask of problems left
    unsolved (pivot cap or a failed ratio test). Float64 ``a`` pivots with
    tolerance ``_PIVOT_EPS``, an object array of ``Fraction``s exactly."""
    batch, k, p = a.shape
    width = p + k
    eps = _PIVOT_EPS if a.dtype.kind == "f" else 0
    tableau = np.zeros((batch, k + 1, width + 1), dtype=a.dtype)
    tableau[:, :k, :p] = a
    tableau[:, :k, p:width] = np.eye(k, dtype=int)
    tableau[:, :k, width] = 1
    tableau[:, k, :p] = -1
    basis = np.tile(np.arange(p, width), (batch, 1))
    ids = np.arange(batch)
    duals = np.zeros((batch, k), dtype=a.dtype)
    primal = np.zeros((batch, p), dtype=a.dtype)
    unsolved = np.ones(batch, dtype=bool)
    rows = ids
    most = int(caps.max(initial=0))
    least = caps.min(initial=most)
    for pivots in range(most + 1):
        # Bland's rule: the lowest improving column enters; among the rows
        # tied at the minimum ratio, the one with the lowest basic variable
        # leaves. No improving column (argmax lands on a False) is optimal.
        improving = tableau[:, k, :width] < -eps
        entering = improving.argmax(axis=1)
        optimal = ~improving[rows, entering]
        if optimal.any():
            done = ids[optimal]
            unsolved[done] = False
            duals[done] = tableau[optimal, k, p:width]
            values = np.zeros((done.size, width), dtype=a.dtype)
            values[np.arange(done.size)[:, None], basis[optimal]] = tableau[optimal, :k, width]
            primal[done] = values[:, :p]
        column = tableau[rows, :, entering]  # the objective row's entry last
        ratio = np.full((rows.size, k), np.inf, dtype=a.dtype)
        np.divide(np.maximum(tableau[:, :k, width], 0), column[:, :k], out=ratio, where=column[:, :k] > eps)
        best = ratio[rows, ratio.argmin(axis=1)]
        keep = ~optimal & (best < np.inf)
        if pivots >= least:
            keep &= caps[ids] > pivots
        if not keep.all():
            if not keep.any():
                break
            tableau, basis, ids = tableau[keep], basis[keep], ids[keep]
            entering, column, ratio, best = entering[keep], column[keep], ratio[keep], best[keep]
            rows = np.arange(ids.size)
        tied = ratio <= best[:, None] + eps
        leaving = np.where(tied, basis, width).argmin(axis=1)
        pivot_row = tableau[rows, leaving] / column[rows, leaving][:, None]
        tableau -= column[:, :, None] * pivot_row[:, None, :]
        tableau[rows, leaving] = pivot_row
        basis[rows, leaving] = entering
    return duals, primal, unsolved


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Rows clipped to >= 0 and scaled to sum 1 (uniform where all are 0)."""
    weights = np.clip(weights, 0, None)
    total = weights.sum(axis=1, keepdims=True)
    out = np.full_like(weights, 1.0 / weights.shape[1])
    np.divide(weights, total, out=out, where=total > 0)
    return out


def _certificate_bounds(
    gaps: np.ndarray, sigma: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    lower = (sigma[:, :, None] * gaps).sum(axis=1).min(axis=1)
    upper = (gaps * tau[:, None, :]).sum(axis=2).max(axis=1)
    return lower, upper


def is_mixed_dominated(
    game: CardinalBimatrix,
    player: int,
    action: int,
    own: tuple[int, ...] | None = None,
    opp: tuple[int, ...] | None = None,
    tol: float | None = None,
) -> MixedCertificate | None:
    """Certificate that ``action`` is strictly dominated by a mixture of the
    other actions in ``own`` against ``opp``, or None.

    Decides max eps s.t. sigma . u(., j) >= u(action, j) + eps for all j in
    opp, sigma a distribution over own minus {action}, as a batch of one
    for :func:`solve_gap_games`.
    """
    own, opp = check_action_sets(game, player, own, opp)
    if _action_index(action) not in own:
        raise ValueError("action must belong to own set")
    if len(own) < 2:
        raise ValueError("need at least two own actions")
    payoffs = _payoff_view(game, player)
    others = [k for k in own if k != action]
    gaps = payoffs[np.ix_(others, opp)] - payoffs[action, list(opp)]
    if tol is None:
        tol = _default_tol(payoffs[np.ix_(own, opp)])
    solution = solve_gap_games(gaps[None])
    margin = float(solution.lower[0])
    if margin <= tol:
        return None
    return MixedCertificate(
        support=tuple(others),
        weights=tuple(float(w) for w in solution.sigma[0]),
        margin=margin,
    )


def _best_response_actions(payoffs: np.ndarray, own: list[int], opp: list[int]) -> set[int]:
    """Actions of ``own`` that are a best response to some profile of ``opp``."""
    sub = payoffs[np.ix_(own, opp)]
    return {own[i] for i in sub.argmax(axis=0)}


def rationalizable_sets(game: CardinalBimatrix) -> RationalizabilityReport:
    """Iterated simultaneous deletion of mixed-dominated actions, plus the
    pure and point-rationalizable sets of the same game.

    A best response to a surviving pure opponent action is never strictly
    dominated, so those actions skip the LP; purely dominated actions are
    removed without an LP as well.
    """
    views = (_payoff_view(game, ROW), _payoff_view(game, COL))
    pure_views = [payoffs.tolist() for payoffs in views]

    def removed(alive):
        out = []
        for player in (ROW, COL):
            own, opp = alive[player], alive[1 - player]
            # a lone action is a best response, so no LP sees |own| < 2
            safe = _best_response_actions(views[player], own, opp)
            pure = set(_dominated(pure_views[player], own, opp))
            out.append([
                a for a in own
                if a not in safe and (a in pure or is_mixed_dominated(game, player, a, tuple(own), tuple(opp)))
            ])
        return out

    rounds, alive, _ = _eliminate(removed, [list(range(game.m)), list(range(game.n))])
    ordinal = ordinalize(game)
    return RationalizabilityReport(
        rationalizable=(tuple(alive[ROW]), tuple(alive[COL])),
        point_rationalizable=point_rationalizable_sets(ordinal),
        pure_survivors=iterate(ordinal).surviving,
        mixed_solvable=len(alive[ROW]) == 1 and len(alive[COL]) == 1,
        mixed_iterations=len(rounds),
    )


def rationalizable_batch(*payoffs: np.ndarray) -> dict:
    """Iterated simultaneous deletion of mixed-dominated actions in a batch
    of N-player games, from one (B, m_0, ..., m_{N-1}) payoff array per
    player; a bimatrix is ``(u_row, u_col)``.

    Same shortcuts and verdicts as :func:`rationalizable_sets`, game by game,
    but one round of every unfinished game runs together: best responses
    and pure dominance are masked array operations (:func:`_round_checks`),
    and the remaining checks of all players go to :func:`solve_gap_games` in
    one call per round and check shape (:func:`_decide`); with N >= 3 that
    keeps the best responses to correlated beliefs. Returns the surviving masks under
    ``"rationalizable"``, the per-game round counts under ``"iterations"``,
    and how many checks needed a solver (``"lp_checks"``) and the exact
    fallback (``"lp_fallbacks"``).
    """
    stacks = kernels._stacks(payoffs)  # (B, own actions, opponent profiles)
    beaten = [kernels.outrank_bits(s.transpose(0, 2, 1)) for s in stacks]  # once per batch
    solved = {"lp_checks": 0, "lp_fallbacks": 0}

    def removed(sel, live):
        checks = [
            _round_checks(s[sel], live[k], kernels._profiles_alive(live, k), beaten[k][sel])
            for k, s in enumerate(stacks)
        ]
        shapes: dict = {}
        for c in checks:
            if c.games.size:
                shapes.setdefault(c.shape, []).append(c)
        for group in shapes.values():
            fallback = _decide(group)
            solved["lp_checks"] += fallback.size
            solved["lp_fallbacks"] += int(fallback.sum())
        return [c.gone for c in checks]

    alive, rounds = kernels._fixpoint(payoffs[0].shape[0], payoffs[0].shape[1:], removed)
    return {"rationalizable": tuple(alive), "iterations": rounds, **solved}


class _RoundChecks(NamedTuple):
    """One player's part of a round of payoff stacks ``payoffs`` (B, K, Q):
    the (B, K) mask ``gone`` of the actions it deletes, pure dominance
    first and the solver's verdicts written in later, and the C checks that
    need a solver: action ``targets`` of game ``games`` against the other
    alive own actions (``alternatives``, (C, K)) and the alive opponent
    profiles (``profiles``, (C, Q)), with tolerance ``tol``."""

    gone: np.ndarray
    payoffs: np.ndarray
    games: np.ndarray
    targets: np.ndarray
    alternatives: np.ndarray
    profiles: np.ndarray
    tol: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """The most alternatives and profiles of a check (C >= 1)."""
        return int(self.alternatives.sum(axis=1).max()), int(self.profiles.sum(axis=1).max())


def _round_checks(payoffs: np.ndarray, own: np.ndarray, opp: np.ndarray, beaten: np.ndarray) -> _RoundChecks:
    """Pure dominance and the remaining checks among ``own`` (B, K) against
    ``opp`` (B, Q) for payoff stacks (B, K, Q). ``beaten`` holds the
    payoffs' outrank bitsets (ties do not outrank), which decide pure
    dominance; a best response to an alive profile is never dominated, so
    it gets no check."""
    gone = kernels._dominated(payoffs.transpose(0, 2, 1), own, opp, beaten)
    games, targets = np.nonzero(kernels.never_best_responses(payoffs, own, opp) & ~gone)
    own, opp = own[games], opp[games]
    tol = _default_tol(np.where(own[:, :, None] & opp[:, None, :], payoffs[games], 0.0))
    alternatives = own & (np.arange(own.shape[1]) != targets[:, None])
    return _RoundChecks(gone, payoffs, games, targets, alternatives, opp, tol)


def _decide(checks: list[_RoundChecks]) -> np.ndarray:
    """Decide the checks of players whose widest checks have one shape in
    one :func:`solve_gap_games` call: write each verdict (margin above the
    tolerance) into its ``gone`` mask, and return the fallback flags. Each
    check is padded to that shape (:func:`_padded`), never past its own
    player's widest, and keeps the pivot cap of its unpadded size. Padding
    to another player's wider shape measured slower on non-square games
    than a call of its own."""
    gaps = []
    for c in checks:
        rows, cols = _padded(c.alternatives), _padded(c.profiles)
        sub = c.payoffs[c.games[:, None, None], rows[:, :, None], cols[:, None, :]]
        gaps.append(sub - c.payoffs[c.games[:, None], c.targets[:, None], cols][:, None, :])
    sizes = np.concatenate([c.alternatives.sum(axis=1) + c.profiles.sum(axis=1) for c in checks])
    solution = solve_gap_games(np.concatenate(gaps), sizes=sizes)
    start = 0
    for c in checks:
        stop = start + c.games.size
        c.gone[c.games, c.targets] = solution.lower[start:stop] > c.tol
        start = stop
    return solution.fallback


def _padded(mask: np.ndarray) -> np.ndarray:
    """Each row's set indices in order, padded to the longest with the
    first. Copies of a gap game's first alternative and first opponent
    profile change neither its value nor its scaling, nor Bland's pivots: a
    copied column improves only when its lower-indexed original does, and a
    copied row ties its original, which leaves first."""
    order = np.argsort(~mask, axis=1, kind="stable")[:, : mask.sum(axis=1).max()]
    return np.where(np.take_along_axis(mask, order, axis=1), order, order[:, :1])


def point_rationalizable_sets(game: OrdinalBimatrix | OrdinalTensorGame) -> tuple[tuple[int, ...], ...]:
    """Iterated simultaneous deletion of actions that are not a best response
    to any surviving pure opponent profile, until a fixpoint."""
    views, dims = _views(game)
    views = [np.array(v) for v in views]

    def removed(alive):
        profiles = _opponent_profiles(dims, alive)
        best = [_best_response_actions(v, own, opp) for v, own, opp in zip(views, alive, profiles)]
        return [[a for a in own if a not in b] for own, b in zip(alive, best)]

    _, alive, _ = _eliminate(removed, [list(range(d)) for d in dims])
    return tuple(map(tuple, alive))
