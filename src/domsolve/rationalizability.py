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
certificates do not meet, or that exceeds the pivot cap, is re-solved with
HiGHS (``scipy.optimize.linprog``, imported on first use) and counted as a
fallback; a solver malfunction can only surface as an explicit error, never
as a silently wrong certificate.

:func:`rationalizable_sets` is the per-game reference; the Monte Carlo
harness runs :func:`rationalizable_batch`, which decides one elimination
round of every game of a batch together.

Point-rationalizability (iterated deletion of actions that are never a best
response to any surviving pure opponent action) is an ordinal notion and
operates on :class:`OrdinalBimatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _simkernels as kernels
from .elimination import _dominated, iterate
from .games import COL, ROW, CardinalBimatrix, OrdinalBimatrix, _action_index, check_action_sets, ordinalize

_VERIFY_SLACK = 1e-9
_FALLBACK_VERIFY_SLACK = 1e-6  # HiGHS solves to its own 1e-7 feasibility tolerance
_PIVOT_EPS = 1e-12
_PIVOTS_PER_DIMENSION = 10


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


def _default_tol(payoffs: np.ndarray) -> float:
    scale = float(np.abs(payoffs).max()) if payoffs.size else 1.0
    return 1e-9 * max(1.0, scale)


@dataclass(frozen=True)
class GapSolution:
    """Both optimal strategies of a stack of gap games, as certificates.

    ``sigma[b]`` mixes the alternatives (the rows of ``gaps[b]``) and
    ``lower[b] = min_j (sigma D)_j``; ``upper[b] = max_y (D tau)_y`` for the
    opponent mixture tau. Both are direct dot products, so
    ``lower <= value <= upper`` holds whatever the solver did.
    ``fallback[b]`` marks problems that HiGHS solved.
    """

    sigma: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fallback: np.ndarray


def solve_gap_games(gaps: np.ndarray) -> GapSolution:
    """Solve the zero-sum games ``gaps`` (shape (B, k, p), maximizer on the
    k rows) together.

    Each game is shifted and scaled to entries in [1, 3], so
    max 1.y s.t. A y <= 1, y >= 0 starts feasible from the slack basis and
    needs no phase 1. All unfinished problems pivot in lockstep under
    Bland's rule; the slack duals give sigma and y gives tau. A problem that
    hits the pivot cap, or whose certificates disagree by more than the
    verification slack, is re-solved with HiGHS.
    """
    gaps = np.asarray(gaps, dtype=float)
    batch, k, p = gaps.shape
    scale = np.abs(gaps).max(axis=(1, 2), initial=0.0)
    shifted = gaps / np.where(scale > 0, scale, 1.0)[:, None, None] + 2.0
    duals, primal, capped = _lockstep_simplex(shifted, _PIVOTS_PER_DIMENSION * (k + p))
    sigma = _normalized(duals)
    lower, upper = _certificate_bounds(gaps, sigma, _normalized(primal))
    slack = _VERIFY_SLACK * np.maximum(1.0, scale)
    fallback = capped | (np.abs(upper - lower) > slack)
    for b in np.flatnonzero(fallback):
        sigma_b, tau_b = _highs_gap_lp(gaps[b])
        lo, up = _certificate_bounds(gaps[b : b + 1], sigma_b[None], tau_b[None])
        if lo[0] > up[0] + _FALLBACK_VERIFY_SLACK * max(1.0, scale[b]):
            raise LPSolveError("certificate failed re-verification")
        sigma[b], lower[b], upper[b] = sigma_b, lo[0], up[0]
    return GapSolution(sigma=sigma, lower=lower, upper=upper, fallback=fallback)


def _lockstep_simplex(
    a: np.ndarray, max_pivots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max 1.y s.t. a[b] y <= 1, y >= 0 for a stack of positive (k, p)
    matrices. Returns the slack duals (B, k), the primal y (B, p) and a
    mask of problems left unsolved (pivot cap or a failed ratio test)."""
    batch, k, p = a.shape
    width = p + k
    tableau = np.zeros((batch, k + 1, width + 1))
    tableau[:, :k, :p] = a
    tableau[:, :k, p:width] = np.eye(k)
    tableau[:, :k, width] = 1.0
    tableau[:, k, :p] = -1.0
    basis = np.tile(np.arange(p, width), (batch, 1))
    ids = np.arange(batch)
    duals = np.zeros((batch, k))
    primal = np.zeros((batch, p))
    unsolved = np.ones(batch, dtype=bool)
    for pivots in range(max_pivots + 1):
        improving = tableau[:, k, :width] < -_PIVOT_EPS
        optimal = ~improving.any(axis=1)
        if optimal.any():
            done = ids[optimal]
            unsolved[done] = False
            duals[done] = tableau[optimal, k, p:width]
            values = np.zeros((done.size, width))
            np.put_along_axis(values, basis[optimal], tableau[optimal, :k, width], axis=1)
            primal[done] = values[:, :p]
        if pivots == max_pivots:
            break
        # Bland's rule: the lowest improving column enters; among the rows
        # tied at the minimum ratio, the one with the lowest basic variable
        # leaves.
        entering = improving.argmax(axis=1)
        rows = np.arange(ids.size)
        column = tableau[rows, :k, entering]
        rhs = np.maximum(tableau[:, :k, width], 0.0)
        positive = column > _PIVOT_EPS
        ratio = np.where(positive, rhs / np.where(positive, column, 1.0), np.inf)
        best = ratio.min(axis=1)
        keep = ~optimal & np.isfinite(best)
        if not keep.any():
            break
        tableau, basis, ids = tableau[keep], basis[keep], ids[keep]
        entering, ratio, best = entering[keep], ratio[keep], best[keep]
        rows = np.arange(ids.size)
        tied = ratio <= best[:, None] + _PIVOT_EPS
        leaving = np.where(tied, basis, width).argmin(axis=1)
        pivot_row = tableau[rows, leaving] / tableau[rows, leaving, entering][:, None]
        tableau -= tableau[rows, :, entering][:, :, None] * pivot_row[:, None, :]
        tableau[rows, leaving] = pivot_row
        basis[rows, leaving] = entering
    return duals, primal, unsolved


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Rows clipped to >= 0 and scaled to sum 1 (uniform where all are 0)."""
    weights = np.clip(weights, 0.0, None)
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first fallback: scipy
    takes about a second to import and nothing else needs it."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _highs_gap_lp(gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HiGHS solution of one gap game: max eps s.t. sigma . D_j >= eps for
    every column j, sigma a distribution. Returns sigma and the opponent
    mixture from the constraint duals."""
    k, p = gap.shape
    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize eps
    res = linprog(
        c,
        A_ub=np.hstack([-gap.T, np.ones((p, 1))]),
        b_ub=np.zeros(p),
        A_eq=np.hstack([np.ones((1, k)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise LPSolveError(
            f"dominance LP failed (status {res.status}): {res.message}"
        )
    sigma = _normalized(res.x[None, :k])[0]
    tau = _normalized(-res.ineqlin.marginals[None, :])[0]
    return sigma, tau


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
    """Actions of ``own`` that are a best response to some action of ``opp``."""
    sub = payoffs[np.ix_(own, opp)]
    return {own[i] for i in sub.argmax(axis=0)}


def rationalizable_sets(
    game: CardinalBimatrix, tol: float | None = None
) -> RationalizabilityReport:
    """Iterated simultaneous deletion of mixed-dominated actions, plus the
    pure and point-rationalizable sets of the same game.

    A best response to a surviving pure opponent action is never strictly
    dominated, so those actions skip the LP; purely dominated actions are
    removed without an LP as well.
    """
    views = (_payoff_view(game, ROW), _payoff_view(game, COL))
    pure_views = [payoffs.tolist() for payoffs in views]
    alive = [list(range(game.m)), list(range(game.n))]
    rounds = 0
    while True:
        removals = []
        for player in (ROW, COL):
            own, opp = alive[player], alive[1 - player]
            # a lone action is a best response, so no LP sees |own| < 2
            safe = _best_response_actions(views[player], own, opp)
            pure = set(_dominated(pure_views[player], own, opp))
            removed = []
            for action in own:
                if action in safe:
                    continue
                if action in pure or is_mixed_dominated(
                    game, player, action, tuple(own), tuple(opp), tol
                ):
                    removed.append(action)
            removals.append(removed)
        if not any(removals):
            break
        rounds += 1
        alive = [[a for a in own if a not in gone] for own, gone in zip(alive, removals)]
    ordinal = ordinalize(game)
    return RationalizabilityReport(
        rationalizable=(tuple(alive[ROW]), tuple(alive[COL])),
        point_rationalizable=point_rationalizable_sets(ordinal),
        pure_survivors=iterate(ordinal).surviving,
        mixed_solvable=len(alive[ROW]) == 1 and len(alive[COL]) == 1,
        mixed_iterations=rounds,
    )


def rationalizable_batch(u_row: np.ndarray, u_col: np.ndarray) -> dict:
    """Iterated simultaneous deletion of mixed-dominated actions in a batch
    of games with payoff stacks ``u_row``, ``u_col`` of shape (B, m, n).

    Same shortcuts and verdicts as :func:`rationalizable_sets`, game by game,
    but one round of every unfinished game runs together: best responses and
    pure dominance are masked array operations, and the remaining checks of
    a round go to :func:`solve_gap_games` in one call per (alternatives,
    opponent actions) shape. Returns the surviving masks under
    ``"rationalizable"``, the per-game round counts under ``"iterations"``,
    and how many checks needed a solver (``"lp_checks"``) and HiGHS
    (``"lp_fallbacks"``).
    """
    batch, m, n = u_row.shape
    views = (u_row, u_col.transpose(0, 2, 1))  # (B, own actions, opponent actions)
    beaten = [kernels.outrank_bits(v.transpose(0, 2, 1)) for v in views]  # once per batch
    alive = [np.ones((batch, m), dtype=bool), np.ones((batch, n), dtype=bool)]
    rounds = np.zeros(batch, dtype=np.int64)
    checks = fallbacks = 0
    idx = np.arange(batch)
    while idx.size:
        removed = []
        for player in (ROW, COL):
            gone, fallback = _round_removals(
                views[player][idx],
                alive[player][idx],
                alive[1 - player][idx],
                beaten[player][idx],
            )
            removed.append(gone)
            checks += fallback.size
            fallbacks += int(fallback.sum())
        progressed = removed[ROW].any(axis=1) | removed[COL].any(axis=1)
        rounds[idx] += progressed
        alive[ROW][idx] &= ~removed[ROW]
        alive[COL][idx] &= ~removed[COL]
        idx = idx[progressed]
    return {
        "rationalizable": (alive[ROW], alive[COL]),
        "iterations": rounds,
        "lp_checks": checks,
        "lp_fallbacks": fallbacks,
    }


def _round_removals(
    payoffs: np.ndarray, own: np.ndarray, opp: np.ndarray, beaten: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-dominated actions among ``own`` (B, K) against ``opp`` (B, Q)
    for payoff stacks (B, K, Q), and the fallback flags of the checks that
    needed a solver. ``beaten`` holds the payoffs' outrank bitsets (ties do
    not outrank), which decide pure dominance."""
    actions = np.arange(payoffs.shape[1])
    best = np.where(own[:, :, None], payoffs, -np.inf).argmax(axis=1)
    safe = ((best[:, None, :] == actions[None, :, None]) & opp[:, None, :]).any(axis=2)
    gone = kernels._dominated(payoffs.transpose(0, 2, 1), own, opp, beaten)
    games, targets = np.nonzero(own & ~safe & ~gone)
    fallback = np.zeros(games.size, dtype=bool)
    if not games.size:
        return gone, fallback
    live = own[:, :, None] & opp[:, None, :]
    # _default_tol of each game's live payoff block
    tol = 1e-9 * np.maximum(1.0, np.where(live, np.abs(payoffs), 0.0).max(axis=(1, 2)))
    others = own[games] & (actions[None, :] != targets[:, None])
    k = others.sum(axis=1)
    p = opp[games].sum(axis=1)
    shape_key = k * (opp.shape[1] + 1) + p
    for key in np.unique(shape_key):
        sel = np.flatnonzero(shape_key == key)
        g, x = games[sel], targets[sel]
        rows = np.argsort(~others[sel], axis=1, kind="stable")[:, : k[sel[0]]]
        cols = np.argsort(~opp[g], axis=1, kind="stable")[:, : p[sel[0]]]
        sub = payoffs[g[:, None, None], rows[:, :, None], cols[:, None, :]]
        target = payoffs[g[:, None], x[:, None], cols]
        solution = solve_gap_games(sub - target[:, None, :])
        gone[g, x] = solution.lower > tol[g]
        fallback[sel] = solution.fallback
    return gone, fallback


def point_rationalizable_sets(
    game: OrdinalBimatrix,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Iterated simultaneous deletion of actions that are not a best response
    to any surviving pure opponent action, until a fixpoint."""
    views = (np.array(game.row_ranks), np.array(game.col_ranks).T)
    alive = [list(range(game.m)), list(range(game.n))]
    while True:
        best = [_best_response_actions(views[k], alive[k], alive[1 - k]) for k in (ROW, COL)]
        kept = [[a for a in alive[k] if a in best[k]] for k in (ROW, COL)]
        if kept == alive:
            return tuple(alive[ROW]), tuple(alive[COL])
        alive = kept
