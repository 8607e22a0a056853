"""Spans at domsolve's module boundaries, recorded from outside the package.

``Tracer.install()`` replaces each boundary function with a wrapper in the
module namespace where its callers look it up (``enumeration._run_elimination``
and ``rationalizability.linprog`` are wrapped where they were imported to),
and ``uninstall()`` puts the originals back. Every wrapped call pushes a frame
on a per-thread stack, so a nested call knows its parent and a layer's self
time is its duration minus that of its direct children on the same thread.

Per-game boundaries (the scalar engine under enumeration, the LP path) are
crossed up to ~10^5 times a round; they are folded into their parent span as
a count and a total instead of one span record per call. Batch workers run on
pool threads whose stacks start empty; their parent is the open
``montecarlo._run_batches`` span.
"""

from __future__ import annotations

import importlib
import itertools
import math
import resource
import threading
from fractions import Fraction
from time import perf_counter

SPAN = "span"  # one record per call
AGG = "agg"  # count and total, folded into the parent span
POOL = "pool"  # a span that parents the spans of pool threads
TOP = "top"  # a span only when not called from the same layer (exact's internal calls)

LAYER_METRICS = (
    ("montecarlo.batches", "count", "lower"),
    ("montecarlo.games_per_batch", "games", "higher"),
    ("montecarlo.batch_self_s", "s", "lower"),
    ("montecarlo.merge_s", "s", "lower"),
    ("montecarlo.parallel_efficiency", "ratio", "higher"),
    ("simkernels.sample_s", "s", "lower"),
    ("simkernels.sample_games_per_s", "games/s", "higher"),
    ("simkernels.eliminate_self_s", "s", "lower"),
    ("simkernels.dominance_calls", "count", "lower"),
    ("simkernels.dominance_s", "s", "lower"),
    ("simkernels.dominance_bytes", "bytes", "lower"),
    ("simkernels.rounds", "count", "lower"),
    ("simkernels.progress_ratio", "ratio", "higher"),
    ("simkernels.pointrat_s", "s", "lower"),
    ("simkernels.fast2xn_s", "s", "lower"),
    ("games.cardinal_draw_s", "s", "lower"),
    ("games.ordinalize_s", "s", "lower"),
    ("rationalizability.lp_calls", "count", "lower"),
    ("rationalizability.lp_per_game", "LPs/game", "lower"),
    ("rationalizability.lp_s", "s", "lower"),
    ("rationalizability.linprog_s", "s", "lower"),
    ("rationalizability.sets_self_s", "s", "lower"),
    ("rationalizability.pointrat_s", "s", "lower"),
    ("rationalizability.lp_hit_ratio", "ratio", "higher"),
    ("elimination.engine_calls", "count", "lower"),
    ("elimination.engine_s", "s", "lower"),
    ("enumeration.states", "count", "higher"),
    ("enumeration.self_s", "s", "lower"),
    ("exact.calls", "count", "lower"),
    ("exact.s", "s", "lower"),
    ("exact.max_bits", "bits", "lower"),
    ("exact.rss_growth_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Frame:
    __slots__ = ("id", "name", "kind", "start", "end", "child_s", "parent", "thread", "agg", "mark")

    def __init__(self, span_id, name, kind, parent, thread):
        self.id = span_id
        self.name = name
        self.kind = kind
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.agg = None
        self.mark = None


class Tracer:
    """Collects spans, per-layer totals and counters for one traced round."""

    def __init__(self):
        self.spans: list[Frame] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pool_parent: Frame | None = None
        self._threads: dict[int, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, kind, probe in BOUNDARIES:
            self._patch(_module(module_name), attr, name, kind, probe)
        exact = _module(EXACT_MODULE)
        for attr in sorted(vars(exact)):
            fn = getattr(exact, attr)
            if (
                not attr.startswith("_")
                and callable(fn)
                and getattr(fn, "__module__", None) == exact.__name__
                and not isinstance(fn, type)
            ):
                self._patch(exact, attr, "exact", TOP, _probe_exact, enter=_maxrss_kb)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr, name, kind, probe, enter=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, kind, probe, enter))

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def _wrap(self, fn, name, kind, probe, enter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if kind == TOP and stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else tracer._pool_parent
            frame = Frame(next(tracer._ids), name, kind, parent, tracer._thread_index())
            if enter is not None:
                frame.mark = enter()
            stack.append(frame)
            if kind == POOL:
                outer, tracer._pool_parent = tracer._pool_parent, frame
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                frame.end = perf_counter()
                stack.pop()
                if kind == POOL:
                    tracer._pool_parent = outer
                tracer._close(frame, stack[-1] if stack else None)
            if probe is not None:
                probe(tracer, frame, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, frame: Frame, same_thread_parent: Frame | None) -> None:
        duration = frame.end - frame.start
        if same_thread_parent is not None:
            same_thread_parent.child_s += duration
        with self._lock:
            total = self.totals.setdefault(frame.name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame.child_s
            if frame.kind != AGG:
                self.spans.append(frame)
                return
            owner = _recorded(frame.parent)
            if owner is not None:
                if owner.agg is None:
                    owner.agg = {}
                agg = owner.agg.setdefault(frame.name, [0, 0.0])
                agg[0] += 1
                agg[1] += duration

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def span_records(self) -> list[dict]:
        """Closed spans, with the per-game calls folded into each, and times
        relative to the first span."""
        origin = min((f.start for f in self.spans), default=0.0)
        out = []
        for f in self.spans:
            rec = {
                "id": f.id,
                "name": f.name,
                "start": round(f.start - origin, 7),
                "end": round(f.end - origin, 7),
                "parent": getattr(_recorded(f.parent), "id", None),
                "thread": f.thread,
            }
            if f.agg:
                rec["aggregated"] = {k: {"calls": c, "total_s": round(t, 7)} for k, (c, t) in f.agg.items()}
            out.append(rec)
        return out

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        def total(name):
            return self.totals.get(name, (0, 0.0, 0.0))

        c = self.counters.get
        batch = total("montecarlo.batch")
        sample = total("simkernels.sample")
        dominance = total("simkernels.dominance")
        lp = total("rationalizability.lp")
        sets = total("rationalizability.sets")
        engine = total("elimination.engine")
        enumerate_ = total("enumeration.enumerate")
        exact = total("exact")
        return {
            "montecarlo.batches": batch[0],
            "montecarlo.games_per_batch": _ratio(c("montecarlo.games", 0), batch[0]),
            "montecarlo.batch_self_s": batch[2],
            "montecarlo.merge_s": total("montecarlo.merge")[1],
            "montecarlo.parallel_efficiency": _ratio(
                c("montecarlo.pool_busy_s", 0), c("montecarlo.pool_capacity_s", 0)
            ),
            "simkernels.sample_s": sample[1],
            "simkernels.sample_games_per_s": _ratio(c("simkernels.sampled_games", 0), sample[1]),
            "simkernels.eliminate_self_s": total("simkernels.eliminate")[2],
            "simkernels.dominance_calls": dominance[0],
            "simkernels.dominance_s": dominance[1],
            "simkernels.dominance_bytes": c("simkernels.dominance_bytes", 0),
            "simkernels.rounds": c("simkernels.game_rounds", 0),
            "simkernels.progress_ratio": _ratio(
                c("simkernels.progress_rounds", 0), c("simkernels.game_rounds", 0)
            ),
            "simkernels.pointrat_s": total("simkernels.pointrat")[1],
            "simkernels.fast2xn_s": total("simkernels.fast2xn")[1],
            "games.cardinal_draw_s": total("games.cardinal_draw")[1],
            "games.ordinalize_s": total("games.ordinalize")[1],
            "rationalizability.lp_calls": lp[0],
            "rationalizability.lp_per_game": _ratio(lp[0], sets[0]),
            "rationalizability.lp_s": lp[1],
            "rationalizability.linprog_s": total("rationalizability.linprog")[1],
            "rationalizability.sets_self_s": sets[2],
            "rationalizability.pointrat_s": total("rationalizability.pointrat")[1],
            "rationalizability.lp_hit_ratio": _ratio(c("rationalizability.lp_hits", 0), lp[0]),
            "elimination.engine_calls": engine[0],
            "elimination.engine_s": engine[1],
            "enumeration.states": c("enumeration.states", 0),
            "enumeration.self_s": enumerate_[2],
            "exact.calls": exact[0],
            "exact.s": exact[1],
            "exact.max_bits": c("exact.max_bits", 0),
            "exact.rss_growth_mb": c("exact.rss_growth_kb", 0) / 1024,
        }


def _recorded(frame: Frame | None) -> Frame | None:
    """The nearest frame, from ``frame`` outwards, that is recorded as a span."""
    while frame is not None and frame.kind == AGG:
        frame = frame.parent
    return frame


def _module(name: str):
    return importlib.import_module(f"domsolve.{name}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _bits(value) -> int:
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((_bits(v) for v in value), default=0)
    return 0


# -- probes: counters taken from a boundary call's arguments and result ------


def _probe_run_batches(tr, frame, args, kwargs, result):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    tr.count("montecarlo.pool_capacity_s", max(1, threads) * (frame.end - frame.start))


def _probe_batch(tr, frame, args, kwargs, result):
    tr.count("montecarlo.games", args[2])
    tr.count("montecarlo.pool_busy_s", frame.end - frame.start)


def _probe_sample(tr, frame, args, kwargs, result):
    tr.count("simkernels.sampled_games", args[1])


def _probe_eliminate(tr, frame, args, kwargs, result):
    iterations = result["iterations"]
    if "s_r" in result:  # bimatrix kernel: finished games drop out of the loop
        evaluated = int(iterations.sum()) + iterations.size
    else:  # tensor kernel: every game is evaluated until the last one finishes
        evaluated = iterations.size * (int(iterations.max(initial=0)) + 1)
    tr.count("simkernels.game_rounds", evaluated)
    tr.count("simkernels.progress_rounds", int(iterations.sum()))


def _probe_dominance(tr, frame, args, kwargs, result):
    # Computed, not measured: the (B, P, K, K) comparison and mask tensors
    # (one byte per bool) plus the rank input.
    ranks = args[0]
    b, p, k = ranks.shape
    tr.count("simkernels.dominance_bytes", 2 * b * p * k * k + ranks.nbytes)


def _probe_lp(tr, frame, args, kwargs, result):
    if result is not None:
        tr.count("rationalizability.lp_hits", 1)


def _probe_enumerate_2xn(tr, frame, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tr.count("enumeration.states", math.factorial(n) * 2**n)


def _probe_exact(tr, frame, args, kwargs, result):
    tr.maximum("exact.max_bits", _bits(result))
    tr.count("exact.rss_growth_kb", _maxrss_kb() - frame.mark)


def _probe_enumerate_3xn(tr, frame, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tr.count("enumeration.states", math.factorial(n) ** 2)


# (module, attribute, layer name, kind, probe)
BOUNDARIES = (
    ("montecarlo", "run", "montecarlo.experiment", SPAN, None),
    ("montecarlo", "solvability_chain", "montecarlo.experiment", SPAN, None),
    ("montecarlo", "bound_checks", "montecarlo.experiment", SPAN, None),
    ("montecarlo", "clt_check", "montecarlo.experiment", SPAN, None),
    ("montecarlo", "_run_batches", "montecarlo.run_batches", POOL, _probe_run_batches),
    ("montecarlo", "_pure_batch_tallies", "montecarlo.batch", SPAN, _probe_batch),
    ("montecarlo", "_mixed_batch_tallies", "montecarlo.batch", SPAN, _probe_batch),
    ("montecarlo", "_merge", "montecarlo.merge", SPAN, None),
    ("montecarlo", "_draw_cardinal_game", "games.cardinal_draw", AGG, None),
    ("montecarlo", "rationalizable_sets", "rationalizability.sets", AGG, None),
    ("_simkernels", "sample_rank_batch", "simkernels.sample", SPAN, _probe_sample),
    ("_simkernels", "sample_tensor_rank_batch", "simkernels.sample", SPAN, _probe_sample),
    ("_simkernels", "eliminate_batch", "simkernels.eliminate", SPAN, _probe_eliminate),
    ("_simkernels", "eliminate_tensor_batch", "simkernels.eliminate", SPAN, _probe_eliminate),
    ("_simkernels", "_dominated", "simkernels.dominance", SPAN, _probe_dominance),
    ("_simkernels", "point_rationalizable_counts", "simkernels.pointrat", SPAN, None),
    ("_simkernels", "survivors_2xn_batch", "simkernels.fast2xn", SPAN, None),
    ("rationalizability", "is_mixed_dominated", "rationalizability.lp", AGG, _probe_lp),
    ("rationalizability", "linprog", "rationalizability.linprog", AGG, None),
    ("rationalizability", "ordinalize", "games.ordinalize", AGG, None),
    ("rationalizability", "point_rationalizable_sets", "rationalizability.pointrat", AGG, None),
    ("rationalizability", "iterate", "elimination.iterate", AGG, None),
    ("elimination", "_run_elimination", "elimination.engine", AGG, None),
    ("enumeration", "_run_elimination", "elimination.engine", AGG, None),
    ("enumeration", "enumerate_2xn", "enumeration.enumerate", SPAN, _probe_enumerate_2xn),
    ("enumeration", "enumerate_undominated_3xn", "enumeration.enumerate", SPAN, _probe_enumerate_3xn),
)
# Every public function of domsolve.exact is a boundary of the "exact" layer.
EXACT_MODULE = "exact"
