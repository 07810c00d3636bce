"""Outside-in layer tracing for the benchmark.

The tracer wraps qhc functions from outside the package: every module
attribute, class attribute and suite-table entry that holds a traced
original is replaced by one wrapper, so a name imported with
``from .linalg import frac_rank`` is traced the same as ``linalg.frac_rank``.
After installing, ``install`` checks that no ``qhc.*`` module still holds an
original and raises if one does.

Two kinds of wrapper exist:

* spans, at coarse boundaries (suites, public functions, ``rank_of_family``,
  ``frac_rank``, ``DqElem.__mul__``, ``AlgebraSpec.nf``).  Each call records
  name, start, end and parent; spans live in arrays in memory until the run
  ends, and a span's self time is its duration minus the part of it that
  its children cover.
* leaves, on the hot calls (``RatCoeff`` arithmetic, ``p_gcd``,
  ``RatCoeff.eval``, ``_find_redex``, ``nf_word``, NF-cache lookups), which
  run 0.3-1.6 M times per workload.  They record counts and summed time
  only, never spans.

``Tracer.raw()`` returns additive totals; ``derive`` turns totals (possibly
summed over several processes) into the named per-layer metrics.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from array import array
from typing import Callable, Optional

# (module, class or None, attribute, span name, private hook)
SPAN_TARGETS = (
    ("qhc.rewrite", "AlgebraSpec", "nf", "rewrite.nf", False),
    ("qhc.rewrite", None, "rank_of_family", "rewrite.rank_of_family", False),
    ("qhc.rewrite", None, "check_ambiguities", "rewrite.check_ambiguities", False),
    ("qhc.linalg", None, "frac_rank", "linalg.frac_rank", False),
    ("qhc.linalg", None, "frac_solve", "linalg.frac_solve", False),
    ("qhc.linalg", None, "solve_dense", "linalg.solve_dense", False),
    ("qhc.linalg", None, "dense_rank", "linalg.dense_rank", False),
    ("qhc.dqops", "DqElem", "__mul__", "dqops.elem_mul", False),
    ("qhc.dqops", "DqElem", "_at_loc", "dqops.at_loc", True),
    ("qhc.dqops", "DqElem", "reduced", "dqops.reduced", False),
    ("qhc.invham", None, "psibar_apply", "invham.psibar_apply", False),
    ("qhc.invham", None, "psibar_rank", "invham.psibar_rank", False),
    ("qhc.invham", None, "invariant_dimension", "invham.invariant_dimension", False),
    ("qhc.invham", None, "find_ideal_multiplier", "invham.find_ideal_multiplier", False),
    ("qhc.daha", None, "idempotent_sandwich", "daha.sandwich", False),
    ("qhc.daha", None, "spherical_dimension", "daha.spherical_dimension", False),
    ("qhc.daha", None, "phi_rank", "daha.phi_rank", False),
    ("qhc.qgroup", "AdjointAction", "act", "qgroup.act", False),
    ("qhc.exprparse", "Parser", "parse", "exprparse.parse", False),
    ("qhc.cli", None, "_emit", "cli.emit", True),
)

# suites whose span self time is reported as suites.<name>_s
REPORTED_SUITES = ("moment", "hilbert-all", "psibar", "ham")

# raw totals that come from private hooks, by hook
PRIVATE_RAW = {
    "AlgebraSpec._find_redex": ("redex_lookups", "steps", "distinct_words"),
    "AlgebraSpec._nf_cache": ("cache_gets", "cache_hits", "nf_cache_entries"),
}


class TraceInstallError(RuntimeError):
    pass


def self_times(names, starts, ends, parents) -> dict[str, list]:
    """Per span name: [calls, summed self seconds].

    A span's self time is its duration minus the length of the union of its
    children's intervals clipped to the span, so overlapping children are
    not subtracted twice.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            kids.setdefault(p, []).append((starts[i], ends[i]))
    out: dict[str, list] = {}
    for i, name in enumerate(names):
        lo, hi = starts[i], ends[i]
        covered = union_length(kids.get(i, ()), lo, hi)
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (hi - lo) - covered
    return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class CountingCache(dict):
    """An NF-cache dict that counts lookups and hits through ``get``."""

    __slots__ = ("stats",)

    def __init__(self, data, stats: list):
        super().__init__(data)
        self.stats = stats

    def get(self, key, default=None):
        v = dict.get(self, key, default)
        st = self.stats
        st[0] += 1
        if v is not None:
            st[1] += 1
        return v


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        # leaf totals, kept in small lists the wrappers close over
        self.mul = [0]
        self.add = [0]
        self.gcd = [0, 0, 0.0]          # calls, trivial results, seconds
        self.eval = [0, 0.0]            # calls, seconds
        self.nf_word = [0]
        self.redex = [0, 0]             # lookups, successful lookups (steps)
        self.words: set = set()
        self.cache = [0, 0]             # gets, hits
        self.frac_rank_nnz = [0]
        self.absent_spans: set[str] = set()
        self.absent_hooks: set[str] = set()
        self.originals: list[tuple[str, object]] = []

    # -- spans ------------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def span_table(self) -> dict[str, list]:
        by_id = {v: k for k, v in self.name_ids.items()}
        names = [by_id[i] for i in self.span_name]
        return self_times(names, self.span_start, self.span_end, self.span_parent)

    def write_spans(self, path) -> None:
        by_id = {v: k for k, v in self.name_ids.items()}
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i}\t{self.span_parent[i]}\t{by_id[nid]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every place qhc binds it; raise if any
        public target is missing or an original survives anywhere."""
        importlib.import_module("qhc.cli")
        from qhc import coeffring, rewrite, suites

        self._leaf_coeffring(coeffring)
        self._leaf_rewrite(rewrite)
        for modname, clsname, attr, span_name, private in SPAN_TARGETS:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname)
            orig = getattr(owner, attr, None)
            if orig is None:
                if private:
                    self.absent_spans.add(span_name)
                    continue
                raise TraceInstallError(f"{modname}.{clsname or ''}{'.' if clsname else ''}{attr} is missing")
            if span_name == "linalg.frac_rank":
                wrapper = self.span(span_name, self._count_nnz(orig))
            else:
                wrapper = self.span(span_name, orig)
            if clsname is None:
                self._rebind(orig, wrapper)
            else:
                self._set_method(owner, attr, wrapper)
        for name, fn in list(suites.SUITES.items()):
            wrapper = self.span(f"suites.{name}", fn)
            self._rebind(fn, wrapper)
            suites.SUITES[name] = wrapper
        self.check_installed()

    def _rebind(self, orig, wrapper) -> None:
        """Point every qhc module attribute that holds orig at wrapper."""
        self.originals.append((orig.__name__, orig))
        for mod in _qhc_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    def _set_method(self, cls, attr, wrapper) -> None:
        self.originals.append((f"{cls.__name__}.{attr}", getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def check_installed(self) -> None:
        orig_ids = {id(o): name for name, o in self.originals}
        from qhc import suites

        for mod in _qhc_modules():
            for key, val in vars(mod).items():
                if id(val) in orig_ids:
                    raise TraceInstallError(f"{mod.__name__}.{key} still holds the unwrapped {orig_ids[id(val)]}")
                if isinstance(val, type) and val.__module__.startswith("qhc"):
                    for ckey, cval in vars(val).items():
                        if id(cval) in orig_ids:
                            raise TraceInstallError(
                                f"{mod.__name__}.{key}.{ckey} still holds an unwrapped original")
        for name, fn in suites.SUITES.items():
            if id(fn) in orig_ids:
                raise TraceInstallError(f"suite {name} is not wrapped")

    def _count_nnz(self, fn):
        nnz = self.frac_rank_nnz

        def frac_rank(rows, *args, **kwargs):
            nnz[0] += sum(len(r) for r in rows)
            return fn(rows, *args, **kwargs)

        return frac_rank

    def _leaf_coeffring(self, coeffring) -> None:
        RatCoeff = coeffring.RatCoeff
        mul, add, gcd, ev = self.mul, self.add, self.gcd, self.eval
        clock = time.perf_counter
        o_mul, o_add, o_eval, o_gcd = RatCoeff.__mul__, RatCoeff.__add__, RatCoeff.eval, coeffring.p_gcd
        one = coeffring.P_ONE

        def __mul__(self, other):
            mul[0] += 1
            return o_mul(self, other)

        def __add__(self, other):
            add[0] += 1
            return o_add(self, other)

        def eval(self, q0, t0):
            t = clock()
            try:
                return o_eval(self, q0, t0)
            finally:
                ev[0] += 1
                ev[1] += clock() - t

        def p_gcd(f, g):
            t = clock()
            r = o_gcd(f, g)
            gcd[2] += clock() - t
            gcd[0] += 1
            if r == one:
                gcd[1] += 1
            return r

        self._set_method(RatCoeff, "__mul__", __mul__)
        self._set_method(RatCoeff, "__add__", __add__)
        self._set_method(RatCoeff, "eval", eval)
        self._rebind(o_gcd, p_gcd)

    def _leaf_rewrite(self, rewrite) -> None:
        Spec = rewrite.AlgebraSpec
        nfw = self.nf_word
        o_nf_word = Spec.nf_word

        def nf_word(self, w, direction="leftmost"):
            nfw[0] += 1
            return o_nf_word(self, w, direction)

        self._set_method(Spec, "nf_word", nf_word)

        o_find = getattr(Spec, "_find_redex", None)
        if o_find is None:
            self.absent_hooks.add("AlgebraSpec._find_redex")
        else:
            redex, words = self.redex, self.words

            def _find_redex(self, w, direction):
                r = o_find(self, w, direction)
                redex[0] += 1
                if r is not None:
                    redex[1] += 1
                # keyed by algebra, not object: temporary specs built while
                # deriving a presentation die and their ids get reused
                words.add((self.algebra_id, w))
                return r

            self._set_method(Spec, "_find_redex", _find_redex)

        stats = self.cache
        for spec in _live_specs(Spec):
            self._count_cache(spec, stats)
        o_init = Spec.__init__
        count_cache = self._count_cache

        def __init__(self, *args, **kwargs):
            o_init(self, *args, **kwargs)
            count_cache(self, stats)

        self._set_method(Spec, "__init__", __init__)

    @staticmethod
    def _count_cache(spec, stats) -> None:
        cache = getattr(spec, "_nf_cache", None)
        if isinstance(cache, dict):
            for key, d in list(cache.items()):
                if isinstance(d, dict) and not isinstance(d, CountingCache):
                    cache[key] = CountingCache(d, stats)

    # -- results ----------------------------------------------------------------

    def raw(self) -> dict:
        """Additive totals of one traced process; None marks an absent hook."""
        from qhc import rewrite

        caches = [getattr(spec, "_nf_cache", None) for spec in _live_specs(rewrite.AlgebraSpec)]
        if not all(isinstance(c, dict) for c in caches):
            self.absent_hooks.add("AlgebraSpec._nf_cache")
        out = {
            "mul_calls": self.mul[0],
            "add_calls": self.add[0],
            "gcd_calls": self.gcd[0],
            "gcd_trivial": self.gcd[1],
            "gcd_s": self.gcd[2],
            "eval_calls": self.eval[0],
            "eval_s": self.eval[1],
            "nf_word_calls": self.nf_word[0],
            "redex_lookups": self.redex[0],
            "steps": self.redex[1],
            "distinct_words": len(self.words),
            "cache_gets": self.cache[0],
            "cache_hits": self.cache[1],
            "nf_cache_entries": sum(len(d) for c in caches if isinstance(c, dict) for d in c.values()),
            "frac_rank_nnz": self.frac_rank_nnz[0],
            "spans": self.span_table(),
        }
        for hook in self.absent_hooks:
            for k in PRIVATE_RAW[hook]:
                out[k] = None
        out["absent_spans"] = sorted(self.absent_spans)
        return out


def _qhc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qhc" or name.startswith("qhc."))]


def _live_specs(cls) -> list:
    return [o for o in gc.get_objects() if isinstance(o, cls)]


# ---------------------------------------------------------------------------
# totals -> named metrics
# ---------------------------------------------------------------------------

def merge_raw(raws: list[dict]) -> dict:
    """Sum the totals of several traced processes (absent stays absent)."""
    out: dict = {"spans": {}, "absent_spans": []}
    for raw in raws:
        for k, v in raw.items():
            if k == "spans":
                for name, (calls, secs) in v.items():
                    acc = out["spans"].setdefault(name, [0, 0.0])
                    acc[0] += calls
                    acc[1] += secs
            elif k == "absent_spans":
                out[k] = sorted(set(out[k]) | set(v))
            elif v is None or out.get(k, 0) is None:
                out[k] = None
            else:
                out[k] = out.get(k, 0) + v
    return out


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def derive(raw: dict, extra: Optional[dict] = None) -> dict[str, tuple]:
    """Named per-layer metrics as {name: (value, unit)}; value None = absent."""
    spans = raw.get("spans", {})
    absent = set(raw.get("absent_spans", ()))

    def span_s(name):
        return None if name in absent else spans.get(name, [0, 0.0])[1]

    def span_calls(name):
        return None if name in absent else spans.get(name, [0, 0.0])[0]

    m = {
        "coeffring.mul_calls": (raw["mul_calls"], "count"),
        "coeffring.add_calls": (raw["add_calls"], "count"),
        "coeffring.gcd_calls": (raw["gcd_calls"], "count"),
        "coeffring.gcd_s": (raw["gcd_s"], "s"),
        "coeffring.gcd_trivial_ratio": (_ratio(raw["gcd_trivial"], raw["gcd_calls"]), "ratio"),
        "coeffring.eval_calls": (raw["eval_calls"], "count"),
        "coeffring.eval_s": (raw["eval_s"], "s"),
        "rewrite.nf_word_calls": (raw["nf_word_calls"], "count"),
        "rewrite.nf_cache_hit_ratio": (_ratio(raw["cache_hits"], raw["cache_gets"]), "ratio"),
        "rewrite.redex_lookups": (raw["redex_lookups"], "count"),
        "rewrite.steps": (raw["steps"], "count"),
        "rewrite.distinct_word_ratio": (_ratio(raw["distinct_words"], raw["redex_lookups"]), "ratio"),
        "rewrite.nf_s": (span_s("rewrite.nf"), "s"),
        "rewrite.nf_cache_entries": (raw["nf_cache_entries"], "count"),
        "rewrite.rank_of_family_calls": (span_calls("rewrite.rank_of_family"), "count"),
        "rewrite.rank_of_family_s": (span_s("rewrite.rank_of_family"), "s"),
        "rewrite.check_ambiguities_s": (span_s("rewrite.check_ambiguities"), "s"),
        "linalg.frac_rank_calls": (span_calls("linalg.frac_rank"), "count"),
        "linalg.frac_rank_nnz": (raw["frac_rank_nnz"], "count"),
        "linalg.frac_rank_s": (span_s("linalg.frac_rank"), "s"),
        "linalg.dense_rank_s": (span_s("linalg.dense_rank"), "s"),
        "linalg.frac_solve_s": (span_s("linalg.frac_solve"), "s"),
        "linalg.solve_dense_s": (span_s("linalg.solve_dense"), "s"),
        "dqops.elem_mul_calls": (span_calls("dqops.elem_mul"), "count"),
        "dqops.elem_mul_s": (span_s("dqops.elem_mul"), "s"),
        "dqops.at_loc_s": (span_s("dqops.at_loc"), "s"),
        "dqops.reduced_s": (span_s("dqops.reduced"), "s"),
        "invham.psibar_apply_s": (span_s("invham.psibar_apply"), "s"),
        "invham.psibar_rank_s": (span_s("invham.psibar_rank"), "s"),
        "invham.invariant_dimension_s": (span_s("invham.invariant_dimension"), "s"),
        "invham.find_ideal_multiplier_s": (span_s("invham.find_ideal_multiplier"), "s"),
        "daha.sandwich_s": (span_s("daha.sandwich"), "s"),
        "daha.spherical_dimension_s": (span_s("daha.spherical_dimension"), "s"),
        "daha.phi_rank_s": (span_s("daha.phi_rank"), "s"),
        "qgroup.act_calls": (span_calls("qgroup.act"), "count"),
        "qgroup.act_s": (span_s("qgroup.act"), "s"),
        "exprparse.parse_s": (span_s("exprparse.parse"), "s"),
        "cli.startup_s": (raw.get("cli_startup_s", 0.0), "s"),
        "cli.emit_s": (span_s("cli.emit"), "s"),
    }
    for suite in REPORTED_SUITES:
        m[f"suites.{suite}_s"] = (span_s(f"suites.{suite}"), "s")
    m.update(extra or {})
    return m
