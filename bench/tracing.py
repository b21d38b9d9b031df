"""Spans and counters for the traced run, installed from outside detsum.

``Tracer`` replaces the module-global bindings through which one detsum
module calls another -- the engines and ``*_json`` functions bound in
``detsum.cli``, ``det_rows`` in identities, search and matrices, and the
``masks_*`` generators bound in identities and search -- with wrappers
that record spans.  ``RingCounter`` replaces the arithmetic methods of
the ``Ring`` subclasses with call counters; it runs in a separate pass so
that per-call counting does not inflate span times.  Both restore every
original on exit, and ``installed()`` lists any wrapper still in place.
A binding that a later version of detsum no longer has is skipped, and
its metrics read 0.

A span is ``(op, id, parent, name, start, end)``.  Spans are kept in
memory; a span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Iterable, Sequence

MARK = "__detsum_bench_wrapper__"

SMALL_N = 5  # the Leibniz cutoff of the auto route: n <= 5 is "small"

ENGINES = {
    "identities": (
        "alternating_subset_det_sum",
        "check_alternating_product_identity",
        "check_alternating_det_identity",
        "det_expansion_certificate",
        "perturbation_identity_residual",
        "find_perturbing_subset",
        "homogeneous_alternating_sum",
        "simplex_centroid_check",
    ),
    "search": (
        "find_invertible_subsum",
        "ideal_chain",
        "semilocal_find_unit_subsum",
        "mixed_char_counterexample_search",
    ),
}
RING_KINDS = ("integers", "rationals", "prime_field", "mod", "product", "int_poly")
RING_CLASSES = ("IntegerRing", "RationalRing", "PrimeField", "ModRing", "ProductRing", "IntPolyRing")
RING_GROUPS = {"add": "addsub", "sub": "addsub", "mul": "mul",
               "exact_div": "div", "try_inverse": "div", "is_unit": "unit"}
MASK_SITES = (("identities", "masks_in_search_order"), ("search", "masks_in_search_order"),
              ("search", "masks_of_cardinality"))
DET_SITES = ("identities", "search", "matrices")


def _units(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = ["cli.main.self_s", "cli.import_s", "jsonio.decode_s", "jsonio.encode_s",
             "jsonio.input_bytes", "jsonio.report_bytes"]
    names += [f"{layer}.{engine}.self_s" for layer, engines in ENGINES.items() for engine in engines]
    names += ["subsets.masks_yielded", "search.visited_ratio"]
    names += [f"matrices.det_rows.{kind}.{band}.{stat}"
              for kind in RING_KINDS for band in ("small", "large") for stat in ("calls", "s")]
    names.append("matrices.det_rows.max_bits")
    names += [f"rings.{kind}.{group}" for kind in RING_KINDS for group in ("addsub", "mul", "div", "unit")]
    names.append("trace.overhead_ratio")
    return names


PER_LAYER_UNITS = {name: _units(name) for name in per_layer_names()}


def _detsum(module: str):
    return importlib.import_module(f"detsum.{module}")


def _bits(value: Any) -> int:
    """Largest integer bit length inside a raw ring value."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, tuple):
        return max((_bits(v) for v in value), default=0)
    numerator = getattr(value, "numerator", None)
    if numerator is not None:  # Fraction
        return max(abs(numerator).bit_length(), value.denominator.bit_length())
    terms = getattr(value, "terms", None)
    if terms is not None:  # SparsePoly
        return max((abs(c).bit_length() for c in terms.values()), default=0)
    return 0


def _search_space(name: str, args: Sequence) -> int | None:
    """Σ_{1<=k<=bound} C(m, k) for the bounded search engines, else None."""
    try:
        if name == "find_invertible_subsum":
            m, bound = len(args[0]), args[1]
        elif name == "semilocal_find_unit_subsum":
            m, bound = len(args[0].elements), args[1]
        elif name == "ideal_chain":
            m = bound = len(args[0])
        else:
            return None
    except (IndexError, AttributeError, TypeError):  # called another way than today
        return None
    return sum(math.comb(m, k) for k in range(1, min(bound, m) + 1))


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``, if it exists."""
        original = vars(owner).get(attr)
        if original is None:
            return
        wrapper = make_wrapper(original)
        setattr(wrapper, MARK, True)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


class Tracer:
    """Records spans and boundary counts while installed (a context manager)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.masks_yielded = 0
        self.visited = 0
        self.search_space = 0
        self.max_bits = 0
        self._stack: list[int] = []
        self._visits: list[list[int]] = []  # one [count] per open engine span
        self.unlisted: set[str] = set()     # span names without a per-layer metric
        self._next_id = 0
        self._patches = _Patches()

    # -- spans ------------------------------------------------------------
    def span(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end))

    # -- wrappers -----------------------------------------------------------
    def _engine(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            visits = [0]
            self._visits.append(visits)
            try:
                return self.span(span_name, fn, args, kwargs)
            finally:
                self._visits.pop()
                space = _search_space(name, args)
                if space is not None:
                    self.visited += visits[0]
                    self.search_space += space

        return wrapper

    def _json(self, direction: str, fn):
        span_name = f"jsonio.{direction}"
        return lambda *args, **kwargs: self.span(span_name, fn, args, kwargs)

    def _det(self, fn):
        def wrapper(ring, rows, *args, **kwargs):
            band = "small" if len(rows) <= SMALL_N else "large"
            value = self.span(f"matrices.det_rows.{ring.kind}.{band}", fn, (ring, rows) + args, kwargs)
            self.max_bits = max(self.max_bits, _bits(value))
            return value

        return wrapper

    def _masks(self, fn):
        def wrapper(*args, **kwargs):
            for bits in fn(*args, **kwargs):
                self.masks_yielded += 1
                if self._visits:
                    self._visits[-1][0] += 1
                yield bits

        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            cli = _detsum("cli")
            for layer, engines in ENGINES.items():
                for name in engines:
                    self._patches.wrap(cli, name, lambda fn, layer=layer, name=name: self._engine(layer, name, fn))
            for name, fn in list(vars(cli).items()):
                if callable(fn) and name.endswith(("_from_json", "_to_json")):
                    direction = "decode" if name.endswith("_from_json") else "encode"
                    self._patches.wrap(cli, name, lambda fn, direction=direction: self._json(direction, fn))
            for site in DET_SITES:
                self._patches.wrap(_detsum(site), "det_rows", self._det)
            for site, name in MASK_SITES:
                self._patches.wrap(_detsum(site), name, self._masks)
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        metrics: dict[str, float] = {}
        for name, (calls, duration, self_time) in aggregate(self.spans).items():
            if name == "cli.main":
                metrics["cli.main.self_s"] = self_time
            elif name.startswith("jsonio."):
                metrics[f"{name}_s"] = duration
            elif name.startswith("matrices.det_rows."):
                metrics[f"{name}.calls"] = calls
                metrics[f"{name}.s"] = duration
            else:
                metrics[f"{name}.self_s"] = self_time
        metrics["subsets.masks_yielded"] = self.masks_yielded
        metrics["search.visited_ratio"] = self.visited / self.search_space if self.search_space else 0.0
        metrics["matrices.det_rows.max_bits"] = self.max_bits
        self.unlisted = set(metrics) - set(PER_LAYER_UNITS)
        return {name: value for name, value in metrics.items() if name not in self.unlisted}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class RingCounter:
    """Counts ring arithmetic per ring kind while installed."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._patches = _Patches()

    def _counting(self, key: str, fn):
        counts = self.counts

        def wrapper(ring, *args):
            counts[key] += 1
            return fn(ring, *args)

        return wrapper

    def __enter__(self) -> "RingCounter":
        rings = _detsum("rings")
        try:
            for cls_name in RING_CLASSES:
                cls = getattr(rings, cls_name, None)
                for method, group in RING_GROUPS.items():
                    if cls is not None:
                        key = f"rings.{cls.kind}.{group}"
                        self._patches.wrap(cls, method, lambda fn, key=key: self._counting(key, fn))
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


def installed() -> list[str]:
    """Every tracing or counting wrapper currently in place."""
    found = []
    cli = _detsum("cli")
    for name, fn in vars(cli).items():
        if getattr(fn, MARK, False):
            found.append(f"cli.{name}")
    for site, name in [(site, "det_rows") for site in DET_SITES] + list(MASK_SITES):
        if getattr(vars(_detsum(site)).get(name), MARK, False):
            found.append(f"{site}.{name}")
    rings = _detsum("rings")
    for cls_name in RING_CLASSES:
        for method, fn in vars(getattr(rings, cls_name, object)).items():
            if getattr(fn, MARK, False):
                found.append(f"{cls_name}.{method}")
    return found


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def aggregate(spans: Sequence[tuple]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total duration, total self time)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for _, sid, _, name, start, end in spans:
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered(children.get(sid, ()), start, end)
    return {name: tuple(row) for name, row in out.items()}
