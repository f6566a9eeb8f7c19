"""Spans at the layer boundaries of ktf_kit, recorded from outside the package.

The tracer replaces the module attributes through which one layer calls
another (``ktf_kit.ktf.j2it_values``, ``ktf_kit.cli.cuspidal_inferred``, ...)
with wrappers that record one span per call: name, start, end, parent span
and op id.  ``uninstall`` puts the original attributes back.  A boundary that
no longer exists is skipped, and every per-layer metric that depends on it is
reported as absent instead of as a number.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _mode(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("mode", "direct")


def _j2it_counts(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"t_nodes": len(result), "ode_calls": int(x > 6.0)}


# (module, attribute, span name, counter) for every wrapped boundary; a span
# name is a string or a function of the call's arguments.
BOUNDARIES = [
    ("cli", "main", "cli.main", None),
    ("cli", "cuspidal_inferred", "ktf.cuspidal_inferred", None),
    ("cli", "enumerate_characters", "characters.enumerate_characters", None),
    ("equidist", "moment_report", "equidist.moment_report", None),
    ("equidist", "cuspidal_inferred", "ktf.cuspidal_inferred", None),
    ("ktf", "geo_main", "ktf.geo_main", None),
    ("ktf", "geo_kloosterman", "ktf.geo_kloosterman",
     lambda a, k, r: {"c_terms": r[2]}),
    ("ktf", "spec_continuous", "ktf.spec_continuous", None),
    ("ktf", "classical_crosscheck", "ktf.classical_crosscheck", None),
    ("ktf", "hecke_sigma_identity", "ktf.hecke_sigma_identity", None),
    ("ktf", "j2it_values", "specfun.j2it_values", _j2it_counts),
    ("ktf", "hurwitz_zeta", "eisenstein.hurwitz_zeta", None),
    ("ktf", "enumerate_basis", "eisenstein.enumerate_basis", None),
    ("ktf", "kloosterman", lambda a, k: f"expsums.kloosterman.{_mode(a, k)}", None),
    ("ktf", "get_pipeline", "transforms.get_pipeline", None),
    ("specfun", "j2it_values", "specfun.j2it_values", _j2it_counts),
    ("specfun", "bessel_J_2it", "specfun.bessel_J_2it", None),
    ("eisenstein", "hurwitz_zeta", "eisenstein.hurwitz_zeta", None),
    ("eisenstein", "enumerate_basis", "eisenstein.enumerate_basis", None),
    ("expsums", "kloosterman", lambda a, k: f"expsums.kloosterman.{_mode(a, k)}", None),
    ("expsums", "weil_certificate", "expsums.weil_certificate", None),
    ("expsums", "local_component", "characters.local_component", None),
    ("characters", "enumerate_characters", "characters.enumerate_characters", None),
    ("transforms", "get_pipeline", "transforms.get_pipeline", None),
]

# per-layer metric -> (boundaries it needs, how it is derived)
_S, _CALLS = "s", "calls"
PER_LAYER = {
    "cli.main.s": ([("cli", "main")], ("cli.main", _S)),
    "equidist.moment_report.s": ([("equidist", "moment_report")], ("equidist.moment_report", _S)),
    "equidist.moment_report.calls": ([("equidist", "moment_report")],
                                     ("equidist.moment_report", _CALLS)),
    "ktf.cuspidal_inferred.s": ([("cli", "cuspidal_inferred"), ("equidist", "cuspidal_inferred")],
                                ("ktf.cuspidal_inferred", _S)),
    "ktf.geo_main.s": ([("ktf", "geo_main")], ("ktf.geo_main", _S)),
    "ktf.geo_kloosterman.s": ([("ktf", "geo_kloosterman")], ("ktf.geo_kloosterman", _S)),
    "ktf.geo_kloosterman.c_terms": ([("ktf", "geo_kloosterman")],
                                    ("ktf.geo_kloosterman", "c_terms")),
    "ktf.spec_continuous.s": ([("ktf", "spec_continuous")], ("ktf.spec_continuous", _S)),
    "ktf.spec_continuous.calls": ([("ktf", "spec_continuous")], ("ktf.spec_continuous", _CALLS)),
    "ktf.classical_crosscheck.s": ([("ktf", "classical_crosscheck")],
                                   ("ktf.classical_crosscheck", _S)),
    "specfun.j2it_values.s": ([("ktf", "j2it_values")], ("specfun.j2it_values", _S)),
    "specfun.j2it_values.calls": ([("ktf", "j2it_values")], ("specfun.j2it_values", _CALLS)),
    "specfun.j2it_values.t_nodes": ([("ktf", "j2it_values")], ("specfun.j2it_values", "t_nodes")),
    "specfun.j2it_values.ode_calls": ([("ktf", "j2it_values")],
                                      ("specfun.j2it_values", "ode_calls")),
    "eisenstein.hurwitz_zeta.s": ([("ktf", "hurwitz_zeta")], ("eisenstein.hurwitz_zeta", _S)),
    "eisenstein.hurwitz_zeta.calls": ([("ktf", "hurwitz_zeta")],
                                      ("eisenstein.hurwitz_zeta", _CALLS)),
    "eisenstein.enumerate_basis.s": ([("eisenstein", "enumerate_basis")],
                                     ("eisenstein.enumerate_basis", _S)),
    "expsums.kloosterman.direct.s": ([("expsums", "kloosterman")],
                                     ("expsums.kloosterman.direct", _S)),
    "expsums.kloosterman.factored.s": ([("expsums", "kloosterman"), ("ktf", "kloosterman")],
                                       ("expsums.kloosterman.factored", _S)),
    "expsums.kloosterman.salie.s": ([("expsums", "kloosterman")],
                                    ("expsums.kloosterman.salie", _S)),
    "expsums.kloosterman.calls": ([("expsums", "kloosterman"), ("ktf", "kloosterman")],
                                  ("expsums.kloosterman.", _CALLS)),
    "expsums.weil_certificate.s": ([("expsums", "weil_certificate")],
                                   ("expsums.weil_certificate", _S)),
    "expsums.kloosterman_local.hit_ratio": ([], None),
    "expsums.cache_entries": ([], None),
    "characters.enumerate_characters.s": ([("characters", "enumerate_characters")],
                                          ("characters.enumerate_characters", _S)),
    "characters.local_component.s": ([("expsums", "local_component")],
                                     ("characters.local_component", _S)),
    "characters.local_component.calls": ([("expsums", "local_component")],
                                         ("characters.local_component", _CALLS)),
    "transforms.get_pipeline.s": ([("ktf", "get_pipeline")], ("transforms.get_pipeline", _S)),
}


class Tracer:
    """Spans kept in memory as (name, start, end, parent, op); op spans are named 'op'."""

    def __init__(self, package: str = "ktf_kit"):
        self.package = package
        self.spans: list[tuple | None] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: set[tuple[str, str]] = set()
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, name, counter in BOUNDARIES:
            try:
                module = importlib.import_module(f"{self.package}.{mod_name}")
            except ImportError:
                self.missing.add((mod_name, attr))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add((mod_name, attr))
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, span_name, start)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[span_name][key] += value
            return result
        return traced

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (name, start, end, parent, self._op)

    # -- op spans -----------------------------------------------------------

    def begin_op(self, op: int) -> tuple[int, float]:
        self._op = op
        return self._open(), time.perf_counter()

    def end_op(self, token: tuple[int, float]) -> None:
        self._close(token[0], "op", token[1])
        self._op = None

    # -- derived figures ----------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds (outermost spans of that name only),
        self seconds and call count."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, s in enumerate(spans):
            if s is None or s[0] == "op":
                continue
            name, start, end, parent = s[0], s[1], s[2], s[3]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[i]
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                rec["s"] += end - start
        return out

    def coverage(self) -> float:
        """Share of op time covered by the ops' direct child spans."""
        op_time = covered = 0.0
        for s in self.spans:
            if s is None:
                continue
            if s[0] == "op":
                op_time += s[2] - s[1]
            elif s[3] is not None and self.spans[s[3]][0] == "op":
                covered += s[2] - s[1]
        return covered / op_time if op_time > 0 else 0.0

    def per_layer(self, expsums) -> tuple[dict[str, float], list[str]]:
        """Every PER_LAYER metric that can be derived, and the names of the absent ones."""
        totals = self.layer_totals()
        values: dict[str, float] = {}
        absent = []
        for metric, (needs, source) in PER_LAYER.items():
            if any(b in self.missing for b in needs):
                absent.append(metric)
                continue
            if metric == "expsums.kloosterman_local.hit_ratio":
                cache_info = getattr(getattr(expsums, "kloosterman_local", None),
                                     "cache_info", None)
                if cache_info is None:
                    absent.append(metric)
                    continue
                info = cache_info()
                total = info.hits + info.misses
                values[metric] = info.hits / total if total else 0.0
            elif metric == "expsums.cache_entries":
                values[metric] = float(sum(
                    f.cache_info().currsize for f in vars(expsums).values()
                    if callable(getattr(f, "cache_info", None))))
            elif source[0].endswith("."):
                values[metric] = float(sum(rec[source[1]] for name, rec in totals.items()
                                           if name.startswith(source[0])))
            elif source[1] in ("s", "calls"):
                values[metric] = float(totals[source[0]][source[1]]) if source[0] in totals else 0.0
            else:
                values[metric] = float(self.counts.get(source[0], {}).get(source[1], 0))
        return values, absent

    def dump(self) -> list:
        return [list(s) for s in self.spans if s is not None]
