"""Spans and counters around calls into the ornaments modules.

The tracer wraps each module's *own binding* of a function (the modules
use ``from``-imports, so ``degree.solve_integer`` and
``sweep.solve_integer`` are separate names for one function).  A timed hook
records a span (name, start, end, parent, outcome); a counting hook only
counts calls and positive results.  Spans stay in memory until the run ends.
Nothing under ``src/`` is changed: hooks are installed for a traced pass and
removed afterwards, so untraced passes run the unmodified functions.
"""

from __future__ import annotations

import importlib
import time


def _singular(result):
    return "singular" if result[0] == 0 else None


def _feasible(result):
    return "feasible" if result is not None else None


def _points(result):
    return len(result)


# (module, attribute, kind, classifier).  A "span" hook is timed; a "count"
# hook only counts calls and truthy results.  The span of a hook is named
# after the layer that owns the call site, so geometry is measured where
# each route calls it.
HOOKS = [
    ("cli", "main", "span", None),
    ("formats", "loads_doc", "span", None),
    ("formats", "ornament_from_doc", "span", None),
    ("formats", "track_from_doc", "span", None),
    ("formats", "dumps_doc", "span", None),
    ("formats", "ornament_to_doc", "span", None),
    ("constructions", "make_borromean", "span", None),
    ("constructions", "make_random_ornament", "span", None),
    ("constructions", "make_trivial", "span", None),
    ("model", "validate_ornament", "span", None),
    ("cli", "validate_ornament", "span", None),
    ("constructions", "validate_ornament", "span", None),
    ("sweep", "validate_ornament", "span", None),
    ("model", "perturb_ornament", "span", None),
    ("model", "feasible_point", "span", _feasible),
    ("model", "box_intersection", "count", None),
    ("degree", "mu_via_degree_auto", "span", None),
    ("degree", "mu_via_degree", "span", None),
    ("degree", "ray_meets_box", "count", None),
    ("degree", "solve_integer", "span", _singular),
    ("degree", "feasible_point", "span", _feasible),
    ("sweep", "mu_via_sweep", "span", None),
    ("sweep", "sweep_with_retries", "span", None),
    ("sweep", "detect_triple_points", "span", _points),
    ("sweep", "solve_integer", "span", _singular),
    ("sweep", "feasible_point", "span", _feasible),
]

# Spans of one function reached through several bindings share one name.
_SPAN_NAME = {
    ("cli", "validate_ornament"): "model.validate_ornament",
    ("constructions", "validate_ornament"): "model.validate_ornament",
    ("sweep", "validate_ornament"): "model.validate_ornament",
}


class Tracer:
    """Records spans and counts while its hooks are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outcome]
        self.counts = {}  # hook name -> [calls, truthy results]
        self.attached = {}  # hook name -> bool
        self._stack = []
        self._installed = []

    def install(self):
        for module_name, attr, kind, classify in HOOKS:
            hook = f"{module_name}.{attr}"
            module = importlib.import_module(f"ornaments.{module_name}")
            original = getattr(module, attr, None)
            self.attached[hook] = callable(original)
            if original is None:
                continue
            if kind == "span":
                name = _SPAN_NAME.get((module_name, attr), hook)
                wrapper = self._span_wrapper(name, original, classify)
            else:
                wrapper = self._count_wrapper(hook, original)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _span_wrapper(self, name, original, classify):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = "raised " + type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if classify is not None:
                span[4] = classify(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_wrapper(self, hook, original):
        tally = self.counts.setdefault(hook, [0, 0])

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            tally[0] += 1
            if result is not None and result is not False:
                tally[1] += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def mark(self):
        """Position to pass to :meth:`layer_metrics` for a later window."""
        return len(self.spans), {k: tuple(v) for k, v in self.counts.items()}

    def layer_metrics(self, since=(0, {})):
        """Per-layer counts and times of the spans recorded after ``since``.

        A metric whose hook did not attach is left out, never reported as 0.
        """
        first, base_counts = since
        spans = self.spans[first:]
        calls, seconds, outcomes = {}, {}, {}
        layer_s = {}
        child_s = [0.0] * len(spans)
        for span in spans:
            name, start, end, parent, outcome = span
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + duration
            if outcome is not None:
                key = (name, outcome)
                outcomes[key] = outcomes.get(key, 0) + 1
            if parent is not None and parent >= first:
                child_s[parent - first] += duration
            layer = name.split(".", 1)[0]
            if not self._has_ancestor_in(span, layer, first):
                layer_s[layer] = layer_s.get(layer, 0.0) + duration
        cli_self = sum(
            (s[2] - s[1]) - child_s[i]
            for i, s in enumerate(spans) if s[0] == "cli.main"
        )
        triple_points = sum(
            s[4] for s in spans
            if s[0] == "sweep.detect_triple_points" and isinstance(s[4], int)
        )

        def counted(hook, which):
            now = self.counts.get(hook, [0, 0])[which]
            return now - base_counts.get(hook, (0, 0))[which]

        def retries(name, error):
            return outcomes.get((name, "raised " + error), 0)

        def total(*names):
            return sum(seconds.get(n, 0.0) for n in names)

        # metric -> (hook whose absence drops the metric, value, unit)
        table = {
            "model.validate_s": ("model.validate_ornament",
                                 total("model.validate_ornament"), "s"),
            "model.validate_calls": ("model.validate_ornament",
                                     calls.get("model.validate_ornament", 0), "count"),
            "model.box_tests": ("model.box_intersection",
                                counted("model.box_intersection", 0), "count"),
            "model.box_pass": ("model.box_intersection",
                               counted("model.box_intersection", 1), "count"),
            "model.lp_calls": ("model.feasible_point",
                               calls.get("model.feasible_point", 0), "count"),
            "model.lp_feasible": ("model.feasible_point",
                                  outcomes.get(("model.feasible_point", "feasible"), 0),
                                  "count"),
            "model.lp_s": ("model.feasible_point", total("model.feasible_point"), "s"),
            "model.perturb_s": ("model.perturb_ornament",
                                total("model.perturb_ornament"), "s"),
            "degree.s": ("degree.mu_via_degree", layer_s.get("degree", 0.0), "s"),
            "degree.attempts": ("degree.mu_via_degree",
                                calls.get("degree.mu_via_degree", 0), "count"),
            "degree.retries": ("degree.mu_via_degree",
                               retries("degree.mu_via_degree", "NonGenericDirection"),
                               "count"),
            "degree.box_tests": ("degree.ray_meets_box",
                                 counted("degree.ray_meets_box", 0), "count"),
            "degree.box_pass": ("degree.ray_meets_box",
                                counted("degree.ray_meets_box", 1), "count"),
            "degree.solves": ("degree.solve_integer",
                              calls.get("degree.solve_integer", 0), "count"),
            "degree.singular": ("degree.solve_integer",
                                outcomes.get(("degree.solve_integer", "singular"), 0),
                                "count"),
            "degree.solve_s": ("degree.solve_integer", total("degree.solve_integer"), "s"),
            "degree.lp_calls": ("degree.feasible_point",
                                calls.get("degree.feasible_point", 0), "count"),
            "sweep.s": ("sweep.detect_triple_points", layer_s.get("sweep", 0.0), "s"),
            "sweep.attempts": ("sweep.detect_triple_points",
                               calls.get("sweep.detect_triple_points", 0), "count"),
            "sweep.retries": ("sweep.detect_triple_points",
                              retries("sweep.detect_triple_points", "NonGenericTrack"),
                              "count"),
            "sweep.solves": ("sweep.solve_integer",
                             calls.get("sweep.solve_integer", 0), "count"),
            "sweep.singular": ("sweep.solve_integer",
                               outcomes.get(("sweep.solve_integer", "singular"), 0),
                               "count"),
            "sweep.solve_s": ("sweep.solve_integer", total("sweep.solve_integer"), "s"),
            "sweep.lp_calls": ("sweep.feasible_point",
                               calls.get("sweep.feasible_point", 0), "count"),
            "sweep.triple_points": ("sweep.detect_triple_points", triple_points, "count"),
            "cli.self_s": ("cli.main", cli_self, "s"),
            "formats.parse_s": ("formats.loads_doc",
                                total("formats.loads_doc", "formats.ornament_from_doc",
                                      "formats.track_from_doc"), "s"),
            "formats.dump_s": ("formats.dumps_doc",
                               total("formats.dumps_doc", "formats.ornament_to_doc"), "s"),
            "constructions.s": ("constructions.make_random_ornament",
                                layer_s.get("constructions", 0.0), "s"),
        }
        return {
            name: (value, unit)
            for name, (hook, value, unit) in table.items()
            if self.attached.get(hook, False)
        }

    def _has_ancestor_in(self, span, layer, first):
        parent = span[3]
        prefix = layer + "."
        while parent is not None and parent >= first:
            ancestor = self.spans[parent]
            if ancestor[0].startswith(prefix):
                return True
            parent = ancestor[3]
        return False

    def absent(self):
        return sorted(h for h, ok in self.attached.items() if not ok)

    def dump_spans(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [
            {"id": i, "name": s[0], "start": s[1] - origin, "end": s[2] - origin,
             "parent": s[3], "outcome": s[4]}
            for i, s in enumerate(self.spans)
        ]
