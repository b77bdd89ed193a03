"""In-memory span tracing of hiershare's public functions.

Entering a ``Tracer`` replaces each traced function at every place it can be
looked up: the defining module and every ``hiershare`` module that imported
it by name (``hiershare.proactive.scalar_mul`` and
``hiershare.hierarchy.scalar_mul`` are the same function as
``hiershare.curve.scalar_mul``), or the class attribute for methods. Calls
from inside the package are therefore recorded too. Leaving it puts the
originals back.

A span is (name, start, end, parent span, request id); the request id is
the epoch the benchmark is driving (0 for set-up, epochs + 1 for the final
reconstruction). Spans are kept in flat arrays while the run lasts and
written out at the end. A span's self time is its duration minus the time
covered by its direct child spans; calls are single-threaded, so child
spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# Span name -> (module, attribute path). Names are <module>.<function>.
TRACED = {
    "config.parse_scenario": ("hiershare.config", "parse_scenario"),
    "curve.scalar_mul": ("hiershare.curve", "scalar_mul"),
    "curve.point_add": ("hiershare.curve", "point_add"),
    "algebra.field_inverse": ("hiershare.algebra", "field_inverse"),
    "algebra.poly_eval": ("hiershare.algebra", "poly_eval"),
    "algebra.lagrange_at_zero": ("hiershare.algebra", "lagrange_at_zero"),
    "hierarchy.children_of": ("hiershare.hierarchy", "HierarchyTree.children_of"),
    "hierarchy.levels": ("hiershare.hierarchy", "HierarchyTree.levels"),
    "hierarchy.register": ("hiershare.hierarchy", "HierarchyTree.register"),
    "hierarchy.leave": ("hiershare.hierarchy", "HierarchyTree.leave"),
    "hierarchy.rejoin": ("hiershare.hierarchy", "HierarchyTree.rejoin"),
    "hierarchy.assign_round_keys": ("hiershare.hierarchy", "HierarchyTree.assign_round_keys"),
    "sharing.distribute": ("hiershare.sharing", "distribute"),
    "sharing.assign_eval_points": ("hiershare.sharing", "assign_eval_points"),
    "sharing.reconstruct": ("hiershare.sharing", "reconstruct"),
    "sharing.knowledge_closure": ("hiershare.sharing", "knowledge_closure"),
    "proactive.renewal_round": ("hiershare.proactive", "renewal_round"),
    "proactive.generate_renewal": ("hiershare.proactive", "generate_renewal"),
    "proactive.verify_renewal": ("hiershare.proactive", "verify_renewal"),
    "proactive.apply_renewal": ("hiershare.proactive", "apply_renewal"),
    "simnet.World": ("hiershare.simnet", "World.__init__"),
    "simnet.initial_deal": ("hiershare.simnet", "World.initial_deal"),
    "simnet.step_epoch": ("hiershare.simnet", "World.step_epoch"),
    "simnet.finalize": ("hiershare.simnet", "World.finalize"),
    "simnet.send": ("hiershare.simnet", "World.send"),
    "simnet.adversary_can_reconstruct": ("hiershare.simnet", "World.adversary_can_reconstruct"),
    "snapshot.save_world": ("hiershare.snapshot", "save_world"),
    "snapshot.load_world": ("hiershare.snapshot", "load_world"),
}


def _base_is_g(args, _result) -> bool:
    point = args[1]
    return point.x == point.curve.gx and point.y == point.curve.gy


def _rejected(_args, result) -> bool:
    return result is False


# Span name -> predicate over (args, result); ``Tracer.flagged`` counts the
# calls for which it holds.
FLAGS = {
    "curve.scalar_mul": _base_is_g,
    "proactive.verify_renewal": _rejected,
}


class Tracer:
    """Records one span per traced call inside its ``with`` block."""

    def __init__(self):
        self.request = 0
        self.names = list(TRACED)
        self.flagged = Counter()
        # One entry per span, indexed by span id.
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._request = array("q")
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for index, (name, (module_name, path)) in enumerate(TRACED.items()):
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(index, name, original))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(index, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "hiershare" and getattr(mod, path, None) is original:
                    self._patch(mod, path, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, index: int, name: str, fn):
        flag = FLAGS.get(name)
        names, starts, ends = self._name, self._start, self._end
        parents, requests, open_spans = self._parent, self._request, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(open_spans[-1] if open_spans else -1)
            requests.append(self.request)
            ends.append(0.0)
            open_spans.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                open_spans.pop()
            if flag is not None and flag(args, result):
                self.flagged[name] += 1
            return result

        return functools.wraps(fn)(traced)

    # -- results --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        durations = [end - start for start, end in zip(self._start, self._end)]
        covered = [0.0] * len(durations)
        for span, parent in enumerate(self._parent):
            if parent >= 0:
                covered[parent] += durations[span]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for span, index in enumerate(self._name):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["total_s"] += durations[span]
            entry["self_s"] += durations[span] - covered[span]
        return out

    def calls_by_request(self) -> dict[str, dict[int, int]]:
        """Per span name: calls per request id (epoch)."""
        counts = Counter(zip(self._name, self._request))
        out: dict[str, dict[int, int]] = {name: {} for name in self.names}
        for (index, request), calls in sorted(counts.items()):
            out[self.names[index]][request] = calls
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one [id, name, start, end, parent, request] row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent", "request"],
                                     "spans": len(self)}) + "\n")
            names = self.names
            for span, (index, start, end, parent, request) in enumerate(
                zip(self._name, self._start, self._end, self._parent, self._request)
            ):
                handle.write(f'[{span},"{names[index]}",{start!r},{end!r},{parent},{request}]\n')
