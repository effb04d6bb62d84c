"""Spans around calls into the program's public functions, recorded from outside.

The program is not changed: each traced function is replaced by a wrapper in
every `retrodictor` module that holds a reference to it (several modules
import names directly, e.g. `from .retrodiction import retro_transform`), and
in module-level dicts such as `verify.SUITES`.  Spans stay in memory until
`write` is called.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import numpy as np

# (module, function) pairs that get a span; the span is named "module.function".
TARGETS = {
    "linalg": ("hermitian_eig", "sqrtm_psd", "inv_sqrtm_psd"),
    "ensembles": (
        "validate_state_vector",
        "validate_hermitian_matrix",
        "validate_density_matrix",
        "validate_priors",
        "validate_ensemble",
        "validate_povm",
    ),
    "retrodiction": ("retro_transform",),
    "ud": ("optimal_dual", "retro_basis", "brute_force_dual", "verify_purity_identification"),
    "channel": ("symmetric_state", "no_signaling_check"),
    "sim": ("sample", "joint_probability_table", "empirical_report"),
    "verify": (
        "suite_transform",
        "suite_ud",
        "suite_channel",
        "suite_simulate",
        "suite_failure_modes",
        "random_corpus",
        "unbiased_corpus",
        "grid_instances",
    ),
    "formats": ("parse_ensemble_file", "parse_povm_file", "write_json"),
    "cli": ("cmd_transform", "cmd_ud", "cmd_channel", "cmd_simulate", "cmd_verify"),
}

FIELDS = ("name", "start", "end", "parent", "op", "attrs")


def _eig_attrs(args, kwargs):
    return {"dim": int(np.shape(args[0])[0])}


def _sample_attrs(args, kwargs):
    from retrodictor import sim

    n = int(args[2] if len(args) > 2 else kwargs["n"])
    return {"n": n, "shards": math.ceil(n / sim.SHARD_SIZE)}


def _write_attrs(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Extra facts recorded on a span once its call returns.
ATTRS = {
    "linalg.hermitian_eig": _eig_attrs,
    "sim.sample": _sample_attrs,
    "formats.write_json": _write_attrs,
}


class Tracer:
    """Records [name, start, end, parent index, op id, attrs] per traced call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind every TARGETS function in every loaded retrodictor module."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "retrodictor"]
        for module_name, functions in TARGETS.items():
            owner = sys.modules[f"retrodictor.{module_name}"]
            for fn_name in functions:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    namespace = vars(module)
                    for key, value in list(namespace.items()):
                        if value is original:
                            namespace[key] = wrapper
                            self._undo.append((namespace, key, original))
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    value[dkey] = wrapper
                                    self._undo.append((value, dkey, original))

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self._undo):
            mapping[key] = original
        self._undo.clear()

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another tracer (a child process), re-indexing parents."""
        offset = len(self.spans)
        self.spans.extend([*s[:3], s[3] + offset if s[3] >= 0 else -1, *s[4:]] for s in spans)

    def write(self, path: str) -> None:
        """One JSON array per line, fields in FIELDS order; parent -1 is a root."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [json.loads(line) for line in fh]
