"""Outside tracer: wraps the public functions of every ``tlqr`` module.

Nothing in the package is edited. ``Tracer.install`` replaces each public
module-level function with a timing wrapper in every ``tlqr`` namespace that
binds it (``experiments`` binds ``optimize_nominal``, ``large_deviations``
binds ``rollout``, the package binds almost everything), and patches a few
class entry points on the class object itself, which every namespace shares.
``uninstall`` puts the originals back, so untraced passes run unwrapped code.

Per-step functions (``feedback_control``, the model's ``step``) are never
wrapped: a sweep calls them about 1.8 million times, and the wrapper cost
would swamp what it measures. Per-step counts are derived as rollouts x
horizon instead and labelled as computed.

A span is one wrapped call. Self time is its duration minus the time of the
wrapped calls nested in it, so a layer's busy time (the sum of self times of
its functions) excludes the layers it calls into. Names that are missing
(a later change may delete them) are skipped; their metrics read zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
from time import perf_counter

# Called once per control step; wrapping them would dominate the trace.
PER_STEP = {"feedback_control"}

# (module, class, attribute) entry points patched on the class object.
CLASS_ENTRIES = (
    ("error_analysis", "TransitionProducts", "__init__"),
    ("dynamics", "NoiseModel", "sample"),
)


class FunctionStats:
    __slots__ = ("calls", "inclusive_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs wrappers, collects per-function call counts and times.

    ``stats`` maps "layer.name" to :class:`FunctionStats`; ``results`` maps a
    key to a list of values observed by the result hooks (planner reports,
    exit estimates, suite reports, rollout modes and durations).
    """

    def __init__(self, package_name: str = "tlqr"):
        self.package = importlib.import_module(package_name)
        self.modules = {"": self.package}
        for info in pkgutil.iter_modules(self.package.__path__):
            if not info.name.startswith("_"):
                self.modules[info.name] = importlib.import_module(f"{package_name}.{info.name}")
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    # -- collection -----------------------------------------------------

    def reset(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self.results: dict[str, list] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, key: str):
        tracer = self
        hook = self._hook(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = tracer.stats.get(key)
                if entry is None:
                    entry = tracer.stats[key] = FunctionStats()
                entry.calls += 1
                entry.inclusive_s += duration
                entry.self_s += duration - frame[0]
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return traced

    def _record(self, key: str, value) -> None:
        self.results.setdefault(key, []).append(value)

    def _hook(self, key: str):
        """Reader of the values a per-layer metric takes from a call, if any."""
        if key == "simulate.rollout":

            def hook(args, kwargs, result, duration):
                mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
                horizon = getattr(args[0], "horizon", 0) if args else 0
                self._record(key, (mode, duration, horizon))

        elif key == "planner.optimize_nominal":

            def hook(args, kwargs, result, duration):
                report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
                self._record(key, getattr(report, "iterations", 0))

        elif key == "large_deviations.estimate_exit_probability":

            def hook(args, kwargs, result, duration):
                self._record(key, (getattr(result, "n_runs", 0), getattr(result, "n_exits", 0)))

        elif key == "error_analysis.cost_error_statistics":

            def hook(args, kwargs, result, duration):
                self._record(key, getattr(result, "n", 0))

        elif key.startswith("verify.") and key.endswith("_suite"):

            def hook(args, kwargs, result, duration):
                checks = getattr(result, "checks", ())
                self._record("verify.checks_failed", sum(not c.passed for c in checks))

        else:
            hook = None
        return hook

    # -- installation ---------------------------------------------------

    def _targets(self) -> dict[int, tuple[object, str]]:
        """id(original) -> (original, key) for every function to wrap."""
        targets = {}
        for layer, module in self.modules.items():
            if not layer:
                continue
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                public = not name.startswith("_")
                cli_writer = layer == "cli" and name.startswith("_write")
                if (public or cli_writer) and name not in PER_STEP:
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        return targets

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for ident, (fn, key) in self._targets().items():
            wrappers[ident] = self._wrap(fn, key)
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj, True))
                    setattr(module, name, wrapper)
        for layer, cls_name, attr in CLASS_ENTRIES:
            cls = getattr(self.modules.get(layer), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                continue
            own = attr in vars(cls)
            original = getattr(cls, attr)
            self._patches.append((cls, attr, vars(cls).get(attr), own))
            setattr(cls, attr, self._wrap(original, f"{layer}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []

    # -- per-layer metrics ----------------------------------------------

    def _calls(self, key: str) -> int:
        entry = self.stats.get(key)
        return entry.calls if entry else 0

    def _inclusive(self, key: str) -> float:
        entry = self.stats.get(key)
        return entry.inclusive_s if entry else 0.0

    def _busy(self, layer: str, predicate=lambda name: True) -> float:
        prefix = layer + "."
        return sum(
            s.self_s
            for key, s in self.stats.items()
            if key.startswith(prefix) and predicate(key[len(prefix):])
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        m: dict[str, float] = {}
        iterations = sum(self.results.get("planner.optimize_nominal", []))
        m["planner.busy_s"] = self._busy("planner")
        m["planner.iterations"] = iterations
        m["planner.ms_per_iter"] = 1e3 * m["planner.busy_s"] / iterations if iterations else 0.0
        m["planner.cost_evals"] = self._calls("planner.nominal_cost")
        m["planner.grad_evals"] = self._calls("planner.cost_gradient")

        riccati = self._calls("lqr.riccati_backward")
        m["lqr.busy_s"] = self._busy("lqr")
        m["lqr.riccati_calls"] = riccati
        m["lqr.us_per_riccati"] = (
            1e6 * self._inclusive("lqr.riccati_backward") / riccati if riccati else 0.0
        )

        rollouts = self.results.get("simulate.rollout", [])
        m["simulate.busy_s"] = self._busy("simulate")
        for mode, label in (("closed_loop", "closed"), ("open_loop", "open")):
            runs = [(d, h) for md, d, h in rollouts if md == mode]
            m[f"simulate.rollouts_{label}"] = len(runs)
            m[f"simulate.us_per_rollout_{label}"] = (
                1e6 * sum(d for d, _ in runs) / len(runs) if runs else 0.0
            )
            m[f"simulate.steps_{label}_computed"] = sum(h for _, h in runs)
        m["simulate.seed_derivations"] = self._calls("simulate.derive_seed")
        m["simulate.seed_busy_s"] = self._inclusive("simulate.derive_seed")
        m["simulate.nmse_busy_s"] = self._busy("simulate", lambda n: n in ("nmse", "nmse_values"))

        m["dynamics.noise_draws"] = self._calls("dynamics.NoiseModel.sample")
        m["dynamics.noise_busy_s"] = self._inclusive("dynamics.NoiseModel.sample")

        exits = self.results.get("large_deviations.estimate_exit_probability", [])
        n_runs = sum(r for r, _ in exits)
        n_exits = sum(e for _, e in exits)
        m["large_deviations.busy_s"] = self._busy("large_deviations")
        m["large_deviations.runs"] = n_runs
        m["large_deviations.exits"] = n_exits
        m["large_deviations.exit_fraction"] = n_exits / n_runs if n_runs else 0.0

        m["error_analysis.busy_s"] = self._busy("error_analysis")
        m["error_analysis.products_built"] = self._calls("error_analysis.TransitionProducts.__init__")
        m["error_analysis.nonrecursive_calls"] = self._calls(
            "error_analysis.state_error_nonrecursive"
        ) + self._calls("error_analysis.control_error_nonrecursive")
        m["error_analysis.cost_error_samples"] = sum(
            self.results.get("error_analysis.cost_error_statistics", [])
        )

        m["verify.propagation_s"] = self._inclusive("verify.propagation_suite")
        m["verify.costerror_s"] = self._inclusive("verify.cost_error_suite")
        m["verify.riccati_s"] = self._inclusive("verify.riccati_suite")
        m["verify.ldp_s"] = self._inclusive("verify.ldp_suite")
        m["verify.checks_failed"] = sum(self.results.get("verify.checks_failed", []))

        m["cli.write_busy_s"] = self._busy("cli", lambda n: "write" in n)
        m["cli.config_load_s"] = self._inclusive("config.load_config")
        return m
