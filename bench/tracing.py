"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces each public function listed in ``WRAPPED`` with
a timing wrapper at every module attribute of ``pssmp`` that is bound to it
(so ``integrate_adaptive`` is wrapped in ``numerics`` and at its import
sites in ``stable``, ``exit_laws``, ``scale`` and ``verify``), and
``Tracer.uninstall`` puts the originals back.  A name missing from its
layer module raises, so a refactor cannot silently drop a count.

Every wrapped call is a span.  Self time is the span's duration minus the
durations of the spans it directly encloses; summed over all spans plus
the time outside any library span it equals the traced round time.
High-rate spans are aggregated per function; calls of the functions in
``KEEP`` are also stored one by one with their parent span and the id of
the benchmark op that caused them.  Counts are read from the returned
values (``QuadResult``, ``SeriesValue``, ``ExitSampleSet``).
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

LAYERS = (
    "cli",
    "verify",
    "montecarlo",
    "stable",
    "exit_laws",
    "scale",
    "hitting",
    "expfun",
    "numerics",
)

# Public functions timed per layer.  Special functions of ``numerics``
# (log_gamma and friends) are left out: they run millions of times inside
# series terms and their cost is attributed to the calling layer.
WRAPPED = {
    "numerics": ("integrate_adaptive", "sum_series"),
    "stable": (
        "rogozin_overshoot_density",
        "exit_up_probability",
        "killed_resolvent_u",
        "increment_sampler",
        "path_rng",
        "sample_stable_increment",
    ),
    "exit_laws": (
        "exit_density_two_sided",
        "exit_density_one_sided",
        "exit_mass_two_sided",
        "exit_mass_one_sided",
        "overshoot_cdf_interpolant",
        "min_cdf_up",
        "max_cdf_down",
        "extrema_density_star",
        "extrema_min_star_as_printed",
    ),
    "scale": (
        "default_m",
        "psi_up",
        "psi_down",
        "scale_fn",
        "ruin_probability",
        "triple_law_K",
        "triple_law_density",
        "triple_law_total_mass",
        "triple_law_K_printed_upneg",
    ),
    "hitting": ("hit_matrix_method", "hit_closed_ratio", "hit_prob_lamperti"),
    "expfun": (
        "neg_moment_I",
        "laplace_I",
        "density_I",
        "entrance_moment",
        "entrance_density",
        "density_I_star",
        "density_I_star_as_printed",
        "sup_density_spectrally_positive",
        "sup_cdf",
        "sup_survival_asymptotic",
        "cdf_I_star",
        "left_mass_bound",
        "fit_loglog_slope",
        "tail_exponent_check",
    ),
    "montecarlo": (
        "simulate_exit",
        "step_refinement_report",
        "extrapolated_bias",
        "ks_distance",
        "moment_check",
    ),
    "verify": (
        "run_suite",
        "report_passed",
        "esscher_max_relative_error",
        "star_min_derived_mass",
        "density_I_mass",
        "density_I_star_mass",
    ),
    "cli": ("main", "cmd_eval", "cmd_simulate", "cmd_verify", "parse_grid", "load_config"),
}

# The draw closure returned by increment_sampler is wrapped as this span.
DRAW = "stable.draw"

# Coarse spans stored one by one (the rest are only aggregated).
KEEP = frozenset(
    {
        "cli.main",
        "verify.run_suite",
        "verify.density_I_mass",
        "verify.density_I_star_mass",
        "verify.star_min_derived_mass",
        "montecarlo.simulate_exit",
        "montecarlo.step_refinement_report",
        "montecarlo.ks_distance",
        "exit_laws.overshoot_cdf_interpolant",
        "scale.triple_law_K",
        "scale.triple_law_total_mass",
        "expfun.tail_exponent_check",
    }
)

_QUAD = "numerics.integrate_adaptive"


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.calls = {}  # qualname -> call count
        self.total = {}  # qualname -> summed duration
        self.self_time = {}  # qualname -> summed self time
        self.counters = {
            "quad_evals": 0,
            "series_terms": 0,
            "series_unconverged": 0,
            "increments_drawn": 0,
            "paths": 0,
            "steps_used": 0,
            "censored": 0,
            "K_cold": 0,
            "K_cold_quad_calls": 0,
        }
        self.spans = []  # (id, parent id, op id, qualname, start, end)
        self.ops = []  # (op id, label, start, end, time covered by library spans)
        self.active = False
        self.sites = []  # (module, attribute, original)
        self._stack = []  # frames: [span id, child time, quad calls at entry]
        self._next_id = 0
        self._op_id = None

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every listed function at each pssmp module attribute bound to it."""
        if self.sites:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        modules = {
            layer: importlib.import_module(f"pssmp.{layer}") for layer in LAYERS
        }
        package = [m for n, m in sorted(sys.modules.items()) if n.startswith("pssmp.")]
        for layer, names in WRAPPED.items():
            for name in names:
                qualname = f"{layer}.{name}"
                original = modules[layer].__dict__.get(name)
                if not callable(original):
                    raise KeyError(f"traced name {qualname} is missing")
                self._register(qualname)
                wrapper = self._wrap(qualname, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.sites.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        self._register(DRAW)

    def _register(self, qualname):
        self.calls[qualname] = 0
        self.total[qualname] = 0.0
        self.self_time[qualname] = 0.0

    def uninstall(self):
        for mod, attr, original in reversed(self.sites):
            setattr(mod, attr, original)
        self.sites = []

    def site_names(self):
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self.sites)

    # -- spans --------------------------------------------------------

    def _wrap(self, qualname, fn):
        hook = _HOOKS.get(qualname)
        keep = qualname in KEEP
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0, calls[_QUAD]]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[qualname] += 1
                total[qualname] += dur
                self_time[qualname] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.spans.append((frame[0], parent, self._op_id, qualname, t0, t1))
            if hook is not None:
                result = hook(self, result, calls[_QUAD] - frame[2])
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, label, fn):
        """Run one benchmark op under a root frame and return its result.

        The root frame is not a library span: its children's summed
        duration is the op time covered by library spans.
        """
        self._op_id = op_id
        frame = [0, 0.0, 0]
        self._stack.append(frame)
        self.active = True
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            t1 = perf_counter()
            self.active = False
            self._stack.pop()
            self.ops.append((op_id, label, t0, t1, frame[1]))
            self._op_id = None
        return result

    def dump(self):
        """Spans and aggregates as plain data, for writing out after a round."""
        return {
            "sites": self.site_names(),
            "ops": [list(o) for o in self.ops],
            "spans": [list(s) for s in self.spans],
            "functions": {
                q: {"calls": self.calls[q], "total_s": self.total[q], "self_s": self.self_time[q]}
                for q in self.calls
                if self.calls[q]
            },
            "counters": dict(self.counters),
        }


def _on_quad(tr, result, _nested):
    tr.counters["quad_evals"] += result.evaluations
    return result


def _on_series(tr, result, _nested):
    tr.counters["series_terms"] += result.n_terms
    tr.counters["series_unconverged"] += not result.converged
    return result


def _on_sample_set(tr, result, _nested):
    tr.counters["paths"] += result.config.n_paths
    tr.counters["steps_used"] += int(result.steps_used.sum())
    tr.counters["censored"] += result.n_censored
    return result


def _on_K(tr, result, nested):
    if nested:
        tr.counters["K_cold"] += 1
        tr.counters["K_cold_quad_calls"] += nested
    return result


def _on_draw(tr, result, _nested):
    tr.counters["increments_drawn"] += result.size
    return result


def _on_sampler(tr, draw, _nested):
    return tr._wrap(DRAW, draw)


_HOOKS = {
    "numerics.integrate_adaptive": _on_quad,
    "numerics.sum_series": _on_series,
    "montecarlo.simulate_exit": _on_sample_set,
    "scale.triple_law_K": _on_K,
    "stable.increment_sampler": _on_sampler,
    DRAW: _on_draw,
}


def layer_metrics(tr: Tracer, rows_written: int, scale: float = 1.0) -> dict:
    """Per-layer counts and self times of one traced round.

    Times are multiplied (and rates divided) by ``scale``, the round's
    calibration factor; counts are as recorded.
    """
    c, calls = tr.counters, tr.calls
    total = {q: v * scale for q, v in tr.total.items()}
    own = {q: v * scale for q, v in tr.self_time.items()}

    def layer_self(layer):
        return sum(v for q, v in own.items() if q.split(".")[0] == layer)

    def layer_calls(layer, names):
        return sum(calls[f"{layer}.{n}"] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    quad_calls = calls["numerics.integrate_adaptive"]
    series_calls = calls["numerics.sum_series"]
    drawn = c["increments_drawn"]
    k_calls = calls["scale.triple_law_K"]
    m = {
        "numerics.quad_calls": quad_calls,
        "numerics.quad_evals": c["quad_evals"],
        "numerics.quad_self_s": own["numerics.integrate_adaptive"],
        "numerics.series_calls": series_calls,
        "numerics.series_terms": c["series_terms"],
        "numerics.series_terms_per_call": ratio(c["series_terms"], series_calls),
        "numerics.series_unconverged": c["series_unconverged"],
        "numerics.series_self_s": own["numerics.sum_series"],
        "stable.increments_drawn": drawn,
        "stable.draw_self_s": own[DRAW],
        "stable.increments_per_s": ratio(drawn, total[DRAW]),
        "stable.rng_streams": calls["stable.path_rng"],
        "stable.draw_utilization": ratio(c["steps_used"], drawn),
        "stable.resolvent_calls": calls["stable.killed_resolvent_u"],
        "montecarlo.paths": c["paths"],
        "montecarlo.paths_per_s": ratio(c["paths"], total["montecarlo.simulate_exit"]),
        "montecarlo.steps_per_path": ratio(c["steps_used"], c["paths"]),
        "montecarlo.censored_frac": ratio(c["censored"], c["paths"]),
        "montecarlo.ks_self_s": own["montecarlo.ks_distance"],
        "exit_laws.density_calls": layer_calls(
            "exit_laws", ("exit_density_two_sided", "exit_density_one_sided")
        ),
        "exit_laws.mass_calls": layer_calls(
            "exit_laws", ("exit_mass_two_sided", "exit_mass_one_sided")
        ),
        "exit_laws.interpolant_build_s": total["exit_laws.overshoot_cdf_interpolant"],
        "scale.K_calls": k_calls,
        "scale.K_quad_calls_per_cold_call": ratio(c["K_cold_quad_calls"], c["K_cold"]),
        "scale.K_cache_hit_ratio": ratio(k_calls - c["K_cold"], k_calls),
        "hitting.calls": layer_calls("hitting", WRAPPED["hitting"]),
        "expfun.density_calls": layer_calls("expfun", ("density_I", "density_I_star")),
        "verify.suite_calls": calls["verify.run_suite"],
        "cli.requests": calls["cli.main"],
        "cli.rows_written": rows_written,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m
