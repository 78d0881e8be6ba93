"""Per-layer spans recorded from outside the program.

conclab's modules import each other's names with ``from .x import f``, so a
function is reached through one binding per importing module: for example
``conclab.channels.apply``, ``conclab.factorization.apply`` and
``conclab.experiments.apply``. The tracer replaces every binding of a traced
function in every loaded conclab module, patches traced methods on their
class, and puts every original back when it is uninstalled.

Spans are aggregated as they close, per traced name: calls, self time (span
time minus the time its child spans cover) and calls that raised. Two counts
ride along: the PairTerms that ``bipartite_concurrence`` returns, each call
checked against the cut's number of generator pairs, and the ``tau3`` calls
made from ``conclab.experiments``.
"""

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# Traced public names, "<module>.<attribute>" under the conclab package. A
# class is traced through its __init__, which keeps class identity and
# isinstance checks intact. A name that no longer exists reads as 0 calls.
TARGETS = (
    "cli.cli_main",
    "states.parse_state",
    "states.PureState.to_density",
    "channels.sample_channel",
    "channels.apply",
    "concurrence.cut_concurrence",
    "concurrence.bipartite_concurrence",
    "concurrence.tau3",
    "linalg.DensityMatrix",
    "linalg.psd_sqrt",
    "linalg.permute_qubits",
    "factorization.run_campaign",
    "factorization.classify_scenario",
    "factorization.evaluate_identity",
    "factorization.CampaignReport.to_csv",
    "experiments.figure1_scan",
)


def _generator_pairs(cut):
    """Generator pairs of a cut with block dimensions d1 and d2: every
    bipartite concurrence returns one PairTerm for each."""
    return cut.d1 * (cut.d1 - 1) // 2 * (cut.d2 * (cut.d2 - 1) // 2)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in TARGETS}  # calls, self s, errors
        self.pair_terms = 0         # PairTerms returned by bipartite_concurrence
        self.pair_mismatches = []   # (cut label, pairs returned, pairs expected)
        self.tau3_evals = 0         # tau3 calls made through conclab.experiments
        self._open = []  # child time covered so far, one entry per open span

    def _span(self, name, fn):
        stats = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def _count_pairs(self, fn):
        """Count the PairTerms of each breakdown and check that there is one
        for every generator pair of the cut."""

        @functools.wraps(fn)
        def counted(rho, cut, *args, **kwargs):
            breakdown = fn(rho, cut, *args, **kwargs)
            pairs = len(breakdown.pairs)
            self.pair_terms += pairs
            if pairs != _generator_pairs(cut):
                self.pair_mismatches.append((cut.label, pairs, _generator_pairs(cut)))
            return breakdown

        return counted

    def _count_tau3(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.tau3_evals += 1
            return fn(*args, **kwargs)

        return counted

    def _install(self, name, undo):
        module_name, _, path = name.partition(".")
        module = sys.modules.get(f"conclab.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            return
        if owner_name or isinstance(original, type):
            if isinstance(original, type):
                owner, attr = original, "__init__"
            method = vars(owner).get(attr)
            if inspect.isfunction(method):
                undo.append((owner, attr, method))
                setattr(owner, attr, self._span(name, method))
            return
        inner = self._count_pairs(original) if name == "concurrence.bipartite_concurrence" \
            else original
        traced = self._span(name, inner)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "conclab" or mod_name.startswith("conclab.")):
                continue
            binding = self._count_tau3(traced) if mod_name == "conclab.experiments" \
                and name == "concurrence.tau3" else traced
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, binding)

    @contextmanager
    def installed(self):
        """Trace every target while the block runs; restore the bindings after."""
        undo = []
        try:
            for name in TARGETS:
                self._install(name, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def per_request(self, requests, time_scale=1.0):
        """Counts and self times per request, as {metric: (value, unit)};
        self times are multiplied by `time_scale`."""
        out = {}
        for name, (calls, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = (calls / requests, "calls/req")
            out[f"{name}.self_ms"] = (1e3 * time_scale * self_s / requests, "ms/req")
            out[f"{name}.errors"] = (errors / requests, "errors/req")
        out["concurrence.pair_terms"] = (self.pair_terms / requests, "terms/req")
        out["experiments.tau3_evals"] = (self.tau3_evals / requests, "evals/req")
        return out

    def layer_seconds(self):
        """Self time of every traced name below ``cli.cli_main``: the part of
        a request's wall time that the named layers explain."""
        return sum(stats[1] for name, stats in self.stats.items() if name != "cli.cli_main")
