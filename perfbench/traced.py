"""The traced run: the real CLI experiments, with spans around module calls.

`install` replaces the module-level names through which `depevap.cli`
and `exact.build_state` reach other modules with wrappers that time
each call in a span named after the callee's module and count its
work; the worker then runs the unmodified `depevap.cli.run_experiment`.
`build_state` is not a span itself: its `enumerate_bridge` call is an
`exact` span and its per-trajectory `encode_trajectory` /
`canonical_key` calls are `codec` spans, so each span belongs to one
module.  Calls made inside a module stay in that module's span (the
DP's `exact.slice_outcomes`, seqgen's re-keying, the Schmidt split's
decode); `surface` has no span of its own.  Spans never nest: a wrapped
call made while a span is open only counts its work.

Two probes run after the experiments, outside their wall time: decoding
a stride of the largest state's keys (`key_to_config` + `decode_config`)
and enumerating each Hamiltonian sector (`sector_keys`), whose cost
otherwise sits inside `sector_spectrum`.
"""

from __future__ import annotations

import functools
import time

from depevap import cli, entropy, exact
from depevap.codec import decode_config, key_to_config
from depevap.hamiltonian import sector_keys
from depevap.params import ModelParams

DECODE_STRIDE = 4  # the decode probe decodes every 4th key of the largest state


class Recorder:
    """Busy seconds per (module.function span, L) and work counters."""

    def __init__(self):
        self.busy = {}
        self.counts = {}
        self.states = []
        self.hamiltonian_params = []
        self.open = False

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def spans(self):
        """[(span name, seconds, L)], one entry per name and L."""
        return [(name, seconds, L) for (name, L), seconds in self.busy.items()]


def site_updates(L, tmax):
    """Eligible-site updates per trajectory: sites 2..L-1 of the slice's parity."""
    odd_slices, even_slices = (tmax + 1) // 2, tmax // 2
    return odd_slices * len(range(2, L, 2)) + even_slices * len(range(3, L, 2))


def _size_L(args):
    """The lattice size of a call: from its first ModelParams or state argument."""
    for arg in args:
        params = getattr(arg, "params", arg)
        if isinstance(params, ModelParams):
            return params.L
    return None


def _wrap(rec, module, name, span=None, counted=None):
    """Replace module.name by a wrapper that times it in `span` and counts it.

    `span` is a span name, a function of the call's kwargs giving one, or
    None for a counter-only wrapper; `counted(args, result)` records work.
    """
    fn = getattr(module, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = span(kwargs) if callable(span) else span
        if label is None or rec.open:
            result = fn(*args, **kwargs)
        else:
            rec.open = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                key = (label, _size_L(args))
                rec.busy[key] = rec.busy.get(key, 0.0) + time.perf_counter() - start
                rec.open = False
        if counted:
            counted(args, result)
        return result

    setattr(module, name, traced)


def install() -> Recorder:
    """Wrap every module call the workloads' CLI experiments make."""
    rec = Recorder()

    def updates(args, _):
        params, samples, tmax = args
        rec.count("scaling.site_updates", samples * site_updates(params.L, tmax))

    def dp_profiles(args, dist):
        rec.count("entropy.dp_cut_profiles", len(dist.table))
        rec.count("entropy.dp_profile_slices", len(dist.table) * args[0].L)

    def term_pairs(args, _):
        terms, state = args
        rec.count("hamiltonian.term_key_pairs", len(terms) * len(state))

    def sector(args, _):
        rec.hamiltonian_params.append(args[1])

    _wrap(rec, cli, "ensemble", "scaling.ensemble", updates)
    _wrap(rec, cli, "exponent_report", "scaling.exponent_report")
    _wrap(rec, cli, "entropy_dp", "entropy.dp")
    _wrap(rec, entropy, "midcut_distribution", counted=dp_profiles)
    _wrap(rec, cli, "fit_power_law", "entropy.fit")
    _wrap(rec, cli, "entropy_exact", "entropy.schmidt",
          lambda args, _: rec.count("entropy.schmidt_keys", len(args[0])))
    _wrap(rec, cli, "build_state", counted=lambda _, state: rec.states.append(state))
    _wrap(rec, exact, "enumerate_bridge", "exact.enumerate",
          lambda _, trajs: rec.count("exact.bridges", len(trajs)))
    _wrap(rec, exact, "encode_trajectory", "codec.encode",
          lambda args, _: rec.count("codec.encoded_keys", 1))
    _wrap(rec, exact, "canonical_key", "codec.encode")
    _wrap(rec, cli, "run_generation",
          lambda kw: "seqgen.cooling" if kw.get("cooling") else "seqgen.generation",
          lambda _, result: rec.count("seqgen.kept_branches", len(result[0])))
    _wrap(rec, cli, "fidelity", "seqgen.fidelity")
    _wrap(rec, cli, "assemble_hamiltonian", "hamiltonian.assemble",
          lambda _, terms: rec.count("hamiltonian.terms", len(terms)))
    _wrap(rec, cli, "term_residuals", "hamiltonian.residuals", term_pairs)
    _wrap(rec, cli, "sector_spectrum", "hamiltonian.spectrum", sector)
    return rec


def run_probes(rec):
    """Decode and sector-enumeration probes; (seconds, work) per probe."""
    probes = {}
    if rec.states:
        state = max(rec.states, key=len)
        keys = sorted(state.amplitudes)[::DECODE_STRIDE]
        start = time.perf_counter()
        for key in keys:
            decode_config(key_to_config(key, state.params), state.params)
        probes["codec.decode"] = (time.perf_counter() - start, len(keys))
    if rec.hamiltonian_params:
        start = time.perf_counter()
        states = sum(len(sector_keys(params)) for params in rec.hamiltonian_params)
        probes["hamiltonian.sector_keys"] = (time.perf_counter() - start, states)
    return probes
