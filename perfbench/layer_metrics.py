"""Per-layer metrics from the traced workers' spans, counters and probes.

A span is (module.function, seconds, L); busy time sums a name's spans
over all traced workloads.  Rates divide a counter by the busy
time of the span that did the work.
"""

from __future__ import annotations

import math
from collections import Counter


def _ratio(a, b):
    return a / b if b else 0.0


def busy_by_name(spans) -> dict:
    """{span name: total seconds} of one traced worker."""
    out = {}
    for name, seconds, _ in spans:
        out[name] = out.get(name, 0.0) + seconds
    return out


def per_layer(reports: dict, untraced_wall: float, traced_wall: float) -> dict:
    """{metric: (value, unit)} from {workload: traced worker report}.

    `traced_wall` and `untraced_wall` are the requested workload's wall
    times with and without tracing; their difference is the overhead.
    """
    spans = [span for r in reports.values() for span in r["spans"]]
    counts = Counter()
    probes = {}
    for r in reports.values():
        counts.update(r["counts"])
        for name, (seconds, work) in r["probes"].items():
            prev = probes.get(name, (0.0, 0))
            probes[name] = (prev[0] + seconds, prev[1] + work)

    def busy(name, L=None):
        return math.fsum(d for n, d, at in spans if n == name and (L is None or at == L))

    dp_largest_L = max((at for n, _, at in spans if n == "entropy.dp"), default=None)
    decode_s, decoded = probes.get("codec.decode", (0.0, 0))
    sector_s, sector_states = probes.get("hamiltonian.sector_keys", (0.0, 0))
    traced_total = math.fsum(r["wall_s"] for r in reports.values())
    return {
        "scaling.ensemble_s": (busy("scaling.ensemble"), "s"),
        "scaling.ns_per_site_update": (
            1e9 * _ratio(busy("scaling.ensemble"), counts["scaling.site_updates"]), "ns"),
        "scaling.site_updates": (counts["scaling.site_updates"], "count"),
        "scaling.exponent_report_s": (busy("scaling.exponent_report"), "s"),
        "entropy.dp_s": (busy("entropy.dp"), "s"),
        "entropy.dp_largest_s": (busy("entropy.dp", dp_largest_L), "s"),
        "entropy.dp_cut_profiles": (counts["entropy.dp_cut_profiles"], "count"),
        "entropy.dp_us_per_profile_slice": (
            1e6 * _ratio(busy("entropy.dp"), counts["entropy.dp_profile_slices"]), "us"),
        "entropy.schmidt_s": (busy("entropy.schmidt"), "s"),
        "entropy.schmidt_us_per_key": (
            1e6 * _ratio(busy("entropy.schmidt"), counts["entropy.schmidt_keys"]), "us"),
        "exact.enumerate_s": (busy("exact.enumerate"), "s"),
        "exact.bridges": (counts["exact.bridges"], "count"),
        "exact.bridges_per_s": (_ratio(counts["exact.bridges"], busy("exact.enumerate")), "1/s"),
        "codec.encode_s": (busy("codec.encode"), "s"),
        "codec.encode_keys_per_s": (
            _ratio(counts["codec.encoded_keys"], busy("codec.encode")), "1/s"),
        "codec.decode_keys_per_s": (_ratio(decoded, decode_s), "1/s"),
        "seqgen.generation_s": (busy("seqgen.generation"), "s"),
        "seqgen.cooling_s": (busy("seqgen.cooling"), "s"),
        "seqgen.kept_branches": (counts["seqgen.kept_branches"], "count"),
        "seqgen.fidelity_s": (busy("seqgen.fidelity"), "s"),
        "hamiltonian.assemble_s": (busy("hamiltonian.assemble"), "s"),
        "hamiltonian.terms": (counts["hamiltonian.terms"], "count"),
        "hamiltonian.residuals_s": (busy("hamiltonian.residuals"), "s"),
        "hamiltonian.term_key_pairs_per_s": (
            _ratio(counts["hamiltonian.term_key_pairs"], busy("hamiltonian.residuals")), "1/s"),
        "hamiltonian.sector_keys_s": (sector_s, "s"),
        "hamiltonian.sector_states": (sector_states, "count"),
        "hamiltonian.spectrum_s": (busy("hamiltonian.spectrum"), "s"),
        "trace.covered_frac": (_ratio(math.fsum(d for _, d, _ in spans), traced_total), "ratio"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
