"""Per-layer metrics: how each is computed from spans, and what it predicts.

Names and units live in BENCHMARK.json; this table adds, for every
per-layer metric, the rule that computes it from a traced run, the
end-to-end metric it should move and the workload it should move it on.
Unless the rule says otherwise a value covers one pass of a workload's
fixed work and is the median over the traced passes of the run.

There are no queues or worker threads in margulis, so no layer has a
wait-time metric; the run output says so instead of reporting zeros.
"""

from __future__ import annotations

import statistics

from tracing import self_times

NO_WAIT_NOTE = ("no wait metrics: margulis is single-process and "
                "single-threaded, with no queues or worker threads")

# name: (rule, span or counter, moves, on workload)
#
# rules: self_s   summed self time of the span per pass
#        calls    number of such spans per pass
#        p50_ms / p90_ms   percentile of the span's duration over all traced
#                 passes (the sample count is reported beside it)
#        sum:<f>  summed span field <f> per pass; max:<f> its largest value
#        setup+self_s / setup+sum:<f>   as above, plus what set-up recorded
#        import_s median duration of one ``import margulis``
#        count    counter value per pass
#        overhead median traced pass minus median untraced pass
#        coverage share of the traced pass that spans cover
PER_LAYER = {
    "walk.walk_matrix_s": ("self_s", "walk.walk_matrix", "solve_s, peak_rss_mb", "gap_ladder (no change on wigner_mixing)"),
    "walk.walk_matrix_calls": ("calls", "walk.walk_matrix", "solve_s, peak_rss_mb", "gap_ladder (no change on wigner_mixing)"),
    "walk.spectral_report_s": ("self_s", "walk.spectral_report", "solve_s, peak_rss_mb", "gap_ladder (no change on wigner_mixing)"),
    "walk.spectral_report_calls": ("calls", "walk.spectral_report", "solve_s, peak_rss_mb", "gap_ladder (no change on wigner_mixing)"),
    "walk.eigensolves": ("count", "walk.eigensolves", "solve_s, peak_rss_mb", "gap_ladder (no change on wigner_mixing)"),
    "walk.walk_step_s": ("self_s", "walk.walk_step", "solve_s", "wigner_mixing; cli_session via cli.walk_s"),
    "walk.walk_step_calls": ("calls", "walk.walk_step", "solve_s", "wigner_mixing; cli_session via cli.walk_s"),
    "walk.walk_step_p50_ms": ("p50_ms", "walk.walk_step", "solve_s", "wigner_mixing; cli_session via cli.walk_s"),
    "walk.walk_step_p90_ms": ("p90_ms", "walk.walk_step", "solve_s", "wigner_mixing; cli_session via cli.walk_s"),
    "walk.export_s": ("self_s", "walk.export", "solve_s", "wigner_mixing; cli_session via cli.walk_s"),
    "walk.export_bytes": ("sum:bytes", "walk.export", "solve_s", "wigner_mixing; cli_session via cli.walk_s"),
    "phasespace.warmup_s": ("setup+self_s", "phasespace.warmup", "setup_s, peak_rss_mb", "wigner_mixing (no change on gap_ladder)"),
    "phasespace.warmup_rss_mb": ("setup+sum:rss_mb", "phasespace.warmup", "setup_s, peak_rss_mb", "wigner_mixing (no change on gap_ladder)"),
    "phasespace.wigner_s": ("self_s", "phasespace.wigner", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "phasespace.wigner_calls": ("calls", "phasespace.wigner", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "phasespace.wigner_p50_ms": ("p50_ms", "phasespace.wigner", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "phasespace.wigner_p90_ms": ("p90_ms", "phasespace.wigner", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "phasespace.inverse_wigner_s": ("self_s", "phasespace.inverse_wigner", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "phasespace.inverse_wigner_calls": ("calls", "phasespace.inverse_wigner", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "phasespace.affine_unitary_s": ("self_s", "phasespace.affine_unitary", "solve_s", "wigner_mixing; cli_session via cli.verify_s"),
    "channel.build_s": ("self_s", "channel.build", "solve_s", "wigner_mixing (apply is ~1 % of a step); cli_session via verify"),
    "channel.apply_s": ("self_s", "channel.apply", "solve_s", "wigner_mixing (apply is ~1 % of a step); cli_session via verify"),
    "channel.apply_calls": ("calls", "channel.apply", "solve_s", "wigner_mixing (apply is ~1 % of a step); cli_session via verify"),
    "channel.apply_p50_ms": ("p50_ms", "channel.apply", "solve_s", "wigner_mixing (apply is ~1 % of a step); cli_session via verify"),
    "channel.apply_p90_ms": ("p90_ms", "channel.apply", "solve_s", "wigner_mixing (apply is ~1 % of a step); cli_session via verify"),
    "channel.intertwining_s": ("self_s", "channel.intertwining", "solve_s", "wigner_mixing (apply is ~1 % of a step); cli_session via verify"),
    "channel.superoperator_s": ("self_s", "channel.superoperator", "solve_s", "gap_ladder (<1 % today)"),
    "channel.expander_lambda_s": ("self_s", "channel.expander_lambda", "solve_s", "gap_ladder (<1 % today)"),
    "circuits.synth_s": ("self_s", "circuits.synth", "solve_s", "cli_session (absent elsewhere)"),
    "circuits.gates": ("sum:gates", "circuits.synth", "solve_s", "cli_session (absent elsewhere)"),
    "circuits.evaluate_s": ("self_s", "circuits.evaluate", "solve_s", "cli_session (absent elsewhere)"),
    "circuits.evaluate_calls": ("calls", "circuits.evaluate", "solve_s", "cli_session (absent elsewhere)"),
    "continuous.discretize_s": ("self_s", "continuous.discretize", "solve_s", "cli_session"),
    "continuous.contraction_s": ("self_s", "continuous.contraction", "solve_s", "cli_session"),
    "continuous.N_embed": ("max:N_embed", "continuous.contraction", "solve_s", "cli_session"),
    "continuous.moments_s": ("self_s", "continuous.moments", "solve_s", "cli_session"),
    "cli.import_s": ("import_s", "cli.import", "setup_s (import on every workload), solve_s", "cli_session"),
    "cli.verify_s": ("self_s", "cli.verify", "solve_s", "cli_session"),
    "cli.circuit_s": ("self_s", "cli.circuit", "solve_s", "cli_session"),
    "cli.walk_s": ("self_s", "cli.walk", "solve_s", "cli_session"),
    "cli.contraction_s": ("self_s", "cli.contraction", "solve_s", "cli_session"),
    "cli.spectrum_s": ("self_s", "cli.spectrum", "solve_s", "cli_session"),
    "cli.moments_s": ("self_s", "cli.moments", "solve_s", "cli_session"),
    "cli.output_bytes": ("sum:output_bytes", "cli.", "solve_s", "cli_session"),
    "trace.overhead_s": ("overhead", "", "none", "all"),
    "trace.span_coverage": ("coverage", "", "none (at least 0.9 on gap_ladder and wigner_mixing)", "all"),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: int) -> float:
    """q-th percentile (q in 10..90, step 10) by linear interpolation."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1])


def summarize(spans: list[dict], counts: dict, traced_passes: list[float],
              untraced_passes: list[float]) -> tuple[dict, dict]:
    """Per-layer metric values and their sample counts from one traced run.

    ``traced_passes`` / ``untraced_passes`` are the wall times of the
    passes made with and without spans; pass k's spans carry run
    id "pass-<k>" for the k-th traced pass.
    """
    own = self_times(spans)
    runs = [f"pass-{k}" for k in range(len(traced_passes))]

    def matching(source, run=None):
        return [s for s in spans if (s["name"].startswith(source) if source.endswith(".")
                                     else s["name"] == source)
                and (run is None or s["run"] == run)]

    def per_pass(source, reduce):
        return [reduce(matching(source, run)) for run in runs]

    values, samples = {}, {}
    for name, (rule, source, _, _) in PER_LAYER.items():
        n = len(runs)
        if rule in ("self_s", "setup+self_s"):
            v = _median(per_pass(source, lambda ss: sum(own[s["id"]] for s in ss)))
            if rule.startswith("setup+"):
                v += sum(own[s["id"]] for s in matching(source, "setup"))
        elif rule == "calls":
            v = _median(per_pass(source, len))
        elif rule.startswith(("sum:", "setup+sum:")):
            field = rule.split(":")[1]
            v = _median(per_pass(source, lambda ss: sum(s.get(field, 0) for s in ss)))
            if rule.startswith("setup+"):
                v += sum(s.get(field, 0) for s in matching(source, "setup"))
        elif rule.startswith("max:"):
            field = rule.split(":")[1]
            v = _median(per_pass(source, lambda ss: max((s.get(field, 0) for s in ss), default=0)))
        elif rule in ("p50_ms", "p90_ms"):
            durations = [1e3 * (s["end"] - s["start"]) for s in matching(source)
                         if s["run"] != "setup"]
            v, n = _percentile(durations, int(rule[1:3])), len(durations)
        elif rule == "import_s":
            durations = [s["end"] - s["start"] for s in matching(source)]
            v, n = _median(durations), len(durations)
        elif rule == "count":
            v = _median([counts.get((run, source), 0) for run in runs])
        elif rule == "overhead":
            v = _median(traced_passes) - _median(untraced_passes)
            n = min(len(traced_passes), len(untraced_passes))
        elif rule == "coverage":
            v = _median([sum(own[s["id"]] for s in spans if s["run"] == run) / wall
                         for run, wall in zip(runs, traced_passes)])
        else:
            raise ValueError(f"unknown rule {rule!r} for {name}")
        values[name], samples[name] = float(v), n
    return values, samples
