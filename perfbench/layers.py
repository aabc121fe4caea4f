"""Per-module metrics of the traced run.

Each entry: metric name, unit, which direction is better, and the
workloads on which the metric moves an end-to-end metric (and so must read
nonzero on seed code; the self-test checks that).  Set-up metrics
(primes_up_to, the cache round trip, class_representatives, table misses
and size) are totals over the traced process; the rest are per job of the
traced phase.  README.md gives the reasoning per row.
"""

from __future__ import annotations

import statistics

from jobs import WORKLOADS as ALL

LATTICE = ("count", "sifted")

LAYERS = (
    ("arith.primes_up_to.s", "s", "lower", ALL),
    ("arith.primes_up_to.calls", "count", "lower", ALL),
    ("arith.cache.save_s", "s", "lower", ALL),
    ("arith.cache.load_s", "s", "lower", ALL),
    ("arith.cache.bytes", "bytes", "lower", ALL),
    ("arith.is_prime.calls", "count", "lower", ("bridge",)),
    ("arith.is_prime.s", "s", "lower", ("bridge",)),
    ("arith.sqrt_mod.calls", "count", "lower", ("bridge",)),
    ("arith.sqrt_mod.s", "s", "lower", ("bridge",)),
    ("arith.kronecker.calls", "count", "lower", ("bridge",)),
    ("arith.kronecker.s", "s", "lower", ("bridge",)),
    # li is only called by the sifted experiment; count and bridge never call it
    ("arith.li.calls", "count", "lower", ("sifted",)),
    ("arith.li.s", "s", "lower", ("sifted",)),
    ("quadforms.class_representatives.s", "s", "lower", ALL),
    ("quadforms.represented_blocks.s", "s", "lower", LATTICE),
    ("quadforms.represented_blocks.blocks", "count", "lower", LATTICE),
    ("quadforms.represented_blocks.points", "count", "lower", LATTICE),
    ("quadforms.points_per_s", "1/s", "higher", LATTICE),
    ("quadforms.prime_to_class.calls", "count", "lower", ("bridge",)),
    ("quadforms.prime_to_class.s", "s", "lower", ("bridge",)),
    ("quadforms.compose.calls", "count", "lower", ("bridge",)),
    ("quadforms.compose.s", "s", "lower", ("bridge",)),
    ("quadforms.reduce_form.calls", "count", "lower", ("bridge",)),
    ("quadforms.induced_form.calls", "count", "lower", ("sifted",)),
    ("chebotarev.prime_table.calls", "count", "lower", ALL),
    ("chebotarev.prime_table.misses", "count", "lower", ALL),
    ("chebotarev.table_bytes", "bytes", "lower", ALL),
    ("chebotarev.kernel.self_s", "s", "lower", LATTICE),
    ("chebotarev.hit_ratio", "ratio", "higher", LATTICE),
    ("chebotarev.psi_events.calls", "count", "lower", ("bridge",)),
    ("chebotarev.psi_events.s", "s", "lower", ("bridge",)),
    ("chebotarev.events", "count", "lower", ("bridge",)),
    ("chebotarev.pool.children_cpu_s", "s", "lower", ("count-w2",)),
    ("chebotarev.pool.efficiency", "ratio", "higher", ("count-w2",)),
    ("densities.delta_f.calls", "count", "lower", ("sifted",)),
    ("densities.delta_f.s", "s", "lower", ("sifted",)),
    ("betasieve.beta_sieve_weights.s", "s", "lower", ("sifted",)),
    ("betasieve.lambda_terms", "count", "lower", ("sifted",)),
    ("cli.self_s", "s", "lower", ("count", "sifted", "count-w2")),
    ("trace.job_s", "s", "lower", ALL),
    ("trace.overhead_s", "s", "lower", ()),
)

KERNELS = ("chebotarev.count_prime_points", "chebotarev.theorem15_experiment", "chebotarev.sieved_sum_S")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer, traced: list[dict], untraced: list[dict], workers: int, measured: dict) -> dict:
    """Per-module metrics from the tracer, the traced jobs, and the
    untraced pass that precedes them (pool metrics need no spans, and
    tracing would inflate the parent's CPU time).  `measured` holds the
    per-process metrics taken without spans."""
    P, J = ("setup", "jobs"), ("jobs",)
    n = len(traced)

    def calls(name):
        return _ratio(tracer.stat(J, name, 0), n)

    def self_s(name):
        return _ratio(tracer.stat(J, name, 2), n)

    points = tracer.counter(J, "quadforms.represented_blocks.points")
    returned = sum(r["value"] for r in traced if r["lattice"] and r["value"] is not None)
    wall_a = sum(r["wall"] for r in untraced)
    traced_s = statistics.median(r["wall"] for r in traced)
    out = {
        "arith.primes_up_to.s": tracer.stat(P, "arith.primes_up_to", 1),
        "arith.primes_up_to.calls": tracer.stat(P, "arith.primes_up_to", 0),
        "quadforms.class_representatives.s": tracer.stat(P, "quadforms.class_representatives", 1),
        "quadforms.represented_blocks.s": self_s("quadforms.represented_blocks"),
        "quadforms.represented_blocks.blocks": _ratio(
            tracer.counter(J, "quadforms.represented_blocks.blocks"), n
        ),
        "quadforms.represented_blocks.points": _ratio(points, n),
        "quadforms.points_per_s": _ratio(points, tracer.stat(J, "quadforms.represented_blocks", 2)),
        "chebotarev.prime_table.calls": calls("chebotarev.prime_table"),
        "chebotarev.prime_table.misses": tracer.counter(P, "chebotarev.prime_table.misses"),
        "chebotarev.kernel.self_s": sum(self_s(k) for k in KERNELS),
        "chebotarev.hit_ratio": _ratio(returned, points),
        "chebotarev.events": _ratio(tracer.counter(J, "chebotarev.events"), n),
        "chebotarev.pool.children_cpu_s": _ratio(sum(r["children_cpu"] for r in untraced), len(untraced)),
        "chebotarev.pool.efficiency": _ratio(sum(r["cpu"] for r in untraced), workers * wall_a),
        "betasieve.lambda_terms": _ratio(
            tracer.counter(J, "betasieve.lambda_terms"), tracer.stat(J, "betasieve.beta_sieve_weights", 0)
        ),
        "cli.self_s": self_s("cli.main"),
        "trace.job_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(r["wall"] for r in untraced),
        **measured,
    }
    for name in (
        "arith.is_prime",
        "arith.sqrt_mod",
        "arith.kronecker",
        "arith.li",
        "quadforms.prime_to_class",
        "quadforms.compose",
        "chebotarev.psi_events",
        "densities.delta_f",
    ):
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = self_s(name)
    out["quadforms.reduce_form.calls"] = calls("quadforms.reduce_form")
    out["quadforms.induced_form.calls"] = calls("quadforms.induced_form")
    out["betasieve.beta_sieve_weights.s"] = self_s("betasieve.beta_sieve_weights")
    return {name: out[name] for name, *_ in LAYERS}
