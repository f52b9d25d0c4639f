#!/usr/bin/env python3
"""Gate check over bench_serve's JSON artifacts (BENCH_serve*.json).

Every scenario in a bench document carries two maps (bench/bench_serve.cpp):

    gates         {name: bool}  the scenario's hard contracts
    fingerprints  {name: hex}   payload, causal-trace, shed-set, routing,
                                provenance and verdict hashes

One schema table, SCHEMA below, maps each bench kind to its exact scenario
set and to each scenario's required gates and fingerprints. One generic walk
then requires, for every document passed:

  * its "bench" kind is in SCHEMA, and it records the dispatched binary
    kernel and the CPUID feature string (binary_kernel / cpu_features);
  * its scenario set is exactly the schema's;
  * every required gate and fingerprint is present, no gate anywhere is
    false, and the document's gates_ok is true;

and, across ALL documents passed in one invocation, that every fingerprint
with the same (bench, scenario, name) is equal. CI passes the 1-thread and
4-thread artifacts together, so this is the cross-pool half of the payload,
causal-trace, shed-set, routing and provenance determinism contracts.

The trace gates are recorded only when tracing ran, so an artifact produced
with tracing disabled fails as "missing required gate".

Wall-clock numbers vary across runners and are never gated. A markdown
summary per document (suitable for $GITHUB_STEP_SUMMARY) goes to stdout,
failures to stderr; the exit status is 1 on any failure.

Usage: check_bench_gates.py BENCH_serve.json [BENCH_serve_slo.json ...]
"""
import json
import sys

TRACE = ("causal_match_1_vs_n", "causal_matches_oracle", "no_drops",
         "zero_steady_ring_allocs")
SERVE = ("bitwise_1_vs_n_workers", "batching_invariant", "arena_steady_state",
         "zero_steady_packs", "zero_steady_binary_packs") + TRACE
NOISY = SERVE + ("noisy_fused",)
SLO = ("slo_payload_match", "shed_set_deterministic", "zero_late_success",
       "p99_bounded", "no_lost_requests", "ladder_recovered",
       "overload_exercised", "faults_retried") + TRACE
SHARDED = ("engine_bitwise_sharded_vs_unsharded",
           "network_bitwise_sharded_vs_unsharded")
ROUTER = ("router_payload_match", "routing_deterministic",
          "replica_sheds_match", "replica_zero_allocs", "fleet_shed_match",
          "no_lost_requests", "outage_rerouted", "autoscale_bounded",
          "overload_exercised") + TRACE
SWAP = ("swap_payload_match", "provenance_matches_plan",
        "zero_dropped_by_swap", "provenance_exact", "verdict_exercised",
        "swap_zero_allocs", "swap_zero_packs") + TRACE

SERVE_FP = ("payload", "causal")
REPLICA_FP = ("replica0_shed_set", "replica1_shed_set", "replica2_shed_set")

# bench kind -> {scenario: (required gates, required fingerprints)}
SCHEMA = {
    "serve": {
        "analytic_clean": (SERVE, SERVE_FP),
        "analytic_noisy": (NOISY, SERVE_FP),
        "conv_clean": (SERVE, SERVE_FP),
        "conv_noisy": (NOISY, SERVE_FP),
        "pulse": (NOISY, SERVE_FP),
    },
    "serve_slo": {
        "slo_flash": (SLO, SERVE_FP + ("shed_set",)),
    },
    "serve_router": {
        "sharded_mvm": (SHARDED, ("payload",)),
        "router_flash": (ROUTER,
                         SERVE_FP + ("routing", "shed_set") + REPLICA_FP),
    },
    "serve_swap": {
        leg: (SWAP, SERVE_FP + ("provenance", "shed_set", "verdict"))
        for leg in ("swap_flash", "swap_rollback")
    },
}

# Document-level keys that must be non-empty: what hardware path ran.
DOC_KEYS = ("binary_kernel", "cpu_features")


def gate_maps(node, where):
    """Yields (where, gates) for every "gates" map anywhere under node."""
    if isinstance(node, dict):
        for key, child in node.items():
            if key == "gates":
                yield where, child
            else:
                yield from gate_maps(child, f"{where}.{key}")
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from gate_maps(child, f"{where}[{i}]")


def check_doc(path, doc, fingerprints):
    """Failures of one document; records its fingerprints for the
    cross-artifact comparison."""
    bench = doc.get("bench")
    schema = SCHEMA.get(bench)
    if schema is None:
        return [f"{path}: unknown bench kind {bench!r} "
                f"(known: {', '.join(sorted(SCHEMA))})"]
    failures = [f"{path}: {key} missing or empty"
                for key in DOC_KEYS if not doc.get(key)]
    if doc.get("gates_ok") is not True:
        failures.append(f"{path}: gates_ok is {doc.get('gates_ok')!r}")
    for where, gates in gate_maps(doc, path):
        if not isinstance(gates, dict):
            failures.append(f"{where}.gates is not an object")
            continue
        failures += [f"{where}.gates.{name} is {value!r}, expected true"
                     for name, value in gates.items() if value is not True]

    scenarios = {name: node for name, node in doc.items()
                 if isinstance(node, dict) and "gates" in node}
    failures += [f"{path}: scenario '{name}' missing"
                 for name in schema if name not in scenarios]
    failures += [f"{path}: unexpected scenario '{name}'"
                 for name in scenarios if name not in schema]
    for name, node in scenarios.items():
        gates = node["gates"] if isinstance(node["gates"], dict) else {}
        fps = node.get("fingerprints")
        fps = fps if isinstance(fps, dict) else {}
        required_gates, required_fps = schema.get(name, ((), ()))
        failures += [f"{path}: {name} is missing required gate '{gate}'"
                     for gate in required_gates if gate not in gates]
        failures += [f"{path}: {name} is missing fingerprint '{fp}'"
                     for fp in required_fps if not fps.get(fp)]
        for fp, value in fps.items():
            fingerprints.setdefault((bench, name, fp), []).append(
                (path, value))
    return failures


def summary(path, doc):
    """Markdown block for one document: per-scenario gate tally, p50 and
    fingerprints."""
    lines = [f"### `{path}` ({doc.get('bench')}, "
             f"pool={doc.get('num_threads', '?')} threads, "
             f"binary kernel `{doc.get('binary_kernel', '?')}`)\n",
             "| scenario | gates true | p50 us | fingerprints |",
             "|---|---|---|---|"]
    for name, node in doc.items():
        if not isinstance(node, dict) or "gates" not in node:
            continue
        gates = node["gates"] if isinstance(node["gates"], dict) else {}
        true = sum(1 for v in gates.values() if v is True)
        p50 = node.get("latency", {}).get("p50_us")
        fps = node.get("fingerprints", {})
        lines.append(
            f"| {name} | {true}/{len(gates)} | "
            f"{'' if p50 is None else f'{p50:.0f}'} | "
            + " ".join(f"{k}={v}" for k, v in fps.items()) + " |")
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    fingerprints = {}
    print("## bench gates\n")
    for path in argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            failures.append(f"{path}: unreadable ({e})")
            continue
        if not isinstance(doc, dict):
            failures.append(f"{path}: not a JSON object")
            continue
        doc_failures = check_doc(path, doc, fingerprints)
        failures += doc_failures
        print(summary(path, doc))
        print(f"gates: **{'FAILED' if doc_failures else 'all true'}**\n")
    for (bench, scenario, name), entries in sorted(fingerprints.items()):
        if len({value for _, value in entries}) > 1:
            detail = ", ".join(f"{p}={v}" for p, v in entries)
            failures.append(f"{bench}/{scenario}: fingerprint '{name}' "
                            f"differs across artifacts ({detail})")
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
