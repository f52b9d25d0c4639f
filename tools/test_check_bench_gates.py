#!/usr/bin/env python3
"""Self-test of check_bench_gates.py over minimal inline fixtures.

A fixture set built from the checker's own SCHEMA (one document per bench
kind, as a 1-thread and a 4-thread copy) must pass; each single defect
below must make the checker exit nonzero for the stated reason.

Usage: test_check_bench_gates.py   (runs under ctest as test_check_bench_gates)
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ beside the checker
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_gates as checker  # noqa: E402


def valid_doc(bench):
    doc = {"bench": bench, "num_threads": 4, "binary_kernel": "scalar",
           "cpu_features": "avx2", "gates_ok": True}
    for scenario, (gates, fps) in checker.SCHEMA[bench].items():
        doc[scenario] = {
            "gates": {gate: True for gate in gates},
            "fingerprints": {fp: "0x00000000000000aa" for fp in fps},
        }
    return doc


def valid_set():
    """{file name: document}: every bench kind at two pool widths."""
    docs = {}
    for bench in checker.SCHEMA:
        docs[f"BENCH_{bench}_1t.json"] = valid_doc(bench)
        docs[f"BENCH_{bench}.json"] = valid_doc(bench)
    return docs


class CheckBenchGatesTest(unittest.TestCase):
    def run_checker(self, docs):
        """(exit status, stderr) of the checker over `docs` written out."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in docs.items():
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = checker.main(["check_bench_gates.py"] + paths)
        return status, err.getvalue()

    def assert_fails(self, docs, reason):
        status, err = self.run_checker(docs)
        self.assertEqual(status, 1, err)
        self.assertIn(reason, err)

    def test_valid_set_passes(self):
        status, err = self.run_checker(valid_set())
        self.assertEqual(status, 0, err)

    def test_false_gate_fails(self):
        docs = valid_set()
        docs["BENCH_serve.json"]["pulse"]["gates"]["noisy_fused"] = False
        self.assert_fails(docs, "gates.noisy_fused is False")

    def test_missing_required_gate_fails(self):
        docs = valid_set()
        del docs["BENCH_serve.json"]["conv_noisy"]["gates"]["noisy_fused"]
        self.assert_fails(docs, "missing required gate 'noisy_fused'")

    def test_missing_scenario_fails(self):
        docs = valid_set()
        del docs["BENCH_serve.json"]["pulse"]
        self.assert_fails(docs, "scenario 'pulse' missing")

    def test_unexpected_scenario_fails(self):
        docs = valid_set()
        docs["BENCH_serve_slo.json"]["extra"] = {"gates": {}}
        self.assert_fails(docs, "unexpected scenario 'extra'")

    def test_unknown_bench_kind_fails(self):
        docs = valid_set()
        docs["BENCH_other.json"] = dict(valid_doc("serve"), bench="mvm")
        self.assert_fails(docs, "unknown bench kind 'mvm'")

    def test_fingerprint_mismatch_across_files_fails(self):
        docs = valid_set()
        leg = docs["BENCH_serve_swap_1t.json"]["swap_rollback"]
        leg["fingerprints"]["payload"] = "0x00000000000000bb"
        self.assert_fails(docs, "fingerprint 'payload' differs")

    def test_missing_fingerprint_fails(self):
        docs = valid_set()
        del docs["BENCH_serve_router.json"]["router_flash"]["fingerprints"][
            "routing"]
        self.assert_fails(docs, "missing fingerprint 'routing'")

    def test_missing_binary_kernel_fails(self):
        docs = valid_set()
        del docs["BENCH_serve_slo.json"]["binary_kernel"]
        self.assert_fails(docs, "binary_kernel missing or empty")

    def test_gates_ok_false_fails(self):
        docs = valid_set()
        docs["BENCH_serve.json"]["gates_ok"] = False
        self.assert_fails(docs, "gates_ok is False")

    def test_single_file_is_checked_alone(self):
        docs = {"BENCH_serve.json": valid_doc("serve")}
        status, err = self.run_checker(docs)
        self.assertEqual(status, 0, err)


if __name__ == "__main__":
    unittest.main()
