"""Unit tests for the command-line interface."""

import json

import pytest

from repro.circuits import get_circuit, to_qasm
from repro.cli import main


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "ghz.qasm"
    path.write_text(to_qasm(get_circuit("ghz", 4)))
    return str(path)


class TestFamilies:
    def test_lists_known_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "supremacy" in out and "ghz" in out and "grover" in out


class TestSimulate:
    def test_generator_family(self, capsys):
        code = main(
            ["simulate", "--family", "ghz", "--qubits", "4", "--top", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0000" in out and "1111" in out

    def test_qasm_file(self, qasm_file, capsys):
        assert main(["simulate", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "runtime_seconds" in out

    def test_json_output(self, capsys):
        assert main(
            ["simulate", "--family", "ghz", "--qubits", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qubits"] == 3
        assert payload["gates"] == 3
        assert "top_outcomes" in payload

    def test_sampling_mode(self, capsys):
        assert main(
            ["simulate", "--family", "ghz", "--qubits", "3",
             "--shots", "100", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["counts"].values()) == 100
        assert set(payload["counts"]) <= {"000", "111"}

    @pytest.mark.parametrize("backend", ["flatdd", "ddsim", "quantumpp"])
    def test_all_backends(self, backend, capsys):
        assert main(
            ["simulate", "--family", "qft", "--qubits", "4",
             "--backend", backend]
        ) == 0

    def test_missing_input_errors(self, capsys):
        assert main(["simulate"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys):
        assert main(["simulate", "/nonexistent.qasm"]) == 2


class TestSweep:
    @pytest.fixture
    def template_file(self, tmp_path):
        from repro.circuits import Circuit

        c = Circuit(3, name="tpl")
        for q in range(3):
            c.h(q)
        for q in range(3):
            c.ry(0.0, q)
        path = tmp_path / "tpl.qasm"
        path.write_text(to_qasm(c))
        return str(path)

    def test_points_json_counters(self, template_file, capsys):
        assert main(
            ["sweep", template_file, "--points", "4", "--threads", "2",
             "--force-convert-at", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 4
        assert payload["mode"] == "batched"
        counters = payload["obs"]["counters"]
        assert counters["dmav.sweep.rows"] == 4
        assert counters["dmav.sweep.unique_rows"] == 4
        assert counters["dmav.sweep.gates_batched"] > 0

    def test_params_file(self, template_file, tmp_path, capsys):
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]))
        assert main(
            ["sweep", template_file, "--params", str(rows), "--threads", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "rows: 2" in out

    def test_params_jsonl_file(self, template_file, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text("# rows\n[0.1, 0.2, 0.3]\n[0.4, 0.5, 0.6]\n")
        assert main(
            ["sweep", template_file, "--params", str(rows), "--threads", "2",
             "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 2

    def test_requires_exactly_one_row_source(self, template_file, capsys):
        assert main(["sweep", template_file]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_bad_params_file_errors(self, template_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "rows"}')
        assert main(
            ["sweep", template_file, "--params", str(bad)]
        ) == 2
        assert "parameter rows" in capsys.readouterr().err

    def test_memory_budget_breach_exits_3_with_snapshot(
        self, template_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "sweep.ckpt"
        code = main(
            ["sweep", template_file, "--points", "3", "--threads", "2",
             "--force-convert-at", "0", "--memory-budget", "1",
             "--checkpoint", str(ckpt)]
        )
        assert code == 3
        assert ckpt.exists()
        from repro.resilience.snapshot import read_snapshot

        assert read_snapshot(str(ckpt)).phase == "sweep"


class TestCompare:
    def test_compare_reports_all_backends(self, capsys):
        assert main(
            ["compare", "--family", "ghz", "--qubits", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "flatdd" in out and "ddsim" in out and "quantumpp" in out
        assert "fidelity" in out


class TestEquivalence:
    def test_equivalent_files(self, qasm_file, capsys):
        assert main(["equivalence", qasm_file, qasm_file]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_inequivalent_files(self, qasm_file, tmp_path, capsys):
        other = tmp_path / "other.qasm"
        c = get_circuit("ghz", 4)
        c.t(2)
        other.write_text(to_qasm(c))
        assert main(["equivalence", qasm_file, str(other)]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestSummarize:
    def test_summary_output(self, capsys):
        assert main(["summarize", "--family", "qft", "--qubits", "5"]) == 0
        out = capsys.readouterr().out
        assert "depth" in out and "two-qubit gates" in out
        assert "qubits:            5" in out


class TestTranspile:
    def test_stdout_qasm(self, capsys):
        assert main(["transpile", "--family", "ghz", "--qubits", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")
        assert "cx" in out

    def test_output_file_roundtrips(self, tmp_path, capsys):
        import numpy as np

        from repro.backends import StatevectorSimulator
        from repro.circuits import get_circuit, parse_qasm

        dest = tmp_path / "out.qasm"
        assert main(
            ["transpile", "--family", "qft", "--qubits", "4",
             "-o", str(dest)]
        ) == 0
        transpiled = parse_qasm(dest.read_text())
        ref = StatevectorSimulator().run(get_circuit("qft", 4)).state
        got = StatevectorSimulator().run(transpiled).state
        fid = abs(np.vdot(ref, got)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-8)


class TestReport:
    def test_collects_result_files(self, tmp_path, capsys):
        (tmp_path / "exp_a.txt").write_text("Table A\n=======\nrow\n")
        (tmp_path / "exp_b.txt").write_text("Table B\n=======\nrow\n")
        dest = tmp_path / "report.txt"
        assert main(
            ["report", "--results-dir", str(tmp_path), "-o", str(dest)]
        ) == 0
        text = dest.read_text()
        assert "Table A" in text and "Table B" in text

    def test_empty_dir_errors(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1
        assert "no result files" in capsys.readouterr().err

    def test_summarizes_telemetry_jsonl(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, TelemetrySampler

        reg = MetricsRegistry()
        reg.counter("serve.jobs.done").inc(5)
        reg.histogram("serve.latency.e2e").observe(0.02)
        path = str(tmp_path / "tele.jsonl")
        sampler = TelemetrySampler(reg, jsonl_path=path)
        sampler.sample_now()
        sampler.stop()
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "2 sample(s)" in out
        assert "serve.latency.e2e" in out
        assert "serve.jobs.done" in out

    def test_summarizes_chrome_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(
            ["simulate", "--family", "ghz", "--qubits", "4",
             "--trace", trace]
        ) == 0
        capsys.readouterr()
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out
        assert "phase" in out

    def test_rejects_unrecognizable_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("plain text, not a trace\n")
        assert main(["report", str(path)]) == 2


class TestChaosCli:
    def test_list_faults(self, capsys):
        assert main(["chaos", "--list-faults"]) == 0
        out = capsys.readouterr().out
        assert "transport" in out and "kill_worker" in out

    def test_unknown_regime_errors(self, capsys):
        assert main(["chaos", "--regimes", "weather"]) == 2
        assert "unknown chaos regime" in capsys.readouterr().err

    def test_unknown_plant_bug_errors(self, capsys):
        assert main(["chaos", "--plant-bug", "nope"]) == 2
        assert "unknown planted chaos bug" in capsys.readouterr().err

    @pytest.mark.serve
    def test_schedule_replay_json_summary(self, tmp_path, capsys):
        from repro.chaos import ChaosFault, ChaosSchedule, schedule_to_json

        sched = ChaosSchedule(
            seed=0, iteration=0, regime="transport",
            faults=(ChaosFault(at=0, kind="duplicate_frame"),),
        )
        path = schedule_to_json(sched, str(tmp_path / "sched.json"))
        assert main(["chaos", "--schedule", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["runs"] == 1
        assert summary["fault_counts"].get("duplicate_frame") == 1


class TestServeJournalFsyncFlag:
    def test_requires_journal_path(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"family": "ghz", "qubits": 3}) + "\n"
        )
        assert main(["serve", str(manifest), "--journal-fsync"]) == 2
        err = capsys.readouterr().err
        assert "--journal-fsync requires --journal" in err

    @pytest.mark.serve
    def test_fsync_flag_journals_durably(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"family": "ghz", "qubits": 3}) + "\n"
        )
        journal = tmp_path / "wal.jsonl"
        assert main([
            "serve", str(manifest), "--threads", "1",
            "--journal", str(journal), "--journal-fsync", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["states"] == {"DONE": 1}
        records = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert any(r.get("to") == "DONE" for r in records)
