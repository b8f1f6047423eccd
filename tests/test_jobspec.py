"""The canonical job-spec model: round-trips, keys, CLI parity."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.errors import JobSpecError
from repro.exit_codes import (
    EXIT_AUDIT,
    EXIT_DEADLINE,
    EXIT_DEGRADED,
    EXIT_INTERNAL,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SWEEP,
    EXIT_USAGE,
    describe,
)
from repro.harness.cli import build_parser
from repro.harness.replay import log_cache_key
from repro.harness.supervisor import point_key
from repro.serve.jobspec import (
    JOBSPEC_VERSION,
    CanonicalSet,
    JobSpec,
    canonicalize,
    content_key,
    pickle_digest,
    point_content_key,
    result_digest,
)


def _spec(**overrides) -> JobSpec:
    fields = {"workload": "FIMI", "cores": 2, "source": "synthetic", "accesses": 2048}
    fields.update(overrides)
    return JobSpec(**fields)


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = _spec(cache=(1024 * 1024, 4 * 1024 * 1024), repeats=3)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_content_key_stable_across_dict_ordering(self):
        spec = _spec()
        payload = spec.to_json()
        shuffled = dict(reversed(list(payload.items())))
        assert json.dumps(payload) != json.dumps(shuffled)  # order differs
        assert JobSpec.from_json(shuffled).content_key() == spec.content_key()

    def test_content_key_round_trips_through_serialized_json(self):
        spec = _spec(sample="4096,4")
        wire = json.loads(json.dumps(spec.to_json()))
        assert JobSpec.from_json(wire).content_key() == spec.content_key()

    def test_cache_accepts_csv_ints_and_lists(self):
        csv = _spec(cache="1MB,4MB")
        ints = _spec(cache=[1024 * 1024, 4 * 1024 * 1024])
        single = _spec(cache=2 * 1024 * 1024)
        assert csv.cache == ints.cache == (1024 * 1024, 4 * 1024 * 1024)
        assert csv.content_key() == ints.content_key()
        assert single.cache == (2 * 1024 * 1024,)

    def test_scale_normalizes_to_canonical_fraction(self):
        assert _spec(scale="0.25").scale == "1/4"
        assert _spec(scale="2/8").content_key() == _spec(scale="1/4").content_key()

    def test_version_is_part_of_the_key_space(self):
        payload = _spec().to_json()
        assert payload["version"] == JOBSPEC_VERSION
        payload["version"] = JOBSPEC_VERSION + 1
        with pytest.raises(JobSpecError, match="version"):
            JobSpec.from_json(payload)


class TestValidation:
    def test_rejects_unknown_fields(self):
        payload = _spec().to_json()
        payload["cache_szie"] = [1024 * 1024]
        with pytest.raises(JobSpecError, match="cache_szie"):
            JobSpec.from_json(payload)

    def test_requires_a_workload(self):
        with pytest.raises(JobSpecError, match="workload"):
            JobSpec.from_json({"cores": 2})

    def test_rejects_non_object_payloads(self):
        with pytest.raises(JobSpecError, match="JSON object"):
            JobSpec.from_json(["FIMI"])

    def test_rejects_unknown_workloads(self):
        with pytest.raises(JobSpecError, match="NOPE"):
            _spec(workload="NOPE")

    def test_rejects_invalid_geometry(self):
        with pytest.raises(JobSpecError, match="geometry"):
            _spec(cache=(512,))  # below the Dragonhead envelope
        with pytest.raises(JobSpecError, match="geometry"):
            _spec(line=48)  # not a power of two

    def test_rejects_out_of_range_scalars(self):
        with pytest.raises(JobSpecError, match="cores"):
            _spec(cores=0)
        with pytest.raises(JobSpecError, match="cores"):
            _spec(cores=65)
        with pytest.raises(JobSpecError, match="quantum"):
            _spec(quantum=0)
        with pytest.raises(JobSpecError, match="repeats"):
            _spec(repeats=0)
        with pytest.raises(JobSpecError, match="source"):
            _spec(source="pcap")
        with pytest.raises(JobSpecError, match="scale"):
            _spec(scale="0")

    def test_rejects_bad_sample_and_inject_specs(self):
        with pytest.raises(JobSpecError, match="sample"):
            _spec(sample="not-a-spec")
        with pytest.raises(JobSpecError, match="inject"):
            _spec(inject="frobnicate=1")

    def test_sample_conflicts_with_per_pass_flags(self):
        for conflict in ({"inject": "seed=1,drop-data=0.001"},
                         {"lenient": True},
                         {"audit": "sample"}):
            with pytest.raises(JobSpecError, match="sample cannot"):
                _spec(sample="4096", **conflict)


class TestCLIMapping:
    CASES = [
        ["--workload", "FIMI"],
        ["--workload", "FIMI", "--cores", "8", "--cache", "1MB,4MB,16MB"],
        ["--workload", "SHOT", "--source", "synthetic", "--accesses", "5000",
         "--scale", "1/64", "--line", "256"],
        ["--workload", "FIMI", "--source", "synthetic", "--repeats", "4",
         "--sample", "64k,6"],
        ["--workload", "SNP", "--inject", "seed=42,drop-data=0.001"],
        ["--workload", "FIMI", "--lenient", "--audit", "sample"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(c) for c in CASES])
    def test_flags_map_one_to_one(self, argv):
        args = build_parser().parse_args(argv)
        spec = JobSpec.from_cli_args(args)
        reparsed = build_parser().parse_args(spec.to_cli_argv())
        assert JobSpec.from_cli_args(reparsed) == spec
        assert JobSpec.from_cli_args(reparsed).content_key() == spec.content_key()

    def test_capture_key_matches_the_cli_derivation(self):
        # The exact key_extra repro-cosim always stamped captures with:
        # pre-serving cache entries must stay warm.
        kernel = JobSpec(workload="FIMI", cores=8, quantum=2048)
        assert kernel.capture_key() == log_cache_key(
            "FIMI", 8, 2048, 8192, {"source": "kernel"}
        )
        synthetic = _spec(accesses=4096, scale="1/128", repeats=3)
        assert synthetic.capture_key() == log_cache_key(
            "FIMI", 2, 4096, 8192,
            {"source": "synthetic", "accesses": 4096, "scale": "1/128", "repeats": 3},
        )

    def test_defaults_match_the_parser_defaults(self):
        args = build_parser().parse_args(["--workload", "FIMI"])
        spec = JobSpec.from_cli_args(args)
        assert spec == JobSpec(workload="FIMI")


class TestJobFile:
    """``repro-cosim --job FILE`` runs exactly what its flags would."""

    FLAGS = ["--workload", "FIMI", "--cores", "2", "--cache", "1MB,4MB",
             "--source", "synthetic", "--accesses", "2048"]

    def _job_text(self) -> str:
        spec = JobSpec.from_cli_args(build_parser().parse_args(self.FLAGS))
        return json.dumps(spec.to_json())

    @staticmethod
    def _digest(argv: list[str], capsys) -> str:
        from repro.harness import cli

        assert cli.main([*argv, "--digest", "--trace-cache", "off"]) == EXIT_OK
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("result digest: ")
        ]
        return line

    def test_spec_flags_beside_it_are_refused(self, tmp_path, capsys):
        from repro.harness import cli

        path = tmp_path / "job.json"
        path.write_text(self._job_text())
        argv = ["--job", str(path), "--cores", "8", "--line", "128",
                "--sample", "8k", "--print-job"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert "--job cannot be combined with --cores, --line, --sample" in err
        assert out == ""

    def test_file_digest_equals_the_flags_digest(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(self._job_text())
        assert self._digest(["--job", str(path)], capsys) == self._digest(
            self.FLAGS, capsys
        )

    def test_dash_reads_the_spec_from_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self._job_text()))
        assert self._digest(["--job", "-"], capsys) == self._digest(
            self.FLAGS, capsys
        )


class TestCoalesceKeys:
    def test_same_capture_different_geometry_coalesces(self):
        a = _spec(cache=(1024 * 1024,))
        b = _spec(cache=(4 * 1024 * 1024,), line=256)
        assert a.content_key() != b.content_key()
        assert a.capture_key() == b.capture_key()
        assert a.coalesce_key() == b.coalesce_key()

    def test_per_pass_knobs_split_the_pass(self):
        plain = JobSpec(workload="FIMI")
        assert JobSpec(workload="FIMI", lenient=True).coalesce_key() != plain.coalesce_key()
        assert (
            JobSpec(workload="FIMI", inject="seed=1,drop-data=0.001").coalesce_key()
            != plain.coalesce_key()
        )
        assert JobSpec(workload="FIMI", sample="4096").coalesce_key() != plain.coalesce_key()

    def test_capture_fields_split_the_capture(self):
        base = _spec()
        assert _spec(cores=4).capture_key() != base.capture_key()
        assert _spec(quantum=8192).capture_key() != base.capture_key()
        assert _spec(accesses=4096).capture_key() != base.capture_key()


class TestContentKeyHelpers:
    def test_point_content_key_matches_the_journal(self):
        def task(item):
            return item

        item = {"b": 2, "a": {1, 2, 3}}
        identity = f"{task.__module__}.{task.__qualname__}"
        assert point_key(task, item) == point_content_key(identity, item)
        # And the historical derivation, byte for byte: existing
        # journals and ledgers must keep resuming.
        expected = hashlib.sha256(
            identity.encode("utf-8")
            + b"\x1f"
            + pickle.dumps(canonicalize(item), protocol=4)
        ).hexdigest()
        assert point_content_key(identity, item) == expected

    def test_canonicalize_orders_dicts_and_sets(self):
        left = canonicalize({"b": {2, 1}, "a": [1, {"y": 2, "x": 1}]})
        right = canonicalize({"a": [1, {"x": 1, "y": 2}], "b": {1, 2}})
        assert pickle.dumps(left, protocol=4) == pickle.dumps(right, protocol=4)
        assert isinstance(canonicalize({1, 2}), CanonicalSet)
        # Sets stay distinct from tuples in the *key space* (the bytes),
        # even though the canonical form compares tuple-equal.
        assert pickle.dumps(canonicalize({1, 2}), protocol=4) != pickle.dumps(
            (1, 2), protocol=4
        )

    def test_digests_are_order_sensitive(self):
        assert result_digest([1, 2]) != result_digest([2, 1])
        assert pickle_digest("x") == hashlib.sha256(
            pickle.dumps("x", protocol=4)
        ).hexdigest()

    def test_content_key_is_the_trace_cache_spelling(self):
        from repro.trace.cache import cache_key

        fields = {"kind": "jobspec", "workload": "FIMI"}
        assert content_key(fields) == cache_key(fields)


class TestExitCodes:
    def test_codes_are_distinct_and_documented(self):
        codes = [
            EXIT_OK,
            EXIT_INTERNAL,
            EXIT_USAGE,
            EXIT_AUDIT,
            EXIT_DEGRADED,
            EXIT_SWEEP,
            EXIT_DEADLINE,
            EXIT_INTERRUPTED,
        ]
        assert len(set(codes)) == len(codes)
        for code in codes:
            assert describe(code) != f"exit {code}"
        assert describe(97) == "exit 97"

    def test_conventions(self):
        assert EXIT_USAGE == 2  # argparse's own
        assert EXIT_DEADLINE == 124  # timeout(1)
        assert EXIT_INTERRUPTED == 130  # 128 + SIGINT


def _force_audit_violations(monkeypatch) -> None:
    """Every end-of-run audit report gains one failed check."""
    import dataclasses

    import repro.core.cosim as cosim_module
    from repro.audit.report import AuditCheck

    real_run_audit = cosim_module.run_audit

    def run_audit(*args, **kwargs):
        report = real_run_audit(*args, **kwargs)
        forced = AuditCheck(name="forced", ok=False, detail="forced violation")
        return dataclasses.replace(report, checks=report.checks + (forced,))

    # finish_run, the one run epilogue, audits every replayed point.
    monkeypatch.setattr(cosim_module, "run_audit", run_audit)


def _cosim(argv, monkeypatch) -> int:
    from repro.harness import cli

    # No retries: a deterministic audit failure fails every attempt.
    return cli.main(
        ["--workload", "FIMI", "--cores", "2", "--cache", "1MB,4MB",
         "--source", "synthetic", "--accesses", "4000",
         "--trace-cache", "off", "--retries", "0", *argv]
    )


def _runall(exhibit: str):
    """``runall.main`` over one extended exhibit (each runs in under 1 s)."""

    def run(argv, monkeypatch) -> int:
        from repro.harness import runall

        monkeypatch.setattr(runall, "PAPER_EXHIBITS", ())
        monkeypatch.setattr(runall, "EXTENDED_EXHIBITS", (getattr(runall, exhibit),))
        return runall.main(["--extended", "--trace-cache", "off", *argv])

    return run


@pytest.mark.parametrize(
    "main, case",
    [
        # repro-cosim replays under the supervisor: the AuditError is
        # the cause of a SweepPointError.
        (_cosim, "audit"),
        (_cosim, "deadline"),
        # ablations calls replay() outside any map and raises a bare
        # AuditError; bandwidth_study maps its replays, so there the
        # AuditError is the cause of a SweepPointError.
        (_runall("ablations"), "audit"),
        (_runall("bandwidth_study"), "audit"),
    ],
    ids=["cosim-audit", "cosim-deadline", "runall-ablations-audit",
         "runall-bandwidth-audit"],
)
def test_sweep_clis_share_exit_codes(main, case, monkeypatch, capsys):
    """A strict audit violation exits 3 and an expired deadline 124,
    reported once on stderr, from either CLI that replays."""
    from repro.audit import AUDIT_ENV, AUDIT_OFF

    # runall delivers --audit through the environment; restore it after.
    monkeypatch.setenv(AUDIT_ENV, AUDIT_OFF)
    if case == "audit":
        _force_audit_violations(monkeypatch)
        code = main(["--audit", "sample"], monkeypatch)
        assert code == EXIT_AUDIT
        err = capsys.readouterr().err
        assert err.count("audit failed") == 1
        assert "1/9 checks FAILED (forced)" in err
    else:
        code = main(["--deadline", "1e-6"], monkeypatch)
        assert code == EXIT_DEADLINE
        out, err = capsys.readouterr()
        assert err.count("deadline: ") == 1 and "deadline: " not in out
