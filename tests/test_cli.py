import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cijt import _search, cli, engine, iteration, loop_homology
from cijt.cli import CliError, load_dataset, main
from cijt.iteration import CohomologyShape, GeodesicDataset, GeodesicRecord, PathClass
from cijt.normal_forms import D, N1, N2, R, SymplecticClass, nullity
from cijt.scalars import MAX_RADICAND, Exact, _from_pairs, floor_mult
from cijt.record import CheckRecord, VerificationReport, dumps
from oracles import DATASETS, GOLDEN, ROOT, betti_closed_form, ds, shipped, time_limit

SRC = os.path.join(ROOT, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cijt_process(*argv, stdout=subprocess.PIPE):
    """`python -m cijt.cli *argv` on the source tree, for what only a whole
    process shows: its exit code and the bytes it writes."""
    return subprocess.run([sys.executable, "-m", "cijt.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=SRC))


class TestIterate:
    def test_hyperbolic_tsv(self, capsys):
        code, out, _ = run(
            capsys, "iterate", ds("s2_hyperbolic"),
            "--record", "h1", "--m-max", "3", "--format", "tsv",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows == [
            ["m", "index", "nullity"],
            ["1", "1", "0"], ["2", "2", "0"], ["3", "3", "0"],
        ]

    def test_elliptic_tsv(self, capsys):
        code, out, _ = run(
            capsys, "iterate", ds("s2_elliptic"),
            "--record", "c1", "--m-max", "3", "--format", "tsv",
        )
        assert code == 0
        body = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert body == [["1", "1", "0"], ["2", "1", "0"], ["3", "3", "0"]]

    def test_m_max_zero_empty(self, capsys):
        code, out, _ = run(
            capsys, "iterate", ds("s2_hyperbolic"),
            "--record", "h1", "--m-max", "0", "--format", "tsv",
        )
        assert code == 0
        assert out.strip().splitlines() == ["m\tindex\tnullity"]

    def test_unknown_record(self, capsys):
        cases = (
            (("iterate", ds("s2_hyperbolic"), "--record", "nope"), "unknown record"),
            (("iterate", ds("s2_hyperbolic"), "--record", "h1", "--m-max", "-3"), "--m-max"),
            (("betti", "--d", "2", "--n", "1", "--l-max", "-5"), "--l-max"),
            (("cijt", ds("single_sqrt2"), "--delta", "1/0"), "not a rational number"),
            (("verify", ds("s2_elliptic"), "--theorem", "1.1", "--delta", "1/0"),
             "not a rational number"),
        )
        for argv, reason in cases:
            code, out, err = run(capsys, *argv)
            assert code == 2 and reason in err and out == ""


class TestBetti:
    def test_tsv(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--d", "3", "--n", "1", "--l-max", "4",
            "--format", "tsv",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        # p, b_p, direct partial, closed partial (blank below support)
        assert rows[2] == ["2", "1", "1", "1"]
        assert rows[4] == ["4", "2", "3", "3"]

    def test_long_table_sums_agree(self, capsys):
        # every row re-derives the partial sum; by periods that stays linear in --l-max
        code, out, _ = run(
            capsys, "betti", "--d", "2", "--n", "1", "--l-max", "20000", "--format", "tsv",
        )
        assert code == 0
        assert out.strip().splitlines()[-1].split("\t") == ["20000", "0", "19999", "19999"]

    def test_closed_form_is_checked(self, capsys, monkeypatch):
        """A periodic partial sum off by one is an internal error, not a row."""
        partial = loop_homology.betti_partial_sum
        monkeypatch.setattr(loop_homology, "betti_partial_sum",
                            lambda shape, l: partial(shape, l) + 1)
        code, out, err = run(capsys, "betti", "--d", "2", "--n", "1", "--l-max", "3",
                             "--format", "tsv")
        assert (code, out, err) == (4, "", "internal error: partial-sum drift at p=1\n")

    @pytest.mark.parametrize("d, n, fmt, digest", [
        (2, 1, "tsv", "5b23bde3152a15e09846c17ba60d660ed72ceb97d252f3f673cc8980799247c1"),
        (2, 1, "json", "ba7535216c1db95e948fabeba6f52f8e603b7c577268d24564a8e8ceda36307a"),
        (4, 2, "tsv", "a0c784d85c6a0efd946b0a050cc58e6b05f0779ddc00b0eba5fb79977c18522d"),
        (4, 2, "json", "1183045c43e84e81eb8e0d46a1337635c3aebc61c86905b99e0dcf13846860ac"),
        (8, 2, "tsv", "08432dd748df44388b3637c4d5d14d3e948a9a51dcb89e3c54f47373bf03395f"),
        (8, 2, "json", "4d19b42fbda085ec47ba7f014172330f231dd7022e650356be61ca03a0765d7f"),
        (3, 1, "tsv", "2fd4c52f2c2666192bf34c1fe4b264303e73174cc01e6f3b7215ca910eb12b2f"),
        (3, 1, "json", "82d9a89290def3296526a849d4ebb33432c866363f5aa7666568cd28e72b1415"),
    ])
    def test_table_bytes_are_pinned(self, capsys, d, n, fmt, digest):
        """sha256 of the whole output at --l-max 200, recorded while each row
        still checked a closed form and a periodic sum: one sum now fills both
        partial columns, blank below the same degree, and prints the same bytes."""
        code, out, _ = run(capsys, "betti", "--d", str(d), "--n", str(n), "--l-max", "200",
                           "--format", fmt)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_has_resonance_constant(self, capsys):
        code, out, _ = run(capsys, "betti", "--d", "2", "--n", "1", "--l-max", "3")
        doc = json.loads(out)
        assert code == 0 and doc["resonance_constant"] == "-1"


class TestClosedPipe:
    def test_reader_closing_early_is_quiet(self):
        # about 600 kB of JSON: far more than a pipe holds, so the writer is
        # still printing when the reader goes away
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cijt.cli", "betti", "--d", "2", "--n", "1", "--l-max", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestResonance:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "resonance", ds("s2_elliptic"))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_fail(self, capsys, tmp_path):
        doc = json.load(open(ds("s2_elliptic")))
        doc["records"] = doc["records"][:1]
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "resonance", str(p))
        assert code == 1
        assert json.loads(out)["pass"] is False


class TestCijt:
    def test_sqrt2_auto(self, capsys):
        code, out, _ = run(
            capsys, "cijt", ds("single_sqrt2"), "--delta", "1/100"
        )
        doc = json.loads(out)
        assert code == 0
        assert (doc["N"], doc["m"]) == (29, [70])
        assert doc["verification"]["ok"] is True

    def test_sqrt2_opposite(self, capsys):
        code, out, _ = run(
            capsys, "cijt", ds("single_sqrt2"), "--delta", "1/100",
            "--vertex", "opposite",
        )
        doc = json.loads(out)
        assert code == 0 and (doc["N"], doc["m"]) == (70, [169])

    def test_sqrt2_opposite_at_delta_1e12(self, capsys):
        # the opposite search at N ~ 6e11, pinned by the sha256 of its stdout;
        # it steps from hit to hit, where a per-iterate scan would time out
        with time_limit(120):
            code, out, _ = run(
                capsys, "cijt", ds("single_sqrt2"), "--vertex", "opposite",
                "--delta", "1/1000000000000", "--n-bound", "1000000000000000000",
            )
        assert code == 0 and json.loads(out)["N"] == 627013566048
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8f4729001cb79d8029051282fdb8a914c179938b39e0f105d7b5a52657993724"
        )

    def test_bits_vertex(self, capsys):
        # chi bit 0, angle bit 1 (High band) reproduces the auto result
        code, out, _ = run(
            capsys, "cijt", ds("single_sqrt2"), "--delta", "1/100",
            "--vertex", "bits:01",
        )
        doc = json.loads(out)
        assert code == 0 and doc["N"] == 29

    def test_bad_bits_length(self, capsys):
        code, _, err = run(
            capsys, "cijt", ds("single_sqrt2"), "--vertex", "bits:0",
        )
        assert code == 2 and "bits" in err

    def test_bad_vertex_is_refused_before_the_problem(self, capsys):
        """--vertex is read off the dataset's angle table before the problem
        takes its M-bar floors per angle for delta_0: at --m-bar 10**6 a bad
        vertex exits 2 at once with its own line."""
        for vertex, line in (
            ("bogus", "error: --vertex must be auto, opposite, or bits:<01...>\n"),
            ("bits:0", "error: vertex needs 2 bits (1 chi + 1 angle)\n"),
        ):
            with time_limit(5):
                argv = ("cijt", ds("single_sqrt2"), "--m-bar", "1000000", "--vertex", vertex)
                assert run(capsys, *argv) == (2, "", line)

    def test_delta_past_the_digit_limit_is_refused_as_read(self, capsys):
        """A delta whose integers pass the interpreter's 4300-digit limit for
        printing is no rational number to cijt, in the exponent form as in the
        slash form: each command refuses it before a search, and 10**e is
        not raised for a huge exponent.  3001 digits still run."""
        commands = (("cijt", ds("single_sqrt2")), ("cijt", ds("s2_hyperbolic")),
                    ("verify", ds("s2_elliptic"), "--theorem", "1.1"))
        for command in commands:
            for delta in ("1e-5000", "1/1" + "0" * 5000, "1E-100000000"):
                line = "error: %s\n" % cli._one_line("not a rational number: %r" % delta)
                with time_limit(5):
                    assert run(capsys, *command, "--delta", delta) == (2, "", line)
        code, out, err = run(capsys, "cijt", ds("single_sqrt2"), "--delta", "1e-3000", "--n-bound", "10")
        assert (code, out) == (3, "") and err.startswith("search exhausted: no tuple with N <= 10 (delta = 1/1000")

    def test_exhaustion_exit_code(self, capsys):
        code, _, err = run(
            capsys, "cijt", ds("single_sqrt2"), "--delta", "1/100",
            "--n-bound", "20",
        )
        assert code == 3 and "exhausted" in err

    @pytest.mark.parametrize("argv, N", [
        (("cijt", ds("single_sqrt2"), "--vertex", "opposite", "--n-bound", "100"), 100),
        (("verify", ds("s2_elliptic"), "--theorem", "1.1", "--n-bound", "1000"), 1000),
    ], ids=["cijt", "verify"])
    def test_exhausted_opposite_search_is_named(self, capsys, argv, N):
        """The primary search finds a tuple under the bound (N = 70, 754) and
        the opposite one does not (N = 169, 1220): the line says which ran out."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("search exhausted: opposite vertex: no tuple with N <= %d (" % N)

    def test_three_fields(self, capsys, tmp_path):
        """Angles in Q(sqrt2), Q(sqrt3) and Q(sqrt5): the mean index and the
        resonance sum divide by values with radicands 2, 3, 5, 6, 10, 15, 30."""
        angles = ((-1, 2), (-1, 3), (-2, 5))
        doc = {
            "version": 1,
            "shape": {"d": 4, "n": 1},
            "records": [{"name": "g", "initial_index": 5, "blocks": [
                {"type": "R",
                 "theta_over_pi": {"kind": "surd", "a": [a, 1], "b": [1, 1], "s": s}}
                for a, s in angles
            ]}],
        }
        p = tmp_path / "three_fields.json"
        p.write_text(json.dumps(doc))
        with time_limit(20):
            code, out, _ = run(capsys, "cijt", str(p), "--delta", "1/10")
            assert code == 0 and json.loads(out)["N"] == 416
            code, out, _ = run(capsys, "resonance", str(p))
            assert code == 1 and json.loads(out)["pass"] is False

    @pytest.mark.parametrize("radicands, argv, N", [
        ((2, 3), ("--delta", "1/100000", "--n-bound", str(10**18)), 895621046),
        ((2, 3), ("--delta", "1/1000000", "--n-bound", str(10**18)), 20022265786),
        ((2, 3, 5), ("--delta", "1/1000"), 15881578),
        ((2, 3, 5, 6), ("--delta", "1/200", "--n-bound", str(10**12)), 3521384),
    ], ids=["two-1e-5", "two-1e-6", "three", "four"])
    def test_one_record_per_field(self, tmp_path, radicands, argv, N):
        """Records of initial index 1 with one R block at theta/pi =
        sqrt(s) - floor(sqrt(s)), one per field: the least N of each field row
        of ROADMAP's state table, which a faster search must reproduce."""
        doc = {"version": 1, "shape": {"d": 2, "n": 1}, "records": [
            {"name": "c%d" % k, "initial_index": 1, "blocks": [{"type": "R", "theta_over_pi": {
                "kind": "surd", "a": [-math.isqrt(s), 1], "b": [1, 1], "s": s}}]}
            for k, s in enumerate(radicands, 1)
        ]}
        p = tmp_path / "fields.json"
        p.write_text(json.dumps(doc))
        with time_limit(120):
            done = cijt_process("cijt", str(p), *argv)
        assert (done.returncode, done.stderr) == (0, "")
        assert '  "N": %d,' % N in done.stdout.splitlines()

    def test_determinism(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "cijt", ds("s2_elliptic"), "--delta", "1/200",
                "--n-multiple", "2",
            )
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["N"] == 754


class TestNBoundMetamorphic:
    @pytest.mark.parametrize("vertex", ["auto", "opposite"])
    @pytest.mark.parametrize("name", ["s2_elliptic", "s3_elliptic", "s2_hyperbolic", "single_sqrt2"])
    def test_raising_the_bound_keeps_the_tuple(self, capsys, name, vertex):
        """--n-bound at the found N and at 10**18 prints the same tuple."""
        code, out, _ = run(capsys, "cijt", ds(name), "--vertex", vertex)
        assert code == 0
        found = json.loads(out)["N"]
        for bound in (found, 10**18):
            assert run(capsys, "cijt", ds(name), "--vertex", vertex, "--n-bound", str(bound)) == (
                code, out, ""
            )

    @pytest.mark.parametrize("name, theorem", [
        ("s3_elliptic", "1.5"), ("s2_elliptic", "1.1"), ("s2_hyperbolic", "1.8"),
    ])
    def test_raising_the_bound_keeps_the_verdict(self, capsys, name, theorem):
        """verify --n-bound at the larger of the tuple's and the opposite
        tuple's N, and at 10**18, prints the default's bytes and exit code.
        1.8 has no irrational angle: its search steps k one by one and stops
        past the first admissible N, whatever the bound."""
        with time_limit(120):
            code, out, err = run(capsys, "verify", ds(name), "--theorem", theorem)
            assert code == 0
            doc = json.loads(out)
            found = max(doc["tuple"]["N"], doc.get("opposite_tuple", doc["tuple"])["N"])
            for bound in (found, 10**18):
                assert run(capsys, "verify", ds(name), "--theorem", theorem, "--n-bound", str(bound)) == (
                    code, out, err
                )


class TestVerify:
    def test_theorem_1_1_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", ds("s2_elliptic"), "--theorem", "1.1"
        )
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True

    def test_theorem_1_8_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", ds("s2_hyperbolic"), "--theorem", "1.8"
        )
        doc = json.loads(out)
        assert code == 0 and doc["contradiction_found"] is True

    def test_broken_resonance_exits_1(self, tmp_path):
        """A copy of h1 as a third record: the contradiction is still found,
        but the resonance identity fails, so the process prints a failing
        verdict and exits 1."""
        doc = json.load(open(ds("s2_hyperbolic")))
        doc["records"].append(dict(doc["records"][0], name="h3"))
        p = tmp_path / "three_hyperbolic.json"
        p.write_text(json.dumps(doc))
        done = cijt_process("verify", str(p), "--theorem", "1.8")
        assert (done.returncode, done.stderr) == (1, "")
        assert '  "pass": false,' in done.stdout.splitlines()

    def test_parity_rejection(self, capsys):
        code, _, err = run(
            capsys, "verify", ds("s2_elliptic"), "--theorem", "1.5"
        )
        assert code == 2 and "rejected" in err

    def test_empty_delta_is_rejected(self, capsys):
        """An empty --delta is no rational number, as in cijt: it exits 2
        rather than run at the default delta."""
        for command in (("verify", ds("s2_elliptic"), "--theorem", "1.1"), ("cijt", ds("single_sqrt2"))):
            code, out, err = run(capsys, *command, "--delta", "")
            assert (code, out, err) == (2, "", "error: not a rational number: ''\n")

    def test_record_with_s_plus(self, capsys, tmp_path):
        """A degenerate record N1(1, +1) has S^+(1) = 1.  The census reads the
        jump identity 2N - (S^+ + C - 2 Delta_k) that verify_tuple certifies,
        so the verdict fails on its checks (exit 1) and is no internal error."""
        doc = json.load(open(ds("s2_elliptic")))
        doc["options"] = {"bumpy": False}
        doc["records"].append(
            {"name": "c3", "initial_index": 1,
             "blocks": [{"type": "N1", "lambda": 1, "b_sign": "positive"}]}
        )
        p = tmp_path / "s_plus.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(p), "--theorem", "1.1")
        assert code == 1 and err == ""
        verdict = json.loads(out)
        for side in ("", "opposite_"):
            records = verdict[side + "census"]["records"]
            lhs = {
                c["path"]: c["lhs"]
                for c in verdict[side + "tuple"]["verification"]["checks"]
                if c["equation"] == "index(2m)"
            }
            assert [records[r["name"]]["index_at_2mk"] for r in doc["records"]] == [
                lhs[k] for k in range(len(doc["records"]))
            ]
        assert verdict["census"]["records"]["c3"]["index_at_2mk"] == 2 * verdict["tuple"]["N"] - 1


class TestFormatFlag:
    @pytest.mark.parametrize("argv", [
        ("resonance", ds("s2_elliptic")),
        ("cijt", ds("single_sqrt2")),
        ("verify", ds("s2_elliptic"), "--theorem", "1.1"),
    ])
    def test_only_tables_take_format(self, capsys, argv):
        """--format tsv printed the same JSON on these commands, so they refuse it."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "tsv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestBuildOnce:
    """Each path's search constants and mean index are built once per run."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"path_data": 0, "mean": 0}
        init, mean = _search._PathData.__init__, iteration.PathClass.mean.func

        def counting_init(self, *args):
            counts["path_data"] += 1
            init(self, *args)

        def counting_mean(self):
            counts["mean"] += 1
            return mean(self)

        prop = functools.cached_property(counting_mean)
        prop.__set_name__(iteration.PathClass, "mean")
        monkeypatch.setattr(_search._PathData, "__init__", counting_init)
        monkeypatch.setattr(iteration.PathClass, "mean", prop)
        return counts

    def test_theorem_1_5(self, capsys, counts):
        code, _, _ = run(capsys, "verify", ds("s3_elliptic"), "--theorem", "1.5")
        assert code == 0
        assert counts == {"path_data": 5, "mean": 5}  # five records

    def test_opposite_vertex(self, capsys, counts):
        code, _, _ = run(capsys, "cijt", ds("single_sqrt2"), "--vertex", "opposite")
        assert code == 0
        assert counts == {"path_data": 1, "mean": 1}


class TestParser:
    def test_no_state_between_calls(self, capsys):
        """A rejected argv between two equal calls leaves no trace in the second."""
        argv = ("verify", ds("s2_elliptic"), "--theorem", "1.1")
        first = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["verify", ds("s2_elliptic"), "--theorem", "9"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert first[0] == 0 and run(capsys, *argv) == first

    def test_import_builds_no_parser(self):
        """The command line is read from one table: importing cijt.cli loads
        neither argparse nor the gettext it imports."""
        probe = "import sys, cijt.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
        assert out == "[]\n"


class TestImportFootprint:
    def test_search_compiles_no_theorem_pipeline(self):
        """A fresh interpreter that imports cijt.cli loads none of these, each
        of which would cost every cijt process its set-up: dataclasses and
        inspect (the record classes are plain), argparse and gettext (read
        only for an argv outside the table form), fractions, decimal and
        numbers (Exact is the one rational type), typing (annotations stay
        strings), json, re and enum (datasets are read and strings escaped
        through _json), and the theorem pipelines, morse and loop_homology.
        It then reads a dataset, searches a tuple and prints an index table
        without the pipelines; each verify loads both and prints its shipped
        verdict, pinned by GOLDEN.  After a betti table, none of the rational,
        typing and json modules has been imported since the probe started.
        The probe runs under -S, so no .pth file of the interpreter's site can
        load typing or re first."""
        probe = (
            "import sys\n"
            "start = set(sys.modules)\n"
            "import cijt.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'fractions', 'decimal',\n"
            "              'numbers', 'typing', 're', 'enum', 'json', 'json.decoder', 'json.scanner',\n"
            "              'json.encoder', 'cijt.morse', 'cijt.loop_homology'} & set(sys.modules)))\n"
            "import contextlib, hashlib, io\n"
            "from cijt.cli import load_dataset, main\n"
            "def run(*argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        return main(list(argv)), out.getvalue()\n"
            "def pipelines():\n"
            "    return sorted({'cijt.morse', 'cijt.loop_homology'} & set(sys.modules))\n"
            "load_dataset(sys.argv[1])\n"
            "codes = [run('cijt', sys.argv[1])[0], run('iterate', sys.argv[2], '--record', 'c1')[0]]\n"
            "print(codes, pipelines())\n"
            "for path, theorem in ((sys.argv[3], '1.5'), (sys.argv[2], '1.1'), (sys.argv[4], '1.8')):\n"
            "    code, out = run('verify', path, '--theorem', theorem)\n"
            "    print(code, pipelines(), hashlib.sha256(out[:-1].encode()).hexdigest())\n"
            "code = run('betti', '--d', '2', '--n', '1', '--format', 'tsv')[0]\n"
            "print(code, sorted({'fractions', 'decimal', 'numbers', 'typing', 're', 'enum', 'json',\n"
            "                    'json.decoder', 'json.scanner', 'json.encoder'} & (set(sys.modules) - start)))\n"
        )
        argv = [ds("single_sqrt2"), ds("s2_elliptic"), ds("s3_elliptic"), ds("s2_hyperbolic")]
        out = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
        verdicts = "".join("0 ['cijt.loop_homology', 'cijt.morse'] %s\n" % GOLDEN[key]
                           for key in ("1.5 s3", "1.1 s2", "1.8 hyp"))
        assert out == "[]\n[0, 0] []\n" + verdicts + "0 []\n"


def _read_delta(s):
    """--delta s as cijt reads it, or None when it is refused."""
    try:
        return cli._parse_fraction(s)
    except CliError as exc:
        assert str(exc) == "not a rational number: %r" % s
        return None


def _fraction_or_none(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


# strings over the --delta grammar's characters
delta_texts = st.text(alphabet="0123456789+-/.eE_ ", max_size=12)


def _grouped(s):
    """Each underscore of s stands alone between two digits."""
    return all(0 < i < len(s) - 1 and s[i - 1].isdigit() and s[i + 1].isdigit()
               for i, c in enumerate(s) if c == "_")


class TestDeltaGrammar:
    """--delta has one grammar on every supported Python: optional
    surrounding whitespace and sign, then digits/digits, or digits[.digits]
    or .digits with an optional e or E exponent, digits grouped by single
    underscores as int() takes them."""

    @given(delta_texts.filter(lambda s: "_" not in s and " /" not in s and "/ " not in s
                              and not re.search("[eE][-+]?[0-9]{4}", s)))
    @settings(max_examples=400, deadline=None)
    def test_reads_as_fraction_where_pythons_agree(self, s):
        """Without an underscore (3.10's Fraction takes none, later ones do)
        and without a space beside the slash (where versions differ too),
        every supported Python's Fraction reads s alike, and so does cijt.
        Exponents stay under 1000: cijt refuses a value whose integers pass
        the interpreter's digit limit, and Fraction would build 10**e."""
        want = _fraction_or_none(s)
        got = _read_delta(s)
        assert (got is None) == (want is None), s
        if want is not None:
            assert got == want and str(got) == str(want), s

    @given(delta_texts)
    @settings(max_examples=400, deadline=None)
    def test_underscores_group_digits(self, s):
        """An underscore is taken only alone between two digits, and then it
        changes nothing."""
        assert _read_delta(s) == (_read_delta(s.replace("_", "")) if _grouped(s) else None), s

    @pytest.mark.parametrize("text, value", [
        ("1_000/3", Fraction(1000, 3)), (" 1/200 ", Fraction(1, 200)), ("-.5e-3", Fraction(-1, 2000)),
        ("1.", Fraction(1)), ("2_5E-0_3", Fraction(1, 40)), ("+1e1", Fraction(10)),
    ])
    def test_accepted(self, text, value):
        x = cli._parse_fraction(text)
        assert type(x) is Exact and x == value and str(x) == str(value)

    @pytest.mark.parametrize("text", [
        "1/0", "1/ 2", "1 /2", "nan", "inf", "0x10", "1__0/3", "_1/3", "1_/3", "1e", ".", "", "- 1/3",
        "1.5/2", "1e-5000", "1E-100000000",
    ])
    def test_refused_with_one_line(self, capsys, text):
        """Each refusal exits 2 with one line and no advice on the
        interpreter's digit limit."""
        with time_limit(5):
            line = "error: not a rational number: %r\n" % text
            assert run(capsys, "cijt", ds("single_sqrt2"), "--delta", text) == (2, "", line)


def _one_line(message):
    """The CLI's rule for a line of stderr: line breaks escaped, and past 240
    characters the first 170 and the last 65 kept."""
    message = "\\n".join(message.splitlines())
    return message[:170] + " ... " + message[-65:] if len(message) > 240 else message


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, "error: %s: %s\n" % (self.prog, _one_line(message)))


@functools.cache
def oracle_parser():
    """The argparse tree that cli.parse_args replaced, kept as its oracle."""
    ap = _OracleParser(prog="cijt")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", help="index/nullity table of one record")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--record", required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.set_defaults(func=cli.cmd_iterate)

    p = sub.add_parser("betti", help="free-loop-space Betti numbers")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l-max", type=int, default=50)
    p.set_defaults(func=cli.cmd_betti)

    p = sub.add_parser("resonance", help="check the resonance identity")
    p.add_argument("dataset", help="dataset JSON file")
    p.set_defaults(func=cli.cmd_resonance)

    p = sub.add_parser("cijt", help="search and certify an index-jump tuple")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--delta", default="1/200")
    p.add_argument("--n-bound", type=int, default=10**8)
    p.add_argument("--n-multiple", type=int, default=1)
    p.add_argument("--m-bar", type=int, default=1)
    p.add_argument("--vertex", default="auto",
                   help="auto, opposite, or bits:<chi bits><angle bits>")
    p.set_defaults(func=cli.cmd_cijt)

    p = sub.add_parser("verify", help="run a theorem pipeline")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--theorem", choices=("1.1", "1.5", "1.8"), required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--n-bound", type=int, default=10**8)
    p.set_defaults(func=cli.cmd_verify)
    return ap


COMMANDS = ("iterate", "betti", "resonance", "cijt", "verify", "bogus")
ARGV_TOKENS = (
    *COMMANDS, ds("single_sqrt2"),
    "--format", "--record", "--m-max", "--d", "--n", "--l-max", "--delta", "--n-bound",
    "--n-multiple", "--m-bar", "--vertex", "--theorem", "-h", "--help",
    "--f", "--rec", "--m", "--m-", "--l", "--de", "--n-", "--n-b", "--n-m", "--v", "--t", "--h",
    "--delta=-1/3", "--de=1/3", "--n-bound=5", "--n=5", "--d=x", "--theorem=1.5", "--format=tsv",
    "--help=x", "-hh", "-hx", "--bogus",
    "5", "-5", "x", "1/3", "-1/3", "--", "a\nb", "-x y", "json", "tsv", "1.1", "opposite",
)
FLAGS = tuple(t for t in ARGV_TOKENS if t.startswith("--") and "=" not in t and t != "--")
VALUES = ("5", "-5", "x", "1/3", "-1/3", "json", "tsv", "1.1", "opposite", "a\nb")
argvs = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=8),
    st.builds(lambda c, rest: [c, *rest], st.sampled_from(COMMANDS),
              st.lists(st.sampled_from(ARGV_TOKENS), max_size=8)),
    # flag and value pairs after a dataset, as two tokens or as --flag=value:
    # most of these are accepted
    st.builds(lambda c, pairs: [c, ds("single_sqrt2"), *(t for pair in pairs for t in pair)],
              st.sampled_from(COMMANDS[:5]),
              st.lists(st.one_of(
                  st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
                  st.builds(lambda f, v: (f + "=" + v,), st.sampled_from(FLAGS), st.sampled_from(VALUES)),
              ), max_size=4)),
)


def _parsed(parse, argv):
    """(fields or None, exit code or None, stderr) of one parse."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), None, err.getvalue()
        except SystemExit as exc:
            return None, exc.code, err.getvalue()


class TestParserAgainstArgparse:
    @given(argvs)
    @settings(max_examples=1500, deadline=None)
    def test_same_reading_as_argparse(self, argv):
        """Accepted argv: the fields of the oracle's Namespace.  Rejected: its
        exit code and its one stderr line.  -h: its exit 0."""
        want = _parsed(oracle_parser().parse_args, list(argv))
        assert _parsed(cli.parse_args, list(argv)) == want
        assert want[2].count("\n") == (want[1] == 2)

    @pytest.mark.parametrize("argv", [
        ["cijt", ds("single_sqrt2"), "--n-b", "100", "--d", "1/3"],
        ["cijt", ds("single_sqrt2"), "--n", "5"],
        ["cijt", "--delta=-1/3", "--", ds("single_sqrt2")],
        ["cijt", ds("single_sqrt2"), "--m-bar", "-5", "--m-bar", "2"],
        ["betti", "--d", " 2 ", "--n", "1_0"],
        ["resonance", ds("s2_elliptic"), "--format", "json"],
        ["--", "cijt", ds("single_sqrt2")],
        ["cijt", "-hhx"], ["cijt", "-hh", "--delta"], ["-h", "bogus"],
        ["verify", "--the", "1.5", ds("s2_elliptic")], ["iterate", ds("s2_elliptic")],
    ])
    def test_cases(self, argv):
        assert _parsed(cli.parse_args, argv) == _parsed(oracle_parser().parse_args, argv)

    def test_flag_value_of_two_dashes(self, capsys):
        """--flag=-- gives the flag the value "--"; argparse gave it [], and
        the command then failed with exit 4."""
        assert cli.parse_args(["cijt", ds("single_sqrt2"), "--delta=--"]).delta == "--"
        code, out, err = run(capsys, "cijt", ds("single_sqrt2"), "--delta=--")
        assert (code, out, err) == (2, "", "error: not a rational number: '--'\n")
        with pytest.raises(SystemExit) as exc:
            main(["cijt", ds("single_sqrt2"), "--n-bound=--"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: cijt cijt: argument --n-bound: invalid int value: '--'\n")

    def test_flag_value_of_two_dashes_after_a_prefix(self, capsys):
        """argparse reads this argv, for its prefix, and gives --delta=-- the
        value []: it is read again as "--", so the command exits 2, not 4."""
        argv = ("cijt", ds("single_sqrt2"), "--de", "1", "--delta=--")
        assert run(capsys, *argv) == (2, "", "error: not a rational number: '--'\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", ds("s2_elliptic"), "--t", "1.1", "--theorem=--"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: cijt verify: argument --theorem: invalid choice: '--'"
            " (choose from '1.1', '1.5', '1.8')\n")


# The argv forms of the bench, CI and README: the table reads each of them
CALLER_ARGVS = (
    ("verify", ds("s2_elliptic"), "--theorem", "1.1", "--delta", "1/700"),
    ("cijt", ds("single_sqrt2"), "--delta", "1/1000", "--m-bar", "3", "--vertex", "opposite"),
    ("betti", "--d", "2", "--n", "1", "--l-max", "20", "--format", "tsv"),
    ("iterate", ds("s2_elliptic"), "--record", "c1", "--m-max", "10"),
)


class TestCallerForms:
    @pytest.mark.parametrize("argv", CALLER_ARGVS)
    def test_same_reading_as_argparse(self, argv):
        assert _parsed(cli.parse_args, argv) == _parsed(oracle_parser().parse_args, list(argv))

    def test_run_without_argparse(self):
        """A whole run of each form imports neither argparse nor gettext."""
        probe = (
            "import contextlib, io, json, sys, cijt.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cijt.cli.main(list(argv)) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", probe, json.dumps(CALLER_ARGVS)],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
        assert out == "[0, 0, 0, 0] []\n"

    def test_prefix_reads_as_the_whole_flag(self, capsys):
        """--de goes to argparse, and reads and prints as --delta does in the table."""
        whole = ["cijt", ds("single_sqrt2"), "--delta", "1/100"]
        prefix = ["cijt", ds("single_sqrt2"), "--de", "1/100"]
        assert vars(cli.parse_args(prefix)) == vars(cli.parse_args(whole))
        assert run(capsys, *prefix) == run(capsys, *whole)


json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\u2028\xe9')))
json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), json_text, st.integers(),
              st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=30,
)


def _to_json(o):
    return o.to_json()


equations = st.text(st.one_of(st.characters(), st.sampled_from('"\\%\n\xe9\u2028\U0001f600')), max_size=12)
check_sides = st.integers(-(2**200), 2**200)


@st.composite
def check_rows(draw):
    """A check row whose sides are equal or, as often, apart."""
    lhs = draw(check_sides)
    rhs = draw(st.one_of(st.just(lhs), check_sides))
    k, m = (draw(st.one_of(st.just(0), st.integers(0, 10**6))) for _ in range(2))
    return CheckRecord(k, m, draw(equations), lhs, rhs)


reports = st.lists(check_rows(), max_size=5).map(lambda rows: VerificationReport(tuple(rows)))
report_trees = st.recursive(
    st.one_of(reports, st.none(), st.booleans(), json_text, st.integers()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=12,
)


class TestJsonWriterReports:
    """dumps writes a VerificationReport's rows through one template per
    indent; the bytes are those of json.dumps with each report replaced by
    its to_json(), at any depth."""

    @given(report_trees)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_as_json_dumps(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True, default=_to_json)

    @pytest.mark.parametrize("doc", [
        VerificationReport(()),
        VerificationReport((CheckRecord(0, 0, "", 0, 0),)),
        {"checks": VerificationReport((CheckRecord(0, 0, 'a"%d\\\n\xe9', -(2**200), 2**200),) * 2)},
        [[{"ok": True, "checks": VerificationReport((CheckRecord(1, 2, "index(2m)", 3, 3),))}]],
    ])
    def test_cases(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True, default=_to_json)

    def test_large_reports(self, tmp_path):
        """The 6,001 check rows of --m-bar 1000 print as json.dumps prints
        them, and the 600,001 rows (93,333,873 bytes) of --m-bar 100000 keep
        their pinned sha256, whole-process."""
        with time_limit(120):
            done = cijt_process("cijt", ds("single_sqrt2"), "--m-bar", "1000")
            assert (done.returncode, done.stderr) == (0, "")
            assert done.stdout == json.dumps(json.loads(done.stdout), indent=2, sort_keys=True) + "\n"
            out = tmp_path / "larger.json"
            with open(out, "wb") as fh:
                done = cijt_process("cijt", ds("single_sqrt2"), "--m-bar", "100000", stdout=fh)
        assert (done.returncode, done.stderr) == (0, "")
        sha = hashlib.sha256()
        with open(out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
        out.unlink()
        assert sha.hexdigest() == "1ec7ae56bc4de8690a439d72c75391a8ca1808a5a862743f87ce160403adc068"

    def test_other_objects_raise(self):
        """Only a report is written from an object: one with a to_json()
        of its own is refused like any other."""
        tuple_doc = {"tuple": engine.CijtTuple(1, (1,), (0,), (0,), 1, None, None)}
        for doc in ({"checks": [CheckRecord(0, 0, "", 0, 0), object()]}, tuple_doc):
            with pytest.raises(TypeError):
                dumps(doc)


class TestJsonWriter:
    @given(json_trees)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_as_json_dumps(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [1.5, {"x": [0.0]}, {1: 2}, {"a": {3: None}}])
    def test_float_or_int_key_raises(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)


# dicts drawn from a few keys, so one dict shape (its keys in insertion order)
# comes back within a document, at one depth or several
shaped_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["", "x", "\n"])),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["a", "b", "kind", "\u00e9"]), children, max_size=3),
    ),
    max_leaves=40,
)


class Color(IntEnum):
    RED = 1


class Tag(str):
    pass


class TestJsonWriterShapes:
    """Dicts that share their keys, at one depth or several, each print
    exactly as json.dumps prints them."""

    @given(st.lists(shaped_trees, min_size=2, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_repeated_shapes(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 3, "b": 4}],  # one key set, two orders
        {"a": {"a": {"a": 1, "b": 2}, "b": 2}, "b": {"a": 1, "b": 2}},  # one shape, three depths
        [{"a": 1}, {"a": [1, {"a": None}]}, {"a": {"a": "x"}}, {"a": []}, {"a": {}}],
        [{"a": True}, {"a": 1}, {"a": False}, {"a": 0}, [True, 1, False, 0, None]],
        [{"a": Color.RED}, {"a": Tag("\n")}, Color.RED, Tag("t"), {Tag("a"): Color.RED}],
        Color.RED, Tag("x"), None, True, "", [], {},
    ])
    def test_cases(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        [{"a": 1}, {"a": 1.5}],  # a float under a repeated shape
        [{"a": {"b": 1}}, {"a": {"b": [0.5]}}],
        [{"a": 1, "b": 2}, {"a": 1, 2: 2}],  # an int key in the second dict
        [{"a": 1}, {"a": 1}, {1: 1}],
    ])
    def test_float_or_int_key_in_repeated_shape_raises(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)


class TestOneLineArgparseErrors:
    """argparse's own rejections end in exit 2 with one stderr line, as the
    dataset and flag checks do; -h still prints the whole help."""

    @pytest.mark.parametrize("argv, message", [
        (("cijt", ds("single_sqrt2"), "--delta", "-1/3"),
         "error: cijt cijt: argument --delta: expected one argument\n"),
        (("verify", ds("s2_elliptic"), "--theorem", "2.0"),
         "error: cijt verify: argument --theorem: invalid choice: '2.0'"
         " (choose from '1.1', '1.5', '1.8')\n"),
        (("bogus",), "error: cijt: argument command: invalid choice: 'bogus'"
         " (choose from 'iterate', 'betti', 'resonance', 'cijt', 'verify')\n"),
        (("cijt", ds("single_sqrt2"), "--n-bound", "x"),
         "error: cijt cijt: argument --n-bound: invalid int value: 'x'\n"),
        ((), "error: cijt: the following arguments are required: command\n"),
        (("resonance", ds("s2_elliptic"), "a\nb"), "error: cijt: unrecognized arguments: a\\nb\n"),
    ])
    def test_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    @pytest.mark.parametrize("argv", [("-h",), ("verify", "-h")])
    def test_help_is_whole(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: cijt") and out.count("\n") > 5


class TestInternalError:
    def test_failed_self_check_exits_4(self, capsys, monkeypatch):
        def broken(dataset):
            raise AssertionError("lower window violated at c1, m=3")

        monkeypatch.setattr("cijt.morse.resonance_check", broken)
        code, out, err = run(capsys, "resonance", ds("s2_elliptic"))
        assert code == 4 and out == ""
        assert err == "internal error: lower window violated at c1, m=3\n"

    @pytest.mark.parametrize("exc, line", [
        (KeyError("c1"), "internal error: KeyError: 'c1'\n"),
        (ZeroDivisionError("bad\nbreak"), "internal error: ZeroDivisionError: bad\\nbreak\n"),
        (RecursionError("maximum recursion depth exceeded"),
         "internal error: RecursionError: maximum recursion depth exceeded\n"),
        (TypeError(), "internal error: TypeError: \n"),
    ], ids=["KeyError", "line-break", "RecursionError", "no-message"])
    def test_any_other_exception_exits_4(self, capsys, monkeypatch, exc, line):
        """An exception no branch names is a fault of cijt's own: one line
        that names its type, and exit 4, never 1 (a failed verdict)."""
        def broken(*args, **kwargs):
            raise exc

        for command in (("resonance", ds("s2_elliptic")), ("cijt", ds("single_sqrt2"))):
            monkeypatch.setattr("cijt.morse.resonance_check", broken)
            monkeypatch.setattr("cijt.cli.find_tuple", broken)
            code, out, err = run(capsys, *command)
            assert (code, out, err) == (4, "", line)

    def test_uncertifiable_tuple_is_one_short_line(self, capsys, monkeypatch):
        """A tuple that fails 10^4 checks names their count and the first
        failing row, so the line fits under the cap whole."""
        rows = tuple(CheckRecord(0, m, "index(2m+m)", m, m + 1) for m in range(10**4))
        monkeypatch.setattr(engine, "verify_tuple", lambda t, problem: VerificationReport(rows))
        code, out, err = run(capsys, "cijt", ds("single_sqrt2"))
        assert (code, out) == (4, "")
        assert err == (
            "internal error: search produced an uncertifiable tuple: 10000 of 10000 checks fail,"
            " the first %r\n" % (rows[0],)
        )
        assert len(err) < 240


class TestOneLineRule:
    """Every stderr line is one line, and past 240 characters its message
    keeps the first 170 and the last 65, whichever branch writes it."""

    @pytest.fixture(scope="class")
    def long_name(self, tmp_path_factory):
        doc = json.load(open(ds("s2_elliptic")))
        doc["records"][0]["name"] = "n" * 3000
        p = tmp_path_factory.mktemp("long") / "long_name.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("argv, code, prefix, start", [
        (("verify", None, "--theorem", "1.8"), 2, "hypothesis rejected: ", "record nnn"),
        (("cijt", ds("single_sqrt2"), "--delta", "1/1" + "0" * 3000, "--n-bound", "10"), 3,
         "search exhausted: ", "no tuple with N <= 10 (delta = 1/1000"),
        (("cijt", ds("single_sqrt2"), "--n-bound", "9" * 5000), 2,
         "error: cijt cijt: ", "argument --n-bound: invalid int value: '999"),
        (("verify", ds("s2_elliptic"), "--theorem", "t" * 3000), 2,
         "error: cijt verify: ", "argument --theorem: invalid choice: 'ttt"),
        (("resonance", ds("s2_elliptic"), "a" * 3000), 2,  # read by argparse
         "error: cijt: ", "unrecognized arguments: aaa"),
    ], ids=["record-name", "delta", "n-bound", "theorem", "argparse"])
    def test_long_input_is_one_capped_line(self, capsys, long_name, argv, code, prefix, start):
        try:
            got = main([long_name if a is None else a for a in argv])
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert (got, out) == (code, "")
        assert err.startswith(prefix + start) and err.endswith("\n") and err.count("\n") == 1
        message = err[len(prefix):-1]
        assert len(message) == 240 and message[170:175] == " ... "


def _no_records(tmp_path):
    p = tmp_path / "no_records.json"
    p.write_text(json.dumps({"version": 1, "shape": {"d": 2, "n": 1}, "records": []}))
    return str(p)


SQRT2_PATH = PathClass(1, SymplecticClass((R(Exact.surd(-1, 1, 2)),)))


class TestRefusals:
    @pytest.mark.parametrize("call, want, message", [
        (lambda tmp: main(["cijt", ds("single_sqrt2"), "--vertex", "bits:012"]), 2,
         "error: vertex bits must be 0/1"),
        (lambda tmp: main(["resonance", _no_records(tmp)]), 2,
         "error: invalid dataset: dataset needs at least one record"),
        (lambda tmp: engine.delta_zero([SQRT2_PATH], 0), ValueError, "m_bar must be positive"),
        (lambda tmp: engine.SelectionProblem(()), ValueError, "need at least one path"),
        (lambda tmp: engine.SelectionProblem([SQRT2_PATH], m_bar=0), ValueError,
         "m_bar, N_bound, N_multiple_of must be positive"),
        (lambda tmp: engine.SelectionProblem([SQRT2_PATH], N_bound=0), ValueError,
         "m_bar, N_bound, N_multiple_of must be positive"),
        (lambda tmp: engine.SelectionProblem([SQRT2_PATH], N_multiple_of=0), ValueError,
         "m_bar, N_bound, N_multiple_of must be positive"),
        (lambda tmp: loop_homology.betti(CohomologyShape(2, 1), -1), ValueError,
         "degree must be non-negative"),
        (lambda tmp: betti_closed_form(CohomologyShape(3, 1), 1), ValueError,
         "closed form needs l >= d - 1"),
        (lambda tmp: nullity(SQRT2_PATH.monodromy, 0), ValueError, "m must be positive"),
        (lambda tmp: R(Fraction(1, 3)), TypeError, "theta/pi must be an Exact scalar"),
        (lambda tmp: Exact(1) / 0, ZeroDivisionError, "division by zero Exact"),
        (lambda tmp: floor_mult(Exact(1), 0), ValueError, "m must be a positive integer"),
    ], ids=["vertex-bits", "no-records", "delta_zero", "no-paths", "m_bar", "N_bound",
            "N_multiple_of", "betti", "betti_partial_sum", "nullity", "R-type", "exact-div",
            "floor_mult"])
    def test_refused(self, capsys, tmp_path, call, want, message):
        """Each refusal no other test reaches: a command exits 2 with its one
        stderr line, a library call raises its type with its message."""
        if isinstance(want, int):
            assert call(tmp_path) == want
            assert capsys.readouterr() == ("", message + "\n")
        else:
            with pytest.raises(want) as exc:
                call(tmp_path)
            assert str(exc.value) == message


class TestDatasetLoading:
    def test_bad_version(self, capsys, tmp_path):
        zero_den = json.load(open(ds("single_sqrt2")))
        zero_den["records"][0]["blocks"][0]["theta_over_pi"]["a"] = [-1, 0]
        huge_radicand = json.load(open(ds("single_sqrt2")))
        huge_radicand["records"][0]["blocks"][0]["theta_over_pi"]["s"] = 10**30 + 39
        half_radicand = json.load(open(ds("single_sqrt2")))
        half_radicand["records"][0]["blocks"][0]["theta_over_pi"]["s"] = 2.5
        float_index = json.load(open(ds("s2_elliptic")))
        float_index["records"][0]["initial_index"] = 1.9
        float_shape = json.load(open(ds("s2_elliptic")))
        float_shape["shape"]["d"] = 2.0
        bool_coeff = json.load(open(ds("single_sqrt2")))
        bool_coeff["records"][0]["blocks"][0]["theta_over_pi"]["b"] = [True, 1]
        list_options = json.load(open(ds("single_sqrt2")))
        list_options["options"] = [1]
        number_block = json.load(open(ds("single_sqrt2")))
        number_block["records"][0]["blocks"] = [5]
        list_record = json.load(open(ds("single_sqrt2")))
        list_record["records"] = [[1]]
        list_angle = json.load(open(ds("single_sqrt2")))
        list_angle["records"][0]["blocks"][0]["theta_over_pi"] = [1]
        null_name = json.load(open(ds("s2_elliptic")))
        null_name["records"][0]["name"] = None
        number_name = json.load(open(ds("s2_elliptic")))
        number_name["records"][1]["name"] = 7
        negative_index = json.load(open(ds("s3_elliptic")))
        a1 = negative_index["records"][0]
        a1["initial_index"] = -1
        a1["blocks"][0]["theta_over_pi"] = {"kind": "rational", "num": 19, "den": 10}
        a1["blocks"][1]["theta_over_pi"] = {"kind": "rational", "num": 9, "den": 5}
        negative_index["options"] = {"bumpy": False}
        string_index = json.load(open(ds("single_sqrt2")))
        string_index["records"][0]["initial_index"] = "1"
        string_coeff = json.load(open(ds("single_sqrt2")))
        string_coeff["records"][0]["blocks"][0]["theta_over_pi"]["b"] = "1"
        short_pair = json.load(open(ds("single_sqrt2")))
        short_pair["records"][0]["blocks"][0]["theta_over_pi"]["a"] = [-1]
        bumpy = {}
        for label, value in (("null", None), ("0", 0), ("[]", []), ('"false"', "false")):
            bumpy[label] = json.load(open(ds("s2_elliptic")))
            bumpy[label]["options"] = {"bumpy": value}
        unknown_option = json.load(open(ds("s2_elliptic")))
        unknown_option["options"] = {"bumpy": True, "strict": False}
        odd_sign = json.load(open(ds("s3_elliptic")))
        odd_sign["records"][2]["blocks"][0] = {"type": "N1", "lambda": 1, "b_sign": "odd"}
        zero_b = json.load(open(ds("single_sqrt2")))
        zero_b["records"][0]["blocks"][0]["theta_over_pi"]["b"] = [-1, 0]
        zero_rational = json.load(open(ds("single_sqrt2")))
        zero_rational["records"][0]["blocks"][0]["theta_over_pi"] = {"kind": "rational", "num": 1, "den": 0}
        no_den = json.load(open(ds("single_sqrt2")))
        no_den["records"][0]["blocks"][0]["theta_over_pi"] = {"kind": "rational", "num": 1}
        no_index = json.load(open(ds("single_sqrt2")))
        del no_index["records"][0]["initial_index"]
        no_n = json.load(open(ds("single_sqrt2")))
        del no_n["shape"]["n"]
        no_s = json.load(open(ds("single_sqrt2")))
        del no_s["records"][0]["blocks"][0]["theta_over_pi"]["s"]
        list_shape = json.load(open(ds("single_sqrt2")))
        list_shape["shape"] = [2, 1]
        sums = {}
        for label, terms in (("[5]", [5]), ("{}", {"coeff": [1, 1], "s": 2})):
            sums[label] = json.load(open(ds("single_sqrt2")))
            sums[label]["records"][0]["blocks"][0]["theta_over_pi"] = {
                "kind": "sum", "rational": [-1, 1], "terms": terms}
        radicands = {}
        for s in (0, -3):
            radicands[s] = json.load(open(ds("single_sqrt2")))
            radicands[s]["records"][0]["blocks"][0]["theta_over_pi"]["s"] = s
        angle = "invalid dataset: dataset.records[0].blocks[0].theta_over_pi"
        cases = (
            ('{"version": 99}', "version"),
            ("[1, 2]", "JSON object"),
            (json.dumps(zero_den), "invalid dataset"),
            (json.dumps(huge_radicand), angle + ".s is 1000000000000000000000000000039, "
                                        "not a radicand from 1 to 1000000000000"),
            (json.dumps(half_radicand), "theta_over_pi.s is 2.5, not an integer"),
            (json.dumps(float_index), "initial_index is 1.9, not an integer"),
            (json.dumps(float_shape), "shape.d is 2.0, not an integer"),
            (json.dumps(bool_coeff), "theta_over_pi.b[0] is true, not an integer"),
            (json.dumps(list_options), "dataset.options is [1], not an object"),
            (json.dumps(number_block), "dataset.records[0].blocks[0] is 5, not an object"),
            (json.dumps(list_record), "dataset.records[0] is [1], not an object"),
            (json.dumps(list_angle), angle + " is [1], not an object"),
            (json.dumps(null_name), "dataset.records[0].name is null, not a string"),
            (json.dumps(number_name), "dataset.records[1].name is 7, not a string"),
            (
                json.dumps(negative_index),
                "dataset.records[0].initial_index is -1, not a Morse index >= 0",
            ),
            (json.dumps(string_index), 'dataset.records[0].initial_index is "1", not an integer'),
            (json.dumps(string_coeff), 'theta_over_pi.b is "1", not a pair of integers'),
            (json.dumps(short_pair), "theta_over_pi.a is [-1], not a pair of integers"),
            *(
                (json.dumps(doc), "dataset.options.bumpy is %s, not true or false" % label)
                for label, doc in bumpy.items()
            ),
            (json.dumps(unknown_option), 'dataset.options has the key "strict"'),
            (json.dumps(odd_sign),
             'dataset.records[2].blocks[0].b_sign is "odd", not one of positive, zero, negative'),
            (json.dumps(zero_b), "invalid dataset: dataset.records[0].blocks[0].theta_over_pi.b "
                                 "is [-1, 0], a zero denominator"),
            (json.dumps(zero_rational), "invalid dataset: dataset.records[0].blocks[0].theta_over_pi.den "
                                        "is 0, a zero denominator"),
            (json.dumps(no_den), angle + " has no key den"),
            (json.dumps(no_index), "invalid dataset: dataset.records[0] has no key initial_index"),
            (json.dumps(no_n), "invalid dataset: dataset.shape has no key n"),
            (json.dumps(no_s), angle + " has no key s"),
            (json.dumps(list_shape), "invalid dataset: dataset.shape is [2, 1], not an object"),
            (json.dumps(sums["[5]"]), angle + ".terms[0] is 5, not an object"),
            (json.dumps(sums["{}"]), angle + '.terms is {"coeff": [1, 1], "s": 2}, not a list'),
            *(
                (json.dumps(doc), angle + ".s is %d, not a radicand from 1 to 1000000000000" % s)
                for s, doc in radicands.items()
            ),
            # True == 1 and 1.0 == 1 in Python: the version must be the integer
            ('{"version": true}', "invalid dataset: dataset.version is true"),
            ('{"version": 1.0}', "invalid dataset: dataset.version is 1.0"),
            ('{"version": "1"}', 'invalid dataset: dataset.version is "1"'),
        )
        for text, reason in cases:
            p = tmp_path / "bad.json"
            p.write_text(text)
            for command in ("resonance", "cijt"):
                code, _, err = run(capsys, command, str(p))
                assert code == 2 and reason in err
                assert len(err.strip().splitlines()) == 1

    def test_deep_nesting(self, capsys, tmp_path):
        """Nesting past the interpreter's recursion limit, in the records or in
        the whole file, exits 2 with one line."""
        doc = json.load(open(ds("s2_elliptic")))
        doc["records"] = "@"
        cases = (
            json.dumps(doc).replace('"@"', "[" * 995 + "]" * 995),
            "[" * 100000 + "]" * 100000,
        )
        for text in cases:
            p = tmp_path / "deep.json"
            p.write_text(text)
            code, out, err = run(capsys, "resonance", str(p))
            assert code == 2 and out == "" and "too deeply" in err
            assert len(err.strip().splitlines()) == 1

    def test_oversized_values(self, capsys, tmp_path):
        """A huge offending value is cut from the message: one line under 300
        bytes that still begins with where the fault is."""
        edits = (
            (("records",), [[1] * 200000], "dataset.records[0] is [1, 1"),
            (("records", 0, "name"), list(range(100000)), "dataset.records[0].name is [0, 1"),
            (("records", 0, "blocks", 0), "x" * 300000, "dataset.records[0].blocks[0] is"),
            (("records", 0, "blocks", 0, "theta_over_pi"), [1] * 100000,
             "dataset.records[0].blocks[0].theta_over_pi is [1, 1"),
            (("records", 0, "blocks", 0, "type"), "Q" * 100000,
             'dataset.records[0].blocks[0].type is "QQ'),
            (("records", 0, "blocks", 0, "theta_over_pi", "kind"), "k" * 100000,
             'dataset.records[0].blocks[0].theta_over_pi.kind is "kk'),
        )
        doc = json.load(open(ds("s2_elliptic")))
        for where, value, head in edits:
            p = tmp_path / "big.json"
            p.write_text(json.dumps(_replaced(doc, where, value)))
            for command in ("resonance", "cijt"):
                code, out, err = run(capsys, command, str(p))
                assert code == 2 and out == ""
                assert err.startswith("error: invalid dataset: " + head)
                assert len(err.encode()) < 300 and err.count("\n") == 1

    def test_line_break_in_key(self, capsys, tmp_path):
        """An unknown object key is named escaped in the error, which stays one line."""
        doc = json.load(open(ds("s2_elliptic")))
        keys = (("na\nme", r'"na\nme"'), ("a\rb", r'"a\rb"'), ("x\u2028y", r'"x\u2028y"'))
        for key, shown in keys:
            bad = json.loads(json.dumps(doc))
            bad["records"][0][key] = 2.5
            p = tmp_path / "key.json"
            p.write_text(json.dumps(bad))
            for command in ("resonance", "cijt"):
                code, out, err = run(capsys, command, str(p))
                assert code == 2 and out == ""
                assert err == (
                    "error: invalid dataset: dataset.records[0] has the key %s, "
                    "not one of name, initial_index, blocks\n" % shown
                )
                assert len(err.splitlines()) == 1

    def test_escaped_key_deep_in_the_tree(self, capsys, tmp_path):
        """A key that is no identifier, deep in the tree, is refused at its
        object and named escaped; the value under it is not read."""
        doc = json.load(open(ds("single_sqrt2")))
        doc["records"][0]["blocks"][0]["theta_over_pi"]["x\ny"] = [{"a b": [1, 2.5]}]
        p = tmp_path / "deep_key.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "cijt", str(p))
        assert (code, out) == (2, "")
        assert err == ('error: invalid dataset: dataset.records[0].blocks[0].theta_over_pi'
                       ' has the key "x\\ny", not one of kind, a, b, s\n')

    @pytest.mark.parametrize("block, why", [
        ({"type": "R", "theta_over_pi": {"kind": "rational", "num": 5, "den": 2}},
         "theta/pi must lie in (0, 2)"),
        ({"type": "D", "lambda": {"kind": "rational", "num": -1, "den": 1}},
         "D(lam) needs lam real with |lam| not in {0, 1}"),
        ({"type": "N1", "lambda": 2, "b_sign": "zero"}, "bad N1 block"),
    ])
    def test_block_refusal_names_its_place(self, capsys, tmp_path, block, why):
        """A block its constructor refuses is named by its place."""
        doc = json.load(open(ds("s2_elliptic")))
        doc["records"][1]["blocks"][0] = block
        p = tmp_path / "block.json"
        p.write_text(json.dumps(doc))
        for command in ("resonance", "cijt"):
            code, out, err = run(capsys, command, str(p))
            assert (code, out) == (2, "")
            assert err == "error: invalid dataset: dataset.records[1].blocks[0]: %s\n" % why

    def test_duplicate_record_name_is_named(self, capsys, tmp_path):
        """A repeated record name is named, escaped as a record name is."""
        doc = json.load(open(ds("s2_elliptic")))
        doc["records"][0]["name"] = doc["records"][1]["name"] = "c\n1"
        p = tmp_path / "twice.json"
        p.write_text(json.dumps(doc))
        for command in ("resonance", "cijt"):
            code, out, err = run(capsys, command, str(p))
            assert (code, out) == (2, "")
            assert err == 'error: invalid dataset: duplicate record name "c\\n1"\n'

    def test_line_break_in_record_name(self, capsys, tmp_path):
        """A record name is shown escaped in the error, which stays one line."""
        doc = json.load(open(ds("s2_elliptic")))
        doc["records"][0]["name"] = "c\n1"
        doc["records"][0]["blocks"] *= 2
        p = tmp_path / "name.json"
        p.write_text(json.dumps(doc))
        for argv in (("resonance",), ("verify", "--theorem", "1.1")):
            code, out, err = run(capsys, *argv, str(p))
            assert (code, out) == (2, "")
            assert err == (
                'error: invalid dataset: record "c\\n1": half-dimension 2, expected dn - 1 = 1\n'
            )

    def test_n2_kind_is_checked(self, capsys, tmp_path):
        """An N2 kind other than trivial or nontrivial exits 2 with a line that
        names the field and its values; it is not read as trivial."""
        n2 = {"type": "N2", "theta_over_pi": {"kind": "surd", "a": [0, 1], "b": [1, 2], "s": 2}}
        doc = {"version": 1, "shape": {"d": 3, "n": 1},
               "records": [{"name": "c", "initial_index": 2, "blocks": [n2]}]}
        p = tmp_path / "kind.json"
        for kind, want in (("trivial", [0]), ("nontrivial", [1]), ("nontrvial", '"nontrvial"'),
                           (None, "null"), (7, "7")):
            n2["kind"] = kind
            p.write_text(json.dumps(doc))
            code, out, err = run(capsys, "cijt", str(p))
            if code == 0:
                assert json.loads(out)["Delta"] == want
            else:
                assert (code, out, err) == (2, "", "error: invalid dataset: dataset.records[0]"
                                            ".blocks[0].kind is %s, not one of trivial, "
                                            "nontrivial\n" % want)

    def test_unreadable_file_is_named(self, capsys, tmp_path):
        """Bytes that are not UTF-8 and an integer past the interpreter's digit
        limit are read errors: one line that names the file."""
        p = tmp_path / "unreadable.json"
        for data, reason in ((b'{"version": 1, "name": "\xff"}', "can't decode byte 0xff"),
                             (b'{"version": ' + b"9" * 5000 + b"}", "Exceeds the limit")):
            p.write_bytes(data)
            for command in ("resonance", "cijt"):
                code, out, err = run(capsys, command, str(p))
                assert (code, out, err.count("\n")) == (2, "", 1) and reason in err
                assert err.startswith("error: cannot read dataset %s: " % p) and "set_int" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "resonance", "/nonexistent.json")
        assert code == 2

    def test_line_break_in_missing_path(self, capsys, tmp_path):
        """A missing dataset's path is shown with its line break escaped, so
        the error stays one line."""
        p = tmp_path / "no\nsuch.json"
        code, out, err = run(capsys, "resonance", str(p))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("error: cannot read dataset %s: " % str(p).replace("\n", "\\n"))

    def test_line_break_in_deep_path(self, capsys, tmp_path):
        """So is the path of a dataset that nests too deeply."""
        p = tmp_path / "no\nsuch.json"
        p.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "resonance", str(p))
        assert (code, out) == (2, "")
        assert err == ("error: invalid dataset: %s nests lists or objects too deeply\n"
                       % str(p).replace("\n", "\\n"))

    def test_round_trip_all_shipped(self):
        for name in ("s2_elliptic", "s3_elliptic", "s2_hyperbolic", "single_sqrt2"):
            dataset = shipped(name)
            assert dataset.records

    def test_shipped_files_are_regenerated_alike(self, tmp_path, monkeypatch):
        """GOLDEN and the bench digests hang on datasets/: scripts/make_datasets.py
        writes the same files, byte for byte."""
        script = os.path.join(ROOT, "scripts", "make_datasets.py")
        spec = importlib.util.spec_from_file_location("make_datasets", script)
        make_datasets = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src/ first
        spec.loader.exec_module(make_datasets)
        monkeypatch.setattr(make_datasets, "OUT", str(tmp_path))
        make_datasets.main()
        assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(DATASETS))
        for name in os.listdir(DATASETS):
            with open(os.path.join(DATASETS, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name


# documents that json.loads refuses, or that it reads to a value cijt refuses
MALFORMED = {
    "empty": b"",
    "whitespace": b" \n\t\r ",
    "bom": '\ufeff{"version": 1}'.encode(),
    "trailing data": b'{"version": 1} x',
    "trailing comma": b'{"version": 1,}',
    "unterminated": b'{"version": 1',
    "bad escape": b'{"version": "\\q"}',
    "control character": b'{"version": "a\x01b"}',
    "deep": b"[" * 100000 + b"]" * 100000,
    "nan": b"NaN",
    "minus infinity": b'{"version": -Infinity}',
    "1e400": b'{"version": 1e400}',
    "5000 digits": b'{"version": ' + b"9" * 5000 + b"}",
    "not utf-8": b'{"version": 1, "name": "\xff"}',
    "form feed before": b'\x0c{"version": 1}',
    "form feed after": b'{"version": 1}\x0c',
    "trailing nbsp": '{"version": 1}\xa0'.encode(),
    "duplicate key": b'{"version": 2, "version": 1}',
    "lone surrogate": b'{"version": 1, "shape": "\\ud800"}',
}
# the malformed documents that a cijt search is run on as well
SEARCHED = ("trailing comma", "bad escape", "bom", "deep")


def _json_refusal(path):
    """The message json.loads raises on the file at path read as UTF-8, cut at
    the interpreter's advice on its digit limit, or None if it reads a value."""
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return str(exc).partition("; use sys.")[0]
    except RecursionError:  # refused as nesting too deeply, not as unreadable
        pass
    return None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
json_blanks = st.text(" \t\n\r\x0c\xa0\ufeff", max_size=3)


@st.composite
def json_texts(draw):
    """json.dumps of a value, laid out one of several ways, between blanks;
    sometimes with one character inserted, deleted or replaced."""
    text = json.dumps(
        draw(json_values),
        indent=draw(st.sampled_from((None, 0, 2, "\t"))),
        separators=draw(st.sampled_from((None, (",", ":"), (" , ", " : "), (",\n", ":\t")))),
        ensure_ascii=draw(st.booleans()),
    )
    text = draw(json_blanks) + text + draw(json_blanks)
    change = draw(st.sampled_from((None, "insert", "delete", "replace")))
    if change and text:
        k = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from('{}[]",:\\ 0-.eEtn\x01\x0c') | st.characters())
        text = text[:k] + (c if change != "delete" else "") + text[k + (change != "insert"):]
    return text


def _outcome(read, text):
    """The repr of read(text), so that NaN equals itself, or its exception."""
    try:
        return repr(read(text))
    except Exception as exc:
        return type(exc), str(exc)


class TestJsonReader:
    @given(json_texts())
    @settings(max_examples=1500, deadline=None)
    def test_same_as_json_loads(self, text):
        """The dataset reader gives the value json.loads gives, or raises its
        exception with its message."""
        assert _outcome(cli._loads, text) == _outcome(json.loads, text)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_refusal_in_a_fresh_interpreter(self, capsys, tmp_path, name):
        """A process that has not imported json refuses a malformed document
        as one that has: on Python 3.10 and 3.11 the C scanner raises
        SystemError until json.decoder is imported.  A document that json.loads
        refuses is one line naming the file and json.loads's message."""
        p = tmp_path / "malformed.json"
        p.write_bytes(MALFORMED[name])
        refusal = _json_refusal(p)
        for command in ("resonance", "cijt") if name in SEARCHED else ("resonance",):
            fresh = subprocess.run([sys.executable, "-S", "-m", "cijt.cli", command, str(p)],
                                   capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == run(capsys, command, str(p))
            assert fresh.returncode == 2 and fresh.stderr.count("\n") == 1
            if refusal is not None:
                assert fresh.stderr == "error: cannot read dataset %s: %s\n" % (p, refusal)

    def test_utf8_whatever_the_locale(self, tmp_path):
        """A dataset is read as UTF-8 in an ASCII locale too."""
        doc = json.load(open(ds("single_sqrt2")))
        doc["records"][0]["name"] = "g\u00e9"
        p = tmp_path / "accented.json"
        p.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = dict(os.environ, PYTHONPATH=SRC, LC_ALL="C", PYTHONUTF8="0")
        out = subprocess.run([sys.executable, "-m", "cijt.cli", "cijt", str(p)],
                             capture_output=True, text=True, env=env)
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["records"] == ["g\u00e9"]


SHIPPED = ("s2_elliptic", "s3_elliptic", "s2_hyperbolic", "single_sqrt2")


def _field_paths(node, here=()):
    """Every position in a JSON document, the root included."""
    yield here
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _field_paths(value, here + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _field_paths(value, here + (k,))


def _replaced(doc, where, value):
    if not where:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value
    return doc


malformed = st.one_of(
    st.none(),
    st.sampled_from([0, 1, 2, 7, 10**30, 2.5, -0.5]),
    st.sampled_from(["", "x", "1", "1/2", "surd", "N1", "zero"]),
    st.sampled_from([[], [1], [None], [1, 2, 3], ["a", "b"], [{}]]),
    st.sampled_from([{}, {"kind": "rational"}, {"d": 2}, {"type": "R"}]),
    st.integers(-(10**20), -1),
)


class TestLoaderFuzz:
    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "mutated.json"

    @given(data=st.data(), value=malformed)
    @settings(max_examples=400, deadline=None)
    def test_load_returns_or_raises_cli_error(self, scratch, data, value):
        """One field of a shipped dataset replaced: loading ends in a dataset
        or a CliError (exit 2, one line), never another exception."""
        doc = json.load(open(ds(data.draw(st.sampled_from(SHIPPED)))))
        where = data.draw(st.sampled_from(list(_field_paths(doc))))
        scratch.write_text(json.dumps(_replaced(doc, where, value)))
        try:
            load_dataset(str(scratch))
        except CliError as exc:
            assert "\n" not in str(exc)


# -- the two-pass reader that load_dataset replaced, kept as an oracle --------
# A schema-blind walk (_check_fields) first, then indexing under one catch-all
# except; its messages are cut short here, its accept-or-refuse verdict is not.

_STRING_FIELDS = ("name", "type", "kind", "b_sign")
_PAIR_FIELDS = ("a", "b", "rational", "coeff")


def _check_fields(node, key=None):
    if key in _PAIR_FIELDS and not (
        isinstance(node, list) and len(node) == 2 and all(isinstance(v, int) for v in node)
    ):
        raise CliError("not a pair of integers")
    zero = node[1] if key in _PAIR_FIELDS else node if key == "den" else None
    if type(zero) is int and not zero:
        raise CliError("a zero denominator")
    if isinstance(node, dict):
        for k, value in node.items():
            if k != "options" and (
                type(value) is not int or k in _PAIR_FIELDS or k == "den" and not value
            ):
                _check_fields(value, k)
    elif isinstance(node, list):
        for value in node:
            if type(value) is not int:
                _check_fields(value)
    elif isinstance(node, (bool, float)):
        raise CliError("not an integer")
    elif isinstance(node, str) and key not in _STRING_FIELDS:
        raise CliError("a string outside the string fields")


def _objects(node):
    if not isinstance(node, list) or not all(isinstance(item, dict) for item in node):
        raise CliError("not a list of objects")
    return node


def _capped(s):
    if s > MAX_RADICAND:
        raise ValueError("radicand %d exceeds the cap %d" % (s, MAX_RADICAND))
    return s


def _two_pass_scalar(obj):
    if not isinstance(obj, dict):
        raise TypeError("scalar %r is not an object" % (obj,))
    kind = obj.get("kind")
    if kind == "rational":
        return _from_pairs((obj["num"], obj["den"]), ())
    if kind == "surd":
        return _from_pairs(obj["a"], ((obj["b"], _capped(obj["s"])),))
    if kind == "sum":
        terms = [(t["coeff"], _capped(t["s"])) for t in obj["terms"]]
        return _from_pairs(obj["rational"], terms)
    raise ValueError("unknown scalar kind: %r" % (kind,))


def _named(obj, field, table):
    value = obj[field]
    if isinstance(value, str) and value in table:
        return table[value]
    raise ValueError("%s %s is %r" % (obj["type"], field, value))


def _two_pass_block(obj):
    t = obj.get("type")
    if t == "N1":
        return N1(obj["lambda"], _named(obj, "b_sign", {"positive": 1, "zero": 0, "negative": -1}))
    if t == "D":
        return D(_two_pass_scalar(obj["lambda"]))
    if t == "R":
        return R(_two_pass_scalar(obj["theta_over_pi"]))
    if t == "N2":
        kind = _named(obj, "kind", {"trivial": False, "nontrivial": True})
        return N2(_two_pass_scalar(obj["theta_over_pi"]), kind)
    raise ValueError("unknown block type: %r" % (t,))


def _two_pass_load(doc):
    """The dataset of a parsed document, or CliError."""
    if not isinstance(doc, dict):
        raise CliError("dataset must be a JSON object")
    _check_fields(doc)
    if doc.get("version") != 1:
        raise CliError("unsupported dataset version")
    options = doc.get("options", {})
    if not isinstance(options, dict) or set(options) - {"bumpy"}:
        raise CliError("bad options")
    if not all(isinstance(value, bool) for value in options.values()):
        raise CliError("bad options.bumpy")
    try:
        shape = CohomologyShape(doc["shape"]["d"], doc["shape"]["n"])
        records = []
        for r in _objects(doc["records"]):
            if not isinstance(r["name"], str):
                raise CliError("name not a string")
            index = int(r["initial_index"])
            if index < 0:
                raise CliError("not a Morse index")
            blocks = tuple(map(_two_pass_block, _objects(r["blocks"])))
            records.append(GeodesicRecord(r["name"], PathClass(index, SymplecticClass(blocks))))
        return GeodesicDataset(shape, tuple(records), options.get("bumpy", True))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError("invalid dataset: %s" % exc)


# Every block type and scalar kind, and options: valid for both readers.
MIXED = {
    "version": 1, "shape": {"d": 3, "n": 1}, "options": {"bumpy": False},
    "records": [
        {"name": "n", "initial_index": 3, "blocks": [
            {"type": "N1", "lambda": 1, "b_sign": "positive"},
            {"type": "R", "theta_over_pi": {"kind": "sum", "rational": [1, 3], "terms": [
                {"coeff": [1, 5], "s": 2}, {"coeff": [1, 7], "s": 12}]}}]},
        {"name": "s", "initial_index": 2, "blocks": [
            {"type": "N2", "kind": "nontrivial",
             "theta_over_pi": {"kind": "surd", "a": [1, 2], "b": [1, 4], "s": 5}}]},
        {"name": "h", "initial_index": 1, "blocks": [
            {"type": "D", "lambda": {"kind": "surd", "a": [2, 1], "b": [1, 1], "s": 3}},
            {"type": "N1", "lambda": -1, "b_sign": "negative"}]},
        {"name": "r", "initial_index": 2, "blocks": [
            {"type": "D", "lambda": {"kind": "rational", "num": -3, "den": 2}},
            {"type": "R", "theta_over_pi": {"kind": "rational", "num": 2, "den": 3}}]},
    ],
}
# keys that no object of the schema names
UNKNOWN_KEYS = ("extra", "Name", "theta", "den ", "", "x\ny")


def _node(doc, where):
    for step in where:
        doc = doc[step]
    return doc


class TestReaderAgainstTwoPass:
    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "changed.json"

    @given(data=st.data(), value=malformed,
           change=st.sampled_from(("replace", "delete", "insert")))
    @settings(max_examples=600, deadline=None)
    def test_same_verdict_as_the_two_pass_reader(self, scratch, data, value, change):
        """One change to a valid dataset: a value replaced, a key deleted or
        a key the schema does not name inserted.  Loading ends in a dataset or
        a one-line CliError (exit 2), never another exception; the one-pass
        reader refuses what the two-pass reader refused, reads what it read to
        an equal dataset, and refuses an unknown key at the object that holds it."""
        name = data.draw(st.sampled_from(SHIPPED + ("MIXED",)))
        doc = json.loads(json.dumps(MIXED)) if name == "MIXED" else json.load(open(ds(name)))
        paths = list(_field_paths(doc))
        unknown = None
        if change == "replace":
            doc = _replaced(doc, data.draw(st.sampled_from(paths)), value)
        elif change == "delete":
            where = data.draw(st.sampled_from([w for w in paths if w and type(w[-1]) is str]))
            del _node(doc, where[:-1])[where[-1]]
        else:
            where = data.draw(st.sampled_from([w for w in paths if type(_node(doc, w)) is dict]))
            key = data.draw(st.sampled_from(UNKNOWN_KEYS))
            _node(doc, where)[key] = value
            place = "dataset" + "".join("[%d]" % s if type(s) is int else "." + s for s in where)
            unknown = "invalid dataset: %s has the key %s, not one of " % (place, json.dumps(key))
        try:
            old = _two_pass_load(doc)
        except CliError:
            old = None
        scratch.write_text(json.dumps(doc))
        try:
            new = load_dataset(str(scratch))
        except CliError as exc:
            assert "\n" not in str(exc)
            assert unknown is None or str(exc).startswith(unknown), str(exc)
            assert unknown is not None or old is None, str(exc)
        else:
            assert unknown is None and old is not None and new == old
