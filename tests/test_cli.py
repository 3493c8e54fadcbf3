"""Command-line surface: exit codes, formats, determinism, batch mode."""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equispin import cli, rigidity
from equispin.cli import main
from equispin.dataset import fermat_quartic, to_json

FERMAT_JSON = to_json(fermat_quartic())


@pytest.fixture
def fermat_file(tmp_path):
    path = tmp_path / "fermat.json"
    path.write_text(FERMAT_JSON, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerdictCommand:
    def test_fermat_text(self, capsys, fermat_file):
        code, out, _ = run(capsys, "verdict", fermat_file)
        assert code == 0
        assert "outcome: NoObstruction" in out
        assert "spin number: 2 [positive]" in out

    def test_fermat_json(self, capsys, fermat_file):
        code, out, _ = run(capsys, "verdict", fermat_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "NoObstruction"
        assert report["k_vector"] == [2, 0, 0]
        assert report["spin"]["value"] == "2"

    def test_deterministic_output(self, capsys, fermat_file):
        _, first, _ = run(capsys, "verdict", fermat_file, "--format", "json")
        _, second, _ = run(capsys, "verdict", fermat_file, "--format", "json")
        assert first == second

    def test_contradiction_exits_zero(self, capsys, tmp_path):
        from conftest import engineered_trivial_datasets
        from equispin.dataset import to_json as dump

        path = tmp_path / "trivial.json"
        path.write_text(dump(engineered_trivial_datasets()[1]), encoding="utf-8")
        code, out, _ = run(capsys, "verdict", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["outcome"] == "Contradiction"


class TestSpinCommand:
    def test_default_power(self, capsys, fermat_file):
        code, out, _ = run(capsys, "spin", fermat_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["power"] == 1
        assert payload["spin"] == {"rational": "2"}

    def test_chosen_power(self, capsys, fermat_file):
        code, out, _ = run(capsys, "spin", fermat_file, "--power", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["spin"] == {"rational": "2"}

    def test_power_zero_gives_index(self, capsys, fermat_file):
        code, out, _ = run(capsys, "spin", fermat_file, "--power", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["spin"] == {"rational": "2"}

    def test_missing_file_exits_three(self, capsys):
        code, _, err = run(capsys, "spin", "missing.json")
        assert code == 3
        assert "error" in err


class TestQuotientAndKVector:
    def test_quotient(self, capsys, fermat_file):
        code, out, _ = run(capsys, "quotient", fermat_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "sigma": "-4",
            "euler": "12",
            "b_plus": 3,
            "b_minus": "7",
            "integral": True,
        }

    def test_kvector(self, capsys, fermat_file):
        code, out, _ = run(capsys, "kvector", fermat_file, "--format", "json")
        assert code == 0
        assert json.loads(out)["k_vector"] == [2, 0, 0]


class TestEnumerateCommand:
    def test_rank_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--quotient-b-plus", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["pairs"] == [[0, 12], [3, 6], [6, 0]]

    def test_rank_one(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--quotient-b-plus", "1")
        assert code == 0
        assert "(0, 3)" in out

    def test_trivial_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--quotient-b-plus", "3", "--trivial")
        assert code == 0
        assert "none" in out

    def test_unsupported_order(self, capsys):
        code, _, err = run(capsys, "enumerate", "--p", "5", "--quotient-b-plus", "3")
        assert code == 2


class TestProp41Command:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--m", "4,4,4", "--n", "4,3,3"),
            ("--p", "5", "--m", "1,2,2,2,2", "--n", "3,1,1,1,1"),
        ],
    )
    def test_former_over_cap_instances_within_one_second(self, capsys, argv):
        # dimensions 36 and 45: the unimodular column sweep ran past 3 s on both
        started = time.perf_counter()
        code, out, _ = run(capsys, "prop41", *argv, "--l", "1", "--format", "json")
        elapsed = time.perf_counter() - started
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_rank"] == 1
        assert payload["kernel_spanned_by_expected"] is True
        assert elapsed < 1.0

    def test_explicit_vectors(self, capsys):
        code, out, _ = run(
            capsys, "prop41", "--m", "2,2,2", "--n", "2,1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_rank"] == 1
        assert payload["kernel_spanned_by_expected"] is True
        assert payload["scalar_forced_zero"] is True
        assert payload["sw_value"] == 0

    def test_invalid_vectors_exit_two(self, capsys):
        code, _, err = run(capsys, "prop41", "--m", "2,2,2", "--n", "2,2,2")
        assert code == 2
        assert "bookkeeping" in err

    def test_no_input_exits_two(self, capsys):
        code, _, err = run(capsys, "prop41")
        assert code == 2

    @pytest.mark.parametrize(
        "vectors",
        [
            ("--m", "0,2,1", "--n", "0,1,1", "--l", "0"),  # hypotheses not met
            ("--m", "2,2,2", "--n", "2,1,1"),  # hypotheses met
        ],
    )
    @pytest.mark.parametrize("q", ["0", "-1"])
    def test_nonpositive_exponent_exits_two(self, capsys, vectors, q):
        # the exponent is checked before the hypotheses, so both instances fail alike
        code, out, err = run(capsys, "prop41", *vectors, "--q", q)
        assert code == 2
        assert out == ""
        assert err == "error: Adams exponents must be positive integers\n"

    @pytest.mark.parametrize(
        "vectors", [("--m", "2,2,2"), ("--m", "2,2,2", "--n", "2,1,1"), ("--n", "2,1,1")]
    )
    def test_file_and_vectors_exit_two(self, capsys, fermat_file, vectors):
        code, out, err = run(capsys, "prop41", fermat_file, *vectors)
        assert code == 2
        assert out == ""
        assert err == "error: give a dataset file or --m/--n vectors, not both\n"


class TestSchemaErrors:
    def test_unknown_key_exits_two(self, capsys, tmp_path):
        doc = json.loads(FERMAT_JSON)
        doc["bogus"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "verdict", str(path))
        assert code == 2
        assert "unknown keys" in err

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "verdict", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "content, reason",
        [(b"\xff", "'utf-8' codec can't decode"), (b'{"p": ' + b"7" * 5000 + b"}", "4300 digits")],
    )
    def test_undecodable_document_exits_two(self, capsys, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "verdict", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("key", ["isolated", "surfaces"])
    @pytest.mark.parametrize("value", [5, None, "ab", {"l_alpha": 1}])
    def test_list_field_of_wrong_type_exits_two(self, capsys, tmp_path, key, value):
        doc = json.loads(FERMAT_JSON)
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verdict", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {key} must be a list\n"


class TestBatchMode:
    def test_deterministic_order(self, capsys, tmp_path):
        from conftest import engineered_trivial_datasets
        from equispin.dataset import to_json as dump

        (tmp_path / "b.json").write_text(FERMAT_JSON, encoding="utf-8")
        (tmp_path / "a.json").write_text(
            dump(engineered_trivial_datasets()[1]), encoding="utf-8"
        )
        code, out, _ = run(capsys, "verdict", "--batch", str(tmp_path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = [entry["file"] for entry in payload["results"]]
        assert names == ["a.json", "b.json"]
        assert payload["results"][0]["report"]["outcome"] == "Contradiction"
        assert payload["results"][1]["report"]["outcome"] == "NoObstruction"

    def test_missing_directory_exits_three(self, capsys):
        code, _, err = run(capsys, "verdict", "--batch", "/nonexistent-dir")
        assert code == 3

    def test_only_json_files_in_name_order(self, capsys, tmp_path):
        for name in ("b.json", "a.json", "c.txt", "d.JSON"):
            (tmp_path / name).write_text(FERMAT_JSON, encoding="utf-8")
        (tmp_path / "sub").mkdir()
        code, out, _ = run(capsys, "kvector", "--batch", str(tmp_path), "--format", "json")
        assert code == 0
        assert [entry["file"] for entry in json.loads(out)["results"]] == ["a.json", "b.json"]

    def test_directory_named_like_a_dataset_exits_three(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text(FERMAT_JSON, encoding="utf-8")
        (tmp_path / "b.json").mkdir()
        code, out, err = run(capsys, "verdict", "--batch", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: [Errno 21] Is a directory: ")


class TestSelftest:
    def test_all_pass_text(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "all passed" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "selftest", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {item["name"] for item in payload["items"]}
        assert "fermat-spin-number" in names and "adams-kernel-instance" in names

    def test_negative_control_would_catch_tampering(self):
        # a tampered signature preset (-8 instead of -16) shifts the index
        # to 1, so the spin-index item's expectation of 2 would fail
        from equispin.dataset import ManifoldInvariants
        from equispin.lefschetz import spin_index

        tampered = ManifoldInvariants(b1=0, b_plus=3, signature=-8, euler=16, is_spin=True)
        assert spin_index(tampered) == 1 != 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_item_exits_one_with_full_report(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "spin_index", lambda manifold: 1)
        code, out, err = run(capsys, "selftest", "--format", fmt)
        assert code == 1
        assert err == ""
        if fmt == "text":
            assert "FAIL spin-index-k3 (index 1)" in out
            assert out.endswith("FAILURES present\n")
            assert out.count("PASS ") == len(cli._selftest_items()) - 1
        else:
            payload = json.loads(out)
            assert payload["passed"] is False
            failed = [item["name"] for item in payload["items"] if not item["passed"]]
            assert failed == ["spin-index-k3"]


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is needed only for the advisory estimates of irrational spin numbers
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, equispin.cli; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_cli_import_footprint():
    # the records are named tuples and files are read with open(): importing
    # the CLI needs none of these modules, which cost several milliseconds of
    # every one-shot run
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules); "
        "import equispin.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


class TestPrecisionBound:
    @pytest.fixture
    def irrational_file(self, tmp_path):
        import random

        from conftest import random_dataset

        path = tmp_path / "p11.json"
        path.write_text(to_json(random_dataset(random.Random(11), p=11)), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("bits", ["0", "-5", "19"])
    def test_below_twenty_bits_is_rejected(self, capsys, irrational_file, bits):
        code, out, err = run(capsys, "verdict", irrational_file, "--precision", bits)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --precision")

    @pytest.mark.parametrize("command", ["spin", "quotient", "kvector", "verdict"])
    def test_rejected_before_any_batch_output(self, capsys, tmp_path, command):
        (tmp_path / "fermat.json").write_text(FERMAT_JSON, encoding="utf-8")
        code, out, err = run(capsys, command, "--batch", str(tmp_path), "--precision", "19")
        assert (code, out) == (2, "")
        assert "--precision" in err

    @pytest.mark.parametrize("command", ["spin", "quotient", "kvector", "verdict"])
    @pytest.mark.parametrize("bits", ["4097", "20000", "1000000"])
    def test_above_the_ceiling_is_rejected(self, capsys, irrational_file, command, bits):
        # 20,000 bits took 36 s on a 48-point p = 1,009 verdict; the ceiling is checked first
        started = time.perf_counter()
        code, out, err = run(capsys, command, irrational_file, "--precision", bits)
        assert (code, out) == (2, "")
        assert err == f"error: --precision must be at most {cli.MAX_PRECISION_BITS} bits, got {bits}\n"
        assert time.perf_counter() - started < 1

    def test_ceiling_is_accepted(self, capsys, irrational_file):
        bits = str(cli.MAX_PRECISION_BITS)
        code, out, _ = run(capsys, "verdict", irrational_file, "--precision", bits, "--format", "json")
        assert code == 0
        # nstr keeps 4096 * 3 // 10 = 1228 significant digits; the 80-bit estimate's 24 agree to 22
        estimate = json.loads(out)["spin"]["estimate"]
        assert estimate.startswith("-0.540664393302568939385") and len(estimate) > 1000

    def test_twenty_bits_is_accepted(self, capsys, irrational_file):
        code, out, _ = run(capsys, "verdict", irrational_file, "--precision", "20", "--format", "json")
        assert code == 0
        assert float(json.loads(out)["spin"]["estimate"]) < 0

    def test_default_is_eighty_bits(self, capsys, irrational_file):
        default = run(capsys, "verdict", irrational_file, "--format", "json")
        assert default == run(capsys, "verdict", irrational_file, "--precision", "80", "--format", "json")
        # nstr keeps 80 * 3 // 10 = 24 significant digits
        assert json.loads(default[1])["spin"]["estimate"] == "-0.54066439330256893938527"


USAGE = (
    "usage: equispin [-h]\n"
    "                {spin,quotient,kvector,verdict,enumerate,prop41,selftest} ...\n"
)
TOP_HELP = USAGE + """
Exact equivariant index invariants for odd-prime cyclic actions on spin
4-manifolds

positional arguments:
  {spin,quotient,kvector,verdict,enumerate,prop41,selftest}
    spin                spin number of a dataset at a chosen power
    quotient            orbit-space signature and Euler characteristic
    kvector             eigenspace-defect vector from the spin numbers
    verdict             full constraint pipeline with reason chain
    enumerate           pseudofree point-type counts for order 3
    prop41              Adams-kernel vanishing verification
    selftest            reproduce the headline regression values

options:
  -h, --help            show this help message and exit
"""
VERDICT_HELP = """usage: equispin verdict [-h] [--batch DIR] [--format {text,json}]
                        [--precision BITS]
                        [input]

positional arguments:
  input                 dataset JSON file

options:
  -h, --help            show this help message and exit
  --batch DIR           evaluate every *.json dataset in DIR
  --format {text,json}
  --precision BITS      bits for advisory numeric estimates (at least 20)
"""
# (exit status, stdout, stderr) at 80 columns, recorded when every argv went
# through the top-level parse_args; the same under CPython 3.10.13, 3.11.7,
# 3.12.1 and 3.13.0
ARGPARSE_EDGES = {
    "no-arguments": (
        [], 2, "", USAGE + "equispin: error: the following arguments are required: command\n"
    ),
    "help": (["-h"], 0, TOP_HELP, ""),
    "unknown-command": (
        ["bogus"],
        2,
        "",
        USAGE
        + "equispin: error: argument command: invalid choice: 'bogus' (choose from 'spin', "
        "'quotient', 'kvector', 'verdict', 'enumerate', 'prop41', 'selftest')\n",
    ),
    "command-help": (["verdict", "-h"], 0, VERDICT_HELP, ""),
    "unrecognized-arguments": (
        ["verdict", "FILE", "--bogus", "y"],
        2,
        "",
        USAGE + "equispin: error: unrecognized arguments: --bogus y\n",
    ),
}


@pytest.mark.parametrize("name", sorted(ARGPARSE_EDGES))
def test_argparse_edges_are_unchanged(name, capsys, monkeypatch, fermat_file):
    monkeypatch.setenv("COLUMNS", "80")
    argv, want_code, want_out, want_err = ARGPARSE_EDGES[name]
    argv = [fermat_file if word == "FILE" else word for word in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out, captured.err) == (want_code, want_out, want_err)


def test_module_entry_point_prints_the_in_process_bytes(capsys, fermat_file):
    # argv=None: the arguments come from sys.argv
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["verdict", fermat_file, "--format", "json"]
    result = subprocess.run(
        [sys.executable, "-m", "equispin.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert run(capsys, *argv) == (0, result.stdout, "")


TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\n\t\x7fé€\u2028\U0001f600')
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: n * (-1) ** (n % 2))
    | TEXT,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(TEXT, children)
    ),
    max_leaves=25,
)


class TestJsonText:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, {"a": [0.0]}, {1: "a"}, {"a": {None: 1}}, {("a",): 1}, {"a": 1, 2: 3}, {1, 2}, b"x"],
        ids=repr,
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_emit_leaves_no_cyclic_garbage(self, capsys):
        report = rigidity.verdict_report(rigidity.verdict(fermat_quartic()))
        gc.collect()
        gc.disable()
        try:
            cli._emit(report, "json", None)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert json.loads(capsys.readouterr().out) == report
