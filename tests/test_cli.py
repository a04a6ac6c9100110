"""Command-line surface: outputs, exit codes, JSON stability, DOT export."""

import hashlib
import json
import random

import pytest

import garside.conjugacy
from garside.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "-n", "3", "1 2 1 1")
    assert code == 0 and out == "D^1 (1)\n"


def test_nf_json_schema(capsys):
    code, out, _ = run(capsys, "nf", "-n", "3", "1 2 1 1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"input", "n", "seed", "result", "witness", "stats"}
    assert payload["n"] == 3 and payload["result"] == "D^1 (1)"


def test_json_is_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "conj", "-n", "4", "1 2 3", "2 3 1", "--json", "--seed", "9"
        )
        assert code in (0, 1)
        runs.append(out)
    assert runs[0] == runs[1]


GOLDEN = [
    pytest.param(
        ["conj", "-n", "4", "1 2 3", "2 3 1"],
        0,
        '{"input": ["1 2 3", "2 3 1"], "n": 4, "result": "conjugate", "seed": null, '
        '"stats": {"N": 1, "R_max": 1, "T": 1, "contract_calls": 126, "sc_size": 3}, '
        '"witness": "D^0 (1 2 1 3)"}\n',
        id="conj-b4-conjugate",
    ),
    pytest.param(
        ["conj", "-n", "5", "1 2 -3 4 2", "-4 1 2 -3 4 2 4"],
        0,
        '{"input": ["1 2 -3 4 2", "-4 1 2 -3 4 2 4"], "n": 5, "result": "conjugate", '
        '"seed": null, "stats": {"N": 1, "R_max": 0, "T": 1, "contract_calls": 32, '
        '"sc_size": 2}, "witness": "D^0 (4)"}\n',
        id="conj-b5-one-circuit",
    ),
    pytest.param(
        ["conj", "-n", "5", "D 2 1 4 3 4 . 1", "1 -2 4 4 3"],
        1,
        '{"input": ["D 2 1 4 3 4 . 1", "1 -2 4 4 3"], "n": 5, "result": "not-conjugate", '
        '"seed": null, "stats": {"N": 6, "R_max": 0, "T": 1, "contract_calls": 68, '
        '"sc_size": 0}, "witness": null}\n',
        id="conj-b5-not-conjugate",
    ),
    pytest.param(
        # slid forms agree on (inf, sup), so the answer comes from a walk
        # that ran out
        ["conj", "-n", "4", "-2 2 1 1 1 -1 -3 1 -1",
         "-2 -3 -2 3 -3 -2 -2 2 -2 2 2 2 1 1 -1 -1 -3 1 -1 -2 2 2 3 -3 2 3 2"],
        1,
        '{"input": ["-2 2 1 1 1 -1 -3 1 -1", "-2 -3 -2 3 -3 -2 -2 2 -2 2 2 2 1 1 -1 -1 '
        '-3 1 -1 -2 2 2 3 -3 2 3 2"], "n": 4, "result": "not-conjugate", "seed": null, '
        '"stats": {"N": 2, "R_max": 1, "T": 0, "contract_calls": 262, "sc_size": 4}, '
        '"witness": null}\n',
        id="conj-b4-summit-equal-not-conjugate",
    ),
    pytest.param(
        ["scg", "-n", "4", "1 2 3"],
        0,
        '{"input": ["1 2 3"], "n": 4, "result": {"arrows": ['
        '{"label": "D^0 (1 3)", "source": 0, "target": 1}, '
        '{"label": "D^0 (2)", "source": 1, "target": 0}], '
        '"vertices": ["D^0 (1 3 2)", "D^0 (2 1 3)"]}, "seed": null, '
        '"stats": {"N": 1, "R_max": 2, "T": 1, "contract_calls": 252, "sc_size": 2}, '
        '"witness": null}\n',
        id="scg-b4",
    ),
    pytest.param(
        ["circuit", "-n", "5", "D 2 1 4 3 4 . 1"],
        0,
        '{"input": ["D 2 1 4 3 4 . 1"], "n": 5, "result": {"conjugator": "D^0", '
        '"elements": ["D^1 (2 1 3 4 3) (1)", "D^1 (1 3) (3 2 1 4)", '
        '"D^1 (1 3 2 1 4) (2)", "D^1 (1 3 2 1 4) (4)", "D^1 (2 4) (2 1 3 4)", '
        '"D^1 (2 1 3 4 3) (3)"], "period": 6}, "seed": null, '
        '"stats": {"N": 6, "R_max": 0, "T": 0, "contract_calls": 54, "sc_size": 0}, '
        '"witness": null}\n',
        id="circuit-b5",
    ),
]


@pytest.mark.parametrize("argv, exit_code, stdout", GOLDEN)
def test_json_golden_bytes(capsys, argv, exit_code, stdout):
    # witnesses, graphs and contract_calls are pinned byte for byte
    code, out, _ = run(capsys, *argv, "--json")
    assert (code, out) == (exit_code, stdout)


TEXT = [
    pytest.param(["nf", "-n", "3", "1 2 1 1"], 0, "D^1 (1)\n", id="nf"),
    pytest.param(
        ["slide", "-n", "4", "1 2 3", "--steps", "2"], 0, "D^0 (1 3 2)\n", id="slide"
    ),
    pytest.param(
        ["circuit", "-n", "5", "D 2 1 4 3 4 . 1"],
        0,
        "period 6\nconjugator D^0\n  D^1 (2 1 3 4 3) (1)\n  D^1 (1 3) (3 2 1 4)\n"
        "  D^1 (1 3 2 1 4) (2)\n  D^1 (1 3 2 1 4) (4)\n  D^1 (2 4) (2 1 3 4)\n"
        "  D^1 (2 1 3 4 3) (3)\n",
        id="circuit",
    ),
    pytest.param(
        ["sc", "-n", "4", "1 2 3"], 0, "size 2\n  D^0 (1 3 2)\n  D^0 (2 1 3)\n", id="sc"
    ),
    pytest.param(
        ["scg", "-n", "4", "1 2 3"],
        0,
        "vertices 2, arrows 2\n  0 -> 1 : D^0 (1 3)\n  1 -> 0 : D^0 (2)\n",
        id="scg",
    ),
    pytest.param(
        # DOT is written as text, --json or not
        ["scg", "-n", "4", "1 2 3", "--dot", "--json"],
        0,
        'digraph scg {\n  v0 [label="D^0 (1 3 2)"];\n  v1 [label="D^0 (2 1 3)"];\n'
        '  v0 -> v1 [label="D^0 (1 3)"];\n  v1 -> v0 [label="D^0 (2)"];\n}\n',
        id="scg-dot-json",
    ),
    pytest.param(
        ["conj", "-n", "4", "1 2 3", "2 3 1"],
        0,
        "conjugate\nD^0 (1 2 1 3)\n",
        id="conj",
    ),
    pytest.param(
        ["stats", "-n", "4", "1 2 3"],
        0,
        "N 1\nR_max 2\nT 1\ncontract_calls 252\nsc_size 2\n",
        id="stats",
    ),
    pytest.param(
        ["conj", "-n", "4", "1 2 3", "1 2 -3", "--oracle"],
        1,
        "not-conjugate\n",
        id="conj-oracle",
    ),
]


@pytest.mark.parametrize("argv, exit_code, stdout", TEXT)
def test_text_output(capsys, argv, exit_code, stdout):
    assert run(capsys, *argv) == (exit_code, stdout, "")


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["nf", "-n", "1", "1 x"], "error: need at least 2 strands, got 1\n"),
        (["conj", "-n", "4", "1 2", "2 x"],
         "parse error: unrecognized token 'x' (at position 2)\n"),
        (["conj", "-n", "4", "1 2", "2 9"],
         "parse error: letter 9 needs at least 10 strands\n"),
        (["slide", "-n", "3", "1 2", "--steps", "-3"],
         "error: --steps must be at least 0, got -3\n"),
    ],
    ids=["one-strand", "conj-second-word", "conj-second-word-range", "negative-steps"],
)
def test_usage_errors(capsys, argv, stderr):
    assert run(capsys, *argv, "--json") == (2, "", stderr)


USAGE = {
    "nf": "[-h] -n N [--json] [--seed SEED] word",
    "slide": "[-h] -n N [--json] [--seed SEED] [--steps STEPS] word",
    "circuit": "[-h] -n N [--json] [--seed SEED] word",
    "sc": "[-h] -n N [--json] [--seed SEED] word",
    "scg": "[-h] -n N [--json] [--seed SEED] [--dot] word",
    "conj": "[-h] -n N [--json] [--seed SEED] [--oracle] word_x word_y",
    "stats": "[-h] -n N [--json] [--seed SEED] word",
}


def test_help(capsys, monkeypatch):
    # usage lines spelled out; the full texts (argparse's layout as of
    # Python 3.11, 80 columns) pinned as one digest
    monkeypatch.setenv("COLUMNS", "80")
    helps = {}
    for command in ["", *USAGE]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        helps[command] = capsys.readouterr().out
        if command:
            usage = helps[command].splitlines()[0]
            assert usage == f"usage: garside {command} {USAGE[command]}"
    digest = hashlib.sha256(json.dumps(helps, sort_keys=True).encode()).hexdigest()
    assert digest == "1c8eccfd4b98dd34845597f299be063476bbd44930a547a14a4c5a9968ee3001"


def test_conj_exit_codes_and_witness(capsys):
    code, out, _ = run(capsys, "conj", "-n", "3", "1", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "conjugate"
    assert payload["witness"]
    assert set(payload["stats"]) == {"T", "N", "R_max", "sc_size", "contract_calls"}

    code, out, _ = run(capsys, "conj", "-n", "3", "1", "-1")
    assert code == 1 and out.strip() == "not-conjugate"


def test_invariant_violation_exits_3(capsys, monkeypatch):
    # a transport outside the divisors of Δ^k is a bug: exit 3, no stdout;
    # the pair transports (R_max 1 in GOLDEN)
    original = garside.conjugacy.transport
    monkeypatch.setattr(
        garside.conjugacy, "transport", lambda x, a: original(x, a).mul_delta_power(1)
    )
    code, out, err = run(capsys, "conj", "-n", "4", "1 2 3", "2 3 1", "--json")
    assert (code, out) == (3, "")
    assert err.startswith(
        "internal invariant violated: transport is not a positive divisor"
    )


def test_conj_oracle_flag(capsys):
    code, out, _ = run(capsys, "conj", "-n", "3", "1", "2", "--oracle")
    assert code == 0
    code, out, _ = run(capsys, "conj", "-n", "3", "1 2", "2 1", "--oracle")
    assert code == 0 and out.splitlines()[0] == "conjugate"
    code, out, _ = run(capsys, "conj", "-n", "3", "1", "-1", "--oracle")
    assert code == 1 and out == "not-conjugate\n"
    code, _, err = run(capsys, "conj", "-n", "7", "1", "2", "--oracle")
    assert code == 2 and "refused" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "-n", "3", "1 x")
    assert code == 2
    assert "position" in err


def test_slide_steps(capsys):
    code, out, _ = run(capsys, "slide", "-n", "3", "1 2", "--steps", "2")
    assert code == 0 and out == "D^0 (1 2)\n"
    code, out, _ = run(capsys, "slide", "-n", "3", "1 2")
    assert code == 0 and out == "D^0 (2 1)\n"


def test_circuit_period(capsys):
    code, out, _ = run(capsys, "circuit", "-n", "5", "D 2 1 4 3 4 . 1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["period"] == 6
    assert len(payload["result"]["elements"]) == 6


def test_sc_and_stats(capsys):
    code, out, _ = run(capsys, "sc", "-n", "3", "1 2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["size"] == 2

    code, out, _ = run(capsys, "stats", "-n", "3", "1 2", "--json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["sc_size"] == 2 and stats["contract_calls"] > 0


def test_scg_dot_matches_json(capsys):
    code, json_out, _ = run(capsys, "scg", "-n", "3", "1 2", "--json")
    assert code == 0
    arrows = json.loads(json_out)["result"]["arrows"]
    vertices = json.loads(json_out)["result"]["vertices"]

    code, dot_out, _ = run(capsys, "scg", "-n", "3", "1 2", "--dot")
    assert code == 0
    lines = dot_out.strip().splitlines()
    assert lines[0] == "digraph scg {" and lines[-1] == "}"
    node_lines = [l for l in lines if "label=" in l and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == len(vertices)
    assert len(edge_lines) == len(arrows)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_survives_a_parse_error(capsys):
    good = ("conj", "-n", "4", "1 2 3", "2 3 1", "--json")
    first = run(capsys, *good)
    with pytest.raises(SystemExit) as exc:
        main(["conj", "-n", "four", "1", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "conj", "-n", "4", "1 x", "2", "--json")[0] == 2
    assert run(capsys, *good) == first


def _corpus(rng):
    """80 seeded ``--json`` calls on B3-B5; even ``conj`` pairs are conjugate."""
    def letters(n, most):
        return [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, most))]

    def text(letters):
        return " ".join(map(str, letters))

    commands = ["conj"] * 32 + ["sc", "scg", "circuit", "stats"] * 12
    for i, command in enumerate(commands):
        n = 3 + i % 3
        x = letters(n, 11 - n)
        word = ("D " if rng.random() < 0.15 else "") + text(x)
        if command != "conj":
            yield [command, "-n", str(n), word, "--json"]
        elif i % 2:
            yield [command, "-n", str(n), word, text(letters(n, 11 - n)), "--json"]
        else:
            w = letters(n, 2)
            y = [-a for a in reversed(w)] + x + w
            yield [command, "-n", str(n), text(x), text(y), "--json"]


def test_seeded_corpus_digest(capsys):
    # answers, witnesses and contract_calls of 80 calls, pinned as one digest
    rows = [[argv, *run(capsys, *argv)[:2]] for argv in _corpus(random.Random(5))]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "6da55600688210d6bf112fa29852f47ff6236166399c31011bddd9f5bdce7918"
