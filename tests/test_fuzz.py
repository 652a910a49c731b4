"""Property tests: malformed input never makes ``eval``, ``stats``, ``train``,
``tokens`` or ``parse`` exit 3.

Every command maps a bad file, line, field, flag or span to exit 1 (usage) or
2 (data); exit 3 is kept for internal errors, so any example that reaches it
is a bug in the program, not in its input.
"""

import copy
import json
import math
import warnings
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from losslab.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    TRAIN_CONFIG_KEYS,
    TRAIN_INT_CEILINGS,
    main,
)
from losslab.metrics import CSV_COLUMNS, SampleMetrics
from losslab.parsing import MAX_NESTING

ALLOWED = (EXIT_OK, EXIT_USAGE, EXIT_DATA)
# capsys is read, and so emptied, after every example
FUZZ = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# The spans that once overflowed the recursive parser: a long chain (flattened
# and evaluated recursively), deep parentheses and many unary minus signs.
LONG_CHAIN = "+".join(["1"] * 1200)
DEEP_PARENS = "(" * 1200 + "1+2" + ")" * 1200
MANY_MINUS = "-" * 1200 + "1+2"
RECURSION_SPANS = (LONG_CHAIN, DEEP_PARENS, MANY_MINUS, f"2*({LONG_CHAIN})")

SPAN_ALPHABET = "0123456789.,+-*/()= \t#_nceostadiumlpyrv<> ٣"

spans = st.one_of(
    st.text(SPAN_ALPHABET, max_size=40),
    st.text(max_size=20),
    st.builds(
        lambda digits, op, tail: digits + op + tail,
        st.text("0123456789", min_size=300, max_size=400),  # overflows to inf
        st.sampled_from(["+", "-", "*", "/", "=", "-("]),
        st.text("0123456789.,()-", max_size=12),
    ),
    st.builds(
        lambda name, args: f"{name}({','.join(args)})",
        st.sampled_from(["add", "subtract", "divide", "power", "sqrt", "log", "bogus"]),
        st.lists(
            st.one_of(
                st.sampled_from(["n0", "n1", "#0", "#1", "const_pi", "const_0_5", "nan", "inf",
                                 "-1e999", "1e308", "", " ", "n" + "9" * 5000]),
                st.text("0123456789.-e", max_size=8),
            ),
            max_size=3,
        ),
    ),
)
finals = st.one_of(
    st.none(), st.text(max_size=12), st.sampled_from(["nan", "inf", "1e999", "9" * 500])
)


def completion(pieces: list[str], final: str | None) -> str:
    text = " words ".join(f"<<{p}>>" for p in pieces)
    return text if final is None else f"{text} #### {final}"


completions = st.builds(completion, st.lists(spans, max_size=4), finals)


def run(argv: list[str], capsys) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in ALLOWED, err
    assert "internal error" not in err
    return code


def printable_value(value) -> bool:
    """A value ``parse`` may print: null, a finite number or a poison marker."""
    if value is None or (isinstance(value, dict) and set(value) == {"poisoned_by_step"}):
        return True
    return isinstance(value, (int, float)) and math.isfinite(value)


def reject_constant(name: str):
    raise AssertionError(f"parse printed {name}, which is not JSON")


def run_out(argv: list[str], capsys) -> str:
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out


class TestParseNeverExits3:
    @settings(FUZZ, max_examples=150)
    @given(
        text=completions,
        fmt=st.sampled_from(["gsm8k", "mathqa"]),
        numbers=st.one_of(
            st.none(),
            st.sampled_from(["", "1,2", "-8,0.5", "0,-1", "1e308,1e308", "nan,inf", "a"]),
        ),
    )
    @example(text=completion([LONG_CHAIN], "1200"), fmt="gsm8k", numbers=None)
    @example(text=completion([DEEP_PARENS], "3"), fmt="gsm8k", numbers=None)
    @example(text=completion([MANY_MINUS], "3"), fmt="gsm8k", numbers=None)
    @example(text=completion(["power(n0,const_0_5)"], "1"), fmt="mathqa", numbers="-8")
    @example(text=completion(["power(n0,n1)"], "1"), fmt="mathqa", numbers="0,-1")
    @example(text=completion(["1+1"], "nan"), fmt="gsm8k", numbers=None)
    @example(text=completion(["1+1"], "9" * 500), fmt="gsm8k", numbers=None)
    @example(text=completion(["multiply(n0,n1)"], "1"), fmt="mathqa", numbers="1e308,1e308")
    @example(text=completion(["add(n0,1)"], "1"), fmt="mathqa", numbers="nan,inf")
    @example(text=completion(["9" * 400 + "+1=2"], "2"), fmt="gsm8k", numbers=None)
    @example(text=completion(["1+1=1e400"], "2"), fmt="gsm8k", numbers=None)
    @example(text=completion(["add(nan,1)"], "1"), fmt="mathqa", numbers=None)
    def test_parse(self, capsys, text, fmt, numbers):
        argv = ["parse", "--text", text, "--format", fmt]
        if numbers is not None:
            argv += ["--numbers", numbers]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in ALLOWED, err
        if code == EXIT_OK:
            payload = json.loads(out, parse_constant=reject_constant)
            for value in (payload["final_value"], *payload.get("values", ())):
                assert printable_value(value), value

    def test_recursion_spans_parse_or_name_the_step(self, capsys):
        for span in RECURSION_SPANS:
            assert run(["parse", "--text", completion(["1+1", span], "1")], capsys) == EXIT_OK
        payload = json.loads(run_out(["parse", "--text", completion([DEEP_PARENS], "3")], capsys))
        assert payload["diagnostics"] == [
            f"step 0 at char 0: nesting deeper than {MAX_NESTING} levels (offset {MAX_NESTING})"
        ]
        chain = json.loads(run_out(["parse", "--text", completion([LONG_CHAIN], "1200")], capsys))
        assert len(chain["steps"][0]["operands"]) == 1200


# A JSONL line: a well-formed record, a record with odd field values, or a
# line that is not a record at all.
ids = st.one_of(
    st.integers(-3, 3), st.text(max_size=4), st.none(), st.booleans(),
    st.floats(allow_nan=True), st.lists(st.integers(), max_size=2),
)
field_values = st.one_of(completions, st.integers(), st.none(), st.lists(st.integers(), max_size=2))
bad_lines = st.one_of(
    st.text(max_size=30),
    st.sampled_from([
        "[" * 100_000,  # nested past the JSON decoder's recursion limit
        '{"id": ' + "1" * 5000 + "}",  # past the int-string conversion limit
        "[1, 2]", "null", '"text"', "{", "{}", " ", "NaN", '{"id": NaN}',
    ]),
)


def record_lines(field: str) -> st.SearchStrategy[list[str]]:
    record = st.fixed_dictionaries(
        {"id": ids, field: field_values},
        optional={"format": st.sampled_from(["gsm8k", "mathqa", "qa_letter", "latex", 3])},
    )
    line = st.one_of(record.map(lambda r: json.dumps(r)), bad_lines)
    return st.lists(line, max_size=5)


def aligned(draw_texts: list[tuple[str, str]]) -> tuple[str, str]:
    gold = "".join(json.dumps({"id": i, "gold": g}) + "\n" for i, (g, _) in enumerate(draw_texts))
    pred = "".join(
        json.dumps({"id": i, "prediction": p}) + "\n" for i, (_, p) in enumerate(draw_texts)
    )
    return gold, pred


class TestEvalNeverExits3:
    @settings(FUZZ, max_examples=100)
    @given(
        files=st.one_of(
            st.tuples(
                record_lines("gold").map("\n".join),
                record_lines("prediction").map("\n".join),
            ),
            st.lists(st.tuples(completions, completions), min_size=1, max_size=4).map(aligned),
        ),
        fmt=st.sampled_from(["gsm8k", "mathqa", "qa_letter"]),
        commutative=st.booleans(),
    )
    @example(files=aligned([(completion([LONG_CHAIN], "1"), completion([DEEP_PARENS], "1"))]),
             fmt="gsm8k", commutative=True)
    @example(files=aligned([(completion([MANY_MINUS], "1"), completion(["9" * 400 + "+1"], "1"))]),
             fmt="gsm8k", commutative=False)
    @example(files=("{}", "[" * 100_000), fmt="gsm8k", commutative=True)
    def test_eval(self, capsys, tmp_path_factory, files, fmt, commutative):
        tmp_path = tmp_path_factory.mktemp("eval")
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        gold.write_text(files[0], encoding="utf-8")
        pred.write_text(files[1], encoding="utf-8")
        argv = ["eval", "--gold", str(gold), "--pred", str(pred), "--format", fmt,
                "--out", str(tmp_path / "report.json"),
                "--dump-parse", str(tmp_path / "parses.json")]
        if not commutative:
            argv.append("--no-commutative")
        run(argv, capsys)


class TestTokensNeverExits3:
    @settings(FUZZ, max_examples=80)
    @given(
        lines=st.lists(
            st.one_of(
                st.fixed_dictionaries({
                    "tokens": st.one_of(
                        st.lists(st.integers(-5, 40), max_size=12),
                        # ids too wide for the density grid, or for int64
                        st.lists(st.sampled_from([0, 2**20, 2**63 - 1, -(2**63), 2**63]),
                                 max_size=3),
                        st.lists(st.one_of(st.floats(), st.text(max_size=2), st.booleans()),
                                 max_size=3),
                        st.integers(), st.none(),
                    ),
                }).map(json.dumps),
                bad_lines,
            ),
            max_size=5,
        ),
        bandwidth=st.one_of(
            st.just("scott"),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.text(max_size=6),
        ),
        exclude=st.one_of(st.none(), st.text("0123456789,-x ", max_size=8)),
    )
    @example(lines=['{"tokens": [5]}'], bandwidth="1e-300", exclude=None)
    @example(lines=['{"tokens": [0, 40]}'], bandwidth="1e300", exclude=None)
    @example(lines=['{"tokens": [1, 1, 1]}'], bandwidth="scott", exclude="9" * 5000)
    # bandwidths whose density's scale over- or underflows
    @example(lines=['{"tokens": [1, 2, 3, 3, 4, 5, 5, 5, 9]}'], bandwidth="1e-320", exclude=None)
    @example(lines=['{"tokens": [1, 2, 3, 3, 4, 5, 5, 5, 9]}'], bandwidth="1e308", exclude=None)
    @example(lines=['{"tokens": [5]}'], bandwidth="1e-310", exclude=None)
    @example(lines=['{"tokens": [5]}'], bandwidth="1e308", exclude=None)
    @example(lines=['{"tokens": [5, 5]}'], bandwidth="1.7e308", exclude=None)
    def test_tokens(self, capsys, tmp_path_factory, lines, bandwidth, exclude):
        tmp_path = tmp_path_factory.mktemp("tokens")
        src = tmp_path / "tokens.jsonl"
        src.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "density.csv"
        argv = ["tokens", "--input", str(src), "--out", str(out),
                "--json-out", str(tmp_path / "density.json"), "--bandwidth", bandwidth]
        if exclude is not None:
            argv += ["--exclude-ids", exclude]
        if run(argv, capsys) == EXIT_OK:
            rows = out.read_text(encoding="utf-8").splitlines()[1:]
            densities = [float(row.split(",")[1]) for row in rows]
            assert all(math.isfinite(d) for d in densities), rows
            # the grid ends at the stream's smallest and largest ids, which it holds
            assert densities[0] > 0.0 and densities[-1] > 0.0, rows


# JSON values of the wrong type or outside every column's range, each drawn
# as a fresh copy: a report that holds a drawn list or dict may be mutated again
junk = st.sampled_from(
    [None, "x", "", True, False, -1, 0, 2, 0.5, 1e308, 10**400, math.nan, math.inf, -math.inf,
     [], [1], {}, {"a": 1}]
).map(copy.deepcopy)
rates = st.sampled_from([0.0, 0.25, 0.5, 1.0, 0, 1])
COLUMN_KINDS = get_type_hints(SampleMetrics)


def mutate(draw, report: dict) -> None:
    """Delete a key of the report, its aggregate or one row, or set it to junk."""
    rows = report.get("per_sample")
    parts = (report, report.get("aggregate"), *(rows if isinstance(rows, list) else ()))
    targets = [part for part in parts if isinstance(part, dict) and part]
    if not targets:
        return
    target = draw(st.sampled_from(targets))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(junk)


@st.composite
def eval_reports(draw) -> list[str]:
    """One to three eval reports over shared ids, each mutated or replaced by a bad line."""
    # 1 and "1" read the same as text, which stats rejects
    size = draw(st.sampled_from([3, 4, 5, 2, 1, 0]))
    ids = draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from(["1", "a"])),
                        min_size=size, max_size=size, unique=True))
    texts = []
    # most draws hold the two reports a paired test takes, most of them valid
    for _ in range(draw(st.sampled_from([2, 2, 2, 1, 3]))):
        rows = [
            {"id": i, **{name: draw(st.booleans() if kind is bool else rates)
                         for name, kind in COLUMN_KINDS.items()}}
            for i in ids
        ]
        report = {"aggregate": {c: draw(rates) for c in CSV_COLUMNS}, "per_sample": rows}
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            mutate(draw, report)
        bad = draw(st.sampled_from([False] * 7 + [True]))
        texts.append(draw(bad_lines) if bad else json.dumps(report))
    return texts


class TestStatsNeverExits3:
    @pytest.mark.parametrize("test", ["mcnemar", "ttest", "pearson", "meanrank"])
    @settings(FUZZ, max_examples=40)
    @given(reports=eval_reports(), metric=st.sampled_from(CSV_COLUMNS))
    def test_stats(self, capsys, tmp_path_factory, test, reports, metric):
        tmp_path = tmp_path_factory.mktemp("stats")
        paths = [tmp_path / f"report{index}.json" for index in range(len(reports))]
        for path, text in zip(paths, reports):
            path.write_text(text, encoding="utf-8")
        run(["stats", "--test", test, "--metric", metric,
             "--out", str(tmp_path / "stats.json"), *map(str, paths)], capsys)


# The trainer's sizes cut to a few steps on tiny arrays; each example
# overrides some of these keys.
TINY_TRAIN = {
    "steps": 2, "warmup_steps": 1, "eval_interval": 1, "batch_size": 2, "samples": 4,
    "val_samples": 2, "vocab_size": 8, "embed_dim": 4, "seq_len": 4, "instruction_len": 2,
}


def train_values(key: str) -> st.SearchStrategy:
    """Values for one config key: small ones of its type, the sentinels past its
    range, junk of every JSON type, and for the two string keys, bad names."""
    default = TRAIN_CONFIG_KEYS[key]
    if type(default) is int:
        typed = st.one_of(st.integers(-2, 12), st.just(TRAIN_INT_CEILINGS[key] + 1))
    elif type(default) is float:
        # a huge max_lr drives the run to diverge
        typed = st.one_of(st.floats(-2, 12), st.sampled_from([1e300, -1e300, 2**1024]))
    else:
        typed = st.sampled_from(["none", "ll", "fl", "dl", "plain", "instruction_answer",
                                 "bogus", "", "NONE"])
    return st.one_of(typed, typed, typed, junk)


# up to three keys overridden, so most configs still pass every check but one
overrides = st.lists(st.sampled_from(sorted(TRAIN_CONFIG_KEYS)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: train_values(k) for k in keys})
)
unknown_keys = st.sampled_from([{}] * 6 + [{"stepz": 2}, {"loss": "ce"}, {"": None}])
configs = st.builds(lambda values, unknown: {**TINY_TRAIN, **values, **unknown},
                    overrides, unknown_keys)
train_configs = st.one_of(
    configs.map(json.dumps), configs.map(json.dumps), configs.map(json.dumps),
    st.sampled_from(["[]", "null", "{", "NaN", '{"steps": 2, "steps": "x"}', "[" * 100_000]),
)


class TestTrainNeverExits3:
    @settings(FUZZ, max_examples=80)
    @given(config=train_configs, loss_by_task=st.sampled_from([None, "mwp", "qa"]))
    @example(config=json.dumps({**TINY_TRAIN, "max_lr": 1e300}), loss_by_task=None)
    @example(config=json.dumps({**TINY_TRAIN, "max_lr": 1e300, "auxiliary": "ll"}),
             loss_by_task=None)
    @example(config=json.dumps({**TINY_TRAIN, "steps": 1_000_001}), loss_by_task=None)
    @example(config='{"max_lr": Infinity}', loss_by_task=None)
    @example(config=json.dumps({**TINY_TRAIN, "zipf_exponent": -1e300}), loss_by_task=None)
    def test_train(self, capsys, tmp_path_factory, config, loss_by_task):
        tmp_path = tmp_path_factory.mktemp("train")
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]
        if loss_by_task is not None:
            argv += ["--loss-by-task", loss_by_task]
        # a warning would reach the command's stderr; pytest would keep it from capsys
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(argv, capsys)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_overflowing_zipf_exponent_is_named_alone(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY_TRAIN, "zipf_exponent": -1e300}), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_DATA
        assert caught == []
        assert capsys.readouterr().err == (
            "error: invalid training config: zipf_exponent -1e+300 overflows the token "
            "weights of vocab_size 8\n"
        )
