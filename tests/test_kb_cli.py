"""Knowledge-base files and the command-line interface."""

import json
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from cohere import KBFormatError, SizeLimitError, cli, parse_conditional
from cohere.cli import MAX_GRID, main
from cohere.events import MAX_DEPTH
from cohere.oracle import extension_interval_bruteforce
from cohere.rationals import MAX_DIGITS
from cohere.kbfile import load_kb, parse_kb_text, parse_rational

from helpers import all_ones

KB_DIR = Path(__file__).resolve().parent.parent / "kb"

LINDA = KB_DIR / "linda.kb"
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/10") == Fr(3, 10)
        assert parse_rational("0.2") == Fr(1, 5)
        assert parse_rational("1") == Fr(1)

    def test_decimal_is_exact(self):
        assert parse_rational("0.1") == Fr(1, 10)

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            parse_rational("one half")

    def test_exponent_beyond_the_cap_is_refused(self):
        # Fraction would build 10**exponent first: 1e-10000000 takes seconds.
        assert parse_rational(f"1e-{MAX_DIGITS}") == Fr(1, 10**MAX_DIGITS)
        assert parse_rational(" 25E-0_1 ") == Fr(5, 2)
        assert parse_rational("1e-000000000000000000001") == Fr(1, 10)
        for text in (
            f"1e-{MAX_DIGITS + 1}",
            "1e-999999999",
            "0.5E+00000099999",
            "1e" + "9" * 5000,
        ):
            with pytest.raises(SizeLimitError, match="decimal exponent beyond"):
                parse_rational(text)

    def test_numeral_beyond_the_digit_limit_is_refused(self):
        # int() refuses a numeral of more than MAX_DIGITS digits, not counting
        # underscores, with a ValueError; that is a size limit, not a syntax
        # error, and the message quotes only the start of the text.
        assert parse_rational("1/" + "9" * MAX_DIGITS) == Fr(1, 10**MAX_DIGITS - 1)
        assert parse_rational("0." + "1" * MAX_DIGITS).denominator == 10**MAX_DIGITS
        # 2151 ones, 4301 characters
        ones = MAX_DIGITS // 2 + 1
        assert parse_rational("1" + "_1" * (ones - 1)) == (10**ones - 1) // 9
        for text in (
            "0." + "1" * 5000,
            "1/" + "9" * 5000,
            "9" * (MAX_DIGITS + 1),
            "1/" + "9" * (MAX_DIGITS + 1),
            "0." + "1" * (MAX_DIGITS + 1) + "e-5",
            "1" + "_1" * MAX_DIGITS,
        ):
            limit = f"numeral of more than {MAX_DIGITS} digits"
            with pytest.raises(SizeLimitError, match=limit) as err:
                parse_rational(text)
            assert len(str(err.value)) < 120

    def test_numeral_beyond_the_digit_limit_exits_2(self, capsys):
        assert main(["bounds", "qc", "0." + "1" * 5000, "1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: numeral of more than {MAX_DIGITS} digits: "
            f"{'0.' + '1' * 38!r}... (5002 characters)\n"
        )

    def test_exponent_beyond_the_cap_exits_2(self, capsys):
        assert main(["bounds", "qc", "1e-999999999", "1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: decimal exponent beyond {MAX_DIGITS}: '1e-999999999'\n"

    def test_exponent_beyond_the_cap_in_a_file(self, tmp_path, capsys):
        path = tmp_path / "huge.kb"
        path.write_text("atoms: A\nconditionals:\n  c: A | T = 1e-999999999\n")
        with pytest.raises(KBFormatError, match="decimal exponent beyond") as err:
            load_kb(str(path))
        assert err.value.line == 3
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: decimal exponent beyond")


    @pytest.mark.parametrize(
        "argv",
        [
            # the exponent is within the cap, the product's denominator is not
            ["bounds", "qc", "1e-4300", "1/2"],
            # a result that outgrows the limit from smaller inputs
            ["bounds", "compound", "1e-2200", "1e-2200"],
            ["bounds", "compound", "1e-2200", "1e-2200", "--json"],
            ["tnorm", "product", "1e-2200", "1e-2200"],
            # the parameter itself is beyond the limit when printed
            ["tnorm", "hamacher", "--param", "1e-4300", "1/2", "1/2"],
        ],
    )
    def test_printing_beyond_the_digit_limit_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot print a rational whose numerator or denominator has "
            f"more than {MAX_DIGITS} digits\n"
        )

    def test_check_beyond_the_digit_limit_exits_2(self, tmp_path, capsys):
        # 1e-4300 parses, but its denominator has 4301 digits, and the
        # witness that `check --json` prints carries it.
        path = tmp_path / "long.kb"
        path.write_text("atoms: A\nconditionals:\n  c: A | T = 1e-4300\n")
        assert main(["check", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot print a rational whose numerator or denominator has "
            f"more than {MAX_DIGITS} digits\n"
        )

    def test_printing_at_the_digit_limit(self, capsys):
        # 1/10**4299 * 1/2 has 4300 digits in its denominator: printable.
        assert main(["tnorm", "product", "1e-4299", "1/2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == f"1/{2 * 10**4299}"


class TestLoadKb:
    def test_linda_file(self):
        kb, assessment = load_kb(str(LINDA))
        assert kb.context.atoms == ("L", "S", "G", "N")
        assert len(kb) == 5
        assert assessment is not None
        assert assessment.probs == (Fr(1),) * 5

    def test_one_context_per_file(self):
        kb, assessment = load_kb(str(LINDA))
        assert all(c.context is kb.context for c in kb.conditionals)
        assert assessment.context is kb.context

    def test_probability_out_of_range(self, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: A\nconditionals:\n  c: A | T = 3/2\n")
        with pytest.raises(KBFormatError) as err:
            load_kb(str(path))
        assert err.value.line == 3

    def test_impossible_antecedent(self, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: A\nconditionals:\n  c: A | F\n")
        with pytest.raises(KBFormatError):
            load_kb(str(path))

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: A\nconditionals:\n  c: A | T\n  c: ~A | T\n")
        with pytest.raises(KBFormatError):
            load_kb(str(path))

    def test_partial_probabilities_rejected(self, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: A B\nconditionals:\n  c: A | T = 1\n  d: B | T\n")
        with pytest.raises(KBFormatError):
            load_kb(str(path))

    def test_unknown_atom_in_constraint(self, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: A\nconstraints:\n  A & X\nconditionals:\n  c: A | T\n")
        with pytest.raises(KBFormatError):
            load_kb(str(path))

    def test_no_probabilities_gives_no_assessment(self, tmp_path):
        path = tmp_path / "plain.kb"
        path.write_text("atoms: A B\nconditionals:\n  c: A | B\n")
        kb, assessment = load_kb(str(path))
        assert assessment is None

    def test_queries_section_is_ignored(self):
        # The section is reserved: its lines parse, and no command reads them.
        text = LINDA.read_text(encoding="utf-8")
        head, sep, _ = text.partition("queries:")
        assert sep and "entails ~N | L" in text
        assert parse_kb_text(text) == parse_kb_text(head) == load_kb(str(LINDA))

    def test_inline_section_content(self):
        inline = (
            "atoms: A B C\n"
            "constraints: A & B\n"
            "conditionals: c: C | A = 1/2\n"
            "queries: entails C | A\n"
        )
        multiline = (
            "atoms:\n  A B C\n"
            "constraints:\n  A & B\n"
            "conditionals:\n  c: C | A = 1/2\n"
            "queries:\n  entails C | A\n"
        )
        assert parse_kb_text(inline) == parse_kb_text(multiline)

    @pytest.mark.parametrize("name", ["c 1", "c\t1", "c\u00a01"])
    def test_white_space_in_a_name_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / "bad.kb"
        path.write_text(f"atoms: A B\nconditionals:\n  {name}: A | B = 1/2\n")
        with pytest.raises(KBFormatError, match="expected 'name: ") as err:
            load_kb(str(path))
        assert err.value.line == 3
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: expected 'name: ")

    def test_content_before_any_header(self):
        with pytest.raises(KBFormatError) as err:
            parse_kb_text("# comment\n\nc: A | T\natoms: A\n")
        assert err.value.line == 3

    # str.splitlines ends a line at each of these as well as at "\n".
    @pytest.mark.parametrize(
        "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_a_newline_ends_a_line(self, separator):
        body = "\natoms: A B\nconditionals:\n  c: A | B = 1/2\n"
        assert parse_kb_text(f"# note{separator}x{body}") == parse_kb_text(f"# note x{body}")
        with pytest.raises(KBFormatError) as err:
            parse_kb_text(f"# note{separator}x\natoms: A\nconditionals:\n  c: A | F\n")
        assert err.value.line == 4

    def test_crlf_line_ends(self, tmp_path):
        lf = "atoms: A B  # two\nconditionals:\n  c: A | B = 1/2\n  d: B | A = 1/3\n"
        assert parse_kb_text(lf.replace("\n", "\r\n")) == parse_kb_text(lf)
        # A file is read with universal newlines, so any line end serves there.
        for end in ("\r\n", "\r"):
            path = tmp_path / "ends.kb"
            path.write_bytes(lf.replace("\n", end).encode())
            assert load_kb(str(path)) == parse_kb_text(lf)
        with pytest.raises(KBFormatError) as err:
            parse_kb_text("atoms: A\r\nconditionals:\r\n  c: A | F\r\n")
        assert err.value.line == 3


# Each overflowed the stack before the depth bound: a flat conjunction in the
# mask fold, leading negations and nested parentheses in the parser.
DEEP_EVENTS = {
    "flat": " & ".join(["A"] * 986),
    "negations": "~" * 982 + "A",
    "parentheses": "(" * 246 + "A" + ")" * 246,
}


class TestDepthLimit:
    """A formula deeper than ``MAX_DEPTH`` is refused as a size limit, so the
    CLI reports it and exits 2 instead of failing with a RecursionError."""

    @pytest.mark.parametrize("shape", DEEP_EVENTS)
    def test_deep_conditional_in_a_file_exits_2(self, tmp_path, capsys, shape):
        path = tmp_path / "deep.kb"
        path.write_text(f"atoms: A B\nconditionals:\n  c: {DEEP_EVENTS[shape]} | B = 1/2\n")
        with pytest.raises(KBFormatError, match=f"more than {MAX_DEPTH}") as err:
            load_kb(str(path))
        assert err.value.line == 3
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: event ")

    def test_deep_entails_target_exits_2(self, capsys):
        target = DEEP_EVENTS["parentheses"].replace("A", "G") + " | L"
        assert main(["entails", str(LINDA), target]) == 2
        assert capsys.readouterr().err == (
            f"error: event nests more than {MAX_DEPTH} levels\n"
        )

    def test_conditional_at_the_bound_is_checked(self, tmp_path, capsys):
        path = tmp_path / "bound.kb"
        flat = " & ".join(["A"] * MAX_DEPTH)
        path.write_text(f"atoms: A B\nconditionals:\n  c: {flat} | ~B = 1/2\n")
        assert main(["check", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["coherent"] is True


class TestCli:
    def test_consistent(self, capsys):
        assert main(["consistent", str(LINDA)]) == 0
        assert capsys.readouterr().out.strip() == "P-CONSISTENT"

    def test_entails_positive(self, capsys):
        assert main(["entails", str(LINDA), "~N | L"]) == 0
        assert capsys.readouterr().out.strip() == "P-ENTAILED"

    def test_entails_negative_strict_exit(self, capsys):
        assert main(["entails", str(LINDA), "G | N", "--strict"]) == 1
        assert capsys.readouterr().out.strip() == "NOT P-ENTAILED"

    def test_entails_both_methods(self, capsys):
        assert main(["entails", str(LINDA), "~N | L | S", "--method", "both"]) == 0
        assert "lp and qc agree" in capsys.readouterr().out

    def test_entails_both_methods_test_members_once(self, capsys, monkeypatch):
        # p_entails leaves each member's world masks on the member, and
        # p_entails_qc's p-consistency check reuses them.
        real = cli.p_entails_qc
        cached = []

        def qc(kb, target):
            masks = [ce.__dict__.get("masks") for ce in kb.conditionals]
            verdict = real(kb, target)
            cached.append(
                all(m is not None and ce.__dict__["masks"] is m
                    for m, ce in zip(masks, kb.conditionals))
            )
            return verdict

        monkeypatch.setattr(cli, "p_entails_qc", qc)
        assert main(["entails", str(LINDA), "~N | L", "--method", "both"]) == 0
        assert "lp and qc agree" in capsys.readouterr().out
        assert cached == [True]

    @staticmethod
    def _oracle_entails(path, target):
        # A family p-entails a target exactly when the target's extension
        # interval under the all-ones assessment is [1, 1]; the oracle finds
        # it by vertex enumeration, apart from the LP engine.
        kb, _ = load_kb(path)
        bf = extension_interval_bruteforce(
            all_ones(kb), parse_conditional(target, kb.context)
        )
        return bf.lo == 1

    def test_entails_oracle_crosscheck(self, capsys):
        path = KB_DIR / "loop3.kb"
        assert self._oracle_entails(path, "A1 | A3") is True
        assert main(["entails", str(path), "A1 | A3", "--method", "both"]) == 0
        assert capsys.readouterr().out.strip() == "P-ENTAILED (lp and qc agree)"

    def test_entails_oracle_agrees_on_negative(self, capsys):
        # linda.kb is past the oracle's vertex-enumeration bound; loop3.kb is not.
        path = KB_DIR / "loop3.kb"
        assert self._oracle_entails(path, "A1 | T") is False
        assert main(["entails", str(path), "A1 | T", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["p_entailed"] is False

    def test_entails_qc_past_twelve_premises(self, capsys, tmp_path):
        # The quasi-conjunction route tests one subfamily, so its size is
        # bounded only by the context's atoms.
        n = 13
        path = tmp_path / "loop13.kb"
        path.write_text(
            f"atoms: {' '.join(f'A{i}' for i in range(1, n + 1))}\nconditionals:\n"
            + "".join(f"  c{j}: A{j % n + 1} | A{j} = 1\n" for j in range(1, n + 1))
        )
        assert main(["entails", str(path), f"A1 | A{n}", "--method", "both"]) == 0
        assert capsys.readouterr().out.strip() == "P-ENTAILED (lp and qc agree)"
        assert main(["entails", str(path), "A1 | T", "--method", "qc"]) == 0
        assert capsys.readouterr().out.strip() == "NOT P-ENTAILED"

    def test_qc_and_truth_table_on_a_large_family(self, capsys, tmp_path):
        # 1200 copies of one conditional: the quasi connectives' masks come
        # from the members', so no 1200-level formula is folded.
        path = tmp_path / "copies.kb"
        path.write_text(
            "atoms: A B\nconditionals:\n" + "".join(f"  c{i}: A | B\n" for i in range(1200))
        )
        assert main(["entails", str(path), "A | B", "--method", "qc"]) == 0
        assert capsys.readouterr().out.strip() == "P-ENTAILED"
        assert main(["truth-table", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {(row["C"], row["D"]) for row in rows} == {("True", "True"), ("False", "False"), ("Void", "Void")}
        assert all(set(row["values"]) == {row["C"]} for row in rows)

    def test_check_coherent(self, capsys):
        assert main(["check", str(KB_DIR / "gn_chain.kb")]) == 0
        assert capsys.readouterr().out.strip() == "COHERENT"

    def test_check_incoherent_reports_stakes(self, capsys, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text(
            "atoms: A\nconditionals:\n  c: A | T = 1\n  d: ~A | T = 1\n"
        )
        assert main(["check", str(path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "INCOHERENT" in out and "stakes" in out

    def test_check_without_probabilities_errors(self, capsys, tmp_path):
        path = tmp_path / "plain.kb"
        path.write_text("atoms: A B\nconditionals:\n  c: A | B\n")
        assert main(["check", str(path)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "no_such_file.kb"]) == 2

    def test_bounds(self, capsys):
        assert main(["bounds", "qc", "1/2", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "[0, 2/3]"

    def test_bounds_gn_rejects_unsorted(self, capsys):
        assert main(["bounds", "gn", "3/4", "1/4"]) == 2

    def test_region_membership(self, capsys):
        assert main(["region", "Lqc", "--gamma", "3/5", "8/10", "9/10"]) == 0
        assert capsys.readouterr().out.strip() == "IN REGION"
        assert main(["region", "Uqc", "--gamma", "3/5", "3/5", "3/5", "--strict"]) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["Lqc", "8/10", "--gamma", "3/5", "9/10"], 0),
            (["Lqc", "8/10", "9/10", "--gamma", "3/5"], 0),
            (["Lqc", "--gamma", "3/5", "8/10", "--json", "9/10"], 0),
            (["Lqc", "8/10", "--gamma", "3/5", "1/2"], 1),
        ],
    )
    def test_region_probabilities_around_flags(self, capsys, argv, code):
        assert main(["region", *argv, "--strict"]) == code

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "Lqc", "--gamma", "3/5", "8/10", "--bogus", "9/10"],
            ["region", "Lqc", "8/10", "9/10", "--gamma", "3/5", "--bogus"],
            ["check", str(KB_DIR / "gn_chain.kb"), "--bogus"],
            ["truth-table", str(LINDA), "--json", "--bogus"],
        ],
    )
    def test_unknown_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--bogus" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "bic", "1/2"], "the biconditional rule takes exactly two premises"),
            (["bounds", "bic", "1/2", "1/2", "1/2"],
             "the biconditional rule takes exactly two premises"),
            # Each premise is checked before the premises are counted.
            (["bounds", "bic", "2", "1/2"], "p1 must lie in [0, 1], got 2"),
            (["bounds", "bic", "2"], "p1 must lie in [0, 1], got 2"),
            # gamma is checked before the premises.
            (["region", "Lqc", "--gamma", "2", "5"], "gamma must lie in [0, 1], got 2"),
            (["region", "Uqd", "--gamma", "2", "--grid", "3"], "gamma must lie in [0, 1], got 2"),
        ],
    )
    def test_rule_and_region_arguments_are_checked_in_order(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "nonsense", "1/2"],
            # The dual compound rule takes two values and is library-only.
            ["bounds", "dual", "1/2", "1/2"],
            ["region", "Xqc", "--gamma", "1/2", "1/2"],
        ],
    )
    def test_unknown_rule_or_region_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: {argv[1]!r}" in capsys.readouterr().err

    def test_truth_table_names_around_flags(self, capsys):
        # A trailing list may come before or after a flag, as for region.
        outputs = []
        for argv in (["--json", "great_if_linda"], ["great_if_linda", "--json"]):
            assert main(["truth-table", str(LINDA), *argv]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
        assert json.loads(outputs[0].out)["conditionals"] == ["great_if_linda"]

    @pytest.mark.parametrize(
        "command, before, after",
        [
            (["bounds", "qc"], ["1/2"], ["1/3"]),
            (["region", "Lqc", "--gamma", "1/4"], ["3/4"], ["1/2"]),
            (["tnorm", "product"], ["1/2"], ["1/3"]),
            (["tconorm", "lukasiewicz"], ["1/2"], ["1/3"]),
        ],
    )
    def test_list_positionals_around_flags(self, capsys, command, before, after):
        # A one-or-more list, like a zero-or-more one, may be split by a
        # flag: every order answers byte for byte alike.
        outputs = []
        for argv in (
            [*before, *after, "--json"],
            [*before, "--json", *after],
            ["--json", *before, *after],
        ):
            assert main([*command, *argv]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and outputs.count(outputs[0]) == 3

    def test_region_grid(self, capsys):
        assert main(["region", "Uqd", "--gamma", "1/2", "--grid", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5 and set("".join(lines)) <= {"#", "."}

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([], "--grid needs at least 2 samples per axis"),
            (["1/2", "1/2"], "--grid ignores explicit premise probabilities"),
        ],
    )
    def test_region_grid_zero_exits_2(self, capsys, probs, message):
        assert main(["region", "Uqd", "--gamma", "1/2", "--grid", "0", *probs]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_region_grid_is_capped(self, capsys):
        argv = ["region", "Uqd", "--gamma", "1/2", "--grid"]
        assert main(argv + [str(MAX_GRID + 1)]) == 2
        expected = f"error: --grid takes at most {MAX_GRID} samples per axis\n"
        assert capsys.readouterr() == ("", expected)
        assert main(argv + [str(MAX_GRID)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == MAX_GRID

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_parser", None)
        assert main(["bounds", "qc", "1/2", "1/2"]) == 0
        assert main(["region", "Lqc", "--gamma", "3/5", "8/10", "9/10"]) == 0
        assert main(["check", str(KB_DIR / "gn_chain.kb")]) == 0
        assert len(built) == 1

    def test_shared_parser_carries_no_state_between_calls(self, capsys):
        # Probabilities after --gamma come back as leftovers and are appended
        # to the parsed ones; a second call must not see the first's.  At
        # gamma 1/4 the pair is in the region and any longer list is not.
        argv = ["region", "Lqc", "--gamma", "1/4", "3/4", "1/2"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["IN REGION\n"] * 2

    def test_loop_with_derangement(self, capsys):
        assert main(["loop", "--n", "3", "--derangement", "3,1,2"]) == 0
        assert "MUTUALLY P-ENTAILED" in capsys.readouterr().out

    # An empty --derangement is a bad one, not a missing one: it must not run
    # the pairwise facts.
    @pytest.mark.parametrize(
        "derangement", ["2,3,x", "2,3,1,", "2;3;1", pytest.param("", id="empty")]
    )
    def test_loop_derangement_not_integers_exits_2(self, capsys, derangement):
        assert main(["loop", "--n", "3", "--derangement", derangement]) == 2
        assert capsys.readouterr().err == (
            f"error: --derangement takes comma-separated integers, got {derangement!r}\n"
        )

    @pytest.mark.parametrize("n", ["1", "17"])
    def test_loop_size_out_of_range_exits_2(self, capsys, n):
        # Without --derangement too: an oversized loop must not run the
        # pairwise facts.
        assert main(["loop", "--n", n]) == 2
        assert "loop size must be between 2 and 16" in capsys.readouterr().err

    def test_largest_loop_is_mutually_entailed(self, capsys):
        # The tolerance test answers the largest allowed loop quickly.
        assert main(["loop", "--n", "16", "--strict"]) == 0
        assert capsys.readouterr().out

    def test_truth_table(self, capsys):
        assert main(["truth-table", str(KB_DIR / "loop3.kb")]) == 0
        out = capsys.readouterr().out
        assert "constituent" in out and "Void" in out

    @pytest.mark.parametrize("suffix", ["txt", "json"])
    @pytest.mark.parametrize("path", sorted(KB_DIR.glob("*.kb")), ids=lambda path: path.name)
    def test_truth_table_bytes(self, capsys, path, suffix):
        # The golden output pins the row order as well as the rows: the
        # all-Void class first, then each class by its lowest set bit.
        argv = ["truth-table", str(path)] + (["--json"] if suffix == "json" else [])
        assert main(argv) == 0
        golden = GOLDEN / f"truth-table-{path.stem}.{suffix}"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_truth_table_unknown_name_exits_2(self, capsys):
        assert main(["truth-table", str(LINDA), "great_if_linda", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nosuch" in err and "great" not in err

    def test_tnorm_and_tconorm(self, capsys):
        assert main(["tnorm", "hamacher", "--param", "0", "1/2", "1/2"]) == 0
        assert "exact: 1/3" in capsys.readouterr().out
        assert main(["tconorm", "lukasiewicz", "1/2", "1/2"]) == 0
        assert "exact: 1" in capsys.readouterr().out

    def test_tnorm_hamacher_requires_param(self, capsys):
        assert main(["tnorm", "hamacher", "1/2"]) == 2

    def test_tnorm_infinite_parameter(self, capsys):
        assert main(["tnorm", "hamacher", "--param", "inf", "1/2", "1/3"]) == 0
        assert "exact: 0" in capsys.readouterr().out


# Per command: its arguments, and whether its verdict is negative (None for
# a command with no verdict).
STRICT_CASES = [
    (["check", "{kb}/gn_chain.kb"], False),
    (["check", "{tmp}/incoherent.kb"], True),
    (["check", "{tmp}/incoherent.kb", "--json"], True),
    (["consistent", "{kb}/linda.kb"], False),
    (["consistent", "{tmp}/inconsistent.kb", "--json"], True),
    (["entails", "{kb}/linda.kb", "~N | L"], False),
    (["entails", "{kb}/linda.kb", "G | N", "--method", "both"], True),
    (["loop", "--n", "3"], False),
    (["loop", "--n", "3", "--derangement", "3,1,2"], False),
    (["loop", "--n", "4", "--derangement", "2,1,4,3", "--json"], True),
    (["region", "Lqc", "--gamma", "3/5", "8/10", "9/10"], False),
    (["region", "Uqc", "--gamma", "3/5", "3/5", "3/5", "--json"], True),
    # A grid is a picture of the region, not a verdict.
    (["region", "Uqc", "--gamma", "1/3", "--grid", "4"], False),
    (["bounds", "qc", "1/2", "1/2"], None),
    (["tnorm", "product", "1/2", "1/2"], None),
    (["tconorm", "product", "1/2", "1/2", "--json"], None),
    (["truth-table", "{kb}/loop3.kb"], None),
]


@pytest.mark.parametrize(
    "argv, negative", STRICT_CASES, ids=[f"{' '.join(a)}-{n}" for a, n in STRICT_CASES]
)
def test_strict_exits_1_only_on_a_negative_verdict(capsys, tmp_path, argv, negative):
    (tmp_path / "incoherent.kb").write_text(
        "atoms: A\nconditionals:\n  a: A | T = 1/4\n  b: A | T = 3/4\n"
    )
    (tmp_path / "inconsistent.kb").write_text("atoms: A\nconditionals:\n  a: A | T\n  b: ~A | T\n")
    argv = [arg.format(kb=KB_DIR, tmp=tmp_path) for arg in argv]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert plain.out and not plain.err
    if negative is None:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--strict"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict" in capsys.readouterr().err
    else:
        assert main([*argv, "--strict"]) == (1 if negative else 0)
        assert capsys.readouterr() == plain


class TestJsonOutput:
    def test_check_json_is_stable(self, capsys):
        main(["check", str(LINDA), "--json"])
        first = capsys.readouterr().out
        main(["check", str(LINDA), "--json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["coherent"] is True
        assert all(isinstance(v, str) for v in payload["witness"])

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "linda.kb",
                '{"certificate": null, "coherent": true, "trace": [{"I0": [0, 1, 2, 3], '
                '"indices": [0, 1, 2, 3, 4]}, {"I0": [], "indices": [0, 1, 2, 3]}], '
                '"witness": ["0", "0", "0", "0", "0", "1", "0"]}',
            ),
            (
                "gn_chain.kb",
                '{"certificate": null, "coherent": true, "trace": [{"I0": [], '
                '"indices": [0, 1]}], "witness": ["2/3", "0", "1/4", "0", "1/12"]}',
            ),
            # Solvable at the top level, refuted one level down: the verdict's
            # witness is the deciding level's, so it is null.
            (
                None,
                '{"certificate": ["-1", "-1"], "coherent": false, "trace": [{"I0": [1, 2], '
                '"indices": [0, 1, 2]}, {"I0": [], "indices": [1, 2]}], "witness": null}',
            ),
        ],
    )
    def test_check_json_bytes(self, capsys, tmp_path, name, expected):
        if name is None:
            path = tmp_path / "incoherent.kb"
            path.write_text(
                "atoms: A B\nconditionals:\n"
                "  c1: B | T = 0\n  c2: A | B = 1\n  c3: ~A | B = 1\n"
            )
        else:
            path = KB_DIR / name
        main(["check", str(path), "--json"])
        assert capsys.readouterr().out == expected + "\n"

    def test_bounds_json(self, capsys):
        main(["bounds", "or", "9/10", "0.9", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "rule": "or",
            "probs": ["9/10", "9/10"],
            "interval": {"lo": "9/11", "hi": "18/19", "vacuous": False},
        }

    def test_entails_json(self, capsys):
        main(["entails", str(LINDA), "G | N", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"method": "lp", "p_entailed": False, "target": "G | N"}

    def test_truth_table_json(self, capsys):
        main(["truth-table", str(KB_DIR / "loop3.kb"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["conditionals"] == ["c1", "c2", "c3"]
        assert all({"world", "values", "C", "D"} <= row.keys() for row in payload["rows"])

    def test_region_grid_json(self, capsys):
        assert main(["region", "Uqd", "--gamma", "1/2", "--grid", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"region": "Uqd", "gamma": "1/2", "grid": ["...", "#..", "##."]}


# The CLI corpus: every command in text and --json, with and without
# --strict, its error paths, and the top-level parser's own paths (no
# command, --version, an unknown command, -h, a flag before the command).  Each file under <tmp> is
# written by the test from CORPUS_FILES; kb/ paths are relative to the
# repository root.
CORPUS_FILES = {
    "incoherent.kb": "atoms: A\nconditionals:\n  a: A | T = 1/4\n  b: A | T = 3/4\n",
    "plain.kb": "atoms: A B\nconditionals:\n  c: A | B\n",
}
CORPUS = [
    ["check", "kb/gn_chain.kb"],
    ["check", "kb/gn_chain.kb", "--json"],
    ["check", "<tmp>/incoherent.kb"],
    ["check", "<tmp>/incoherent.kb", "--json"],
    ["check", "<tmp>/incoherent.kb", "--strict"],
    ["check", "<tmp>/incoherent.kb", "--json", "--strict"],
    ["check", "kb/gn_chain.kb", "--strict"],
    ["check", "<tmp>/plain.kb"],
    ["check", "nosuch.kb"],
    ["check", "kb/gn_chain.kb", "--bogus"],
    ["consistent", "kb/linda.kb"],
    ["consistent", "kb/linda.kb", "--json", "--strict"],
    ["consistent", "<tmp>/incoherent.kb", "--strict"],
    ["entails", "kb/linda.kb", "~N | L"],
    ["entails", "kb/linda.kb", "G | N", "--strict"],
    ["entails", "kb/linda.kb", "G | N", "--json"],
    ["entails", "kb/linda.kb", "~N | L", "--method", "both"],
    ["entails", "kb/linda.kb", "~N | L", "--method", "qc", "--json"],
    ["entails", "kb/linda.kb", "Q | N"],
    ["entails", "kb/linda.kb", "G | N", "--method", "both", "--strict", "--json"],
    ["bounds", "qc", "1/2", "1/2"],
    ["bounds", "qc", "1/2", "1/2", "--json"],
    ["bounds", "qd", "1/3", "1/4", "1/5"],
    ["bounds", "or", "9/10", "9/10", "--json"],
    ["bounds", "gn", "1/4", "3/4"],
    ["bounds", "gn", "3/4", "1/4"],
    ["bounds", "compound", "1/2", "1/3"],
    ["bounds", "bic", "1/2", "1/3", "--json"],
    ["bounds", "bic", "1/2"],
    ["bounds", "bic", "2", "1/2"],
    ["bounds", "bic", "1/2", "1/2", "1/2"],
    ["bounds", "dual", "1/2", "1/2"],
    ["bounds", "nope", "1"],
    ["bounds", "qc", "2", "x"],
    ["bounds", "qc", "x", "2"],
    ["bounds", "qc", "1e-4300", "1/2"],
    ["bounds", "qc", "1/2", "--json", "1/2"],
    ["bounds", "qc", "1/2", "--strict"],
    ["region", "Lqc", "--gamma", "3/5", "8/10", "9/10"],
    ["region", "Uqc", "--gamma", "3/5", "3/5", "3/5", "--strict"],
    ["region", "Uqc", "--gamma", "3/5", "3/5", "3/5", "--json"],
    ["region", "Lqd", "--gamma", "1/2", "1/4", "1/4"],
    ["region", "Uqd", "--gamma", "1/2", "1/4", "1/4", "--json", "--strict"],
    ["region", "Lqc", "8/10", "--gamma", "3/5", "9/10"],
    ["region", "Lqc", "--gamma", "3/5", "8/10", "--json", "9/10"],
    ["region", "Lqc", "--gamma", "2", "5"],
    ["region", "Lqc", "--gamma", "1/2", "5"],
    ["region", "Lqc", "--gamma", "1/2"],
    ["region", "Xqc", "--gamma", "1/2", "1"],
    ["region", "Lqc", "--gamma", "1/2", "1/2", "--bogus"],
    ["region", "Uqd", "--gamma", "1/2", "--grid", "5"],
    ["region", "Uqd", "--gamma", "1/2", "--grid", "3", "--json"],
    ["region", "Uqc", "--gamma", "1/3", "--grid", "7", "--strict"],
    ["region", "Lqd", "--gamma", "2/3", "--grid", "6", "--json"],
    ["region", "Uqd", "--gamma", "1/2", "--grid", "0"],
    ["region", "Uqd", "--gamma", "1/2", "--grid", "101"],
    ["region", "Uqd", "--gamma", "1/2", "--grid", "3", "1/2"],
    ["region", "Uqd", "--gamma", "2", "--grid", "3"],
    ["loop", "--n", "3"],
    ["loop", "--n", "3", "--json"],
    ["loop", "--n", "3", "--strict"],
    ["loop", "--n", "3", "--derangement", "3,1,2"],
    ["loop", "--n", "4", "--derangement", "2,1,4,3", "--strict"],
    ["loop", "--n", "4", "--derangement", "2,1,4,3", "--json"],
    ["loop", "--n", "3", "--derangement", "2,3,x"],
    ["loop", "--n", "3", "--derangement", ""],
    ["loop", "--n", "17"],
    ["loop", "--n", "3", "--derangement", "1,2,3"],
    ["truth-table", "kb/loop3.kb"],
    ["truth-table", "kb/loop3.kb", "--json"],
    ["truth-table", "kb/linda.kb", "great_if_linda", "--json"],
    ["truth-table", "kb/linda.kb", "--json", "great_if_linda"],
    ["truth-table", "kb/linda.kb", "great_if_linda", "nosuch"],
    ["truth-table", "kb/linda.kb", "--json", "--bogus"],
    ["truth-table", "kb/linda.kb", "--strict"],
    ["tnorm", "hamacher", "--param", "0", "1/2", "1/2"],
    ["tnorm", "Min", "1/2", "1/3", "--json"],
    ["tnorm", "minimum", "1/2", "1/3"],
    ["tnorm", "product", "1/2", "1/3"],
    ["tnorm", "drastic", "1/2", "1"],
    ["tconorm", "lukasiewicz", "1/2", "1/2"],
    ["tconorm", "hamacher", "--param", "inf", "1/2", "1/3", "--json"],
    ["tnorm", "hamacher", "1/2"],
    ["tnorm", "product", "--param", "1", "1/2"],
    ["tnorm", "sum", "1/2"],
    ["tnorm", "Sum", "--param", "x", "1/2"],
    ["tnorm", "hamacher", "--param", "-1", "1/2"],
    ["tnorm", "hamacher", "--param", "x", "1/2"],
    ["tnorm", "product", "2"],
    ["tconorm", "product", "1/2", "--strict"],
    [],
    ["--version"],
    ["nosuch"],
    ["-h"],
    ["check", "-h"],
    ["check"],
    ["--json", "check", "kb/gn_chain.kb"],
]


CORPUS_GOLDEN = GOLDEN / "cli-corpus.json"


@pytest.mark.parametrize(
    "index", range(len(CORPUS)), ids=[" ".join(argv) or "(no arguments)" for argv in CORPUS]
)
def test_corpus_bytes(capsys, monkeypatch, tmp_path, index):
    # The golden file holds each command's exit code, standard output and
    # standard error as the CLI printed them, with the <tmp> directory
    # written back as "<tmp>".  argparse's wording and help layout vary
    # between Python versions; the golden file names the one it was
    # written under.
    golden = json.loads(CORPUS_GOLDEN.read_text(encoding="utf-8"))
    expected = golden["commands"][index]
    argv = CORPUS[index]
    assert expected["argv"] == argv
    for name, text in CORPUS_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(KB_DIR.parent)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main([arg.replace("<tmp>", str(tmp_path)) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    got = {
        "argv": argv,
        "code": code,
        "stdout": out.replace(str(tmp_path), "<tmp>"),
        "stderr": err.replace(str(tmp_path), "<tmp>"),
    }
    assert got == expected
