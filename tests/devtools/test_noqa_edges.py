"""Edge cases for ``# repro: noqa`` scoping, path validation, and fixes."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.fixes import fix_source
from repro.devtools.lint import (
    LintUsageError,
    lint_paths,
    lint_source,
    main,
)


def _codes(source: str, path: str = "src/repro/sim/x.py") -> list[str]:
    return [d.code for d in lint_source(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# noqa scoping
# ----------------------------------------------------------------------
def test_noqa_on_last_line_of_multiline_statement_suppresses():
    assert _codes(
        """\
        def f(now):
            return (
                now /
                4
            )  # repro: noqa[DET004]
        """
    ) == []


def test_noqa_inside_multiline_statement_span_suppresses():
    assert _codes(
        """\
        def f(now):
            return (
                now /  # repro: noqa[DET004]
                4
            )
        """
    ) == []


def test_multiline_statement_without_noqa_still_fires():
    assert _codes(
        """\
        def f(now):
            return (
                now /
                4
            )
        """
    ) == ["DET004"]


def test_noqa_on_def_line_suppresses_body_findings():
    assert _codes(
        """\
        def f(now):  # repro: noqa[DET004]
            a = now / 2
            b = now / 4
            return a, b
        """
    ) == []


def test_noqa_on_def_line_only_suppresses_named_codes():
    assert _codes(
        """\
        def f(now):  # repro: noqa[DET004]
            x = hash(now)
            return now / 2, x
        """
    ) == ["DET001"]


def test_noqa_on_decorated_def_line_suppresses_body():
    assert _codes(
        """\
        import functools

        @functools.lru_cache
        def f(now):  # repro: noqa[DET004]
            return now / 2
        """
    ) == []


def test_noqa_on_decorator_line_does_not_suppress_body():
    # the def line anchors the scope, not the decorator line
    assert _codes(
        """\
        import functools

        @functools.lru_cache  # repro: noqa[DET004]
        def f(now):
            return now / 2
        """
    ) == ["DET004"]


def test_noqa_on_nested_def_does_not_leak_to_outer_body():
    assert _codes(
        """\
        def outer(now):
            def inner(when):  # repro: noqa[DET004]
                return when / 2
            return now / 4
        """
    ) == ["DET004"]


# ----------------------------------------------------------------------
# lint_paths validation + de-duplication
# ----------------------------------------------------------------------
def test_lint_paths_errors_on_nonexistent_path(tmp_path):
    with pytest.raises(LintUsageError, match="no such file or directory"):
        lint_paths([tmp_path / "missing_dir"])


def test_lint_paths_errors_on_non_python_file(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("hello\n", encoding="utf-8")
    with pytest.raises(LintUsageError, match="not a Python file"):
        lint_paths([readme])


def test_main_exit_2_on_bad_paths(tmp_path, capsys):
    assert main([str(tmp_path / "missing")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_overlapping_paths_do_not_duplicate_diagnostics(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    bad = package / "bad.py"
    bad.write_text("x = hash('k')\n", encoding="utf-8")
    once = lint_paths([package])
    twice = lint_paths([package, bad, package])
    assert [d.format() for d in twice] == [d.format() for d in once]
    assert len(once) == 1


# ----------------------------------------------------------------------
# autofixes
# ----------------------------------------------------------------------
def test_fix_rewrites_timestamp_division_to_floor_division():
    fixed, count = fix_source("def f(now):\n    return now / 4\n")
    assert count == 1
    assert "now // 4" in fixed


def test_fix_wraps_bare_set_iteration_in_sorted():
    fixed, count = fix_source(
        "def f():\n    for x in {3, 1}:\n        print(x)\n"
    )
    assert count == 1
    assert "for x in sorted({3, 1}):" in fixed


def test_fix_skips_noqa_suppressed_findings():
    source = "def f(now):\n    return now / 4  # repro: noqa[DET004]\n"
    fixed, count = fix_source(source)
    assert count == 0 and fixed == source


def test_fixed_output_lints_clean():
    fixed, _ = fix_source(
        "def f(now):\n"
        "    for x in {3, 1}:\n"
        "        print(x / 1)\n"
        "    return now / 4\n"
    )
    assert [d.code for d in lint_source(fixed)] == []


def test_fix_paths_end_to_end(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f(now):\n    return now / 4\n", encoding="utf-8")
    assert main([str(target), "--fix", "--no-whole-program"]) == 0
    assert "now // 4" in target.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# output formats through main
# ----------------------------------------------------------------------
def test_json_output_written_to_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = hash('k')\n", encoding="utf-8")
    out = tmp_path / "diags.json"
    code = main([str(bad), "--format=json", "--output", str(out),
                 "--no-whole-program", "--no-baseline"])
    assert code == 1
    import json

    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload[0]["code"] == "DET001"


def test_sarif_output_shape(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = hash('k')\n", encoding="utf-8")
    out = tmp_path / "diags.sarif"
    main([str(bad), "--format=sarif", "--output", str(out),
          "--no-whole-program", "--no-baseline"])
    import json

    sarif = json.loads(out.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert run["results"][0]["ruleId"] == "DET001"
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1


def test_list_rules_table_covers_both_registries(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "per-file" in out and "whole-program" in out
    for code in ("DET001", "DET101", "HOT003", "PERF003", "OBS001"):
        assert code in out
    # autofixability column
    det004_row = next(line for line in out.splitlines() if line.startswith("DET004"))
    assert "yes" in det004_row
