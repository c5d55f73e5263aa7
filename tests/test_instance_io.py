"""Instance text format: round trips, canonical bytes, error reporting."""

from __future__ import annotations

import tracemalloc

import pytest

from spedac import (
    InvariantError,
    ParseError,
    RandomConfig,
    SmallWorldConfig,
    generate_random,
    generate_small_world,
    load_instance,
    parse_instance,
    render_instance,
    save_instance,
)


def test_render_golden_layout(golden):
    lines = render_instance(golden).splitlines()
    assert lines[0] == "SPEDAC 1"
    assert lines[1] == "7 12 3 0 6"
    assert lines[2] == "0 1 3"
    assert lines[13] == "5 6 3"
    assert lines[14] == "0 9 10"
    assert lines[16] == "3 10 10"
    assert len(lines) == 17


def test_round_trip_is_exact(golden):
    assert parse_instance(render_instance(golden)) == golden


def test_round_trip_generated_instances():
    for instance in (
        generate_random(RandomConfig(n=25, d=0.3, r=2e-3, seed=3)),
        generate_random(RandomConfig(n=12, d=0.5, r=0.0, seed=8)),
        generate_small_world(SmallWorldConfig(n=30, k=0.2, beta=0.5, r=1e-3, seed=1)),
    ):
        assert parse_instance(render_instance(instance)) == instance


def test_file_round_trip_uses_lf_only(tmp_path, golden):
    path = tmp_path / "golden.spedac"
    save_instance(golden, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode("ascii") == render_instance(golden)
    assert load_instance(path) == golden


def test_parse_tolerates_trailing_blank_lines(golden):
    assert parse_instance(render_instance(golden) + "\n\n") == golden


def test_parse_errors_carry_line_numbers(golden):
    text = render_instance(golden)
    with pytest.raises(ParseError, match="line 1: expected header"):
        parse_instance("SPEDAC 9\n" + text.split("\n", 1)[1])
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("")
    with pytest.raises(ParseError, match="line 2: missing counts"):
        parse_instance("SPEDAC 1\n")
    with pytest.raises(ParseError, match="line 2: expected 5 fields"):
        parse_instance("SPEDAC 1\n7 12 3 0\n")
    with pytest.raises(ParseError, match="line 2: expected integer, got 'x'"):
        parse_instance("SPEDAC 1\n7 x 3 0 6\n")

    lines = text.splitlines()
    # Arc line 5 (index 4) mangled: wrong field count.
    broken = lines[:]
    broken[4] = "1 3"
    with pytest.raises(ParseError, match="line 5: expected 3 fields"):
        parse_instance("\n".join(broken) + "\n")
    # Conflict lines start at line 15 for the 12-arc instance.
    broken = lines[:]
    broken[14] = "0 nine 10"
    with pytest.raises(ParseError, match="line 15: expected integer"):
        parse_instance("\n".join(broken) + "\n")


def _parse_lines(lines):
    return parse_instance("\n".join(lines) + "\n")


def test_parse_errors_name_the_first_bad_line(golden):
    # Body lines are checked in file order, each for its field count first
    # and then for its integers; the first line that fails is named.
    lines = render_instance(golden).splitlines()
    broken = lines[:]
    broken[4], broken[5] = "1 3", "1 4 2 9"
    with pytest.raises(ParseError, match=r"^line 5: expected 3 fields for arc"
                                         r" 'tail head weight', got 2$"):
        _parse_lines(broken)
    broken = lines[:]
    broken[4], broken[6] = "1 3", "2 x 1"
    with pytest.raises(ParseError, match="^line 5: expected 3 fields"):
        _parse_lines(broken)
    broken = lines[:]
    broken[4], broken[6] = "1 x 2", "2 1"
    with pytest.raises(ParseError, match="^line 5: expected integer, got 'x'$"):
        _parse_lines(broken)
    broken = lines[:]
    broken[4] = "1 x"
    with pytest.raises(ParseError, match="^line 5: expected 3 fields"):
        _parse_lines(broken)
    # A conflict line gets its own number, also behind a later bad line.
    broken = lines[:]
    broken[15], broken[16] = "2 6 1o", "3 10"
    with pytest.raises(ParseError, match="^line 16: expected integer, got '1o'$"):
        _parse_lines(broken)
    broken = lines[:]
    broken[16] = "3 +10 10"
    with pytest.raises(ParseError, match="^line 17: expected integer, got '\\+10'$"):
        _parse_lines(broken)


def test_record_invariants_keep_their_place_among_parse_errors(golden):
    # An arc or conflict record is checked as its line is read, so a bad
    # record before a bad line wins; whole-instance rules come last.
    lines = render_instance(golden).splitlines()
    broken = lines[:]
    broken[2], broken[3] = "0 0 3", "0 x 1"
    with pytest.raises(InvariantError, match="self-loop arc"):
        _parse_lines(broken)
    broken = lines[:]
    broken[13], broken[14] = "5 6 -3", "0 x 10"
    with pytest.raises(InvariantError, match="weight must be a non-negative"):
        _parse_lines(broken)
    broken = lines[:]
    broken[14], broken[15] = "9 9 10", "2 6"
    with pytest.raises(InvariantError, match="pairs arc 9 with itself"):
        _parse_lines(broken)
    broken = lines[:]
    broken[3], broken[15] = "0 1 3", "2 6"
    with pytest.raises(ParseError, match="^line 16: expected 3 fields"):
        _parse_lines(broken)


def test_parse_peak_memory_stays_near_what_the_instance_keeps():
    # The parse may hold transient data, but not several times the size
    # of the instance it returns.
    text = render_instance(generate_random(RandomConfig(n=1000, d=0.004, r=1e-4)))
    tracemalloc.start()
    try:
        instance = parse_instance(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(instance.arcs) > 3000
    assert peak <= 2.5 * kept, f"parse peak {peak} B for {kept} B kept"


def test_parse_errors_on_truncated_and_padded_bodies(golden):
    lines = render_instance(golden).splitlines()
    with pytest.raises(ParseError, match="line 17: expected 12 arc lines"):
        parse_instance("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="line 18: unexpected extra line"):
        parse_instance("\n".join(lines + ["4 5 1"]) + "\n")


def test_structural_problems_raise_invariant_errors(golden):
    text = render_instance(golden)
    with pytest.raises(InvariantError, match="duplicate arc"):
        parse_instance(text.replace("0 2 1\n", "0 1 3\n", 1))
    with pytest.raises(InvariantError, match="arc index out of range"):
        parse_instance(text.replace("3 10 10\n", "3 99 10\n", 1))
    with pytest.raises(InvariantError, match="duplicate conflict"):
        parse_instance(text.replace("2 6 10\n", "9 0 10\n", 1))
    with pytest.raises(InvariantError, match="source"):
        parse_instance(text.replace("7 12 3 0 6", "7 12 3 9 6", 1))


@pytest.mark.parametrize(
    "counts", ["2 -5 5 0 1", "2 -1 0 0 1", "-3 0 0 0 1"]
)
def test_negative_counts_raise_parse_errors(counts):
    with pytest.raises(ParseError, match="line 2: counts n, m and c must be non-negative"):
        parse_instance(f"SPEDAC 1\n{counts}\n")


@pytest.mark.parametrize(
    "line_no, text",
    [
        (3, "SPEDAC 1\n2 1 0 0 1\n0 1 1_0\n"),
        (3, "SPEDAC 1\n2 1 0 0 1\n0 1 +7\n"),
        (2, "SPEDAC 1\n+2 1 0 0 1\n0 1 7\n"),
        (5, "SPEDAC 1\n2 2 1 0 1\n0 1 7\n1 0 7\n0 1 1_000\n"),
        (3, "SPEDAC 1\n2 1 0 0 1\n0 \u0661 7\n"),  # ARABIC-INDIC DIGIT ONE
    ],
    ids=["underscore", "plus", "plus-count", "underscore-conflict", "non-ascii-digit"],
)
def test_non_canonical_integers_raise_parse_errors(line_no, text):
    # int() takes each of these fields; the format takes only '-' and digits.
    with pytest.raises(ParseError, match=f"line {line_no}: expected integer"):
        parse_instance(text)


def test_non_ascii_byte_raises_parse_error(tmp_path):
    path = tmp_path / "bad.spedac"
    path.write_bytes(b"SPEDAC 1\n2 1 0 0 1\n0 1 \xff\n")
    with pytest.raises(ParseError, match="line 3: non-ASCII byte 0xff"):
        load_instance(path)
