"""The golden report corpus (tests/golden): the CLI's reports for fixed
inputs agree with the checked-in files, at one worker and at two."""
import os

from golden.rewrite import FILES, HERE, compare, generate


def _check(out_dir, names):
    problems = []
    for name in names:
        with open(os.path.join(HERE, name), encoding="utf-8") as fh:
            expected = fh.read()
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            actual = fh.read()
        problems += compare(name, expected, actual)[0]
    assert not problems, "\n".join(problems[:20])


def test_golden_reports_one_worker(tmp_path):
    names = generate(str(tmp_path), threads=1)
    assert sorted(names) == sorted(FILES)
    _check(str(tmp_path), names)


def test_golden_report_two_workers(tmp_path):
    _check(str(tmp_path), generate(str(tmp_path), threads=2, nulls=("gengamma",), simulate=False))


def test_compare_tolerates_rounding_and_nothing_more():
    with open(os.path.join(HERE, "gamma.json"), encoding="utf-8") as fh:
        text = fh.read()
    value = "0.05662859722513591"  # the observed DDE
    assert value in text
    for moved, ok in ((0.05662859722513591 * (1 + 1e-15), True),
                      (0.05662859722513591 * (1 + 1e-10), False)):
        problems, _ = compare("gamma.json", text, text.replace(value, repr(moved)))
        assert (not problems) is ok
    problems, _ = compare("gamma.json", text, text.replace('"reject": true', '"reject": false'))
    assert len(problems) == 1
