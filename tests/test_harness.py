import dataclasses
import hashlib
import json
import math

import pytest

from cyclonorm import cli, harness
from cyclonorm.harness import RunConfig, cmd_identities, cmd_pipeline, cmd_search, write_report
from cyclonorm.cli import main
from cyclonorm.group_ring import GroupRingElement, idempotent_mod_p
from test_series import _moved


def test_config_validation():
    assert RunConfig("identities", p=4).validate() is not None
    assert RunConfig("identities", p=5).validate() is None
    assert RunConfig("search", p=5, q=5).validate() is not None
    assert RunConfig("search", p=5, bound=10 ** 7).validate() is not None


def test_identities_p5_all_pass():
    rep = cmd_identities(RunConfig("identities", p=5))
    assert rep.counts["fail"] == 0
    # the only waiver at p = 5 is the degenerate annihilator
    waived = [r.name for r in rep.records if r.status == "waived"]
    assert waived == ["weight-two-annihilator"]


def test_identities_deterministic_bytes():
    a = cmd_identities(RunConfig("identities", p=5, seed=3)).to_json()
    b = cmd_identities(RunConfig("identities", p=5, seed=3)).to_json()
    assert a == b
    c = cmd_identities(RunConfig("identities", p=5, seed=4)).to_json()
    assert a != c   # the seed is part of the recorded configuration


# SHA-256 of report JSON bytes at seed 0, fixed across commits: a change that
# moves one of them changes what the checker reports, not only how it runs.
REPORT_PINS = {
    ("identities", 5, None, None):
        "9744cb9ccdf8c24cb9cb708336a4efb646b2378b2a34b5476a33ab5d162030e5",
    ("identities", 7, None, None):
        "be8ec52cf3c6389c0b22c579d3632dbc6b8d97a092f23fc768c3d480f760edb0",
    ("identities", 11, None, None):
        "7979e386489c64f7a3bf5dbc281120fbe7ba06efe2b4457b3ad8b9f6abd86bcb",
    ("identities", 13, None, None):
        "9ef39d175c79d37afb8b8ad7d89f61b206c20e1926d3dd14d52742ff893330a8",
    ("identities", 17, None, None):
        "099206a2dcf3e9525763f168a2cd4328b5fc7c94ed1afd4976238d66a13f0391",
    ("identities", 19, None, None):
        "1d00f7cf0a436edfe92c11a4dc8feda6585a0700ee3eb75919dc2a079905e950",
    ("identities", 23, None, None):
        "10294dd0ebfc8c69eaafdcc5da5e3bf33b1b9d8000394d987f979817bb70ac39",
    ("identities", 37, None, None):
        "c22818f8ef831fd0e99c3d3951901bf06b17fbd9c8c56a3dac4e0f5df3999618",
    # large p: recorded when the idempotent record still formed every e_i e_j
    # and factor_phi split Phi_p fully
    ("identities", 61, None, None):
        "89754e8b62834fe30aec288d15a85a254bcb5afea75c15b91fe66e32bd4c8750",
    ("pipeline", 5, 3, 22):
        "aefa0fca4cb0da3a73472ed21c32455e5e3495e3e881abbf42aef7cf54b3d163",
    # twist-selection fails here: each twist's least kernel vector pairs to 0
    ("pipeline", 7, 3, 26):
        "10f6cf10f02b37d4e037d7bc20b89684d1126adbee81596291a2b2228576fe99",
    # the digit bases below: 5^2 over degree-5 factors, 3^3 over degree-3
    # factors, and 3 inert times 11 split
    ("pipeline", 11, 2, 25):
        "3cd89c36b2735ec197136b1ddc0001cdee09a0b7afbc3515693b16285831a558",
    ("pipeline", 13, 2, 27):
        "6121e6a014abd0ea4606c43bca7633521c38bcf8e2186b00efc1f41d5e3cbb16",
    ("pipeline", 5, 2, 33):
        "4a49fbb59a7623136ecc7a2114875861788720ee32b52305c8068a51241b5545",
    ("pipeline", 17, 2, 19):
        "30b11c00f59bca244b472af71124d7d5fbced6ad015543aa55a4c0630cda4d69",
    ("pipeline", 23, 2, 41):
        "453b0ff70a5d947dd87a097ab7a8fcfa0fcf6042214f54bd0d53eaa737c5002b",
    # no twist has a vector in the sqrt(y) box; the box-lemma radius is
    # reached, and there twists 1-4 pair to 0 and twist 5 wins
    ("pipeline", 19, 2, 39):
        "59780e81e520df9fd8906b4b7bea950f30013fff96624605d097b8b1ab5a4164",
    # p = 3 solutions: e = 0, and e = 1, where alpha is divided by lambda
    ("pipeline", 3, 19, 18):
        "663b3d3d0ee99cc5f115814e7f90e3825b9f3ee495110ddee2e3dc092236326b",
    ("pipeline", 3, 2, 1):
        "1be964be7f4a5e2d0930c93cba46491ad9346dc0e8be8c98c9500764b2476206",
}

# the same for search reports, keyed by (p, q, bound)
SEARCH_PINS = {
    (3, None, 50): "7097b0124c418d008da5287ea1d3b052a61cd5ea942b12177789e4f3cb143036",
    (5, 7, 60): "a9a5556207c3ba1065053c5a2e186ea1fee76731770af7094a588c1eb2021550",
}


@pytest.mark.parametrize("key", sorted(REPORT_PINS, key=str), ids=lambda k: "-".join(map(str, k)))
def test_report_bytes_pinned(key):
    command, p, x, y = key
    cmd = cmd_identities if command == "identities" else cmd_pipeline
    text = cmd(RunConfig(command, p=p, x=x, y=y, seed=0)).to_json()
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REPORT_PINS[key]


def test_report_bytes_pinned_at_a_seed():
    # the shared condition rows of this twist stage are linearly dependent,
    # so they have no Gram-Schmidt data; twist 1 wins in the sqrt(y) box
    text = cmd_pipeline(RunConfig("pipeline", p=11, x=5, y=39, seed=1861842506)).to_json()
    assert (hashlib.sha256(text.encode("ascii")).hexdigest()
            == "c64a51b5320da19f9ec13e243a2481b84375cb424dd24190a62492fca685958b")


@pytest.mark.parametrize("key", sorted(SEARCH_PINS, key=str), ids=lambda k: "-".join(map(str, k)))
def test_search_report_bytes_pinned(key):
    p, q, bound = key
    text = cmd_search(RunConfig("search", p=p, q=q, bound=bound, seed=0)).to_json()
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == SEARCH_PINS[key]


def test_search_p3_expected_hits():
    rep = cmd_search(RunConfig("search", p=3, bound=20))
    hits_record = next(r for r in rep.records if r.name == "search-hits")
    hits = {(h["x"], h["y"], h["z"], h["e"]) for h in hits_record.outputs["hits"]}
    assert (2, 1, 1, 1) in hits
    assert (19, 18, 7, 0) in hits
    assert rep.counts["fail"] == 0
    # every reported hit re-validates through the characteristic data
    validations = [r for r in rep.records if r.name.startswith("hit-validation")]
    assert validations and all(r.status == "pass" for r in validations)


def test_search_accounting():
    rep = cmd_search(RunConfig("search", p=5, bound=30))
    acc = next(r for r in rep.records if r.name == "search-accounting")
    assert acc.status == "pass"
    trivial = next(r for r in rep.records if r.name == "trivial-instance-excluded")
    assert trivial.outputs["instance"] == [1, 1, 1, 0]


def test_euler_phi_counts_coprime_residues():
    for n in range(1, 200):
        assert harness._euler_phi(n) == sum(math.gcd(n, k) == 1 for k in range(1, n + 1))


def test_search_p5_no_hits_small():
    rep = cmd_search(RunConfig("search", p=5, bound=60))
    hits = next(r for r in rep.records if r.name == "search-hits")
    assert hits.outputs["count"] == 0


def test_pipeline_p5_runs_with_waivers():
    rep = cmd_pipeline(RunConfig("pipeline", p=5, x=3, y=22, precision=6))
    assert rep.counts["fail"] == 0
    assert rep.counts["waived"] >= 2
    names = {r.name: r.status for r in rep.records}
    assert names["perturbation-pass"] == "pass"
    assert names["digit-table"] == "pass"
    assert names["root-of-unity"] == "pass"


def test_pipeline_p3_true_solution():
    rep = cmd_pipeline(RunConfig("pipeline", p=3, x=19, y=18))
    assert rep.counts["fail"] == 0 and rep.counts["waived"] == 0


def test_pipeline_rejects_bad_input():
    with pytest.raises(ValueError):
        cmd_pipeline(RunConfig("pipeline", p=5, x=2, y=22))   # shared factor
    with pytest.raises(ValueError):
        cmd_pipeline(RunConfig("pipeline", p=5, x=3, y=25))   # ramified base


@pytest.mark.parametrize("p,y", [(5, 23), (7, 31), (11, 29), (17, 37)])
def test_pipeline_refuses_inert_digit_base(monkeypatch, capsys, p, y):
    # y is a power of a prime inert in Q(zeta_p): every p-th root of unity
    # mod y is global, so the run is refused before its first stage
    def no_stage_zero(p):
        raise AssertionError("stage 0 ran on an inert digit base")

    monkeypatch.setattr(harness, "construct_weight2_annihilator", no_stage_zero)
    assert main(["pipeline", "--p", str(p), "--x", "3", "--y", str(y)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ") and "inert" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("y", [-22, -1, 1])
def test_pipeline_refuses_digit_base_below_two(monkeypatch, capsys, y):
    # the semilocal stages work modulo powers of y, so y < 2 is refused
    # before stage 0 with a message that names y, not an internal modulus
    def no_stage_zero(p):
        raise AssertionError("stage 0 ran on a digit base below 2")

    monkeypatch.setattr(harness, "construct_weight2_annihilator", no_stage_zero)
    assert main(["pipeline", "--p", "5", "--x", "3", "--y", str(y)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert f"y = {y} " in captured.err and "modulus must be" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag,value", [("--precision", -1), ("--precision", 0),
                                        ("--level", 0), ("--level", -3)])
def test_pipeline_refuses_precision_or_level_below_one(monkeypatch, capsys, flag, value):
    # refused before stage 0, not by a traceback or an internal modulus
    # after the series stages
    def no_stage_zero(p):
        raise AssertionError("stage 0 ran with a precision or level below 1")

    monkeypatch.setattr(harness, "construct_weight2_annihilator", no_stage_zero)
    assert main(["pipeline", "--p", "5", "--x", "3", "--y", "22", flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert f"{flag[2:]} {value} must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["identities", "pipeline", "report"])
@pytest.mark.parametrize("flag,value", [("--q", "7"), ("--e", "1"), ("--e", "0")])
def test_cli_refuses_search_flags_elsewhere(monkeypatch, capsys, tmp_path, command, flag, value):
    # only search reads --q and --e; any other command refuses them before
    # it runs, instead of ignoring them
    def no_run(cfg):
        raise AssertionError(f"{command} ran with {flag}")

    monkeypatch.setattr(cli, f"cmd_{command}", no_run)
    argv = [command, "--p", "5", "--x", "3", "--y", "22", "--out", str(tmp_path / "rep"),
            flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert f"{flag[2:]} = {value} applies to search only" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_shared_parser_keeps_no_state_between_commands():
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert parser.parse_args(["search", "--q", "7", "--bound", "3"]).q == 7
    again = parser.parse_args(["search"])
    assert (again.q, again.bound) == (None, 20)


def test_search_reads_q_and_e():
    assert RunConfig("search", p=5, q=7, e=1).validate() is None
    assert main(["search", "--p", "5", "--q", "7", "--e", "1", "--bound", "12"]) == 0


def test_pipeline_p23_default_level():
    # the digit table is deep enough for the perturbation pass's guard
    # entries at p >= 23 without raising --level
    rep = cmd_pipeline(RunConfig("pipeline", p=23, x=2, y=41))
    assert rep.ok
    names = {r.name: r.status for r in rep.records}
    assert names["digit-table"] == names["perturbation-pass"] == "pass"


def test_bound_clash_record_reads_the_verdict(monkeypatch):
    # with the closing chain forced to hold, the record is not waived, and
    # at (5, 3, 22) the upper bound does not dominate: the record fails
    monkeypatch.setattr(harness.lattice, "displayed_chain_holds", lambda p, y: True)
    rep = cmd_pipeline(RunConfig("pipeline", p=5, x=3, y=22))
    clash = next(r for r in rep.records if r.name == "bound-clash")
    assert clash.outputs["upper_dominates"] is False
    assert clash.status == "fail"
    # in the paper's regime the verdict is a contradiction
    for y in (87, 91, 101):
        assert harness.lattice.bound_clash(43, y, max(2 * 43 + 1, y - 1), 4)


def _record(report, name):
    return next(r for r in report.records if r.name == name)


def test_uniformizer_digits_record_fails_on_a_wrong_digit(monkeypatch):
    # moving the last of the six digits by 1 moves the partial sum by
    # lambda^5, so it is no longer alpha mod lambda^6
    real = harness.lambda_expand

    def shifted(w, digits):
        lam = real(w, digits)
        return dataclasses.replace(lam, digits=lam.digits[:-1] + (lam.digits[-1] + 1,))

    assert _record(cmd_pipeline(RunConfig("pipeline", p=3, x=19, y=18)),
                   "uniformizer-digits").status == "pass"
    monkeypatch.setattr(harness, "lambda_expand", shifted)
    rep = cmd_pipeline(RunConfig("pipeline", p=3, x=19, y=18))
    assert _record(rep, "uniformizer-digits").status == "fail"


@pytest.mark.parametrize("wrong", ["relative-weight", "negative-coefficient", "quotient"])
def test_exponent_element_record_fails_on_a_wrong_element(monkeypatch, wrong):
    # at p = 11 the element comes from a recipe; each replacement breaks
    # one of relative weight 2, nonnegativity and Fermat quotient 0
    real = harness.construct_weight2_annihilator

    def tampered(p):
        ann = real(p)
        if wrong == "relative-weight":
            element = ann.element.scale(3)
        elif wrong == "negative-coefficient":       # same weight and quotient
            twist = GroupRingElement.sigma(p, 1) - GroupRingElement.sigma(p, p - 1)
            element = ann.element + twist.scale(p)
        else:
            element = harness.fueter(p, 1).scale(2)     # quotient 9 at p = 11
        return dataclasses.replace(ann, element=element)

    monkeypatch.setattr(harness, "construct_weight2_annihilator", tampered)
    rep = cmd_pipeline(RunConfig("pipeline", p=11, x=2, y=25))
    assert _record(rep, "exponent-element").status == "fail"


def test_root_of_unity_record_fails_on_a_wrong_root(monkeypatch):
    # 2 rho is not a global root either, but its p-th power is 2^p, not 1
    assert _record(cmd_pipeline(RunConfig("pipeline", p=5, x=3, y=22)),
                   "root-of-unity").status == "pass"
    real = harness.semilocal.synthetic_root_of_unity
    monkeypatch.setattr(harness.semilocal, "synthetic_root_of_unity",
                        lambda *args, **kwargs: real(*args, **kwargs).scale(2))
    rep = cmd_pipeline(RunConfig("pipeline", p=5, x=3, y=22))
    assert _record(rep, "root-of-unity").status == "fail"


def test_search_hits_record_fails_on_a_wrong_hit(monkeypatch):
    # with q = 2 != p the hits skip the characteristic data, so a wrong z
    # reaches the record
    rep = cmd_search(RunConfig("search", p=3, q=2, bound=10))
    assert _record(rep, "search-hits").outputs["count"] > 0
    assert _record(rep, "search-hits").status == "pass"
    real = harness.linalg.is_perfect_power

    def off_by_one(n, k):
        z = real(n, k)
        return None if z is None else z + 1

    monkeypatch.setattr(harness.linalg, "is_perfect_power", off_by_one)
    rep = cmd_search(RunConfig("search", p=3, q=2, bound=10))
    assert _record(rep, "search-hits").status == "fail"


def test_trivial_instance_record_fails_on_a_wrong_value(monkeypatch):
    # (1, 1) is never visited by the scan, so only the record sees the change
    real = harness.equation_value
    monkeypatch.setattr(harness, "equation_value",
                        lambda p, x, y: real(p, x, y) + (x == y == 1))
    rep = cmd_search(RunConfig("search", p=5, bound=5))
    assert _record(rep, "trivial-instance-excluded").status == "fail"
    assert _record(rep, "search-accounting").status == "pass"


def test_semilocal_sum_record_fails_on_a_moved_numerator(monkeypatch):
    # numerator 2 of the series table moved by zeta: the summed series
    # moves by zeta (y/x)^2 / q^2, and its q-th power no longer closes
    real = harness.series.binom_coeffs

    def tampered(theta, order, full=True, den_prime=None):
        tab = real(theta, order, full, den_prime)
        nums = list(tab.numerators)
        nums[2] = nums[2] + harness.CycloInt.zeta_power(tab.p, 1)
        return dataclasses.replace(tab, numerators=tuple(nums))

    cfg = RunConfig("pipeline", p=5, x=3, y=22)
    assert _record(cmd_pipeline(cfg), "semilocal-sum").status == "pass"
    monkeypatch.setattr(harness.series, "binom_coeffs", tampered)
    rep = cmd_pipeline(cfg)
    assert _record(rep, "semilocal-sum").status == "fail"
    assert _record(rep, "series-power").status == "fail"


def test_report_files_byte_stable(tmp_path):
    cfg = RunConfig("pipeline", p=5, x=3, y=22, precision=6,
                    out=str(tmp_path / "run1"))
    rep1 = cmd_pipeline(cfg)
    write_report(rep1, cfg.out)
    cfg2 = RunConfig("pipeline", p=5, x=3, y=22, precision=6,
                     out=str(tmp_path / "run2"))
    rep2 = cmd_pipeline(cfg2)
    write_report(rep2, cfg2.out)
    j1 = (tmp_path / "run1.json").read_bytes()
    j2 = (tmp_path / "run2.json").read_bytes()
    # identical up to the differing output path recorded in the config
    assert j1.replace(b"run1", b"run") == j2.replace(b"run2", b"run")
    t1 = (tmp_path / "run1.tsv").read_bytes()
    t2 = (tmp_path / "run2.tsv").read_bytes()
    assert t1 == t2


def test_report_json_schema(tmp_path):
    cfg = RunConfig("identities", p=5, out=str(tmp_path / "idrep"))
    rep = cmd_identities(cfg)
    write_report(rep, cfg.out)
    tree = json.loads((tmp_path / "idrep.json").read_text())
    assert set(tree) == {"command", "config", "records", "summary"}
    for rec in tree["records"]:
        assert set(rec) == {"name", "anchor", "status", "inputs", "outputs",
                            "arithmetic", "note"}
        assert rec["status"] in {"pass", "fail", "waived"}
    assert tree["summary"]["fail"] == 0


@pytest.mark.parametrize("p", [3, 103])
def test_identities_refuses_primes_outside_its_range(monkeypatch, capsys, p):
    # refused before the first record, with a message that names the range
    def no_records(*args):
        raise AssertionError("a record ran outside the suite's range")

    monkeypatch.setattr(harness, "inverse_uniformizer_numerator", no_records)
    assert main(["identities", "--p", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"invalid input: the identity suite runs at primes 5 <= p <= 101, " \
                           f"not p = {p}\n"
    assert captured.out == ""


def _broken_idempotence(p, k):
    # 2 e_0 and e_1 - e_0: the sum is still 1, but 2 e_0 is not idempotent
    e = idempotent_mod_p(p, k)
    if k == 0:
        return e.scale(2).reduce(p)
    return (e - idempotent_mod_p(p, 0)).reduce(p) if k == 1 else e


def _broken_sum(p, k):
    # 0 in place of e_0: every element is idempotent, and the sum is 1 - e_0
    return GroupRingElement.zero(p, p) if k == 0 else idempotent_mod_p(p, k)


def _idempotent_status(p):
    records = cmd_identities(RunConfig("identities", p=p)).records
    return next(r.status for r in records if r.name == "idempotent-algebra")


@pytest.mark.parametrize("broken", [_broken_idempotence, _broken_sum])
@pytest.mark.parametrize("p", [5, 7])
def test_idempotent_record_can_fail(monkeypatch, broken, p):
    # the record keeps e^2 = e and sum e = 1, and each can still fail
    assert _idempotent_status(p) == "pass"
    monkeypatch.setattr(harness, "idempotent_mod_p", broken)
    assert _idempotent_status(p) == "fail"


def test_cli_exit_codes(tmp_path):
    assert main(["identities", "--p", "5"]) == 0
    assert main(["identities", "--p", "4"]) == 2
    assert main(["search", "--p", "3", "--bound", "12"]) == 0
    mat = tmp_path / "m.txt"
    mat.write_text("1 5\n1 1 1 1 1\n")
    out = tmp_path / "w.txt"
    assert main(["siegel", "--matrix", str(mat), "--out", str(out)]) == 0
    w = [int(t) for t in out.read_text().split()]
    assert sum(w) == 0 and any(w)


def test_cli_finishes_on_values_beyond_float_range(tmp_path, capsys):
    # the p = 211 search values and a 10^400 entry both reach integer k-th
    # roots far above the largest double
    base = tmp_path / "search"
    assert main(["search", "--p", "211", "--bound", "30", "--out", str(base)]) == 0
    tree = json.loads((tmp_path / "search.json").read_text())
    hits = [r for r in tree["records"] if r["name"] == "search-hits"]
    assert hits[0]["outputs"]["count"] == 0 and hits[0]["status"] == "pass"
    mat = tmp_path / "m.txt"
    mat.write_text(f"1 4\n{10 ** 400} 1 1 1\n")
    capsys.readouterr()
    assert main(["siegel", "--matrix", str(mat)]) == 0
    captured = capsys.readouterr()
    w = [int(t) for t in captured.out.split()]
    assert len(w) == 4 and any(w) and 10 ** 400 * w[0] + w[1] + w[2] + w[3] == 0
    assert captured.err == ""


def test_cli_report_rerender(tmp_path):
    base = str(tmp_path / "rep")
    assert main(["identities", "--p", "5", "--out", base]) == 0
    tsv_before = (tmp_path / "rep.tsv").read_bytes()
    (tmp_path / "rep.tsv").unlink()
    assert main(["report", "--out", base]) == 0
    assert (tmp_path / "rep.tsv").read_bytes() == tsv_before


@pytest.mark.parametrize("tree", [
    {},
    [1, 2],
    {"command": "identities", "config": {}, "records": [{"name": "x", "colour": "red"}]},
], ids=["empty-object", "list", "unknown-record-key"])
def test_cli_report_rejects_non_report(tmp_path, capsys, tree):
    base = tmp_path / "rep"
    (tmp_path / "rep.json").write_text(json.dumps(tree))
    assert main(["report", "--out", str(base)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert captured.out == ""
    assert not (tmp_path / "rep.tsv").exists()


@pytest.mark.parametrize("argv", [
    lambda d: ["identities", "--p", "5", "--out", str(d / "missing" / "base")],
    lambda d: ["siegel", "--matrix", str(d / "m.txt"), "--out", str(d / "missing" / "w.txt")],
    lambda d: ["report", "--out", str(d / "dir")],
], ids=["identities-out-in-missing-dir", "siegel-out-in-missing-dir", "report-json-is-a-directory"])
def test_cli_unusable_out_is_invalid_input(tmp_path, capsys, argv):
    (tmp_path / "m.txt").write_text("1 5\n1 1 1 1 1\n")
    (tmp_path / "dir.json").mkdir()
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("bound", ["0", "-4"])
def test_cli_siegel_rejects_bound_below_one(tmp_path, capsys, bound):
    mat = tmp_path / "m.txt"
    mat.write_text("1 5\n1 1 1 1 1\n")
    assert main(["siegel", "--matrix", str(mat), "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert captured.out == ""


@pytest.mark.parametrize("text,extra", [
    ("2 4\n1 2 3 4\n1 2 3\n", []),          # a row shorter than declared
    ("", []),                               # an empty file
    ("2 2\n1 0\n0 1\n", []),                # a square system: no free direction
    ("2 4\n1 2 3 4\n2 4 6 8\n", []),        # dependent rows
    (None, []),                             # a missing file
    ("1 3\n1 1 1\n5 0 -5\n", []),           # more rows than declared
    ("1 0\n\n", []),                        # a header that declares no columns
    ("1 0\n\n", ["--bound", "3"]),          # ... also with the bound given
], ids=["short-row", "empty-file", "square", "dependent-rows", "missing-file", "extra-row",
        "zero-columns", "zero-columns-bound"])
def test_cli_siegel_rejects_bad_input(tmp_path, capsys, text, extra):
    mat = tmp_path / "m.txt"
    if text is not None:
        mat.write_text(text)
    assert main(["siegel", "--matrix", str(mat)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert captured.out == ""


# the options each command reads; every other one is refused
COMMAND_READS = {
    "identities": {"p", "seed", "out"},
    "search": {"p", "q", "e", "bound", "out"},
    "pipeline": {"p", "x", "y", "precision", "level", "seed", "out"},
    "report": {"out"},
    "siegel": {"matrix", "bound", "out"},
}
OPTION_VALUES = {"p": "7", "q": "11", "e": "1", "bound": "3", "x": "9", "y": "38",
                 "precision": "3", "level": "2", "seed": "11"}


@pytest.mark.parametrize("option", sorted(set().union(*COMMAND_READS.values())) + ["waive-scale"])
@pytest.mark.parametrize("command", list(COMMAND_READS))
def test_cli_commands_take_only_the_options_they_read(monkeypatch, capsys, tmp_path,
                                                      command, option):
    # an option the command reads reaches its handler; any other one is
    # refused before the handler runs, and nothing is written
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    mat = tmp_path / "in" / "m.txt"
    mat.write_text("1 2\n1 1\n")
    values = {**OPTION_VALUES, "out": str(tmp_path / "out" / "rep"), "matrix": str(mat)}
    seen = []
    if command == "siegel":
        def solve(rows, ambient, bound):
            seen.append({"matrix": rows, "bound": bound})
            return [1, -1]

        monkeypatch.setattr(cli.lattice, "siegel_solve", solve)
        argv = ["siegel"] + ([] if option == "matrix" else ["--matrix", str(mat)])
    else:
        def handler(cfg):
            seen.append(vars(cfg))
            return [] if command == "report" else harness.Report(command, {})

        monkeypatch.setattr(cli, f"cmd_{command}", handler)
        argv = [command]
    argv += [f"--{option}"] + ([values[option]] if option in values else [])

    if option in COMMAND_READS[command]:
        assert main(argv) == 0
        if command == "siegel" and option == "out":
            assert (tmp_path / "out" / "rep").read_text() == "1 -1\n"
        elif command == "siegel":
            assert seen[0][option] == ([[1, 1]] if option == "matrix" else 3)
        else:
            assert seen[0][option] == (values[option] if option == "out" else int(values[option]))
        return
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert f"{command} does not read" in captured.err
    assert captured.out == ""
    assert not seen
    assert not list((tmp_path / "out").iterdir())


def _ideal_status(p):
    records = cmd_identities(RunConfig("identities", p=p)).records
    return next(r.status for r in records if r.name == "ideal-arithmetic")


@pytest.mark.parametrize("p", [5, 7])
def test_ideal_record_fails_on_wrong_stored_generators(monkeypatch, p):
    # a product that keeps only its first factor's generators still has the
    # right HNF, but the next product taken from it does not: (lambda)^(p-1)
    # comes out as a smaller power of (lambda), not (p)
    assert _ideal_status(p) == "pass"
    product = harness.CycloIdeal.__mul__

    def first_factor_gens(self, other):
        return dataclasses.replace(product(self, other), gens=self.gens)

    monkeypatch.setattr(harness.CycloIdeal, "__mul__", first_factor_gens)
    assert _ideal_status(p) == "fail"


def _exit_and_status(capsys, argv, name):
    """Exit code of the CLI on argv, and the status of one of its records."""
    code = main(argv)
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if line.startswith(name + "\t"))
    return code, line.split("\t")[1]


def test_norm_chain_record_fails_on_a_wrong_pairing(monkeypatch, capsys):
    # with conj the identity, Tr(x conj x) = p sum_j x_j x_{p-j}, not
    # p sum x_c^2: the pairing identity is the record's predicate
    argv = ["identities", "--p", "5"]
    assert _exit_and_status(capsys, argv, "norm-chain") == (0, "pass")
    monkeypatch.setattr(harness.CycloInt, "conj", lambda self: self)
    assert _exit_and_status(capsys, argv, "norm-chain") == (1, "fail")


def test_fueter_record_fails_on_a_weight_two_element(monkeypatch, capsys):
    real = harness.fueter
    monkeypatch.setattr(harness, "fueter", lambda p, n: real(p, n).scale(2))
    assert _exit_and_status(capsys, ["identities", "--p", "7"],
                            "fueter-difference") == (1, "fail")


def test_irregularity_record_fails_without_lepisto(monkeypatch, capsys):
    real = harness.bernoulli_profile
    monkeypatch.setattr(harness, "bernoulli_profile",
                        lambda p: dataclasses.replace(real(p), lepisto_ok=False))
    assert _exit_and_status(capsys, ["identities", "--p", "7"],
                            "irregularity-profile") == (1, "fail")


def test_digit_table_record_fails_on_a_moved_digit(monkeypatch, capsys):
    # digit (1, 0) sits at order y^1, below the cutoff depth - 1
    real = harness.series.double_table

    def tampered(table, rho, x, y, depth):
        dt = real(table, rho, x, y, depth)
        return dataclasses.replace(dt, entries={**dt.entries,
                                                (1, 0): _moved(dt.entry(1, 0), 0, y)})

    argv = ["pipeline", "--p", "5", "--x", "3", "--y", "22"]
    assert _exit_and_status(capsys, argv, "digit-table")[1] == "pass"
    monkeypatch.setattr(harness.series, "double_table", tampered)
    assert _exit_and_status(capsys, argv, "digit-table") == (1, "fail")


def test_perturbation_record_fails_on_the_sup_bound(capsys):
    # at (13, 3, 35) a basis twist leaves a coordinate of size y: the ranks
    # are still 1..12, and the sup bound fails
    argv = ["pipeline", "--p", "13", "--x", "3", "--y", "35"]
    assert _exit_and_status(capsys, argv, "perturbation-pass") == (1, "fail")
    rec = _record(cmd_pipeline(RunConfig("pipeline", p=13, x=3, y=35)), "perturbation-pass")
    assert rec.status == "fail"
    assert rec.outputs["worst_sup"] == 35 and rec.outputs["ranks"] == list(range(1, 13))
