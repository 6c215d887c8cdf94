"""Check suites, solution search, the end-to-end pipeline, and reports.

Every command produces a Report: a list of per-check records with exact
inputs/outputs and a pass/fail/waived status.  Reports serialize to a stable
JSON tree plus a flat TSV summary; with a fixed seed the bytes are identical
across runs (the body holds no timings).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, asdict
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import lattice, linalg, series, semilocal
from .cyclotomic import (
    CycloInt,
    CycloIdeal,
    characteristic_data,
    congruent_mod_uniformizer_power,
    equation_value,
    kappa,
    lambda_expand,
    trace_coordinate_residues,
    trace_product_coordinate_identity,
    uniformizer,
    inverse_uniformizer_numerator,
)
from .group_ring import (
    GroupRingElement,
    idempotent_mod_p,
    is_prime,
    prime_power_split,
    subgroups,
    weights,
)
from .stickelberger import (
    bernoulli_profile,
    construct_weight2_annihilator,
    fermat_quotient,
    fermat_quotient_classical,
    fuchsian,
    fueter,
    modified_idempotent,
    theta_p,
)


@dataclass
class RunConfig:
    command: str
    p: int = 5
    q: Optional[int] = None
    e: Optional[int] = None
    bound: int = 20
    x: Optional[int] = None
    y: Optional[int] = None
    precision: int = 6
    level: int = 4
    seed: int = 0
    out: Optional[str] = None

    def validate(self) -> Optional[str]:
        if not is_prime(self.p) or self.p < 3:
            return f"p = {self.p} is not an odd prime"
        if self.q is not None and (not is_prime(self.q) or self.q == self.p):
            return f"q = {self.q} must be a prime different from p"
        if self.e is not None and self.e not in (0, 1):
            return "e must be 0 or 1"
        if self.bound < 1:
            return "bound must be positive"
        if self.bound > 10 ** 6:
            return "bound exceeds the search guard (10^6)"
        return None


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: str                    # 'pass' | 'fail' | 'waived'
    inputs: Dict
    outputs: Dict
    arithmetic: str = "exact"      # 'exact' | 'mod ...' | 'certified-float ...'
    note: str = ""


@dataclass
class Report:
    command: str
    config: Dict
    records: List[CheckRecord] = field(default_factory=list)

    def add(self, name: str, anchor: str, ok: bool, inputs: Dict, outputs: Dict,
            arithmetic: str = "exact", note: str = "", waived: bool = False) -> None:
        status = "waived" if waived else ("pass" if ok else "fail")
        self.records.append(CheckRecord(name, anchor, status,
                                        _plain(inputs), _plain(outputs), arithmetic, note))

    @property
    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "waived": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def to_json(self) -> str:
        tree = {
            "command": self.command,
            "config": _plain(self.config),
            "records": [vars(r) for r in self.records],   # Report.add stored plain copies
            "summary": self.counts,
        }
        return json.dumps(tree, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"

    def to_tsv(self) -> str:
        lines = ["name\tstatus\tanchor\tarithmetic"]
        for r in self.records:
            lines.append(f"{r.name}\t{r.status}\t{r.anchor}\t{r.arithmetic}")
        c = self.counts
        lines.append(f"#summary\tpass={c['pass']} fail={c['fail']} waived={c['waived']}\t\t")
        return "\n".join(lines) + "\n"


def _plain(obj):
    """JSON-safe copy: Fractions to strings, tuples to lists, keys to str."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, CycloInt):
        return [str(c) for c in obj.coords]
    if isinstance(obj, GroupRingElement):
        return list(obj.coeffs)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < 10 ** 15 else str(obj)
    if isinstance(obj, float):
        return round(obj, 12)
    return str(obj)


# ---------------------------------------------------------------------------------
# identities


def cmd_identities(cfg: RunConfig) -> Report:
    report = Report("identities", asdict(cfg))
    p = cfg.p
    if not 5 <= p <= 101:
        raise ValueError(f"the identity suite runs at primes 5 <= p <= 101, not p = {p}")
    rng = random.Random(cfg.seed)
    zeta = CycloInt.zeta_power(p, 1)
    one = CycloInt.from_rational(p, 1)

    # exact uniformizer identities
    inv_num = inverse_uniformizer_numerator(p)
    report.add("inverse-uniformizer-sum", "uniformizer-inverse-as-weighted-root-sum",
               inv_num * uniformizer(p) == CycloInt.from_rational(p, p),
               {"p": p}, {"identity": "p/(1-zeta) = -(zeta + 2 zeta^2 + ...)"})
    acc = CycloInt.zero(p)
    for c in range(1, p):
        acc = acc + inv_num.galois(c)
    report.add("unit-fraction-sum", "sum-of-inverse-uniformizer-conjugates",
               acc.as_rational() == p * (p - 1) // 2,
               {"p": p}, {"p*sum": str(acc.as_rational())})

    # Fuchsian / Fueter structure.  psi_n = Theta_{n+1} - Theta_n (psi_1 =
    # Theta_2) is how `fueter` is defined, so only the weights can fail.
    ok = all(w.relative == 1 and w.nonnegative
             for w in (weights(fueter(p, n)) for n in range(1, (p - 1) // 2 + 1)))
    report.add("fueter-difference", "fueter-equals-fuchsian-difference", ok,
               {"p": p}, {"count": (p - 1) // 2})

    ok = all(fermat_quotient(fuchsian(p, n)) == fermat_quotient_classical(p, n)
             for n in range(2, p + 1))
    report.add("fuchsian-quotient-closed-form", "fermat-quotient-of-fuchsian", ok,
               {"p": p, "n": f"2..{p}"}, {}, arithmetic=f"mod {p}")
    report.add("fermat-quotient-top", "quotient-of-top-fuchsian-is-minus-one",
               fermat_quotient(theta_p(p)) == p - 1,
               {"p": p}, {"value": fermat_quotient(theta_p(p))}, arithmetic=f"mod {p}")

    # quotient linearity and the root-of-unity action
    lin_ok, act_ok = True, True
    for _ in range(20):
        t1 = GroupRingElement(p, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
        t2 = GroupRingElement(p, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        lhs = fermat_quotient(t1.scale(a) + t2.scale(b))
        if lhs != (a * fermat_quotient(t1) + b * fermat_quotient(t2)) % p:
            lin_ok = False
        pos = GroupRingElement(p, tuple(rng.randrange(0, 6) for _ in range(p - 1)))
        if zeta.group_ring_power(pos) != CycloInt.zeta_power(p, fermat_quotient(pos)):
            act_ok = False
    report.add("quotient-linearity", "fermat-quotient-linear", lin_ok,
               {"p": p, "seed": cfg.seed, "samples": 20}, {}, arithmetic=f"mod {p}")
    report.add("root-action-via-quotient", "zeta-to-group-ring-power", act_ok,
               {"p": p, "seed": cfg.seed, "samples": 20}, {})

    # idempotent algebra.  No pairwise product e_i e_j is formed: p does not
    # divide |G| = p - 1 and F_p holds the (p-1)-th roots of unity, so the
    # characters give F_p[G] = F_p^(p-1) (Washington, GTM 83, 6.3), where an
    # idempotent is a 0/1 vector.  If p - 1 of them sum to 1, each coordinate
    # is covered s times with s = 1 mod p and 0 <= s <= p - 1, so s = 1 and
    # they are pairwise orthogonal.
    es = [idempotent_mod_p(p, k) for k in range(p - 1)]
    total = GroupRingElement.zero(p, p)
    idem_ok = True
    for e in es:
        total = total + e
        if e * e != e:
            idem_ok = False
    if total != GroupRingElement.one(p, p):
        idem_ok = False
    twist_ok = True
    for k in range(p - 1):
        if es[k].conjugate() != es[k].scale(pow(p - 1, k, p)).reduce(p):
            twist_ok = False
        for m in (2, p - 1, rng.randrange(1, p)):
            if es[k].galois(m) != es[k].scale(pow(m, k, p)).reduce(p):
                twist_ok = False
    report.add("idempotent-algebra", "orthogonal-idempotents-decompose-unit", idem_ok,
               {"p": p}, {}, arithmetic=f"mod {p}")
    report.add("idempotent-character-twist", "automorphism-scales-idempotent-by-character",
               twist_ok, {"p": p}, {}, arithmetic=f"mod {p}",
               note="sigma_m e_k = m^k e_k; conjugation gives (-1)^k")

    # irregularity profile (two Bernoulli routes cross-checked inside).  The
    # rank bound 4 r_p >= p - 1 needs no check: r_p = (p - 1)/2 - i_p, so
    # Lepisto's 4 i_p < p - 1 gives 4 r_p > p - 1.
    prof = bernoulli_profile(p)
    report.add("irregularity-profile", "bernoulli-vanishing-profile",
               prof.lepisto_ok and prof.rank_matches,
               {"p": p},
               {"index": prof.irregularity_index, "witnesses": list(prof.irregular_indices),
                "survivor_count": prof.surviving_count, "minus_rank": prof.minus_part_rank},
               arithmetic=f"mod {p}",
               note="two independent Bernoulli routes agree; rank of the minus part matches")

    # modified idempotents: quotient values and character twist
    mod_ok = fermat_quotient((-theta_p(p)).reduce(p).lift()) == 1
    for k in range(3, p - 1, 2):
        ek = modified_idempotent(p, k)
        if fermat_quotient(ek.lift()) != 0:
            mod_ok = False
        if k in prof.surviving:
            m = rng.randrange(2, p)
            if ek.galois(m) != ek.scale(pow(m, k, p)).reduce(p):
                mod_ok = False
    report.add("modified-idempotent-quotients", "quotient-vanishes-above-first", mod_ok,
               {"p": p}, {}, arithmetic=f"mod {p}")

    # stabilizer transfer: invariance of the cofactor always passes to the
    # product with the annihilator element; a fixed product with a moving
    # cofactor can only happen when the moved difference is annihilated.
    forward_ok, boundary_ok = True, True
    converse_failures = 0
    for _ in range(10):
        t = GroupRingElement.zero(p)
        theta = GroupRingElement.zero(p)
        for _ in range(3):
            c = rng.randrange(1, p)
            n = rng.randrange(1, (p - 1) // 2 + 1)
            a = rng.randrange(-2, 3)
            base = GroupRingElement.one(p) + GroupRingElement.sigma(p, n) \
                - GroupRingElement.sigma(p, n + 1)
            t = t + base.galois(c).scale(a)
            theta = theta + fueter(p, n).galois(c).scale(a)
        for order, gen in subgroups(p):
            moved = t.galois(gen)
            t_fixed = moved == t
            theta_fixed = theta.galois(gen) == theta
            if t_fixed and not theta_fixed:
                forward_ok = False
            if theta_fixed and not t_fixed:
                converse_failures += 1
                # the moved difference must be annihilated: Theta_p u = 0
                u = moved - t
                if not (theta_p(p) * u).is_zero():
                    boundary_ok = False
    report.add("stabilizer-transfer-forward", "invariance-passes-to-annihilator-multiples",
               forward_ok, {"p": p, "seed": cfg.seed}, {})
    report.add("stabilizer-transfer-boundary", "converse-boundary-profile",
               boundary_ok, {"p": p, "seed": cfg.seed},
               {"converse_failures": converse_failures},
               note="a fixed product with a moving cofactor is possible (the even "
                    "part annihilates); occurrences are counted, not failed")

    # weight-2 annihilator
    ann = construct_weight2_annihilator(p)
    outputs = {"recipe": ann.recipe, "element": ann.element}
    if not ann.is_unfixed:
        outputs["fixed_by"] = list(ann.fixed_by)
    report.add("weight-two-annihilator", "positive-weight-two-zero-quotient-element",
               weights(ann.element).relative == 2
               and fermat_quotient(ann.element) == 0 and ann.is_unfixed,
               {"p": p}, outputs, waived=not ann.is_unfixed,
               note="" if ann.is_unfixed else
               f"no stabilizer-free candidate exists at p={p}: {_no_unfixed_element(p)}")

    # coordinate map identities
    kappa_ok, shifted_ok, pairing_ok, chain_ok = True, True, True, True
    for _ in range(200):
        x = CycloInt(p, tuple(rng.randrange(-99, 100) for _ in range(p - 1)))
        exact, _ = trace_coordinate_residues(x)
        if any(e != p * c for e, c in zip(exact, kappa(x))):
            kappa_ok = False
        y = CycloInt(p, tuple(rng.randrange(-99, 100) for _ in range(p - 1)))
        if not trace_product_coordinate_identity(x, y):
            pairing_ok = False
    for _ in range(100):
        # trace zero means coordinate sum zero: the last coordinate is minus
        # the sum of the others
        raw = [rng.randrange(-30, 31) for _ in range(p - 2)]
        raw.append(-sum(raw))
        tzero = CycloInt(p, tuple(raw))
        _, shifted = trace_coordinate_residues(tzero)
        if any(s != p * c for s, c in zip(shifted, kappa(tzero))):
            shifted_ok = False
        # The chain sup^2 <= sum x_c^2 <= (p - 1) sup^2 holds for any p - 1
        # integers; what can fail is the pairing Tr(x conj(x)) = p sum x_c^2.
        if (tzero * tzero.conj()).trace() != p * sum(c * c for c in raw):
            chain_ok = False
    report.add("kappa-trace-identity", "coordinates-extracted-by-traces", kappa_ok,
               {"p": p, "seed": cfg.seed, "samples": 200},
               {"form": "p kappa(x)_c = Tr((zeta^-c - 1) x)"})
    report.add("kappa-trace-identity-shifted", "shifted-trace-form-on-trace-zero",
               shifted_ok, {"p": p, "seed": cfg.seed},
               {"form": "p kappa(x)_c = Tr((1 + zeta^-c) x) on trace-zero x"})
    report.add("pairing-coordinate-identity", "trace-of-product-in-coordinates",
               pairing_ok, {"p": p, "seed": cfg.seed, "samples": 200}, {})
    report.add("norm-chain", "sup-pairing-euclidean-chain", chain_ok,
               {"p": p, "seed": cfg.seed, "samples": 100}, {})

    # ideals
    lam_ideal = CycloIdeal.principal(uniformizer(p))
    ideal_ok = (lam_ideal ** (p - 1)) == CycloIdeal.principal(CycloInt.from_rational(p, p))
    for _ in range(3):
        a = CycloInt(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
        b = CycloInt(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
        if a.is_zero() or b.is_zero():
            continue
        ia, ib = CycloIdeal.principal(a), CycloIdeal.principal(b)
        iab = ia * ib
        if iab != CycloIdeal.principal(a * b):
            ideal_ok = False
        if ia.norm() * ib.norm() != iab.norm():
            ideal_ok = False
    report.add("ideal-arithmetic", "uniformizer-power-and-products", ideal_ok,
               {"p": p, "seed": cfg.seed}, {})

    # series identities (kept small here; the full suite lives in the tests)
    psi1 = fueter(p, 1)
    tab = series.binom_coeffs(psi1, 6, full=True)
    power = series.pth_power_check(tab, 4)
    report.add("series-power-identity", "full-series-q-th-power-closes", power.ok,
               {"p": p, "theta": psi1, "order": 4}, {})
    bounds_ok = all(series.coeff_bound_check(tab, m).holds for m in range(7))
    report.add("series-dominance", "coefficient-dominance-bounds", bounds_ok,
               {"p": p, "order": 6}, {}, arithmetic="certified-float margin 2^-20")

    ws = series.wieferich_sums(p)
    report.add("ramified-congruences", "half-sum-and-skew-congruences",
               ws.half_congruence and ws.skew_congruence and ws.skew_nonzero
               and ws.conjugate_sum_ok and ws.flipped_for_lower_half,
               {"p": p}, {}, arithmetic=f"mod {p} in the cyclotomic ring")

    # semilocal spot checks at a tiny base (2p+1 is odd and prime to p)
    yb = 2 * p + 1
    report.add("semilocal-sum", "summed-series-q-th-power-closes",
               series.sl_power_check(tab, 2, yb, 3),
               {"p": p, "x": 2, "y": yb, "precision": 3}, {}, arithmetic=f"mod {yb}^3")
    conj = None if p <= 13 else [2, 3, p - 1]
    report.add("semilocal-equivariance", "conjugation-commutes-with-summation",
               series.equivariance_check(tab, conjugates=conj),
               {"p": p, "order": 6, "conjugates": "all" if conj is None else conj}, {})

    digits_ok = True
    m = yb ** 3
    for _ in range(20):
        u = semilocal.SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        d = semilocal.y_digits(u, 3, yb)
        if d.assemble(m) != u or not all(semilocal.in_balanced_set(t, yb) for t in d.digits):
            digits_ok = False
    report.add("digit-roundtrip", "balanced-digits-reassemble", digits_ok,
               {"p": p, "y": yb, "seed": cfg.seed}, {})

    return report


def _no_unfixed_element(p: int) -> str:
    """The note of both records that fall back when no weight-2 annihilator
    is stabilizer-free (p = 5, 7)."""
    return (f"no positive relative-weight-2 element with zero Fermat quotient and "
            f"trivial stabilizer exists at p={p}")


# ---------------------------------------------------------------------------------
# search


def cmd_search(cfg: RunConfig) -> Report:
    report = Report("search", asdict(cfg))
    p, bound = cfg.p, cfg.bound
    zq = cfg.q if cfg.q is not None else p
    es = (0, 1) if cfg.e is None else (cfg.e,)
    hits: List[Tuple[int, int, int, int]] = []
    visited = 0
    for x in range(1, bound + 1):
        for y in range(-x + 1, x + 1):
            if y == 0 or x + y == 0:
                continue
            if y > 0 and y == x and x != 1:
                continue
            if math.gcd(x, abs(y)) != 1:
                continue
            if x == 1 and y == 1:
                # (1, 1, 1) with e = 0 solves the equation for every p; this
                # unit-scale instance is excluded and recorded separately.
                continue
            visited += 1
            val = equation_value(p, x, y)
            for e in es:
                rest = val
                if e == 1:
                    if rest % p != 0:
                        continue
                    rest //= p
                z = linalg.is_perfect_power(rest, zq)
                if z is not None and z != 0:
                    if math.gcd(math.gcd(x, abs(y)), abs(z)) == 1:
                        hits.append((x, y, z, e))
    expected = 1 + 2 * sum(_euler_phi(x) for x in range(2, bound + 1)) - 1
    # visited excludes (1,1); phi-count: for each x >= 2 the coprime y in
    # 1..x-1 and their negatives; (1,1) would add one more.
    report.add("search-accounting", "visited-pairs-match-totient-count",
               visited == expected, {"p": p, "bound": bound},
               {"visited": visited, "expected": expected})
    report.add("trivial-instance-excluded", "unit-scale-instance-noted",
               equation_value(p, 1, 1) == 1,
               {"p": p}, {"instance": [1, 1, 1, 0]},
               note="(1,1,1,e=0) satisfies the equation for every p; excluded as unit-scale")

    validated = []
    for (x, y, z, e) in hits:
        if zq != p:
            validated.append({"x": x, "y": y, "z": z, "e": e, "checks": "norm-form only"})
            continue
        data = characteristic_data(p, e, x, y, z)
        validated.append({
            "x": x, "y": y, "z": z, "e": e,
            "norm_is_power": data.norm_is_zp,
            "ideal_pth_power_principal": data.ideal_pth_power_is_alpha,
            "ideal_norm_matches": data.ideal_norm_is_z,
            "conjugates_coprime": data.conjugates_coprime,
            "size_bounds_apply": data.size_bounds_apply,
            "size_bounds_hold": data.size_bounds_hold,
        })
        report.add(f"hit-validation-{x}-{y}-{z}-{e}", "characteristic-data-checks",
                   data.all_identity_checks,
                   {"p": p, "x": x, "y": y, "z": z, "e": e},
                   {"norm": data.alpha.norm()})
    report.add("search-hits", "exhaustive-scan-results",
               all(equation_value(p, x, y) == p ** e * z ** zq
                   and math.gcd(math.gcd(x, y), z) == 1 for x, y, z, e in hits),
               {"p": p, "q": zq, "bound": bound, "e": list(es)},
               {"count": len(hits), "hits": validated})
    return report


def _euler_phi(n: int) -> int:
    return math.prod(r ** (a - 1) * (r - 1) for r, a in prime_power_split(n))


# ---------------------------------------------------------------------------------
# pipeline


def cmd_pipeline(cfg: RunConfig) -> Report:
    report = Report("pipeline", asdict(cfg))
    p = cfg.p
    x = cfg.x if cfg.x is not None else 3
    y = cfg.y if cfg.y is not None else 22
    if y == 0 or math.gcd(x, y) != 1:
        raise ValueError("pipeline needs a coprime pair with y nonzero")

    if p == 3:
        return _pipeline_true_solution(cfg, report)

    if y < 2:
        raise ValueError(f"the digit base y = {y} must be at least 2: the semilocal "
                         "stages work modulo powers of y")
    if cfg.precision < 1:
        raise ValueError(f"the precision {cfg.precision} must be at least 1: the "
                         "semilocal sum works modulo y to that power")
    if cfg.level < 1:
        raise ValueError(f"the level {cfg.level} must be at least 1: it is the "
                         "vanishing order of the twist stage")
    if math.gcd(y, p) != 1:
        raise ValueError("the ramified digit base is out of the semilocal route")
    if semilocal.count_primes_above(p, y) == 1:
        raise ValueError(f"y = {y} is a power of a prime inert in Q(zeta_{p}): every "
                         "p-th root of unity modulo y is global, so none is nontrivial")

    # stage 0: the driving exponent element; without a stabilizer-free
    # annihilator (p = 5, 7) the doubled first generator drives the series
    ann = construct_weight2_annihilator(p)
    theta = ann.element if ann.is_unfixed else fueter(p, 1).scale(2)
    w = weights(theta)
    report.add("exponent-element", "weight-two-zero-quotient-driver",
               w.relative == 2 and w.nonnegative and fermat_quotient(theta) == 0,
               {"p": p},
               {"element": theta,
                "recipe": ann.recipe if ann.is_unfixed else "doubled-first-generator"},
               waived=not ann.is_unfixed,
               note="" if ann.is_unfixed else
               f"{_no_unfixed_element(p)}; using the doubled first generator (nonzero "
               "quotient); the local stages use a synthetic root of unity and are unaffected")

    depth = max(cfg.level + 2, 6, lattice.guard_depth(p))
    order = max(depth + 2, cfg.precision + 2)
    tab = series.binom_coeffs(theta, order, full=True)
    power = series.pth_power_check(tab, min(6, order))
    report.add("series-power", "full-series-q-th-power-closes", power.ok,
               {"p": p, "order": min(6, order)}, {})

    report.add("semilocal-sum", "summed-series-q-th-power-closes",
               series.sl_power_check(tab, x, y, cfg.precision),
               {"p": p, "x": x, "y": y, "precision": cfg.precision}, {},
               arithmetic=f"mod {y}^{cfg.precision}")
    report.add("semilocal-equivariance", "conjugation-commutes-with-summation",
               series.equivariance_check(tab), {"p": p, "order": order}, {})

    rho = semilocal.synthetic_root_of_unity(p, y, depth + 1, seed=cfg.seed)
    report.add("root-of-unity", "semilocal-root-nontrivial",
               (rho ** p).is_one(),
               {"p": p, "y": y, "seed": cfg.seed}, {},
               arithmetic=f"mod {y}^{depth + 1}",
               note="synthetic stand-in: no true solution exists, so the root is "
                    "constructed locally rather than extracted from a global value")

    # The rows need no check of their own: balanced_digit lands in (-y/2, y/2]
    # and each step of y_digits divides exactly, so a row's digits are
    # balanced and reassemble it mod y^k.  The double sum can fail.
    dtable = series.double_table(tab, rho, x, y, depth)
    report.add("digit-table", "digit-rows-and-reassembly",
               series.reassembly_check(dtable, tab, depth - 1),
               {"p": p, "depth": depth}, {}, arithmetic=f"mod {y}^{depth - 1}")

    # The ranks are 1, 2, ..., p - 1 by construction: each step records the
    # rank after an add that enlarged the span (a basis twist adds a vector
    # that `contains` refused, on the same reduction), or raises RankStuck.
    # The bounds and the preserved sum can fail.
    mtable = lattice.perturb_for_independence(dtable)
    worst, sup_ok = mtable.sup_certificate()
    carry, carry_ok = mtable.carry_certificate()
    sum_ok = lattice.sum_preservation_check(mtable, depth - 1)
    report.add("perturbation-pass", "independence-with-sum-preserved",
               sup_ok and carry_ok and sum_ok,
               {"p": p, "y": y, "depth": depth},
               {"ranks": mtable.ranks, "worst_sup": worst, "worst_carry": carry,
                "actions": [s.action for s in mtable.steps]},
               arithmetic=f"mod {y}^{depth - 1}")

    try:
        sel = lattice.inhomogeneous_select(mtable, level=cfg.level)
        waived = bool(sel.waivers)
        report.add("twist-selection", "short-vector-with-nonzero-pivot-pairing",
                   sel.homogeneous_ok and sel.pivot_pairing != 0 and sel.leading_digit_ok,
                   {"p": p, "requested_level": cfg.level},
                   {"twist": sel.twist_index, "level": sel.level,
                    "pivot_pairing": sel.pivot_pairing, "box_radius": sel.box_radius,
                    "witness": sel.witness, "trace_zero": sel.trace_zero},
                   waived=waived,
                   note="; ".join(sel.waivers) if waived else "")
        level_for_clash = sel.level
    except lattice.SolverIncomplete as exc:
        report.add("twist-selection", "short-vector-with-nonzero-pivot-pairing",
                   False, {"p": p}, {"error": str(exc)})
        level_for_clash = cfg.level

    z_scale = max(2 * p + 1, abs(y) - 1)
    upper_dominates = lattice.bound_clash(p, abs(y), z_scale, level=level_for_clash)
    scale_ok = lattice.displayed_chain_holds(p, abs(y))
    report.add("bound-clash", "upper-bound-against-vanishing-order",
               upper_dominates,
               {"p": p, "y": abs(y), "z_scale": z_scale, "level": level_for_clash},
               {"upper_dominates": upper_dominates,
                "closing_chain_holds": scale_ok},
               waived=not scale_ok,
               note="" if scale_ok else
               "the closing inequality needs p > 41: clash stage is demonstrative here")
    return report


def _pipeline_true_solution(cfg: RunConfig, report: Report) -> Report:
    p = 3
    x = cfg.x if cfg.x is not None else 19
    y = cfg.y if cfg.y is not None else 18
    val = equation_value(p, x, y)
    e = 1 if val % p == 0 else 0
    rest = val // (p ** e)
    z = linalg.is_perfect_power(rest, p)
    if z is None:
        raise ValueError(f"({x}, {y}) is not a solution instance at p = 3")
    data = characteristic_data(p, e, x, y, z)
    report.add("characteristic-data", "characteristic-number-and-ideal",
               data.all_identity_checks,
               {"p": p, "x": x, "y": y, "z": z, "e": e},
               {"alpha": data.alpha, "norm": data.alpha.norm(),
                "ideal_norm": data.ideal.norm()})

    # canonical-generator congruence on annihilator powers with zero quotient:
    # exactly one unit +-zeta^k normalizes the power to 1 mod lambda^2, and
    # with vanishing quotient the root-of-unity part is trivial (sign free).
    alpha = data.alpha
    cong_ok = True
    checked = []
    norm_elem = GroupRingElement.norm_element(p)
    candidates = [norm_elem, norm_elem.scale(2), fueter(p, 1).scale(p)]
    one = CycloInt.from_rational(p, 1)
    for theta in candidates:
        if fermat_quotient(theta) != 0:
            continue
        gamma = alpha.group_ring_power(theta)
        units = []
        for k in range(p):
            for s in (1, -1):
                u = CycloInt.zeta_power(p, k).scale(s)
                if congruent_mod_uniformizer_power(u * gamma, one, 2):
                    units.append((s, k))
        okc = len(units) == 1 and units[0][1] == 0
        if e == 1:
            # ramified route: the power itself matches the (-y)-power sign
            w_abs = sum(theta.coeffs)
            target = CycloInt.from_rational(p, (-y) ** w_abs)
            okc = congruent_mod_uniformizer_power(gamma, target, max(p - 2, 1))
        checked.append({"theta": theta, "units": units, "ok": okc})
        cong_ok = cong_ok and okc
    report.add("canonical-generator-congruence", "generator-one-mod-lambda-squared",
               cong_ok, {"p": p, "x": x, "y": y, "e": e}, {"checked": checked},
               arithmetic="mod lambda^2" if e == 0 else f"mod lambda^{max(p - 2, 1)}")

    lam_digits = lambda_expand(alpha, 6)
    report.add("uniformizer-digits", "balanced-digit-expansion-of-alpha",
               congruent_mod_uniformizer_power(lam_digits.partial_sum(), alpha, 6),
               {"p": p}, {"digits": list(lam_digits.digits),
                          "terminated": lam_digits.terminated})
    return report


# ---------------------------------------------------------------------------------
# report files


def write_report(report: Report, out_base: str) -> List[str]:
    paths = []
    json_path = out_base + ".json"
    with open(json_path, "w", encoding="ascii") as f:
        f.write(report.to_json())
    paths.append(json_path)
    tsv_path = out_base + ".tsv"
    with open(tsv_path, "w", encoding="ascii") as f:
        f.write(report.to_tsv())
    paths.append(tsv_path)
    return paths


def cmd_report(cfg: RunConfig) -> List[str]:
    """Re-render the flat summary from a stored JSON report."""
    if not cfg.out:
        raise ValueError("report rendering needs --out pointing at a stored report base")
    json_path = cfg.out + ".json"
    with open(json_path, encoding="ascii") as f:
        tree = json.load(f)
    if not (isinstance(tree, dict) and isinstance(tree.get("command"), str)
            and isinstance(tree.get("config"), dict) and isinstance(tree.get("records"), list)):
        raise ValueError(f"{json_path} is not a report: needs command, config and records")
    report = Report(tree["command"], tree["config"])
    record_keys = {item.name for item in fields(CheckRecord)}
    for i, rec in enumerate(tree["records"]):
        if not isinstance(rec, dict) or set(rec) != record_keys:
            raise ValueError(f"{json_path}: record {i} does not have the fields "
                             f"{', '.join(sorted(record_keys))}")
        if rec["status"] not in ("pass", "fail", "waived"):
            raise ValueError(f"{json_path}: record {i} has status {rec['status']!r}")
        report.records.append(CheckRecord(**rec))
    tsv_path = cfg.out + ".tsv"
    with open(tsv_path, "w", encoding="ascii") as f:
        f.write(report.to_tsv())
    return [tsv_path]
