"""Request streams for the three workloads.

A workload is a fixed round of request slots, repeated.  Each slot fixes the
command and its size class (period exponent r, number of degrees s, n or row
count), so the cost of a round does not depend on the seed; the seed only picks
the degree bits.  Degree sets are drawn until every orbit level t >= 1
survives and x - 2 survives exactly when c0 != 0.  That fixes the minimal
polynomial (the product of all factors of its r), hence the cost of stepping,
verifying and expanding; the asymptotics pool also fixes how many entries of
the top orbit vector are nonzero, which sets the cost of the mpmath step.

* sums: every request gets a fresh degree set.  One slot in 20 is a `sum`
  whose S(n) has more than 4300 decimal digits; at the seed commit those exit 2
  (the interpreter's int->str limit), so they count as failures.
* structure: every request gets a fresh degree set.
* asymptotics: requests draw from a per-seed pool of c0 = 0 sets, so requests
  share degree sets; this is the only workload where cross-request reuse can
  pay.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from reference import (
    c0_inclusion_exclusion,
    format_degree,
    orbit_structure,
    required_bits,
    signs_pascal,
)

WORKLOADS = ("sums", "structure", "asymptotics")

# sums slots: (command, r, s, size).  size is n for sum, max_n for balanced and
# M for recurrence --verify.  "sum!" is the over-limit sum (exit 2 at the seed).
SUMS_ROUND = (
    ("sum", 3, 4, 2000),
    ("balanced", 6, 3, 2000),
    ("sum", 4, 3, 2430),
    ("verify", 6, 3, 1000),
    ("sum", 5, 3, 2950),
    ("sum", 6, 3, 3590),
    ("balanced", 5, 3, 4500),
    ("verify", 4, 3, 20000),
    ("sum", 4, 3, 4360),
    ("sum", 5, 3, 5290),
    ("sum!", 5, 3, 24000),
    ("sum", 6, 3, 6430),
    ("balanced", 4, 3, 10000),
    ("verify", 4, 3, 20000),
    ("sum", 4, 3, 7810),
    ("sum", 5, 3, 9490),
    ("sum", 6, 3, 11530),
    ("balanced", 3, 3, 20000),
    ("sum", 5, 3, 14000),
    ("verify", 4, 3, 20000),
)

# structure slots: (full, r, s).
STRUCTURE_ROUND = tuple(
    (full, r, 3) for _ in range(2) for r in range(6, 11) for full in (False, True)
) + ((False, 11, 3),)

# asymptotics pool: analytic sets as (r, s, nonzero entries of the top orbit
# vector) and wide sets by degree count.
ANALYTIC = ((4, 3, 2), (6, 4, 8), (8, 4, 16), (10, 4, 32))
WIDE_S = (10, 12, 14, 16)
WIDE_LOW_BITS = (0, 1, 2, 3, 4)
WIDE_HIGH_BITS = (10000, 100000, 1000000)

# asymptotics slots: ("asym", r, n) | ("error-table", r, rows, max_row) | ("c0", s).
ASYMPTOTICS_ROUND = (
    ("asym", 4, 5000),
    ("c0", 10),
    ("asym", 10, 100),
    ("error-table", 4, 50, 5000),
    ("asym", 6, 2500),
    ("c0", 12),
    ("asym", 8, 1000),
    ("error-table", 6, 30, 3000),
    ("asym", 4, 1000),
    ("c0", 14),
    ("asym", 10, 300),
    ("error-table", 8, 20, 1500),
    ("asym", 6, 500),
    ("c0", 16),
    ("asym", 8, 200),
    ("error-table", 10, 10, 500),
)

# Tiny rounds for --smoke: n <= 20 reaches the brute-force oracle.
SMOKE_SUMS = (("sum", 3, 2, 5), ("sum", 4, 3, 20), ("balanced", 3, 2, 40), ("verify", 4, 2, 60))
SMOKE_STRUCTURE = ((False, 3, 2), (True, 4, 2), (False, 5, 3))
SMOKE_ANALYTIC = ((3, 3, 2), (4, 3, 2))
SMOKE_WIDE_S = (4,)
SMOKE_ASYMPTOTICS = (
    ("asym", 3, 60), ("error-table", 4, 3, 30), ("c0", 4), ("asym", 4, 20),
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the checker needs to know about it."""

    index: int
    command: str
    argv: tuple[str, ...]
    degrees: tuple[tuple[int, ...], ...]
    r: int
    params: dict = field(compare=False)
    reported_values: int = 0
    """S(n) values the report depends on (for expsum.sequence.useful_ratio)."""


def _bits(k: int) -> tuple[int, ...]:
    return tuple(i for i in range(k.bit_length()) if k >> i & 1)


def _degree_text(bits) -> str:
    """README-style text: '2^1000000+5' keeps huge bits as powers, sums the rest."""
    high = [b for b in sorted(bits, reverse=True) if b >= 64]
    low = sum(1 << b for b in bits if b < 64)
    return "+".join([f"2^{b}" for b in high] + ([str(low)] if low else []))


FRESH_ATTEMPTS = 500
"""Draws before a fresh-set slot accepts a set used earlier in the stream (only the
r = 3 slot of sums can run out: it has 33 eligible sets)."""


def draw_set(rng: random.Random, r: int, s: int, *, c0_zero: bool = False,
             top_orbit: int | None = None, used: set | None = None) -> tuple[int, ...]:
    """Degrees k_1 < ... < k_s with top bit r - 1 and every orbit level 1..r-1 surviving.

    Without c0_zero the factor x - 2 must survive as well (full order 2**r - 1);
    with it, c0 = 0 by the generator's own inclusion-exclusion (order 2**r - 2).
    top_orbit fixes the number of nonzero entries of the level r - 1 orbit vector,
    which sets the cost of evaluating the main term.  With `used`, prefers a set
    not drawn before and records the one returned.
    """
    want = frozenset(range(1, r))
    attempts = 0
    while True:
        top = rng.randrange(1 << (r - 1), 1 << r)
        ks = tuple(sorted(rng.sample(range(1, top), s - 1) + [top]))
        if c0_zero and c0_inclusion_exclusion([_bits(k) for k in ks]) != 0:
            continue
        signs = signs_pascal(ks, r)
        x2, levels, _ = orbit_structure(signs)
        if levels != want or x2 == c0_zero:
            continue
        half = 1 << (r - 1)
        if top_orbit is not None and top_orbit != sum(
            1 for i in range(half) if signs[i] != signs[i + half]
        ):
            continue
        attempts += 1
        if used is None:
            return ks
        if ks not in used or attempts > FRESH_ATTEMPTS:
            used.add(ks)
            return ks


def draw_wide_set(rng: random.Random, s: int) -> tuple[tuple[int, ...], ...]:
    """s distinct sparse degrees over a few low bits and huge bits, with c0 = 0."""
    alphabet = WIDE_LOW_BITS + WIDE_HIGH_BITS
    while True:
        chosen = set()
        while len(chosen) < s:
            # Degree weights cycle through 1..4, so the subsets' union sizes, and
            # with them the cost of c0, do not depend on the seed.
            size = 1 + len(chosen) % 4
            chosen.add(tuple(sorted(rng.sample(alphabet, size))))
        bit_sets = sorted(chosen, key=lambda b: tuple(sorted(b, reverse=True)))
        if c0_inclusion_exclusion(bit_sets) == 0:
            return tuple(bit_sets)


def _request(numbers, command, argv, degrees, r, params, reported=0) -> Request:
    return Request(next(numbers), command, tuple(argv), tuple(degrees), r, params, reported)


def _degrees_arg(bit_sets) -> str:
    return ",".join(_degree_text(b) for b in bit_sets)


def _sums_round(rng, numbers, slots, used):
    out = []
    for command, r, s, size in slots:
        ks = draw_set(rng, r, s, used=used)
        bit_sets = [_bits(k) for k in ks]
        degrees = ",".join(map(str, ks))
        if command in ("sum", "sum!"):
            argv = ["sum", "--degrees", degrees, "--n", str(size)]
            out.append(_request(numbers, "sum", argv, bit_sets, r, {"n": size}))
        elif command == "balanced":
            argv = ["balanced", "--degrees", degrees, "--max-n", str(size)]
            out.append(_request(numbers, "balanced", argv, bit_sets, r, {"max_n": size}, size))
        else:
            argv = ["recurrence", "--degrees", degrees, "--verify", str(size)]
            out.append(
                _request(numbers, "recurrence", argv, bit_sets, r, {"verify": size}, size + 1)
            )
    return out


def _structure_round(rng, numbers, slots, used):
    out = []
    for full, r, s in slots:
        ks = draw_set(rng, r, s, used=used)
        argv = ["recurrence", "--degrees", ",".join(map(str, ks))] + (["--full"] if full else [])
        out.append(
            _request(numbers, "recurrence", argv, [_bits(k) for k in ks], r, {"full": full})
        )
    return out


class _Pool:
    """Per-seed c0 = 0 degree sets shared by the asymptotics requests."""

    def __init__(self, rng, analytic, wide_s):
        self.analytic = {
            r: [_bits(k) for k in draw_set(rng, r, s, c0_zero=True, top_orbit=nonzero)]
            for r, s, nonzero in analytic
        }
        self.wide = {s: draw_wide_set(rng, s) for s in wide_s}


def _asymptotics_round(pool, numbers, slots):
    out = []
    for slot in slots:
        if slot[0] == "c0":
            bit_sets = pool.wide[slot[1]]
            argv = ["c0", "--degrees", _degrees_arg(bit_sets)]
            r = max(max(b) for b in bit_sets) + 1
            out.append(_request(numbers, "c0", argv, bit_sets, r, {}))
            continue
        r = slot[1]
        bit_sets = pool.analytic[r]
        degrees = _degrees_arg(bit_sets)
        if slot[0] == "asym":
            n = slot[2]
            bits = required_bits(n, r)
            argv = ["asym", "--degrees", degrees, "--n", str(n), "--precision", str(bits)]
            out.append(_request(numbers, "asym", argv, bit_sets, r, {"n": n, "precision": bits}, 1))
        else:
            count, top = slot[2], slot[3]
            rows = [top * (i + 1) // count for i in range(count)]
            bits = required_bits(top, r)
            argv = [
                "error-table", "--degrees", degrees,
                "--rows", ",".join(map(str, rows)), "--precision", str(bits),
            ]
            out.append(
                _request(numbers, "error-table", argv, bit_sets, r,
                             {"rows": rows, "precision": bits}, len(set(rows)))
            )
    return out


def rounds(workload: str, seed: int, *, smoke: bool = False):
    """Endless stream of rounds (lists of Requests) for a workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"boolsum-perfbench:{workload}:{seed}:{int(smoke)}")
    numbers = itertools.count()
    used = set()
    if workload == "asymptotics":
        pool = _Pool(rng, SMOKE_ANALYTIC if smoke else ANALYTIC,
                     SMOKE_WIDE_S if smoke else WIDE_S)
    while True:
        if workload == "sums":
            yield _sums_round(rng, numbers, SMOKE_SUMS if smoke else SUMS_ROUND, used)
        elif workload == "structure":
            yield _structure_round(rng, numbers, SMOKE_STRUCTURE if smoke else STRUCTURE_ROUND, used)
        else:
            yield _asymptotics_round(pool, numbers, SMOKE_ASYMPTOTICS if smoke else ASYMPTOTICS_ROUND)


def canonical_degrees(req: Request) -> list[str]:
    """The degree list a correct report echoes, in ascending numeric order."""
    ordered = sorted(req.degrees, key=lambda b: tuple(sorted(b, reverse=True)))
    return [format_degree(b) for b in ordered]
