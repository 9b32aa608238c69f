"""Seeded inputs for the benchmark workloads.

Everything here is plain data (strings, tuples, JSON-ready dicts) built
from ``random.Random`` seeded by the workload name and the benchmark
seed, so one seed always gives the same inputs and the library under
test only ever sees what this module hands it.  Nothing here imports
foxtwist: the nabla series are expanded with integer arithmetic of
their own.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0

# Distinct seeded instances per grid cell; the timed loop cycles through them.
INSTANCES = 8

# Cell name -> (genus, degree, support).  The support is how many
# generators have a nonzero exponent sum in the curve word: the cost of
# a twist follows it closely (genus 1 degree 6 takes about 0.34 s with
# support 1 and 0.9 s with support 2), so each cell fixes it and the
# seed cannot shift the mix.  Support 1 at genus 1 is the class of the
# ROADMAP curve a b a b^-1, support 4 that of a1 b2 a2^-1 b1.
#
# The degrees are below the ROADMAP grid (genus 1 degrees 5-8, genus 2
# degrees 4-7, genus 3 degrees 4-6): at degree 7 one genus-1 op, and at
# degree 4 one genus-2 or genus-3 op, takes 2.5-3 s, too long for a run
# of a few tens of seconds to collect the samples a tail percentile
# needs.  Grow it once twists get faster.
TWIST_CELLS = {
    "g1d5": (1, 5, 2),
    "g1d6": (1, 6, 1),
    "g2d3": (2, 3, 4),
    "g3d3": (3, 3, 4),
}

# Cell name -> (genus, cap of the nabla file, letters in the conjugating
# word, fewest and most terms in the file, whether curves are short
# rather than simple).  Solving the pairing from the file costs about
# 0.1 ms per term at genus 2 and 3, so each cell keeps its files to one
# band of sizes and one kind of curve, and the seed cannot shift the
# mix.  A short curve makes a dense twist at genus 1 and genus 2, so
# only the genus-3 cell uses them and the pairing solve dominates every
# call.  The CLI pairing keeps cap - 2 and its twists cap - 4.
NABLA_CELLS = {
    "g1c9": (1, 9, 2, 50, 300, False),
    "g3c7": (3, 7, 2, 950, 1100, True),
    "g2c8": (2, 8, 3, 1500, 1700, False),
}
NABLA_COMMANDS = ("pairing", "twist", "apply")

# Cell name -> (genus, cap) of build_symplectic_expansion.
EXPANSION_BUILD_CELLS = {
    "build-g1c7": (1, 7),
    "build-g2c5": (2, 5),
    "build-g3c4": (3, 4),
}
# Cell name -> (genus, cap) of verify_section9, each with two extra words.
SECTION9_CELLS = {
    "s9-g1c4": (1, 4),
    "s9-g2c3": (2, 3),
}

VERIFY_DEGREES = (3, 4, 5)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"foxtwist-bench:{workload}:{seed}")


def reduced_word(rng, rank, length, cyclic=False, min_generators=1) -> tuple:
    """A freely reduced word of the given length over letters +-1..+-rank."""
    while True:
        letters = []
        while len(letters) < length:
            x = rng.randint(1, rank) * rng.choice((1, -1))
            if letters and x == -letters[-1]:
                continue
            letters.append(x)
        if cyclic and length > 1 and letters[0] == -letters[-1]:
            continue
        if len({abs(x) for x in letters}) < min_generators:
            continue
        return tuple(letters)


def small_fraction(rng) -> str:
    """A nonzero twist parameter with denominator at most 6."""
    return str(Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 6)))


def surface_text(letters) -> str:
    """Word text in the surface names a1, b1, a2, b2, ..."""
    tokens = []
    for x in letters:
        i = abs(x)
        name = f"a{(i + 1) // 2}" if i % 2 else f"b{i // 2}"
        tokens.append(name if x > 0 else f"{name}^-1")
    return " ".join(tokens)


def plain_text(letters) -> str:
    """Word text in the default names x1, x2, ..."""
    return " ".join(f"x{abs(x)}" if x > 0 else f"x{abs(x)}^-1" for x in letters)


def boundary_letters(genus: int) -> tuple:
    out = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        out.extend((a, b, -a, -b))
    return tuple(out)


def free_reduce(letters) -> tuple:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def embedded_word_terms(letters, cap) -> dict:
    """Integer coefficients of iota(word) truncated below degree cap.

    x -> 1 + X and x^-1 -> 1 - X + X^2 - ..., multiplied letter by letter.
    """
    terms = {(): 1}
    for x in letters:
        i = abs(x)
        factor = {(): 1, (i,): 1} if x > 0 else {(i,) * k: (-1) ** k for k in range(cap)}
        grown = {}
        for m, c in terms.items():
            for f, d in factor.items():
                if len(m) + len(f) >= cap:
                    continue
                key = m + f
                grown[key] = grown.get(key, 0) + c * d
        terms = {m: c for m, c in grown.items() if c}
    return terms


def nabla_payload(genus: int, cap: int, conjugator) -> dict:
    """Series file of iota(w nu w^-1) - 1 for the genus boundary word nu."""
    word = free_reduce(conjugator + boundary_letters(genus)
                       + tuple(-x for x in reversed(conjugator)))
    terms = embedded_word_terms(word, cap)
    terms.pop((), None)
    ordered = sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {"degree_cap": cap,
            "terms": [{"word": list(m), "coeff": str(c)} for m, c in ordered]}


def support(letters, rank) -> int:
    """How many generators have a nonzero exponent sum in the word."""
    sums = [0] * rank
    for x in letters:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sum(1 for s in sums if s)


def twist_inputs(seed, cells=None, instances=INSTANCES) -> dict:
    """Cell -> instances of (genus, degree, curve, k, apply word).

    Curves are cyclically reduced, 4-6 letters long, use at least two
    generators and have the cell's support.
    """
    rng = rng_for("twist-generic", seed)
    out = {}
    for cell, (genus, degree, wanted) in (cells or TWIST_CELLS).items():
        rank = 2 * genus
        items = []
        for _ in range(instances):
            while True:
                curve = reduced_word(rng, rank, rng.randint(4, 6), cyclic=True,
                                     min_generators=2)
                if support(curve, rank) == wanted:
                    break
            items.append({"genus": genus, "degree": degree,
                          "curve": surface_text(curve),
                          "k": small_fraction(rng),
                          "apply": surface_text(reduced_word(rng, rank, rng.randint(2, 4)))})
        out[cell] = items
    return out


def nabla_inputs(seed, cells=None, instances=INSTANCES) -> dict:
    """Cell -> instances of a nabla file plus a simple or short curve.

    Each file is iota(w nu w^-1) - 1 for a seeded word w of the cell's
    length, drawn until the file's size falls in the cell's band.  Simple
    curves are one generator, short ones two distinct generators.
    """
    rng = rng_for("nabla-cli", seed)
    out = {}
    for cell, (genus, cap, length, fewest, most, short) in (cells or NABLA_CELLS).items():
        rank = 2 * genus
        items = []
        for _ in range(instances):
            while True:
                conjugator = reduced_word(rng, rank, length)
                payload = nabla_payload(genus, cap, conjugator)
                if fewest <= len(payload["terms"]) <= most:
                    break
            if short:
                curve = tuple(rng.sample(range(1, rank + 1), 2))
            else:
                curve = (rng.randint(1, rank),)
            items.append({"genus": genus, "cap": cap, "nabla": payload,
                          "curve": plain_text(curve),
                          "k": small_fraction(rng),
                          "apply": plain_text(reduced_word(rng, rank, 2))})
        out[cell] = items
    return out


def expansion_inputs(seed) -> dict:
    """Cell -> instances; builds take no seeded input, section-9 checks
    take two extra words of two letters each (the check's cost grows
    with their length, so it is fixed)."""
    rng = rng_for("expansion", seed)
    out = {}
    for cell, (genus, cap) in EXPANSION_BUILD_CELLS.items():
        out[cell] = [{"kind": "build", "genus": genus, "cap": cap}]
    for cell, (genus, cap) in SECTION9_CELLS.items():
        rank = 2 * genus
        out[cell] = [{"kind": "section9", "genus": genus, "cap": cap,
                      "words": [list(reduced_word(rng, rank, 2)) for _ in range(2)]}
                     for _ in range(INSTANCES)]
    return out


def verify_inputs(seed) -> dict:
    """Cell -> the one degree it runs; the seed only orders the rounds."""
    return {f"d{d}": [{"degree": d}] for d in VERIFY_DEGREES}


def rounds(seed: int, workload: str, counts: dict):
    """Endless rounds of cell names; each round holds ``counts[cell]``
    ops of every cell, in a seeded order."""
    rng = rng_for(workload + "/order", seed)
    base = [cell for cell, n in counts.items() for _ in range(n)]
    while True:
        block = list(base)
        rng.shuffle(block)
        yield block
