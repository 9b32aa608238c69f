"""``foxtwist twist --nabla`` prints the same bytes as the twist of the full
pairing.

The CLI solves a nabla file at cap N only to the pairing at N - 4, the cap
its twist reads (degree rule in ``fox_pairings``).  The reference solves
the whole file, pairing at N - 2, and calls the public ``twist``; its output
is formatted here as the CLI formats a twist and the image of a word.  The
files are iota(w nu w^-1) - 1 for seeded words w and the boundary word nu.

Run as a script, it checks cells the tier-1 tests leave out: genus 1 at
N = 12, genus 2 at N = 9 and genus 3 at N = 8.
"""

import contextlib
import io
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from foxtwist import cli, formats
from foxtwist.derived_twists import twist
from foxtwist.fox_pairings import NablaElement, pairing_of_nabla
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.surfaces import SurfaceSpec
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord, format_word


def seeded_word(rng, rank, length):
    """A freely reduced word of the given length."""
    letters = []
    while len(letters) < length:
        x = rng.choice((1, -1)) * rng.randint(1, rank)
        if not letters or x != -letters[-1]:
            letters.append(x)
    return GroupWord(rank, tuple(letters))


def conjugated_boundary_nabla(genus, cap, rng):
    """iota(w nu w^-1) - 1 at cap for a seeded word w of two or three letters."""
    spec = SurfaceSpec(genus, cap)
    nu = spec.boundary_word().conjugated_by(seeded_word(rng, spec.rank, rng.randint(2, 3)))
    return embed(GroupAlgebraElement.from_word(nu), cap) - 1


def cli_stdout(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buffer.getvalue()


def reference_stdout(automorphism, fmt, target=None):
    """The CLI's output for a twist (target None) or the image of target."""
    if target is not None:
        image = automorphism.apply_word(target)
        if fmt == "json":
            return formats.dumps({"word": list(target.letters), "degree_cap": image.cap,
                                  "image": formats.series_to_dict(image)})
        return f"iota({format_word(target)}) -> {cli._render_series(image)}\n"
    if fmt == "json":
        return formats.dumps(formats.twist_to_dict(automorphism))
    lines = [f"rank: {automorphism.rank}", f"degree cap: {automorphism.cap}"]
    lines += [f"x{i + 1} -> {cli._render_series(image)}"
              for i, image in enumerate(automorphism.images)]
    return "".join(line + "\n" for line in lines)


def check_cell(genus, cap, directory, files=2):
    """Twist and --apply stdout, text and json, on seeded files at (genus,
    cap) against the twist of the fully solved pairing."""
    rng = random.Random(9000 + 10 * genus + cap)
    rank = 2 * genus
    for i in range(files):
        series = conjugated_boundary_nabla(genus, cap, rng)
        path = Path(directory) / f"nabla-g{genus}c{cap}-{i}.json"
        formats.write_json(path, formats.series_to_dict(series))
        full = pairing_of_nabla(NablaElement(series))
        assert full.cap == cap - 2
        curve = seeded_word(rng, rank, rng.randint(1, 3))
        target = seeded_word(rng, rank, 2)
        k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        want = twist(full, k, curve)
        assert want.cap == cap - 4
        argv = ["twist", "--nabla", str(path), "--curve", format_word(curve), f"--k={k}"]
        for fmt in ("text", "json"):
            assert cli_stdout(*argv, "--format", fmt) == reference_stdout(want, fmt)
            assert (cli_stdout(*argv, "--apply", format_word(target), "--format", fmt)
                    == reference_stdout(want, fmt, target))


@pytest.mark.parametrize("genus, cap", [(1, 8), (2, 7), (3, 6)])
def test_twist_from_a_nabla_file_matches_the_full_solve(genus, cap, tmp_path):
    check_cell(genus, cap, tmp_path)


# -- the script: cells tier-1 leaves out ---------------------------------------------


LARGER_CELLS = [(1, 12), (2, 9), (3, 8)]


def main():
    with tempfile.TemporaryDirectory() as directory:
        for genus, cap in LARGER_CELLS:
            start = time.perf_counter()
            check_cell(genus, cap, directory)
            print("genus %d nabla cap %d: twist and --apply bytes match the full solve; %.2f s"
                  % (genus, cap, time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
