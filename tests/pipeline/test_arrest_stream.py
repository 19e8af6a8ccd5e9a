"""``generate_arrests`` replays numpy's Generator stream exactly.

:func:`repro.pipeline.nyc.generate_arrests` draws every arrest's raw
PCG64 words in one call and derives the values numpy's ``uniform``,
``random`` and ``integers`` would compute from them. The reference
below is the per-value Generator loop it replaced, kept verbatim; the
tests compare values *and* Python types.

These tests guard two things outside this repository: the draw order
of numpy's ``Generator`` (``next_double``, PCG64's buffered
``next_uint32`` and Lemire's bounded integers) and the platform's
float arithmetic (a C compiler that contracts ``lo + range * u`` into
one fused multiply-add rounds differently from Python). A failure here
means the draw order or the arithmetic no longer matches, not that the
test is flaky: every draw is seeded.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.nyc import (
    _OFFENSES,
    Arrest,
    _arrests_from_words,
    generate_arrests,
    generate_ntas,
)


def reference_arrests(n, ntas, year, seed=0, *, dirty_fraction=0.02):
    """The per-value Generator loop ``generate_arrests`` must equal."""
    rng = np.random.default_rng(seed + year)
    crime_factor = rng.uniform(0.3, 3.0, size=len(ntas))
    weights = np.array([nta.population for nta in ntas]) * crime_factor
    weights = weights / weights.sum()
    choices = rng.choice(len(ntas), size=n, p=weights)
    arrests: list[Arrest] = []
    for i, nta_idx in enumerate(choices):
        box = ntas[nta_idx].polygon.bbox
        x = rng.uniform(box.min_x, box.max_x)
        y = rng.uniform(box.min_y, box.max_y)
        dirty = rng.random() < dirty_fraction
        if dirty:
            x, y = -999.0, -999.0
        arrests.append(
            Arrest(
                x=x,
                y=y,
                year=year,
                offense=_OFFENSES[int(rng.integers(len(_OFFENSES)))],
                valid=not dirty,
            )
        )
    return arrests


def typed(arrests):
    """Each field with its Python type, so ``1.0 == np.float64(1.0)`` fails."""
    return [tuple((v, type(v)) for v in dataclasses.astuple(a)) for a in arrests]


def word_stream(word, position, seed=0):
    """A PCG64 whose ``position``-th raw word (from 0) is ``word``.

    A state below 2**64 has a zero high half and a zero rotation, so
    PCG64's XSL-RR output of that state is the state itself; stepping
    the generator back ``position + 1`` times puts it ``position``
    words ahead of that output.
    """
    bit_generator = np.random.PCG64(seed)
    state = bit_generator.state
    state["state"]["state"] = word
    bit_generator.state = state
    bit_generator.advance(2**128 - 1 - position)
    return bit_generator


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 2000),
    rows=st.integers(1, 6),
    cols=st.integers(1, 8),
    year=st.integers(2000, 2030),
    dirty_fraction=st.one_of(
        st.sampled_from([0.0, 0.02, 0.5]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
)
def test_matches_the_per_value_generator_loop(seed, n, rows, cols, year, dirty_fraction):
    ntas = generate_ntas(rows, cols, seed=seed)
    got = generate_arrests(n, ntas, year, seed, dirty_fraction=dirty_fraction)
    want = reference_arrests(n, ntas, year, seed, dirty_fraction=dirty_fraction)
    assert typed(got) == typed(want)


class TestOffenseDraw:
    def test_low_half_rejected_high_half_gives_five(self):
        words = iter([0, 0, 0, 0xFFFFFFFF_00000000])
        [arrest] = _arrests_from_words([0], [(0.0, 1.0, 0.0, 1.0)], 2020, 0.0, words)
        assert arrest.offense == _OFFENSES[5]
        assert next(words, None) is None  # the rejection read no further word

    def test_numpy_draws_five_from_that_word(self):
        rng = np.random.Generator(word_stream(0xFFFFFFFF_00000000, 0))
        assert int(rng.integers(len(_OFFENSES))) == 5

    def test_draw_after_a_rejection_splits_a_fresh_word(self):
        # Arrest 0 uses both halves of its word (one rejected), so
        # arrest 1 splits word 7 and its high half stays unread.
        words = [0, 0, 0, 0xFFFFFFFF_00000000, 0, 0, 0, 0x00000001_FFFFFFFF]
        arrests = _arrests_from_words([0, 0], [(0.0, 1.0, 0.0, 1.0)], 2020, 0.0, words)
        assert [a.offense for a in arrests] == [_OFFENSES[5], _OFFENSES[5]]

    @pytest.mark.parametrize(
        "word, rejected",
        [
            (0xFFFFFFFF_00000000, [0]),
            (0x00000000_FFFFFFFF, [1]),
            (0xAAAAAAAB_80000000, [0, 1]),
        ],
        ids=["fresh-low-half", "buffered-high-half", "both-halves"],
    )
    def test_rejection_in_the_real_stream_matches_numpy(self, monkeypatch, word, rejected):
        """The word after arrest 0's three doubles has a rejected low
        half, high half or both. A rejection forces a read past the
        precomputed block (``n`` is even), through ``random_raw()``."""
        ntas = generate_ntas(2, 3, seed=4)
        n = 4
        # crime factors, then the choices, then three words per arrest
        position = len(ntas) + n + 3
        monkeypatch.setattr(
            np.random, "default_rng",
            lambda seed: np.random.Generator(word_stream(word, position, seed)),
        )
        got = generate_arrests(n, ntas, 2020, 9, dirty_fraction=0.3)
        want = reference_arrests(n, ntas, 2020, 9, dirty_fraction=0.3)
        assert typed(got) == typed(want)
        halves = [word & 0xFFFFFFFF, word >> 32]
        assert [i for i, h in enumerate(halves) if h * 6 & 0xFFFFFFFF < 4] == rejected
