import numpy as np
from hypothesis import given, settings, strategies as st

from ffl.rng import _key, _keys, stream_rng, uniforms


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 63), stream=st.lists(st.integers(0, 2 ** 32), max_size=3),
       ids=st.lists(st.integers(0, 2 ** 40), max_size=6),
       count=st.one_of(st.integers(1, 70), st.sampled_from([1, 2, 3, 5, 6, 7, 9, 63, 69])))
def test_uniforms_match_numpy_philox(seed, stream, ids, count):
    rows = uniforms(seed, stream, ids, count)
    assert rows.shape == (len(ids), count)
    for row, i in zip(rows, ids):
        expected = stream_rng(seed, *stream, i).random(count)
        assert row.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 63), stream=st.lists(st.integers(0, 2 ** 32), max_size=2),
       ids=st.lists(st.one_of(st.integers(0, 2 ** 40),
                              st.lists(st.integers(0, 2 ** 40), max_size=3).map(tuple)),
                    max_size=6),
       count=st.integers(1, 9))
def test_uniforms_take_tuple_ids(seed, stream, ids, count):
    # a tuple id is the rest of its address, of any length; an integer is one place
    rows = uniforms(seed, stream, ids, count)
    assert rows.shape == (len(ids), count)
    for row, i in zip(rows, ids):
        rest = i if isinstance(i, tuple) else (i,)
        assert row.tobytes() == stream_rng(seed, *stream, *rest).random(count).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63), stream=st.lists(st.integers(-2 ** 40, 2 ** 64),
                                                            max_size=2),
       ids=st.lists(st.one_of(st.integers(-2 ** 40, 2 ** 64),
                              st.integers(0, 2 ** 62).map(np.int64),
                              st.lists(st.integers(-2 ** 40, 2 ** 64), max_size=3).map(tuple)),
                    max_size=6))
def test_keys_hash_the_common_prefix_once(seed, stream, ids):
    # streams of length 0, 1 and 2, so heads of one to three places, with
    # int ids and tuple ids of length 0 to 3: the keys are _key's
    head = (seed, *stream)
    want = b"".join(_key(head + (tuple(map(int, i)) if isinstance(i, tuple) else (int(i),)))
                    for i in ids)
    assert _keys(head, ids) == want
