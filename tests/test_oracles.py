"""The references the tests compare against, where they are hardest."""

from oracles import shifted_integral


def test_shifted_integral_splits_the_path_at_its_pole():
    # arg z = 0.0057: the pole log z lies 0.0087 off the path [0, oo), at
    # t = Re log z = 0.42; a 30-digit quadrature that did not split there
    # returned 0.0221271532+0.0067005088i, 1.7e-8 off
    z, n, a = (1.5179296702451195 + 0.008648785460432244j, 6,
               1.925577893870142 - 0.09858362274525723j)
    want = shifted_integral(z, n, a, dps=50)
    assert abs(want - (0.0221271361541 + 0.0067004989296j)) <= 1e-12
    assert abs(shifted_integral(z, n, a) - want) <= 1e-14 * abs(want)
