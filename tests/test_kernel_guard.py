"""The closure kernels walk the bits of a mask in an inline ``while`` loop.
``_close``, ``Space.star_prime`` and ``closed_masks`` run once per image,
per block and per member row, so a call to the ``iter_bits`` generator
there would put one generator step back on every point they visit."""

from support import calls, library_sources

#: The kernels, by file: the names of the functions that may not call
#: ``iter_bits``, nested functions included.
KERNELS = {"subalgebra.py": {"_close"}, "space.py": {"star_prime"}, "order.py": {"closed_masks"}}


def iter_bits_calls(source, kernels):
    """Lines of the ``iter_bits`` calls inside the functions named in
    ``kernels``, called by name or as an attribute."""
    return [
        line
        for line, _, functions in calls(source, "iter_bits")
        if not kernels.isdisjoint(functions)
    ]


def test_the_closure_kernels_call_no_iter_bits():
    sources = library_sources()
    found = {}
    for name, kernels in KERNELS.items():
        source = sources[name]
        # a renamed kernel would pass unseen
        assert all(f"def {kernel}(" in source for kernel in kernels), name
        if lines := iter_bits_calls(source, kernels):
            found[name] = lines
    assert found == {}


def test_the_guard_sees_iter_bits_calls():
    source = (
        "def star_prime(self, mask):\n"
        "    for i in iter_bits(mask):\n"
        "        pass\n"
        "\n"
        "def _close(space):\n"
        "    def refine(g):\n"
        "        return [i for i in order.iter_bits(g)]\n"
        "\n"
        "def zeta_image(mask):\n"
        "    return list(iter_bits(mask))\n"
    )
    assert iter_bits_calls(source, {"star_prime", "_close"}) == [2, 7]
