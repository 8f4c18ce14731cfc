"""The limits past which work is refused, and the error that reports them.
Each path reads its limit once per call: to raise one, assign the attribute
before the call, e.g. ``reeselim.budget.BASIS_ELEMENTS = 50_000``."""

BASIS_ELEMENTS = 10_000   # elements of one Groebner basis
SCAN_BRANCHES = 10**6     # branches of one point scan
CHARPOLY_DEGREE = 12      # degree c of a characteristic polynomial
# term products of one char poly on raw term maps, sum |a|*|b|: at about 3
# million a second (CPython 3.11, one x86-64 core), 2^19 is under 0.2 s;
# the benchmark pools take at most 225 a matrix
TERM_PRODUCTS = 1 << 19


class ResourceCapError(RuntimeError):
    """The limit named cap refused work (CLI exit 3): used is what the work
    reached, limit its value, and progress what was done before."""

    def __init__(self, cap, used, limit, progress):
        super().__init__("%s cap exceeded: %d > %d (%s)"
                         % (cap, used, limit, progress))
        self.cap, self.used, self.limit = cap, used, limit
