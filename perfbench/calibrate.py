"""Fixed pure-Python reference work, run as its own child between samples.

It imports nothing from the checkout, so no change to the program moves
its time; what does move it is the host: on a shared machine the same
interpreter work runs up to twice as slow in some minutes as in others.
run.py scales each sample by CALIBRATION_NOMINAL_S over the mean time of
the calibration runs just before and after it, so that a slow minute
slows the reference and the jobs alike and cancels out.  The loop mixes
what the program spends its time on: small objects with arithmetic
dunders, tuples, dict lookups and modular integer arithmetic.
"""

P = 10007
ROUNDS = 300_000


class Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % P

    def __mul__(self, other):
        return Elem(self.v * other.v)

    def __add__(self, other):
        return Elem(self.v + other.v)


def work() -> int:
    seen = {}
    acc = Elem(1)
    step = Elem(7919)
    for i in range(ROUNDS):
        acc = acc * step + Elem(i)
        key = (acc.v % 101, i % 97)
        seen[key] = seen.get(key, 0) + 1
    return len(seen) + acc.v


if __name__ == "__main__":
    work()
