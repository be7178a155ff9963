"""The benchmark's workloads: real eulerinv CLI commands and what each must enumerate.

Each command carries the objects it enumerates (involutions, group
elements, tableaux, bitableaux) per enumerator, computed here from closed
forms and never from the package, so that the traced run can check its
counts and ``objects_per_s`` has a numerator the program cannot influence.
Coefficient-printing commands (``poly``, ``gamma``) carry the SHA-256 of the
coefficient list the program printed at the commit the benchmark was
defined on.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import comb, factorial

SIGNED_INVOLUTIONS = "permutations.enumerate_signed_involutions"
INVOLUTIONS = "permutations.enumerate_involutions"
GROUP = "permutations.enumerate_group"
ALL_SYB = "tableaux.enumerate_all_syb"
ALL_SYT = "tableaux.enumerate_all_syt"
SYB = "tableaux.enumerate_syb"
SYT = "tableaux.enumerate_syt"

#: The counterexample command's convolution route enumerates B_n involutions up to this n.
COUNTEREXAMPLE_CONVOLUTION_N_MAX = 8


def involutions(n: int) -> int:
    """T(n): involutions of S_n, counted by their number k of 2-cycles."""
    return sum(factorial(n) // (factorial(k) * factorial(n - 2 * k) * 2**k) for k in range(n // 2 + 1))


def signed_involutions(n: int) -> int:
    """b(n) = sum_k C(n,k) T(k) T(n-k): involutions of B_n, and standard bitableaux of size n."""
    return sum(comb(n, k) * involutions(k) * involutions(n - k) for k in range(n + 1))


def group_order(n: int, signed: bool) -> int:
    """n! for S_n, 2^n n! for B_n."""
    return factorial(n) * (2**n if signed else 1)


def partitions(n: int) -> int:
    """p(n), the number of partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``objects`` maps each enumerator the command calls
    directly (not from inside another enumerator) to the objects it yields."""

    label: str
    argv: tuple[str, ...]
    objects: dict[str, int] = field(default_factory=dict)
    pin: str | None = None

    @property
    def total_objects(self) -> int:
        return sum(self.objects.values())


def _verify(target: str, objects: dict[str, int], **ranges: int) -> Command:
    argv = ["verify", target]
    for name, value in ranges.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    return Command(target, tuple(argv), {k: v for k, v in objects.items() if v})


def recurrence(n_max: int) -> Command:
    return _verify(
        "recurrence",
        {SIGNED_INVOLUTIONS: sum(signed_involutions(n) for n in range(1, n_max + 1))},
        n_max=n_max,
    )


def conjecture_des(n_max: int) -> Command:
    # one walk of each B_n per statistic
    return _verify(
        "conjecture-des",
        {SIGNED_INVOLUTIONS: 2 * sum(signed_involutions(n) for n in range(n_max + 1))},
        n_max=n_max,
    )


def genfun_a(n_max: int, m_max: int) -> Command:
    return _verify(
        "genfun-a",
        {INVOLUTIONS: sum(involutions(n) for n in range(n_max + 1))},
        n_max=n_max,
        m_max=m_max,
    )


def genfun_b(n_max: int, k_max: int) -> Command:
    return _verify(
        "genfun-b",
        {SIGNED_INVOLUTIONS: sum(signed_involutions(n) for n in range(n_max + 1))},
        n_max=n_max,
        k_max=k_max,
    )


def proof_identity(n_max: int) -> Command:
    return _verify("proof-identity", {}, n_max=n_max)


def guo_zeng_lemma(trials: int, seed: int) -> Command:
    return _verify("guo-zeng-lemma", {}, trials=trials, seed=seed)


def sdes_bijection(n_max: int) -> Command:
    signed = sum(signed_involutions(n) for n in range(n_max + 1))
    unsigned = sum(involutions(n) for n in range(n_max + 1))
    return _verify(
        "sdes-bijection",
        {SIGNED_INVOLUTIONS: signed, ALL_SYB: signed, INVOLUTIONS: unsigned, ALL_SYT: unsigned},
        n_max=n_max,
    )


def transpose(n_max: int) -> Command:
    return _verify(
        "transpose",
        {
            ALL_SYB: sum(signed_involutions(n) for n in range(n_max + 1)),
            ALL_SYT: sum(involutions(n) for n in range(n_max + 1)),
        },
        n_max=n_max,
    )


def signed_schur(n_max: int, m_max: int) -> Command:
    # Per bipartition (plus, minus) of n: the bitableaux of that shape, then
    # the tableaux of plus for m = 1..m_max and of minus for m - 1 = 1..m_max-1.
    # Summed over bipartitions, the tableaux of plus number sum_k T(k) p(n-k).
    syt = 0
    for n in range(n_max + 1):
        plus = sum(involutions(k) * partitions(n - k) for k in range(n + 1))
        minus = sum(partitions(k) * involutions(n - k) for k in range(n + 1))
        syt += m_max * plus + max(m_max - 1, 0) * minus
    return _verify(
        "signed-schur",
        {SYB: sum(signed_involutions(n) for n in range(n_max + 1)), SYT: syt},
        n_max=n_max,
        m_max=m_max,
    )


def cauchy(n_max: int, m_max: int) -> Command:
    # every Schur specialization with m >= 1 walks the tableaux of its shape
    return _verify(
        "cauchy",
        {SYT: m_max * sum(involutions(n) for n in range(n_max + 1))},
        n_max=n_max,
        m_max=m_max,
    )


def lemma31(n_max: int, m_max: int) -> Command:
    return _verify(
        "lemma31",
        {GROUP: m_max * sum(group_order(n, True) for n in range(n_max + 1))},
        n_max=n_max,
        m_max=m_max,
    )


def counterexample() -> Command:
    return Command(
        "counterexample-r89",
        ("counterexample", "r89"),
        {
            SIGNED_INVOLUTIONS: sum(
                signed_involutions(n) for n in range(COUNTEREXAMPLE_CONVOLUTION_N_MAX + 1)
            )
        },
    )


_POLY_OBJECTS = {
    "invA": (INVOLUTIONS, involutions),
    "invB": (SIGNED_INVOLUTIONS, signed_involutions),
    "fullA": (GROUP, lambda n: group_order(n, False)),
    "fullB": (GROUP, lambda n: group_order(n, True)),
}


def poly(kind: str, n: int, pin: str) -> Command:
    enumerator, count = _POLY_OBJECTS[kind]
    return Command(f"poly-{kind}-{n}", ("poly", "--kind", kind, "--n", str(n)), {enumerator: count(n)}, pin)


def gamma(kind: str, n: int, pin: str) -> Command:
    # invB runs on the recurrence; invA enumerates the involutions of S_n
    objects = {INVOLUTIONS: involutions(n)} if kind == "invA" else {}
    return Command(f"gamma-{kind}-{n}", ("gamma", "--kind", kind, "--n", str(n)), objects, pin)


def coefficient_problem(argv: tuple[str, ...], coefficients: list[int]) -> str | None:
    """Cross-check a printed coefficient list against a closed form.

    A distribution's coefficients sum to the size of the class it counts; a
    gamma vector of a polynomial symmetric about d/2 satisfies
    sum_i gamma_i 2^(d-2i) = p(1).
    """
    options = dict(zip(argv[1::2], argv[2::2]))
    kind, n = options["--kind"], int(options["--n"])
    if argv[0] == "poly":
        expected = _POLY_OBJECTS[kind][1](n)
        got = sum(coefficients)
    else:
        doubled_center, expected = (n, signed_involutions(n)) if kind == "invB" else (n - 1, involutions(n))
        got = sum(g * 2 ** (doubled_center - 2 * i) for i, g in enumerate(coefficients))
    if got != expected:
        return f"coefficients give {got}, the closed form gives {expected}"
    return None


NAMES = ("enumerate", "closed-form", "bijection")


def build(name: str, seed: int) -> tuple[Command, ...]:
    """The commands of the named workload. The seed reaches the program only
    as the seed of the randomized lemma check."""
    if name == "enumerate":
        # brute-force involution and group walks plus descent histograms
        return (
            recurrence(9),
            conjecture_des(9),
            # 1,722,10543,23548,10543,722,1
            poly("fullB", 6, "24116c8b8814db7a5be2e8726e58dd5da0b6f4bfeda4f4c9e6aef6ec7fd57b81"),
            # 1,36,659,5434,21529,42417,42417,21529,5434,659,36,1
            poly("invA", 12, "957f6ca060f2ca517fa7f87b43a49a4e045ff8fc93152f164911d17cdf695dce"),
            genfun_a(11, 6),
        )
    if name == "closed-form":
        # recurrence rows, r(n, k) and gamma extraction, almost no enumeration
        return (
            gamma("invB", 300, "49372ec9b01c44a138e59815ad67e2aa4e5ba6f73b7b1f5b710cf9c50dbeb1d3"),
            proof_identity(150),
            counterexample(),
            genfun_b(5, 150),
            guo_zeng_lemma(50_000, seed),
        )
    if name == "bijection":
        # tableau walks, the chain-count DP, and involution windows kept whole
        return (
            sdes_bijection(8),
            transpose(8),
            signed_schur(6, 5),
            cauchy(10, 6),
            lemma31(5, 6),
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
